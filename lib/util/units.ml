let kib = 1024
let mib = 1024 * 1024
let gib = 1024 * 1024 * 1024
let bytes_of_mib n = n * mib
let mib_of_bytes b = float_of_int b /. float_of_int mib
let gib_of_bytes b = float_of_int b /. float_of_int gib

let pp_bytes_f fmt b =
  let abs = Float.abs b in
  if abs >= float_of_int gib then Format.fprintf fmt "%.2f GiB" (b /. float_of_int gib)
  else if abs >= float_of_int mib then Format.fprintf fmt "%.1f MiB" (b /. float_of_int mib)
  else if abs >= float_of_int kib then Format.fprintf fmt "%.1f KiB" (b /. float_of_int kib)
  else Format.fprintf fmt "%.0f B" b

let pp_bytes fmt b = pp_bytes_f fmt (float_of_int b)

let seconds_per_year = 2.0 ** 25.0
