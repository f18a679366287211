let mib = 1024 * 1024
let gib = 1024 * 1024 * 1024
let mib_of_bytes b = float_of_int b /. float_of_int mib
let gib_of_bytes b = float_of_int b /. float_of_int gib

let seconds_per_year = 2.0 ** 25.0
