(* The closure-based Zipf draw this repo used before [Rng.Zipf], kept
   verbatim (save for taking the generator as a [Random.State.t]) as a
   differential oracle: the QCheck test in test_util drives it and
   [Rng.Zipf.draw] from identically seeded generators and demands the
   same ranks, draw for draw, and the same generator state after. It
   evaluates h and h_inv, three [**] in all, on every draw. *)

let zipf t ~n ~s =
  let float t bound = Random.State.float t bound in
  let int t bound = Random.State.int t bound in
  if n <= 0 then invalid_arg "Rng.zipf: n must be positive";
  if n = 1 then 0
  else if s = 0.0 then int t n
  else begin
    let nf = float_of_int n in
    let h x = if s = 1.0 then log x else (x ** (1.0 -. s)) /. (1.0 -. s) in
    let h_inv y = if s = 1.0 then exp y else ((1.0 -. s) *. y) ** (1.0 /. (1.0 -. s)) in
    let h_x1 = h 1.5 -. 1.0 in
    let h_n = h (nf +. 0.5) in
    let rec draw () =
      let u = h_x1 +. (float t 1.0 *. (h_n -. h_x1)) in
      let x = h_inv u in
      let k = Float.max 1.0 (Float.round x) in
      if k -. x <= 0.5 || u >= h (k +. 0.5) -. (k ** -.s) then int_of_float k - 1 else draw ()
    in
    draw ()
  end
