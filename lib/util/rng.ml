(* Backed by the stdlib's LXM generator (Random.State): deterministic
   from a seed, splittable, and — unlike a hand-rolled xoshiro on boxed
   Int64s — allocation-free on the [int]/[float] fast paths, which the
   simulator hits several times per heap access. *)

type t = Random.State.t

let of_seed seed = Random.State.make [| seed |]
let split t = Random.State.split t
let copy t = Random.State.copy t
let bits64 t = Random.State.bits64 t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t bound

let float t bound = Random.State.float t bound
let bernoulli t p = Random.State.float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p not in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    int_of_float (floor (log (1.0 -. u) /. log (1.0 -. p)))

let pareto t ~alpha ~xmin =
  let u = float t 1.0 in
  xmin /. ((1.0 -. u) ** (1.0 /. alpha))

module Zipf = struct
  type rng = t

  (* The same floating-point operations, in the same order, as the
     closure form h x = x^(1-s)/(1-s), h_inv y = ((1-s) y)^(1/(1-s));
     only what does not depend on the draw is hoisted. [h_n] is
     h(n + 0.5) for [last_n], recomputed when a draw asks for another
     n. *)
  type t = {
    s : float;
    one_minus_s : float;
    inv_one_minus_s : float;
    h_x1 : float;  (* h(1.5) - 1 *)
    mutable last_n : int;
    mutable h_n : float;
  }

  let h ~s ~one_minus_s x = if s = 1.0 then log x else (x ** one_minus_s) /. one_minus_s

  let create ~s =
    if not (s >= 0.0) then invalid_arg "Rng.Zipf.create: s must be non-negative";
    let one_minus_s = 1.0 -. s in
    {
      s;
      one_minus_s;
      inv_one_minus_s = 1.0 /. one_minus_s;
      h_x1 = h ~s ~one_minus_s 1.5 -. 1.0;
      last_n = 0;
      h_n = 0.0;
    }

  let draw z (rng : rng) ~n =
    if n <= 0 then invalid_arg "Rng.Zipf.draw: n must be positive";
    if n = 1 then 0
    else if z.s = 0.0 then int rng n
    else begin
      let s = z.s and one_minus_s = z.one_minus_s in
      if n <> z.last_n then begin
        z.last_n <- n;
        z.h_n <- h ~s ~one_minus_s (float_of_int n +. 0.5)
      end;
      let h_x1 = z.h_x1 in
      let span = z.h_n -. h_x1 in
      let rank = ref (-1) in
      while !rank < 0 do
        let u = h_x1 +. (float rng 1.0 *. span) in
        let x = if s = 1.0 then exp u else (one_minus_s *. u) ** z.inv_one_minus_s in
        let k = Float.max 1.0 (Float.round x) in
        (* At s = 1.1 and 1.2, x >= h_inv (h_x1) = 0.557 and 0.562, so
           the first test always holds; the second is the general
           acceptance test against the true mass. *)
        if k -. x <= 0.5 || u >= h ~s ~one_minus_s (k +. 0.5) -. (k ** -.s) then
          rank := int_of_float k - 1
      done;
      !rank
    end
end
