(* Clock and order statistics for the benchmark of record. *)

(* Monotonic nanoseconds, unboxed and allocation-free, so the traced
   replay can afford one read per runtime call. *)
let[@inline] now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let secs ns = float_of_int ns *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the exclusive method, the default of
   Python's [statistics.quantiles(xs, n=4)], so spreads printed here
   match the ones an external checker computes from the same values.
   One sample is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples"
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Nearest-rank percentile [p] (whole percent). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else a.(max 0 ((((p * n) + 99) / 100) - 1))

(* The highest whole percentile that still has at least ten samples
   above it, with its value; [None] below eleven samples, where no
   percentile qualifies. *)
let tail xs =
  let n = List.length xs in
  if n < 11 then None
  else
    let p = 100 * (n - 10) / n in
    Some (p, percentile xs p)

(* One reported metric: a median with its spread and sample count;
   counts and single measurements carry n = 1 and zero spread. *)
type summary = { value : float; n : int; q1 : float; q3 : float; tail : (int * float) option }

let summarize xs =
  let q1, q3 = quartiles xs in
  { value = median xs; n = List.length xs; q1; q3; tail = tail xs }

let single v = { value = v; n = 1; q1 = v; q3 = v; tail = None }
