(* Log-bucketed (HDR-style) histogram: log2 major buckets subdivided
   into [sub] linear sub-buckets, so every recorded value lands in a
   bucket whose width is at most [1/sub] of its lower bound. Quantiles
   report the upper bound of the bucket holding the nearest-rank
   sample, giving the documented guarantee

     exact <= quantile t q <= exact * (1 + 1/sub)

   (modulo one float rounding on each side) for samples above
   [unit_value]; samples at or below [unit_value] share bucket 0 and
   report [unit_value]. State is an int count array plus an exact
   float maximum, so [merge] is element-wise integer addition and
   [Float.max] — associative and commutative by construction, which is
   what makes per-domain histogram merging deterministic. *)

type t = {
  unit_value : float;
  sub : int;
  octaves : int;
  counts : int array; (* 1 + octaves * sub bins; last bin is a clamp *)
  mutable n : int;
  mutable max_v : float; (* exact, not bucketed; 0 when empty *)
}

let create ?(unit_value = 1e-3) ?(sub = 32) ?(octaves = 40) () =
  if unit_value <= 0.0 then invalid_arg "Hdr_histogram.create: unit_value <= 0";
  if sub <= 0 then invalid_arg "Hdr_histogram.create: sub <= 0";
  if octaves <= 0 then invalid_arg "Hdr_histogram.create: octaves <= 0";
  {
    unit_value;
    sub;
    octaves;
    counts = Array.make (1 + (octaves * sub)) 0;
    n = 0;
    max_v = 0.0;
  }

let nbins t = Array.length t.counts

let index t v =
  if v <= t.unit_value then 0
  else begin
    let r = v /. t.unit_value in
    (* frexp is exact: r = m * 2^ex with m in [0.5, 1), so the octave
       floor(log2 r) = ex - 1 without log rounding trouble *)
    let _, ex = Float.frexp r in
    let e = ex - 1 in
    let frac = Float.ldexp r (-e) -. 1.0 in (* in [0, 1) *)
    let k = min (t.sub - 1) (int_of_float (frac *. float_of_int t.sub)) in
    min (nbins t - 1) (1 + (e * t.sub) + k)
  end

(* Upper bound of bin [i] — the value quantiles report. *)
let bin_upper t i =
  if i = 0 then t.unit_value
  else
    let e = (i - 1) / t.sub and k = (i - 1) mod t.sub in
    Float.ldexp
      (t.unit_value *. (1.0 +. (float_of_int (k + 1) /. float_of_int t.sub)))
      e

let addn t v k =
  if k < 0 then invalid_arg "Hdr_histogram.addn: negative count";
  if k > 0 then begin
    let i = index t v in
    t.counts.(i) <- t.counts.(i) + k;
    t.n <- t.n + k;
    if t.n = k || v > t.max_v then t.max_v <- v
  end

let add t v = addn t v 1
let count t = t.n
let max_value t = t.max_v
let unit_value t = t.unit_value
let sub t = t.sub
let octaves t = t.octaves
let relative_error t = 1.0 /. float_of_int t.sub

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hdr_histogram.quantile: q outside [0,1]";
  if t.n = 0 then 0.0
  else begin
    (* nearest-rank: the smallest sample with cumulative count
       >= ceil(q * n), same rule the QCheck oracle applies to the
       exact sorted array *)
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int t.n))) in
    let cum = ref 0 and i = ref 0 in
    while !cum < rank && !i < nbins t do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    bin_upper t (!i - 1)
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99
let p999 t = quantile t 0.999

let same_geometry a b =
  a.unit_value = b.unit_value && a.sub = b.sub && a.octaves = b.octaves

let merge a b =
  if not (same_geometry a b) then invalid_arg "Hdr_histogram.merge: geometry mismatch";
  {
    a with
    counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
    n = a.n + b.n;
    max_v = Float.max a.max_v b.max_v;
  }

let equal a b =
  same_geometry a b && a.n = b.n && a.max_v = b.max_v && a.counts = b.counts

let nonzero t =
  let acc = ref [] in
  for i = nbins t - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  !acc

let restore ~unit_value ~sub ~octaves ~max_value bins =
  let t = create ~unit_value ~sub ~octaves () in
  List.iter
    (fun (i, c) ->
      if i < 0 || i >= nbins t then invalid_arg "Hdr_histogram.restore: bin out of range";
      if c < 0 then invalid_arg "Hdr_histogram.restore: negative count";
      t.counts.(i) <- t.counts.(i) + c;
      t.n <- t.n + c)
    bins;
  t.max_v <- max_value;
  t

let summary t =
  Printf.sprintf "p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f max=%.3f (n=%d)"
    (p50 t) (p90 t) (p99 t) (p999 t) t.max_v t.n
