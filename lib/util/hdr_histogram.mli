(** Log-bucketed (HDR-style) histogram for pause and latency samples.

    Values land in log2 major buckets subdivided into [sub] linear
    sub-buckets, so a bucket's width is at most [1/sub] of its lower
    bound. [quantile] reports the upper bound of the bucket holding
    the nearest-rank sample, which pins the documented error bound:

      exact <= quantile t q <= exact * (1 + 1/sub)

    (modulo one float rounding each side) for samples above
    [unit_value]; samples at or below [unit_value] share bucket 0 and
    report [unit_value]. Values beyond the top octave clamp into the
    last bucket ([max_value] stays exact regardless).

    The state is an int count array plus an exact float maximum, so
    [merge] is element-wise integer addition plus [Float.max] —
    associative and commutative by construction. That is what makes
    merging per-domain histograms deterministic: any merge order
    yields an [equal] result. *)

type t

val create : ?unit_value:float -> ?sub:int -> ?octaves:int -> unit -> t
(** [create ()] uses [unit_value = 1e-3] (1 µs when samples are in
    ms), [sub = 32] sub-buckets per octave (<= 3.125 % relative bucket
    error) and [octaves = 40]. Raises [Invalid_argument] on
    non-positive parameters. *)

val add : t -> float -> unit
val addn : t -> float -> int -> unit

val count : t -> int
val max_value : t -> float
(** Exact maximum of the added samples; [0.0] when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]: upper bound of the bucket holding
    the nearest-rank sample (rank [max 1 (ceil (q * n))]); [0.0] when
    empty. Raises [Invalid_argument] outside [0,1]. *)

val p50 : t -> float
val p90 : t -> float
val p99 : t -> float
val p999 : t -> float

val relative_error : t -> float
(** The documented bucket error, [1 / sub]. *)

val merge : t -> t -> t
(** Element-wise sum; raises [Invalid_argument] when the two
    histograms were created with different parameters. *)

val equal : t -> t -> bool

val summary : t -> string
(** ["p50=... p90=... p99=... p99.9=... max=... (n=...)"]. *)

(** {2 Serialization support} *)

val unit_value : t -> float
val sub : t -> int
val octaves : t -> int

val nonzero : t -> (int * int) list
(** Non-empty buckets as [(bin, count)] pairs in ascending bin order. *)

val restore :
  unit_value:float -> sub:int -> octaves:int -> max_value:float ->
  (int * int) list -> t
(** Rebuild a histogram from [create] parameters, the exact maximum
    and the [nonzero] bucket list. Raises [Invalid_argument] on
    out-of-range bins or negative counts. *)
