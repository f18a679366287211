(** Byte / time unit constants and human-readable formatting. *)

val kib : int
val mib : int
val gib : int

val bytes_of_mib : int -> int

val mib_of_bytes : int -> float
val gib_of_bytes : int -> float

val pp_bytes : Format.formatter -> int -> unit
(** Render a byte count with a binary suffix, e.g. "4.0 MiB". *)

val pp_bytes_f : Format.formatter -> float -> unit
(** Like {!pp_bytes} for fractional byte counts (rates, averages). *)

val seconds_per_year : float
(** The paper's lifetime formula uses 2^25 s ~ one year; we keep the
    same constant so lifetime numbers are directly comparable. *)
