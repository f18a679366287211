(** Byte / time unit constants. *)

val mib : int
val gib : int

val mib_of_bytes : int -> float
val gib_of_bytes : int -> float

val seconds_per_year : float
(** The paper's lifetime formula uses 2^25 s ~ one year; we keep the
    same constant so lifetime numbers are directly comparable. *)
