(** Summary statistics used by the experiment runners. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val stddev : float array -> float
(** Population standard deviation; 0 on arrays shorter than 2. *)

(** Streaming accumulator: count, running mean (Welford's update) and
    maximum, without storing samples; used by long-running
    simulations. *)
module Acc : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val max : t -> float
end
