(** A cache-sim sink pipelined onto its own domain.

    The pipe wraps a {!Port.driver}. Its own driver's [run] copies each
    delivered batch into a small fixed ring of slots; one consumer
    domain runs the wrapped driver over the filled slots, strictly in
    order. The producer (the simulated mutator and collector) runs on
    while the consumer works through the cache hierarchy, so on a host
    with a spare core the two halves of a Simulate-mode run overlap.

    Outputs cannot change: there is a single FIFO consumer, and the
    cache kernel's results do not depend on where the record stream is
    split into batches. The wrapped driver's state must not be read
    while records are in flight; the pipe's [drv_stats] first waits for
    the consumer to catch up, and {!close} hands back a quiescent
    driver.

    A pipe holds one domain of {!Kg_util.Domain_budget} from creation
    until {!close}. *)

type t

val create : Port.driver -> t
(** Claim one domain from the budget (unconditionally) and start the
    consumer. *)

val attach : Port.t -> t option
(** If the port's sink is [Cache_sim d] and
    {!Kg_util.Domain_budget.try_claim} finds a spare core, start a pipe
    over [d] and make it the port's sink. Otherwise change nothing and
    return [None]. *)

val driver : t -> Port.driver
(** The producer end. [run] copies the batch and returns once it fits
    in the ring; [drv_stats] waits until every record delivered so far
    has been consumed, then reads the wrapped driver. An exception the
    wrapped driver raised on the consumer is re-raised here, with the
    consumer's backtrace. *)

val close : t -> unit
(** Hand over the partially filled slot, wait until the consumer has
    finished, join it and release its domain. Re-raises a consumer
    exception not already re-raised by a delivery. Idempotent: later
    calls do nothing. Delivering to a closed pipe raises
    [Invalid_argument]. *)

val slots : int
(** Ring slots. *)

val slot_records : int
(** Records per slot. *)
