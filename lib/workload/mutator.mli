(** The synthetic mutator: turns a {!Descriptor} into the allocation,
    write, and read stream the runtime executes.

    Each allocated object gets a size (geometric around the benchmark's
    mean, or a heavy-tailed large size), a lifetime class from
    {!Lifetime}, and a hotness class. Mutation writes follow the
    descriptor's nursery/mature split; mature writes pick their target
    through the hot/warm/cold pools so the top-2 % of mature objects
    absorb the paper's top-2 % write share (Figure 2). Reference writes
    pick targets young often enough to exercise both remembered sets. *)

type t

val create :
  ?live_mb:int ->
  ?threads:int ->
  ?schedule_seed:int ->
  Descriptor.t ->
  rt:Kg_gc.Runtime.t ->
  seed:int ->
  t
(** [live_mb] overrides the benchmark's live-heap target for scaled
    runs; lifetime calibration and the startup base follow it.

    [threads] (default 1) is the number of mutator domains. Each gets
    its own PRNG stream, recent-allocation window and read/write
    debts. With one thread the mutator runs the classic sequential
    loop. With more, [rt] must have been created with
    [~domains:threads], and {!run} executes the epoch protocol: each
    simulated domain {e generates} a symbolic op stream as a pure
    function of its private state plus an epoch-start snapshot, and
    the streams are {e applied} in a deterministic merge drawn from
    [schedule_seed] (default 0). Everything runs on the calling
    domain; the result is a bit-reproducible function of
    [(seed, schedule_seed, threads)]. *)

val descriptor : t -> Descriptor.t
val runtime : t -> Kg_gc.Runtime.t

val thread_count : t -> int

val boot_allocs_by_thread : t -> int array
(** How many boot-image objects {!allocate_startup} charged to each
    mutator thread; startup round-robins so no thread is privileged. *)

val allocate_startup : t -> unit
(** Allocate the immortal base: 40 % of the benchmark's live target,
    modeling boot images and static data. Run once before {!run}. *)

val run : t -> alloc_bytes:int -> unit -> unit
(** Allocate and mutate until [alloc_bytes] more bytes have been
    allocated: with one thread, allocate one object and perform the
    writes and reads it owes, until the target is reached; with more,
    run epochs of the protocol described at {!create}. *)

val scaled_alloc_bytes : Descriptor.t -> scale:int -> cap_mb:int -> int
(** The run length used by the experiment drivers: the benchmark's
    allocation volume divided by [scale], clamped to at least 48 MB
    (or the full volume when smaller) and at most [cap_mb]. *)
