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
  ?followers:Kg_gc.Runtime.t list ->
  Descriptor.t ->
  rt:Kg_gc.Runtime.t ->
  seed:int ->
  t
(** [live_mb] overrides the benchmark's live-heap target for scaled
    runs; lifetime calibration and the startup base follow it.

    [threads] (default 1) is the number of mutator domains. Each gets
    its own PRNG stream, recent-allocation window and read/write
    debts. One generator serves every thread count: it draws each
    object and then the writes and reads the object owes, picking
    their targets through the same picks. With one thread each op
    runs at once. With more, [rt] must have been created with
    [~domains:threads], and {!run} executes the epoch protocol: each
    simulated domain {e generates} a symbolic op stream as a pure
    function of its private state plus an epoch-start snapshot, and
    the streams are {e applied} in a deterministic merge drawn from
    [schedule_seed] (default 0). Everything runs on the calling
    domain; the result is a bit-reproducible function of
    [(seed, schedule_seed, threads)].

    [followers] (one thread only; default none) are fresh runtimes
    that run the same op stream as [rt], the leader. Each op goes to
    every runtime of the group as it is generated, leader first. The
    mutator reads its runtime only through the allocation clock,
    [nursery_free] and the object store, and the clocks and stores
    agree while the ops do; so before each allocation the followers
    whose [nursery_free] differs from the leader's leave together
    ({!splits}) and run to the end of {!run} on a copy of the
    generator, the first of them leading, and split again if they
    diverge in turn. No follower is ever rerun: each ends in exactly
    the state a mutator of its own would have left it in. *)

val splits : t -> int option list
(** Per follower, in [followers] order: the run allocation (counted
    from 0, the first allocation after the boot image) at which it
    first left the leader, or [None] if it never did. *)

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
    run epochs of the protocol described at {!create}, in which each
    domain generates a quantum of objects and their ops before the
    merge applies them. *)

val draw_small_size : Descriptor.t -> Kg_util.Rng.t -> int
(** [draw_small_size desc rng]: a small-object size in bytes, geometric
    in words around [desc]'s mean small size and clamped to 16 B and
    the small-object maximum (8 KB); it takes one uniform from [rng].
    The batch mutator's small objects and the server's response
    scratch both come from it. *)

val scaled_alloc_bytes : Descriptor.t -> scale:int -> cap_mb:int -> int
(** The run length used by the experiment drivers: the benchmark's
    allocation volume divided by [scale], clamped to at least 48 MB
    (or the full volume when smaller) and at most [cap_mb]. *)
