(** The generic half of the generate-then-merge epoch protocol shared
    by {!Mutator} and the [Kg_serve] request mutator: the
    schedule-PRNG stream merge and the worker-domain team. Op-type
    agnostic; the determinism argument (pure per-domain generation,
    coordinator-only apply) stays with the callers. *)

val merge_schedule : Kg_util.Rng.t -> 'a Kg_util.Vec.t array -> (int * 'a) Kg_util.Vec.t
(** Interleave per-domain op streams into one schedule, repeatedly
    drawing a live domain and a chunk length (1–8) from the schedule
    PRNG. Preserves each domain's own order, so a same-epoch pending
    reference always resolves to an already-applied allocation of the
    same domain. A pure function of the PRNG state and the streams. *)

type team

val spawn : n:int -> oracle:bool -> (int -> unit) -> team
(** [spawn ~n ~oracle gen]: a team running [gen d] once per round for
    every domain [d]. With [oracle] false and [n > 1], domains
    [1 .. n-1] get real worker Domains parked on a condition variable;
    domain 0 always runs on the coordinator. With [oracle] true (or
    [n = 1]) no Domains are spawned and rounds run inline. *)

val round : team -> unit
(** Run one epoch's generation: workers run [gen d] concurrently while
    the coordinator runs [gen 0], returning once all are done — or, in
    oracle mode, run [gen 0 .. gen (n-1)] inline in domain order. If a
    generator raises, [round] still waits for every other generator,
    then re-raises the exception with its backtrace (the coordinator's
    own first, else the first a worker caught); the workers stay parked
    and {!finish} joins them. *)

val finish : team -> unit
(** Stop and join the workers. Idempotent. Callers must invoke this on
    both the normal and the exceptional exit path. *)
