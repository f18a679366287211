(** The request/response mutator: server-scale workloads on the same
    generate-then-merge epoch protocol as {!Kg_workload.Mutator}.

    Each mutator domain is one worker serving a deterministic seeded
    open-loop request stream: Poisson arrivals at the given aggregate
    rate, a session table with TTL churn, a tiered
    in-memory cache (Zipf keys, TTL eviction realised as object death
    stamps, so eviction is mature-space churn), and per-request
    allocation bursts drawn from the {!Kg_workload.Lifetime}
    demographics with descriptor-paced write/read debts.

    Determinism is inherited from the epoch protocol: generation is a
    pure function of per-domain private state plus an epoch-start
    snapshot, the per-domain op buffers interleave under the schedule
    PRNG ({!Kg_workload.Epoch.draw_schedule}), and the ops apply
    sequentially ({!Kg_workload.Epoch.run}) — so a run is a pure
    function of [(seed, schedule_seed, domains, rate)].

    Latency model: the domain byte clock doubles as a single-server
    queue — a request's service demand is its allocated bytes, so
    queueing delay emerges as the arrival rate approaches the
    per-domain allocation speed. On top, the server attributes
    modeled STW pauses (supplied by the driver via {!add_pause}) to
    the requests in flight while they fired.

    The rest of the workload's shape is fixed: a 64 MiB/s per-domain
    clock, 32 KiB mean bursts, 256 sessions per domain (2 s TTL, 5 %
    early churn), and a 512-entry tier 1 (250 ms) over a 2048-entry
    tier 2 (2 s) that a quarter of backend fills also land in. *)

type t

val create :
  ?live_mb:int ->
  ?threads:int ->
  ?schedule_seed:int ->
  rate:float ->
  Kg_workload.Descriptor.t ->
  rt:Kg_gc.Runtime.t ->
  seed:int ->
  t
(** Same contract as [Mutator.create]: [threads > 1] requires [rt]
    built with [~domains:threads]. [rate] is the open-loop arrival
    rate in requests per second across all domains; it must be
    positive. The descriptor supplies the lifetime demographics and
    mutation pacing. *)

val add_pause : t -> float -> unit
(** Record one collection's modeled STW pause, in ms, into {!pauses}
    and the latency attribution. The driver calls it from its
    collection hook once the boot image is built and the stats reset,
    so startup collections are excluded. *)

val allocate_startup : t -> unit
(** Allocate the immortal base (40 % of the live target), round-robin
    across domains. Run once before {!run}. *)

val run : t -> alloc_bytes:int -> unit
(** Serve requests until [alloc_bytes] more bytes have been
    allocated, through the epoch protocol at any domain count. *)

(** {2 Instrumentation} *)

val latencies : t -> Kg_util.Hdr_histogram.t
(** Per-request end-to-end modeled latency, ms: queueing + service
    + attributed GC pauses. *)

val pauses : t -> Kg_util.Hdr_histogram.t
(** Per-collection modeled STW pauses, ms (as given to {!add_pause}). *)

val request_count : t -> int
val tier1_hits : t -> int
val tier2_hits : t -> int
val backend_fills : t -> int
val sessions_churned : t -> int
