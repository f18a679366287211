(** The request/response mutator: server-scale workloads on the same
    generate-then-merge epoch protocol as {!Kg_workload.Mutator}.

    Each mutator domain is one worker serving a deterministic seeded
    open-loop request stream: Poisson arrivals at the configured
    aggregate rate, a session table with TTL churn, a tiered
    in-memory cache (Zipf keys, TTL eviction realised as object death
    stamps, so eviction is mature-space churn), and per-request
    allocation bursts drawn from the {!Kg_workload.Lifetime}
    demographics with descriptor-paced write/read debts.

    Determinism is inherited from the epoch protocol: generation is a
    pure function of per-domain private state plus an epoch-start
    snapshot, the per-domain op buffers interleave under the schedule
    PRNG ({!Kg_workload.Epoch.draw_schedule}), and the coordinator
    applies ops sequentially ({!Kg_workload.Epoch.run}) — so a run is
    a pure function of
    [(seed, schedule_seed, domains, config)], with [~oracle] running
    the identical protocol inline for the differential harness.

    Latency model: the domain byte clock doubles as a single-server
    queue — a request's service demand is its allocated bytes, so
    queueing delay emerges as the arrival rate approaches the
    per-domain allocation speed. On top, the coordinator attributes
    modeled STW pauses (supplied by the driver via
    {!attach_pause_recorder}) to the requests in flight while they
    fired. *)

type config = {
  rate : float;  (** open-loop arrival rate, requests/sec across all domains *)
  service_mib_s : float;  (** per-domain allocation-clock speed, MiB/s *)
  req_alloc_mean : int;  (** mean request allocation burst, bytes *)
  sessions : int;  (** session-table slots per domain *)
  session_ttl_ms : float;
  session_churn : float;  (** P(request retires its session early) *)
  tier1_entries : int;  (** per-domain cache shard sizes *)
  tier1_ttl_ms : float;
  tier2_entries : int;
  tier2_ttl_ms : float;
  tier2_insert_p : float;  (** P(backend fill also lands in tier 2) *)
}

val default_config : config
(** 256 req/s, 64 MiB/s per-domain clock, 32 KiB mean bursts, 256
    sessions (2 s TTL), 512-entry tier 1 (250 ms) over 2048-entry
    tier 2 (2 s). *)

type t

val create :
  ?live_mb:int ->
  ?threads:int ->
  ?schedule_seed:int ->
  ?oracle:bool ->
  ?config:config ->
  Kg_workload.Descriptor.t ->
  rt:Kg_gc.Runtime.t ->
  seed:int ->
  t
(** Same contract as [Mutator.create]: [threads > 1] requires [rt]
    built with [~domains:threads]; [oracle] generates every stream
    inline with no [Domain.spawn]. The descriptor supplies the
    lifetime demographics and mutation pacing. *)

val config : t -> config
val descriptor : t -> Kg_workload.Descriptor.t
val runtime : t -> Kg_gc.Runtime.t
val thread_count : t -> int

val attach_pause_recorder :
  t -> pause_ms:(Kg_gc.Phase.t -> copied:int -> scanned:int -> float) -> unit
(** Chain a GC hook that feeds every collection's modeled pause into
    {!pauses} and the latency attribution. Call once, after the boot
    image and stats reset so startup collections are excluded; the
    driver passes [Time_model.pause_ms] with the run's domain count
    applied. Raises [Invalid_argument] on a second attach. *)

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
(** Per-collection modeled STW pauses, ms (empty until
    {!attach_pause_recorder}). *)

val request_count : t -> int
val tier1_hits : t -> int
val tier2_hits : t -> int
val backend_fills : t -> int
val sessions_churned : t -> int
