(** Run one (benchmark, memory system, collector) combination and
    collect every metric the paper's figures read. *)

type mode =
  | Simulate  (** full cache + memory simulation (the paper's Sniper runs) *)
  | Count  (** architecture-independent barrier-level counting (the
               paper's real-hardware runs) *)

type spec = {
  system : Machine.system;
  collector : Kg_gc.Gc_config.collector;
  nursery_mb : int;
  wp : bool;  (** OS write-partitioning instead of GC-directed placement *)
  observer_mb : int option;  (** [None] = the paper's 2x nursery *)
  write_threshold : int;  (** counting extension; 1 = the paper's bit *)
  pcm_write_trigger_mb : int option;  (** write-triggered major extension *)
}

val kg_n : spec
val kg_n_12 : spec
val kg_w : spec
val kg_w_no_loo : spec
val kg_w_no_loo_mdo : spec
val kg_w_no_pm : spec

val kg_b : spec
(** KG-B ("balanced"): KG-W with a nursery-sized observer instead of
    the paper's 2x — shorter observer pauses on half the write
    evidence. Swept between KG-N and KG-W by the serve SLO figures. *)

val dram_only : spec
val pcm_only : spec
val wp : spec

val label : spec -> string

type serve_metrics = {
  requests : int;
  rate : float;  (** echoed from [run ~serve]; duration_s = requests / rate *)
  t1_hits : int;
  t2_hits : int;
  backend_fills : int;
  sessions_churned : int;
  pause_hist : Kg_util.Hdr_histogram.t;  (** per-collection STW pauses, ms *)
  latency_hist : Kg_util.Hdr_histogram.t;  (** per-request end-to-end latency, ms *)
}

type result = {
  bench : Kg_workload.Descriptor.t;
  spec : spec;
  stats : Kg_gc.Gc_stats.t;
  alloc_bytes : int;
  (* memory-level traffic (Simulate mode; zeros in Count mode) *)
  mem_pcm_write_bytes : float;
  mem_dram_write_bytes : float;
  mem_pcm_read_bytes : float;
  mem_dram_read_bytes : float;
  pcm_writes_by_phase : float array;  (** bytes, by {!Kg_gc.Phase.to_tag} *)
  wear_cov : float;  (** wear-leveling uniformity (0 = uniform) *)
  migration_pcm_bytes : float;  (** WP page copies into PCM *)
  wp_dram_mb : float;  (** peak WP DRAM partition usage *)
  (* time and energy *)
  time_parts : Time_model.parts;
  time_s : float;
  energy : Energy.t option;
  edp : float;  (** 0 in Count mode *)
  (* demographics, sampled at every collection *)
  dram_avg_mb : float;
  dram_max_mb : float;
  pcm_avg_mb : float;
  pcm_max_mb : float;
  mature_dram_avg_mb : float;
  meta_mb : float;
  trace : (float * float * float) list;
      (** (allocation clock, PCM MB, DRAM MB), oldest first, when traced *)
  check_violations : string list;
      (** heap-auditor violations, in detection order ([] unless run
          with [~check:true] — and, hopefully, with it) *)
  serve : serve_metrics option;  (** populated by serve-mode runs only *)
}

val pcm_write_rate_4core_gbs : result -> float
(** Simulated PCM write rate: writeback bytes / reconstructed time. *)

val pcm_write_rate_32core_gbs : result -> float
(** Scaled by the benchmark's Table 3 factor, as in §5.2.2. *)

val lifetime_years : ?endurance:float -> result -> float
(** Equation 1 with the 32-core write rate. *)

val run :
  ?seed:int ->
  ?scale:int ->
  ?heap_scale:int ->
  ?cap_mb:int ->
  ?trace:bool ->
  ?threads:int ->
  ?schedule_seed:int ->
  ?oracle:bool ->
  ?parallel_gc:bool ->
  ?check:bool ->
  ?recorder:Kg_gc.Trace.recorder ->
  ?serve:float ->
  mode:mode ->
  spec ->
  Kg_workload.Descriptor.t ->
  result
(** [scale] divides the benchmark's allocation volume (default 16);
    [heap_scale] divides its live-heap target (default 3, floor 16 MB)
    so that observer and major collections still fire in shortened
    runs; [cap_mb] bounds the run length (default 256 MB).

    [threads] (default 1) simulates that many mutator domains over a
    runtime created with matching [~domains]: per-domain op streams
    merged deterministically by [schedule_seed] (default 0), all
    generated and applied on the calling domain (see
    {!Kg_workload.Mutator.create}). The result is a pure function of
    the seeds.

    [parallel_gc] (default false) models a collector whose phases
    spread over [threads] cores: only the modeled collection time
    ([time_parts.gc_ns], and so [time_s]) and the serve pause profile
    shrink ({!Time_model.cpu_parts}, {!Time_model.pause_ms}); every
    counter, trace and traffic figure is that of the one inline
    collector.

    [oracle] is ignored. It stays until the benchmark of record
    ([bench/e2e]) stops passing it, in the next change to that
    benchmark.

    The run installs one collection hook ({!Kg_gc.Runtime.set_gc_hook}):
    it samples heap composition, then, with [check] (default false),
    runs the {!Kg_gc.Verify} heap auditor, then feeds a serve run's
    modeled pause ({!Time_model.pause_ms} of the collection's log
    entry) to {!Kg_serve.Server.add_pause}. A final end-of-run audit
    joins the per-phase violations in [check_violations].

    [recorder] records every runtime-API event plus the driver's
    reset/flush markers into a replayable {!Kg_gc.Trace}.

    [serve] replaces the batch mutator with the {!Kg_serve.Server}
    request/response mutator at that arrival rate, in requests per
    second (same epoch protocol, so every flag above composes
    unchanged) and populates
    [result.serve] with the request counters and the pause/latency
    histograms.

    A run is the group of one of {!run_group}: both assemble each
    runtime the same way. *)

type member = { mode : mode; spec : spec; trace : bool }
(** One run of a group: what {!run} takes as [~mode], the spec and
    [?trace]. *)

val run_group :
  ?seed:int ->
  ?scale:int ->
  ?heap_scale:int ->
  ?cap_mb:int ->
  Kg_workload.Descriptor.t ->
  member list ->
  (result * int option) list
(** One-thread batch runs of one benchmark that share one mutator. The
    first member leads: its mutator generates the op stream and applies
    each op to the leader's runtime as it is generated, as in {!run},
    and to every other member's runtime right after
    ({!Kg_workload.Mutator.create}'s [followers]). Results come back in
    member order, each field for field {!run}'s result at the same
    arguments, with the run allocation at which the member first left
    the leader's stream ([None] if it never did): there its nursery
    headroom differed from the leader's, and it ran on from there on a
    copy of the generator. No member is ever rerun. Members whose
    nurseries fill and empty alike never split: same nursery size, and
    large objects placed in the nursery (LOO) by all or by none,
    suffice at the figure set's options, while at larger caps a
    collector's majors can empty the nursery at other times. *)

val record :
  ?seed:int ->
  ?scale:int ->
  ?heap_scale:int ->
  ?cap_mb:int ->
  ?check:bool ->
  spec ->
  Kg_workload.Descriptor.t ->
  result * Kg_gc.Trace.event array
(** A Count-mode {!run} with a recorder attached: the result plus the
    trace that reproduces it. *)

val replay :
  ?seed:int ->
  ?heap_scale:int ->
  spec ->
  Kg_workload.Descriptor.t ->
  Kg_gc.Trace.event array ->
  (Kg_gc.Gc_stats.t * Kg_gc.Mem_iface.counters, string) Stdlib.result
(** Drive a fresh runtime (same derived configuration, address map and
    seed as a Count-mode {!run} — [seed]/[heap_scale] must match the
    recording) from a trace. Returns the replayed statistics and device
    counters, which match the original run bit-for-bit, or [Error] on
    divergence. *)
