(** The experiment engine: {!Pool} + {!Store} + {!Progress} behind an
    {!Kg_sim.Experiments.env}.

    Resolution order for a run: in-process memo table, then the
    persistent store, then {!Kg_sim.Experiments.run_job}. Computed
    results are published to the store, so any later process is
    incremental over this one.

    Parallelism comes from {!prefetch}: the runs of the selected
    experiments are deduplicated by cache key, grouped by
    {!Kg_sim.Experiments.stream_key} on a pool of two or more domains,
    and each group is one pool job, whose store misses share one mutator
    ({!Kg_sim.Experiments.run_group}). An experiment's [runs] and its
    table come from one plan, so the tables then find every run they
    read already memoised. A run's value depends only on its key —
    each run builds its own runtime, heap, caches and statistics from
    the options' seed, and a grouped run's equals its solo run field
    for field, a member that splits off its group's stream included,
    with no member ever rerun — so a pool of any width, with or
    without a warm store, produces field-for-field identical results
    and byte-identical tables. *)

type t

val create :
  ?jobs:int ->
  ?cache:bool ->
  ?cache_dir:string ->
  ?progress:Progress.t ->
  Kg_sim.Experiments.opts ->
  t
(** [jobs] (default 1) sizes the domain pool; [cache] (default true)
    enables the persistent store in [cache_dir] (default
    {!Store.default_dir}); [progress] defaults to a quiet reporter. *)

val env : t -> Kg_sim.Experiments.env
(** The environment to hand to table renderers; its fetch resolves
    through this engine. *)

val opts : t -> Kg_sim.Experiments.opts
val pool : t -> Pool.t
val store : t -> Store.t option

val fetch : t -> Kg_sim.Experiments.job -> Kg_sim.Run.result
(** Resolve one run in the calling domain (memo, store, compute it
    alone with {!Kg_sim.Experiments.run_job}). *)

val prefetch : t -> Kg_sim.Experiments.job list -> unit
(** Deduplicate by key, drop what the memo already holds, group the
    rest by {!Kg_sim.Experiments.stream_key} (jobs without one stay
    singletons, and so does every job on a one-wide pool, which
    leaves the host's spare cores to each Simulate run's cache-sim
    pipe), and resolve the groups on the pool as one list,
    largest first, and wait. A group serves its store hits, computes
    its misses as one {!Kg_sim.Experiments.run_group} (a lone miss
    with {!Kg_sim.Experiments.run_job}) and stores each result under
    its own key, a member that split off the leader's stream
    included; it reruns none. The first failing group cancels the
    groups not yet started and re-raises here. *)

val prefetch_experiments : t -> string list -> unit
(** {!prefetch} the runs of the named experiments
    (unknown ids are ignored — the renderer will reject them with a
    proper error). *)

val hits : t -> int
(** Runs served from the persistent store so far. *)

val misses : t -> int
(** Runs computed so far. *)

val summary : t -> string
(** One line: run counts, hit/miss split, pool width, wall clock,
    runs resolved per wall-clock second and pool busy time. The CI
    smoke job parses this. *)

val shutdown : t -> unit
(** Release the pool's domain claims (results already published remain
    valid). *)
