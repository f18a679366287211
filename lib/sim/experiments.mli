(** One runner per table and figure of the paper's evaluation (§6).

    Every runner returns a {!Kg_util.Table.t} whose rows mirror the
    published figure so measured-vs-paper comparison is mechanical.
    Figures share underlying (benchmark x system x collector) runs, so
    an environment's resolver memoises them and regenerating the full
    set costs one pass over the run matrix.

    An environment is parameterised by its fetch function; the engine
    ({!Kg_engine.Exec}) resolves the run matrix, scheduling misses onto
    a domain pool and persisting results on disk. Each table is
    written as a plan of the runs it reads: the list of runs is fixed
    before any result exists, and the table is computed from their
    results. An experiment's [runs] and [table] both come from that one
    plan, which is what lets an engine resolve a whole figure's matrix
    in parallel before the (sequential) table asks for any of it. *)

type opts = {
  scale : int;  (** divide each benchmark's allocation volume *)
  heap_scale : int;  (** divide each benchmark's live target *)
  cap_mb : int;  (** upper bound on simulated allocation per run *)
  seed : int;
}

val default_opts : opts
(** scale 8, heap_scale 3, cap 256 MB — the setting used for the
    numbers in EXPERIMENTS.md. *)

val quick_opts : opts
(** Small runs for tests and benchmarking harness smoke passes. *)

type job = {
  mode : Run.mode;
  spec : Run.spec;
  bench : Kg_workload.Descriptor.t;
  trace : bool;  (** sample heap composition (Figure 13) *)
  threads : int;  (** logical mutator threads (Table 3 extension) *)
  parallel_gc : bool;  (** a parallel collector modeled in the GC time *)
  cap_mb : int option;  (** per-job override of [opts.cap_mb] *)
  serve : int option;
      (** request rate (req/s): run the {!Kg_serve.Server} mutator at
          this rate instead of the batch mutator *)
}
(** One cell of the run matrix: everything that determines a
    {!Run.result} besides the environment options. *)

val job :
  ?trace:bool ->
  ?threads:int ->
  ?parallel_gc:bool ->
  ?cap_mb:int ->
  ?serve:int ->
  Run.mode ->
  Run.spec ->
  Kg_workload.Descriptor.t ->
  job

val job_key : opts -> job -> string
(** Canonical textual identity of a job under the given options: every
    spec field, the benchmark name, the mode, the trace/threads/cap
    extras, and every option (including the seed). Two jobs with equal
    keys produce field-for-field identical results; the engine's
    persistent store hashes this string (plus its format version) to
    name cache entries. *)

val run_job : opts -> job -> Run.result
(** Execute the job with {!Run.run}. The single place where an
    environment's options are turned into [Run.run] arguments, so the
    engine's memo, its pool and its persistent store all compute
    exactly the same thing for a given key. *)

val stream_key : opts -> job -> string option
(** The op-stream class of a one-thread batch job: its benchmark, cap,
    nursery size and whether its collector places large objects in
    the nursery (LOO). Jobs of one class usually share one mutator
    to the end ({!run_group}); the key only predicts that, and a job
    it groups wrongly shares only the ops before it splits off. [None]
    for a job that runs alone (several mutator threads, a modeled
    parallel collector, or a serve run). *)

val run_group : opts -> job list -> (Run.result * int option) list
(** Execute jobs of one {!stream_key} with {!Run.run_group}, the first
    leading; results in job order, each the one {!run_job} computes,
    with the run allocation at which the job split off the leader's
    stream ([None] if it never did). No job is rerun: a job the key
    groups with runs whose nurseries diverge shares only the ops
    before its split. Raises [Invalid_argument] unless every job has
    the same key, and not [None]. *)

type env

val make_env_with : fetch:(job -> Run.result) -> opts -> env
(** Environment with a resolver (memoisation, scheduling and
    persistence are the resolver's business). *)

val fetch : env -> job -> Run.result
(** Resolve one run through the environment (exposed for tests). *)

type experiment = {
  id : string;
  doc : string;
  runs : opts -> job list;
      (** the runs the table reads, each once (distinct by {!job_key}),
          in the order the table first names them; empty for tables
          that read no run (tab1 and tab2 are static; ext-allocator
          drives spaces directly) *)
  table : env -> Kg_util.Table.t;
      (** reads exactly the runs of [runs] at the environment's options *)
}
(** [runs] and [table] come from one plan of the table, so the runs an
    engine resolves ahead of rendering are the runs the table reads. *)

val all : experiment list
(** Every experiment: tab1-tab4, fig1, fig2, fig5-fig13, the ext-*
    extensions, and the serve-* request/response figures. *)

val run_by_name : env -> string -> Kg_util.Table.t
(** Raises [Not_found] for an unknown id. *)
