(** Content-addressed on-disk result cache.

    One file per run, named by the MD5 of the run's canonical key
    ({!Kg_sim.Experiments.job_key} prefixed with the store format
    version), holding two JSONL lines: a header identifying the format
    version and the full canonical key (collision/version check and
    human debuggability), and the complete {!Kg_sim.Run.result}
    serialisation. Floats are stored as OCaml [%h] hex literals so
    every counter round-trips bit-exactly — a warm-cache figure is
    byte-identical to a cold one. The per-object retired write counts,
    mostly zero, are zero-run encoded: a maximal run of k zeros is the
    single element [-k].

    Writes go through a temp file unique to the write plus an atomic
    rename, so concurrent writers (domains of one process, or two
    processes racing on the same matrix) can only ever publish
    complete entries. Reads treat anything
    unexpected — unparseable JSON, a version bump, a foreign key in
    the header, an unknown benchmark — as a miss: the entry is deleted
    and the caller recomputes. A corrupted cache can cost time, never
    correctness. *)

type t

val format_version : int
(** Bumped whenever the serialisation or the key scheme changes;
    entries from other versions are invalidated on read. *)

val default_dir : string
(** ["results/.cache"]. *)

val create : ?dir:string -> unit -> t
(** Opens (and creates, including parents) the cache directory. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; one that already
    exists, or that another process creates meanwhile, is fine. *)

val dir : t -> string

val key : opts:Kg_sim.Experiments.opts -> Kg_sim.Experiments.job -> string
(** Canonical key: [v<version>;<job_key>]. Stable across processes and
    pool widths; changes whenever any input that can change the result
    changes (spec, options, benchmark, mode, seed, format version). *)

val path : t -> string -> string
(** On-disk location for a key (exposed for tests and tooling). *)

val find : t -> string -> Kg_sim.Run.result option
(** [None] on miss or on any invalid entry (which is removed). *)

val store : t -> string -> Kg_sim.Run.result -> unit
(** Atomically publish a result under a key. *)

(**/ **)

val to_json : Kg_sim.Run.result -> string
(** One-line JSON serialisation (exposed for tests). *)

val of_json : string -> Kg_sim.Run.result
(** Raises [Failure] on malformed input (exposed for tests). *)
