(** What the runtime needs from the machine below it: a batched
    {!Kg_mem.Port} whose sink selects the measurement mode.

    Accesses are appended as flat records into the port's ring buffer
    and delivered to the sink in batches, in issue order — there is no
    per-access closure dispatch anywhere on this path. Three standard
    assemblies: {!of_hierarchy} drives the full cache/memory simulator
    through {!Kg_cache.Hierarchy.access_run} (architecture-dependent
    results: Figures 5-10), {!counting} tallies raw read/write bytes
    per device with no cache filtering (the architecture-independent
    write-barrier measurements of Figures 2, 11, 12 and Table 4, which
    the paper gathered on real hardware), and {!null} discards traffic
    for tests exercising pure heap logic. Compose richer stacks (trace
    capture, auxiliary metrics) with {!Kg_mem.Port.Tee} and
    {!Kg_mem.Port.set_sink}.

    Phase tags travel with each record: {!set_phase} affects records
    issued afterwards, never records already buffered, so deferred
    flushing is invisible to phase attribution. *)

type t = Kg_mem.Port.t

type counters = Kg_mem.Port.counters = {
  mutable dram_read_bytes : int;
  mutable dram_write_bytes : int;
  mutable pcm_read_bytes : int;
  mutable pcm_write_bytes : int;
  pcm_write_bytes_by_phase : int array;  (** indexed by {!Phase.to_tag} *)
}

type stats = Kg_mem.Port.stats = {
  s_dram_read_bytes : int;
  s_dram_write_bytes : int;
  s_pcm_read_bytes : int;
  s_pcm_write_bytes : int;
  s_pcm_write_bytes_by_phase : int array;
}

val read : t -> addr:int -> size:int -> unit
val write : t -> addr:int -> size:int -> unit

val flush : t -> unit
(** Deliver buffered records to the sink. The runtime flushes at every
    collection-phase boundary; flush explicitly before reading
    counters or controller state mid-run. *)

val set_phase : t -> Phase.t -> unit
val phase : t -> Phase.t

val stats : t -> stats
(** Flush, then read the sink's traffic totals ({!Phase.count}-sized
    phase array), whichever sink is installed. *)

val stats_of_controller : Kg_cache.Controller.t -> stats
(** Controller line counts as port stats (bytes = lines * line size),
    for drivers that front a cache hierarchy. *)

val hierarchy_driver : Kg_cache.Hierarchy.t -> Kg_mem.Port.driver

val of_hierarchy : Kg_cache.Hierarchy.t -> t

val counting : map:Kg_mem.Address_map.t -> t * counters

val null : unit -> t
(** Discards traffic entirely; for tests exercising pure heap logic. *)
