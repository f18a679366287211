(** The managed runtime: allocation, write barriers, and the three
    collector families of the paper (§4).

    One runtime implements all configurations, exactly as the paper's
    collectors share the GenImmix infrastructure:

    - {b GenImmix} (Figure 3a): DRAM-only or PCM-only. Copying nursery;
      survivors promote to an Immix mature space; large objects go to a
      treadmill space; all spaces and metadata live in the one memory.
    - {b Kingsguard-nursery} (Figure 3b): the nursery maps to DRAM;
      mature, large and metadata spaces map to PCM.
    - {b Kingsguard-writers} (Figure 3c): DRAM nursery and observer
      space; mature DRAM + mature PCM Immix spaces; large DRAM + large
      PCM treadmills; metadata in DRAM. The write barrier monitors all
      non-nursery writes in a header write-word; observer collections
      send written survivors to mature DRAM and the rest to mature PCM;
      major collections move written PCM objects back to DRAM and
      unwritten DRAM objects out to PCM. LOO gives large objects a
      chance to die in the nursery; MDO keeps PCM mark states in DRAM
      tables.

    "Time" throughout is the allocation clock: total bytes allocated so
    far, which is also the unit of the objects' oracle death stamps. *)

type t

type space_usage = {
  nursery_used : int;
  observer_used : int;
  mature_dram_used : int;
  mature_pcm_used : int;
  los_dram_used : int;
  los_pcm_used : int;
  meta_used : int;
}

val create :
  ?domains:int ->
  ?parallel_gc:bool ->
  config:Gc_config.t ->
  mem:Mem_iface.t ->
  map:Kg_mem.Address_map.t ->
  seed:int ->
  unit ->
  t
(** The address map must have a DRAM region for Kingsguard configs and
    at least one region matching each space placement. For GenImmix the
    single region of the map hosts every space.

    [domains] (default 1) is the number of mutator domains. Each
    domain gets a private nursery (an equal slice of the configured
    nursery budget) and a private memory port from
    {!Mem_iface.domain_group}; collections are stop-the-world across
    all domains and begin with a port flush + remembered-set handshake
    (see {!Remset}). With one domain the runtime is byte-identical to
    the pre-domain implementation. Every collection phase runs inline
    on the calling domain.

    [parallel_gc] is ignored: a parallel collector is only modeled
    ({!Kg_sim.Time_model}), never run. It stays until the benchmark
    of record ([bench/e2e]) stops passing it, in the next change to
    that benchmark. *)

val shutdown : t -> unit
(** A no-op: a runtime holds no domains. Kept, like [?parallel_gc]
    above, until the next change to the benchmark of record
    ([bench/e2e]) stops calling it. *)

val config : t -> Gc_config.t
val stats : t -> Gc_stats.t

val words : t -> Kg_heap.Object_model.store
(** The flat-word heap store holding every object's packed metadata;
    all {!Kg_heap.Object_model} accessors on objects of this runtime
    go through it. *)

val now : t -> float
(** Allocation clock: bytes allocated so far. *)

val alloc :
  ?domain:int ->
  t ->
  size:int ->
  heat:Kg_heap.Object_model.heat ->
  death:float ->
  ref_fields:int ->
  Kg_heap.Object_model.t
(** Allocate and zero-initialise an object, collecting first if the
    nursery is full. [death] is an absolute allocation-clock stamp.
    Objects above 8 KB take the large-object path. [domain] (default
    0) selects the allocating domain's nursery and port. *)

val alloc_boot :
  t ->
  size:int ->
  heat:Kg_heap.Object_model.heat ->
  ref_fields:int ->
  Kg_heap.Object_model.t
(** Allocate an immortal boot-image object directly into the mature
    space (large ones into the large object space), bypassing the
    nursery and the demographic counters — like the pre-built boot
    image of a Java-in-Java VM. *)

val write_ref :
  ?domain:int ->
  t ->
  src:Kg_heap.Object_model.t ->
  tgt:Kg_heap.Object_model.t ->
  unit
(** A reference store into a field of [src] pointing at [tgt], running
    the Figure 4 barrier: generational and observer remembered-set
    insertion plus (KG-W) write-word monitoring. With multiple domains
    the remset entry lands in [domain]'s pending buffer and all
    traffic goes through [domain]'s port. *)

val write_prim : ?domain:int -> t -> Kg_heap.Object_model.t -> unit
(** A primitive store into [src]; monitored only when the config has
    primitive monitoring (KG-W vs KG-W–PM). *)

val read_obj : ?domain:int -> t -> Kg_heap.Object_model.t -> unit
(** A field read (load traffic only). *)

val read_burst : ?domain:int -> t -> Kg_heap.Object_model.t -> int -> unit
(** [read_burst t o n] models streaming [n] consecutive words out of
    [o] (array traversal): one contiguous load, [n] read events. *)

val major_gc : t -> unit
(** Force a full-heap collection. *)

val heap_used : t -> int
(** Object-space occupancy driving the full-heap trigger. *)

val usage : t -> space_usage

val dram_used : t -> int
(** Heap + metadata bytes currently in DRAM-backed spaces. *)

val pcm_used : t -> int

val set_gc_hook : t -> (Phase.t -> unit) -> unit
(** Invoked at the end of every collection — the Figure 13 heap
    composition traces sample usage from here. *)

val add_gc_hook : t -> (Phase.t -> unit) -> unit
(** Chain another hook after the installed one (the invariant auditor
    attaches itself this way without displacing the sampling hook). *)

val set_event_hook : t -> (Trace.event -> unit) -> unit
(** Observe every mutator-level runtime interaction (allocations with
    their assigned ids, stores, reads, forced majors) — the recording
    half of the deterministic trace/replay subsystem. The default hook
    discards events. *)

val is_young : t -> Kg_heap.Object_model.t -> bool
(** In the nursery or observer space. *)

val in_nursery : t -> Kg_heap.Object_model.t -> bool

val object_in_pcm : t -> Kg_heap.Object_model.t -> bool
(** Does the object currently reside in a PCM-backed space? *)

val flush_retirement_stats : t -> unit
(** Record the write counts of still-live mature objects into the
    Figure 2 concentration statistic (normally only captured at
    death). Call once, at the end of a run. *)

val nursery_free : ?domain:int -> t -> int
(** Allocation headroom before the next nursery collection (the
    lifetime model clamps short-lived objects against it), for the
    given domain's private nursery. *)

val domains : t -> int
(** Number of mutator domains the runtime was created with. *)

val mut_mem : t -> int -> Mem_iface.t
(** The memory port a given domain issues its traffic through —
    [mem t] itself for a single-domain runtime, a member of a
    sequenced port group otherwise. *)

(** {2 Introspection}

    Read-only access to the runtime's spaces and metadata structures,
    used by the {!Verify} auditor and white-box tests. Mutating the
    returned structures voids every invariant. *)

val sp_nursery : int
val sp_observer : int
val sp_mature_dram : int
val sp_mature_pcm : int
val sp_los_dram : int
val sp_los_pcm : int

val address_map : t -> Kg_mem.Address_map.t

val mem : t -> Mem_iface.t
(** The memory port the runtime issues traffic through. *)

val flush_mem : t -> unit
(** Deliver any buffered port records to the sink. The runtime flushes
    before every gc_hook invocation; callers reading device counters
    or controller state at other points must flush first. *)

val nursery_space : t -> Kg_heap.Bump_space.t
(** Domain 0's nursery (the only one for a single-domain runtime). *)

val nursery_spaces : t -> Kg_heap.Bump_space.t array
(** All per-domain nurseries, in domain order. *)

val observer_space : t -> Kg_heap.Bump_space.t option
val mature_pcm_space : t -> Kg_heap.Immix_space.t
val mature_dram_space : t -> Kg_heap.Immix_space.t option
val los_pcm_space : t -> Kg_heap.Los.t
val los_dram_space : t -> Kg_heap.Los.t option
val meta_space : t -> Kg_heap.Meta_space.t
val gen_remset : t -> Remset.t
val obs_remset : t -> Remset.t option
