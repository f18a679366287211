(** Three-level write-back cache hierarchy in front of the memory
    controller (Table 2: 32 KB 8-way L1-D, 256 KB 8-way L2, 4 MB 16-way
    shared L3, 64 B lines).

    The hierarchy is non-inclusive with write-allocate demand accesses.
    A dirty line evicted from level N is installed in level N+1 as a
    full-line write (no fetch); dirty L3 victims become memory
    writebacks. This is the path by which mutator and collector writes
    eventually reach DRAM or PCM. *)

type t

type level_config = { size : int; ways : int; latency_ns : float }

val default_l1 : level_config
val default_l2 : level_config
val default_l3 : level_config

val create :
  ?l1:level_config ->
  ?l2:level_config ->
  ?l3:level_config ->
  controller:Controller.t ->
  unit ->
  t
(** Every level uses the controller's line size. *)

val controller : t -> Controller.t
val set_phase : t -> int -> unit
(** Tag subsequent writes with the given phase id (see
    {!Kg_cache.Cache}). *)

val phase : t -> int

val access_range : t -> addr:int -> size:int -> write:bool -> unit
(** Touch every cache line overlapping [\[addr, addr+size)]. Used for
    object copies and zeroing, which stream over whole objects. *)

val access_run : t -> Kg_mem.Port.batch -> unit
(** Batch entry point for {!Kg_mem.Port} flushes: perform line
    splitting and phase tagging for every record of the batch, in
    order. Each record uses the write flag and phase tag it was issued
    under, not the hierarchy's current phase.

    This is the primary kernel entry point: {!access_range} is a thin
    wrapper over the same fused three-level walk. Consecutive single-line records falling in one line are
    coalesced into the first record's demand access plus one O(1)
    bulk stats/LRU update, which is observationally identical to the
    per-access loop (see DESIGN.md, "Cache kernel"). *)

val drain : t -> unit
(** Flush all levels so dirty resident lines reach the traffic counts;
    call once at simulation end. Idempotent: a second drain is a
    no-op (the first already invalidated every line), so writebacks
    are never double-counted. Writeback order is deterministic: L1
    first, then L2, then L3, each emitting its dirty lines in
    ascending way-index order ({!Cache.invalidate_all}), each victim
    cascading through the lower levels before the next is emitted. *)

val drained : t -> bool
(** True once {!drain} has run. Any demand access issued afterwards
    raises [Invalid_argument] — traffic after the final flush would
    silently vanish from the writeback counts. *)

val reopen : t -> unit
(** Clear the drained flag, for deliberate post-drain cold-cache
    measurements (e.g. the allocator-locality experiment traverses the
    heap against a drained hierarchy). *)

val level_stats : t -> Cache.stats array
(** Stats for L1, L2, L3 in order. *)

val hit_time_ns : t -> float
(** Aggregate latency of cache accesses (hits and per-level lookup
    costs), excluding memory device time. Maintained as per-level
    integer visit counters and folded here — bit-identical to the old
    one-add-per-visit accumulation for level latencies that are exact
    multiples of 0.5 ns (the defaults are). *)

