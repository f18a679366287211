(** Immix mark-region mature space (§3).

    A hierarchy of 32 KB blocks holding 256 B lines. Objects bump-
    allocate contiguously into runs of free lines and may cross lines
    but not blocks. Reclamation is at line/block granularity: a sweep
    recomputes line occupancy from the surviving objects, returns empty
    blocks to the free list and partially filled blocks to a recyclable
    list that allocation fills first.

    The space reserves virtual memory from its arena 4 MB at a time
    (the MDO region granularity of §4.2.5); [on_new_region] lets the
    runtime allocate the matching DRAM mark table.

    Allocation bump-allocates through one cursor and takes no lock: it
    runs only in sequential phases (boot, the epoch's schedule apply,
    the apply step of a collection), never inside a parallel plan. *)

type t

type sweep_stats = {
  swept_objects : int;  (** dead objects reclaimed *)
  swept_bytes : int;
  free_blocks : int;  (** wholly empty blocks after the sweep *)
  recyclable_blocks : int;
  full_blocks : int;
  marked_lines : int;  (** line mark bits set, for metadata traffic *)
}

val create :
  words:Object_model.store ->
  id:int ->
  name:string ->
  arena:Arena.t ->
  ?on_new_region:(base:int -> unit) ->
  unit ->
  t

val id : t -> int
val name : t -> string
val kind : t -> Kg_mem.Device.kind

val alloc : t -> Object_model.t -> bool
(** Allocate into free lines, preferring recyclable blocks, then free
    blocks, then fresh arena regions. Returns [false] only when the
    arena is exhausted. Not safe to call from two domains at once. *)

val objects : t -> Object_model.t Kg_util.Vec.t
(** Resident objects (live and not-yet-swept dead). *)

val live_bytes : t -> int
(** Object-level occupancy as of the last sweep plus allocation since. *)

val footprint_bytes : t -> int
(** Virtual memory reserved from the arena. *)

val region_count : t -> int
(** 4 MB regions reserved so far (drives MDO table count). *)

val region_bases : t -> int array
(** Sorted base addresses of the reserved 4 MB regions; MDO locates an
    object's mark-table by the region containing it. *)

val region_base_of_addr : t -> int -> int
(** Base of the 4 MB region containing the address. *)

val meta_bytes_per_block : int
(** Line mark metadata per block (one byte per line). *)

val sweep :
  t ->
  now:float ->
  ?write_meta:(block_index:int -> lines:int -> unit) ->
  ?on_dead:(Object_model.t -> unit) ->
  ?par:Kg_util.Parfor.t ->
  unit ->
  sweep_stats
(** Drop objects that died ([now]) or moved to another space, rebuild
    line occupancy and the free/recyclable lists. [write_meta] is
    called once per block that keeps marked lines, so the caller can
    account the line-mark metadata write traffic.

    [par] (default [Parfor.inline_ 1]) executes the sweep's plan steps:
    population ranges are classified in parallel and the line maps are
    rebuilt per group of 4 MB regions, while the [on_dead] stream, the
    rebuilt population order and the [write_meta] record stream are
    replayed sequentially in range / block order — observably identical
    to the width-1 sweep for any runner and width. *)

val remove_foreign : t -> unit
(** Drop objects whose [space] no longer equals this space (moved away
    outside a sweep). *)

val fragmentation : t -> float
(** Fraction of the lines in partially-filled blocks that are free:
    the "fragmentation is preventing the collector from using some
    fraction of the memory in partially filled blocks" measure that
    drives Immix defragmentation (§6.3). 0 when there are no
    recyclable blocks. *)

val defrag_candidates : t -> max_bytes:int -> Object_model.t list
(** Live objects from the sparsest recyclable blocks, up to
    [max_bytes]: evacuating and re-allocating them (the caller copies
    them back via {!alloc}) frees whole blocks, trading copy writes for
    space — exactly the tradeoff §6.3 notes is wrong for PCM, which is
    why the collectors only defragment under memory pressure. *)

val audit : t -> string list
(** Structural self-check; returns human-readable violations (empty
    when consistent). Always verified: every resident object carries
    this space's id, lies inside a reserved region, does not cross a
    block boundary, and their sizes sum to {!live_bytes}; each block's
    cached marked-line count matches its mark bytes. Additionally, when
    no allocation has happened since the last sweep (true at the end of
    a major collection), line marks must cover exactly the resident
    objects and every fully-unmarked block must be on the free list. *)
