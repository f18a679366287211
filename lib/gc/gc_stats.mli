(** Runtime/collector statistics.

    Everything the paper's figures read off the instrumented VM:
    barrier-observed write counts by target space (Figures 2 and 11),
    barrier activity for the overhead breakdown (Figure 9), collection
    counts and copied volumes (Figure 12), survival rates and space
    demographics (Table 4), and the write counts of retired mature
    objects for the top-N% concentration analysis (Figure 2). *)

type t = {
  (* application stores, by where the target object lives *)
  mutable app_writes_nursery : int;
  mutable app_writes_observer : int;
  mutable app_writes_mature : int;  (** any non-nursery, non-observer space *)
  mutable app_write_bytes_dram : int;
  mutable app_write_bytes_pcm : int;
  mutable ref_writes : int;
  mutable prim_writes : int;
  mutable reads : int;
  (* barrier work *)
  mutable gen_remset_inserts : int;
  mutable obs_remset_inserts : int;
  mutable monitor_header_writes : int;
  mutable barrier_fast_paths : int;  (** barrier executions that took no slow path *)
  (* collections *)
  mutable nursery_gcs : int;
  mutable observer_gcs : int;
  mutable major_gcs : int;
  mutable copied_bytes_nursery : int;  (** nursery -> next space *)
  mutable copied_bytes_observer : int;  (** observer -> mature *)
  mutable copied_bytes_major : int;  (** moves between mature spaces *)
  mutable remset_slot_updates : int;
  mutable mark_header_writes : int;  (** in-place mark-state writes *)
  mutable mark_table_writes : int;  (** MDO mark-table writes *)
  mutable scanned_objects : int;
  (* demographics *)
  mutable nursery_alloc_bytes : int;
  mutable nursery_survived_bytes : int;
  mutable observer_in_bytes : int;
  mutable observer_survived_bytes : int;
  mutable observer_to_dram_bytes : int;
  mutable observer_to_pcm_bytes : int;
  mutable large_allocs : int;
  mutable large_allocs_in_nursery : int;
  mutable mature_moves_to_dram : int;
  mutable mature_moves_to_pcm : int;
  mutable los_moves_to_dram : int;
  retired_mature_writes : int Kg_util.Vec.t;
      (** per-object lifetime write counts of objects that survived at
          least one nursery collection, recorded at death (live objects
          are appended by {!val:flush_live}) *)
  collection_log : (Phase.t * int * int) Kg_util.Vec.t;
      (** one entry per collection: (kind, bytes copied, objects
          scanned) — the work terms a pause-time model needs to check
          that observer pauses sit between nursery and full-heap
          pauses (§4.2.1) *)
}

val create : unit -> t

val counters : (string * (t -> int) * (t -> int -> unit)) list
(** Every scalar counter of {!t} in declaration order: its field name,
    reader and writer. {!reset}, {!diff} and the result store's codec
    walk this list; the two log vectors are not in it. *)

val reset : t -> unit
(** Zero every counter (e.g. after warmup/boot allocation, so measured
    demographics reflect steady state only). *)

val diff : t -> t -> string list
(** Field-by-field comparison (including both log vectors), one line
    per differing counter — the replay-determinism check prints this
    when a replay fails to reproduce a run. Empty when identical. *)

val equal : t -> t -> bool
(** [diff a b = []]. *)

val retire : t -> Kg_heap.Object_model.store -> Kg_heap.Object_model.t -> unit
(** Record a dying object's write count if it reached maturity. *)

val nursery_survival : t -> float
(** Fraction of nursery-allocated bytes that survived a nursery GC. *)

val observer_survival : t -> float

val mature_write_fraction : t -> float
(** Fraction of application writes that hit non-nursery objects. *)

val log_collection : t -> Phase.t -> copied:int -> scanned:int -> unit
(** Append a collection record (called by the runtime at the end of
    each collection with that collection's own work). *)

val top_fraction_writes : t -> float -> float
(** [top_fraction_writes t 0.02] is the share of mature-object writes
    captured by the most-written 2 % of mature objects — the Figure 2
    concentration statistic. Only counts objects with at least one
    write, like the paper ("top 10 % of written mature objects"). *)
