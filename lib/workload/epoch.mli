(** The generic half of the generate-then-merge epoch protocol shared
    by {!Mutator} and the [Kg_serve] request mutator: the flat
    per-domain op buffer, the schedule-PRNG chunk schedule, the apply
    of the op kinds both mutators issue, and the epoch loop. The
    determinism argument (per-domain generation from private state)
    stays with the callers.

    An epoch allocates nothing per op. Buffers and the schedule grow on
    demand and are reset, not recreated, each epoch; targets are ints:
    [> 0] an object, [< 0] the issuing domain's [i]-th allocation of
    this epoch as [-(i+1)], [0] ({!Kg_heap.Object_model.null}) none. *)

(** {1 Op buffers} *)

type ops
(** One domain's op stream for one epoch: parallel [kind], [a], [b]
    int columns and a [life] float column. Written only by the owning
    domain's generator; read by the apply. *)

val ops_create : unit -> ops
(** An empty buffer; it allocates its columns on the first push. *)

val reset : ops -> unit
(** Forget every op (and the pending-allocation count), keeping the
    storage. *)

val k_private : int
(** The first kind free for a caller's own ops (pushed with {!push},
    handled by the caller's apply). Below it are the shared kinds: an
    allocation's kind is its heat's {!Kg_heap.Object_model.heat_code}
    (0..2), then write-ref, write-prim and read-burst. *)

val kind : ops -> int -> int
val life : ops -> int -> float

val push : ops -> int -> int -> int -> float -> unit
(** [push ops kind a b life] appends one raw op. *)

val push_alloc :
  ops -> size:int -> heat:Kg_heap.Object_model.heat -> life:float -> ref_fields:int -> int
(** Append an allocation (death = apply-time clock + [life]) and
    return its pending target. *)

val push_write_ref : ops -> src:int -> tgt:int -> unit
val push_write_prim : ops -> int -> unit
val push_read_burst : ops -> int -> words:int -> unit

(** {1 Apply} *)

val resolve : Kg_heap.Object_model.t Kg_util.Vec.t -> int -> Kg_heap.Object_model.t
(** [resolve allocs tgt]: the object [tgt] names, looking pending
    targets up in the issuing domain's applied allocations [allocs]. *)

val apply_op :
  Kg_gc.Runtime.t -> Kg_heap.Object_model.t Kg_util.Vec.t -> int -> ops -> int -> Kg_heap.Object_model.t
(** [apply_op rt allocs d ops i] applies op [i] of domain [d]'s buffer
    through the domain-tagged runtime interface. An allocation is
    appended to [allocs] and returned; a write or read returns
    {!Kg_heap.Object_model.null}. Raises [Invalid_argument] on a
    private kind. *)

(** {1 The chunk schedule} *)

type schedule
(** A reusable list of [(domain, take)] chunks. *)

val schedule_create : unit -> schedule

val draw_schedule : schedule -> Kg_util.Rng.t -> ops array -> unit
(** Draw one epoch's interleaving of the domains' buffers into the
    schedule, repeatedly drawing a live domain and a chunk length (1–8)
    from the PRNG. A pure function of the PRNG state and the buffer
    lengths. Preserves each domain's own order, so a pending target
    always resolves to an already-applied allocation of the same
    domain. *)

val iter_schedule : schedule -> (int -> int -> unit) -> unit
(** [iter_schedule s f] calls [f d i] for op [i] of domain [d], in
    schedule order. *)

(** {1 The epoch loop} *)

type snapshot = { mutable now : float; nursery_free : int array }
(** The read-only epoch-start view generators see: the allocation
    clock and each domain's nursery headroom. *)

val run :
  rt:Kg_gc.Runtime.t ->
  n:int ->
  sched_rng:Kg_util.Rng.t ->
  bufs:ops array ->
  target:float ->
  generate:(int -> snapshot -> unit) ->
  apply:(Kg_heap.Object_model.t Kg_util.Vec.t array -> int -> int -> unit) ->
  barrier:(Kg_heap.Object_model.t Kg_util.Vec.t array -> unit) ->
  unit
(** Run epochs until the allocation clock reaches [target]. Each epoch
    refreshes the snapshot, runs [generate d snap] for every domain in
    domain order (each filling [bufs.(d)]), draws the schedule from
    [sched_rng], calls [apply allocs d i] for every op in schedule
    order, then [barrier allocs]. [allocs.(d)] holds domain [d]'s
    applied allocations of the epoch, for {!resolve}; the vectors and
    the schedule are reused across epochs. *)
