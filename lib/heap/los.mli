(** Large object space with a treadmill (§3).

    Objects above the 8 KB threshold are never bump-allocated; they
    live on a doubly-linked treadmill of two lists. Collection snaps
    live references from the from-list onto the to-list and reclaims
    whatever was left unsnapped, so large objects are never copied.
    KG-W keeps one treadmill in DRAM and one in PCM and moves written
    objects between them by unsnapping from one list and snapping onto
    the other (§4.2.4). *)

type t

val create :
  words:Object_model.store -> id:int -> name:string -> arena:Arena.t -> t

val id : t -> int
val name : t -> string
val kind : t -> Kg_mem.Device.kind

val alloc : t -> Object_model.t -> bool
(** Reserve page-granularity storage from the arena and snap the object
    onto the from-list. Returns [false] when the arena is exhausted. *)

val adopt : t -> Object_model.t -> unit
(** Take over an object from another space: give it a fresh address
    here and snap it on (the KG-W large PCM -> large DRAM move, and
    promotion of nursery-resident large objects under LOO). *)

val collect :
  t ->
  now:float ->
  keep:(Object_model.t -> bool) ->
  ?on_dead:(Object_model.t -> unit) ->
  unit ->
  Object_model.t list
(** Treadmill collection: objects that are oracle-live at [now] and for
    which [keep] answers [true] are snapped to the to-list (which then
    becomes the from-list); dead ones are reclaimed; live ones with
    [keep o = false] are unsnapped and returned for the caller to move
    elsewhere. *)

val iter : t -> (Object_model.t -> unit) -> unit
(** Visit every resident object (from-list order). *)

val live_bytes : t -> int
val object_count : t -> int
