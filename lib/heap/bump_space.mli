(** Contiguous bump-pointer space: the copying nursery and the KG-W
    observer space.

    Holds the resident object population (as flat-word indices into
    the store given at creation); the collector copies survivors out
    and [reset] recycles the whole region. *)

type t

val create :
  words:Object_model.store ->
  id:int -> name:string -> arena:Arena.t -> size:int -> t
(** Reserve [size] bytes from [arena]; object metadata lives in
    [words]. *)

val id : t -> int
val name : t -> string
val size : t -> int
val base : t -> int
val kind : t -> Kg_mem.Device.kind

val alloc : t -> Object_model.t -> bool
(** Bump-allocate the object; set its [addr]/[space] and register it.
    Returns [false] (heap unchanged) when the space is full. *)

val free_bytes : t -> int
val used_bytes : t -> int

val objects : t -> Object_model.t Kg_util.Vec.t
(** Resident objects in allocation order. The collector consumes this
    during a collection and must call {!reset} afterwards. *)

val reset : t -> unit
(** Drop all residents and rewind the bump pointer. *)

val live_bytes : t -> now:float -> int
(** Oracle-live bytes currently resident (for survival statistics). *)
