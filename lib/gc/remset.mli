(** Sequential-store-buffer remembered set.

    The write barrier (Figure 4) inserts the address of any slot outside
    the nursery (resp. outside nursery+observer) that is written with a
    pointer into it. Insertion writes an entry word into a metadata
    buffer — traffic the caller accounts — and collections consume the
    entries as roots, updating each recorded slot when its target moves
    (the source of GC-time PCM writes in §6.1.6).

    With [domains > 1] the set grows a multicore front end modelled on
    OCaml 5's minor-heap handshake: each mutator domain {!record}s
    barrier hits into a private pending buffer (its slice of the
    metadata store), and a {!handshake} at the start of every
    stop-the-world section publishes all pending buffers into the
    shared set in domain order. Collections must only consume entries
    after a handshake; {!Verify} treats unpublished pending entries at
    a collection phase as a protocol violation.

    An entry is stored as two ints, so recording one allocates no host
    memory. *)

type t

val create :
  ?domains:int -> name:string -> buffer_base:int -> buffer_bytes:int -> unit -> t
(** [buffer_base]/[buffer_bytes] locate the backing store in the
    metadata space; entry writes cycle through it. [domains] (default
    1) sizes the per-domain pending buffers; each domain cycles
    through its own 1/[domains] slice of the store. *)

val name : t -> string

val insert : t -> slot_addr:int -> target:Kg_heap.Object_model.t -> int
(** Record an entry directly into the shared set (the sequential
    single-domain fast path); returns the metadata address written so
    the caller can issue the store. *)

val record : t -> domain:int -> slot_addr:int -> target:Kg_heap.Object_model.t -> int
(** Record an entry into [domain]'s pending buffer; it becomes visible
    to {!iter} only after the next {!handshake}. Returns the metadata
    address written (inside [domain]'s slice of the store). *)

val handshake : t -> int
(** Publish every domain's pending entries into the shared set, in
    domain order, and clear the pending buffers. Returns the number of
    entries published. Called at entry to each stop-the-world
    section. *)

val pending_total : t -> int
(** Entries recorded but not yet published by a handshake. *)

val pending_length : t -> domain:int -> int

val handshakes : t -> int
(** Lifetime handshake count. *)

val domains : t -> int

val length : t -> int

val iter : t -> (int -> Kg_heap.Object_model.t -> unit) -> unit
(** [iter t f] calls [f slot_addr target] on each published entry, in
    insertion order. *)

val clear : t -> unit

val total_inserts : t -> int
(** Lifetime insert count (for the Remsets overhead of Figure 9). *)
