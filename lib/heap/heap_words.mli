(** The flat-word heap store.

    Object metadata lives in packed words inside flat [Bigarray]
    tables; an object is a dense integer index into them, and
    allocation bump-advances the table cursor.  Index 0 is reserved
    (the null object), so indices coincide with the 1-based ids the
    runtime emits into traces.

    One header word packs size, heat, space, the written/marked flags
    and the reference-slot count; a second word holds the address, a
    float64 word the oracle death time (kept as an IEEE double so
    liveness compares bit-identically to the record heap), and a fourth
    word the age / epoch-write / lifetime-write counters.

    Accessors use unsafe Bigarray indexing guarded by [assert]s that
    dev and test builds keep and the release profile strips with
    [-noassert].  Table growth may move storage, so object creation
    must stay confined to the sequential (boot / apply / GC) phases;
    parallel mutator generation only reads. *)

type heat = Cold | Warm | Hot
(** Write-hotness class assigned by the workload (Figure 2). *)

val heat_code : heat -> int
(** The 2-bit header encoding of a heat class: [Cold] 0, [Warm] 1,
    [Hot] 2. *)

val heat_of_code : int -> heat
(** Inverse of {!heat_code}. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh store; [capacity] (default 4096) is the initial table size in
    objects, doubled on demand. *)

val length : t -> int
(** Number of objects ever allocated (the cursor minus the reserved
    null slot). *)

val capacity : t -> int

val alloc :
  t -> size:int -> heat:heat -> death:float -> ref_fields:int -> int
(** Bump-allocate a fresh metadata slot and return its index (also the
    object id).  The object starts unallocated: [addr] and [space] are
    -1, flags clear, counters zero.  Raises [Invalid_argument] if
    [size] is below {!Layout.min_object}. *)

val size : t -> int -> int
val heat : t -> int -> heat
val death : t -> int -> float
val ref_fields : t -> int -> int

val addr : t -> int -> int
val set_addr : t -> int -> int -> unit

val space : t -> int -> int
val set_space : t -> int -> int -> unit

val written : t -> int -> bool
val set_written : t -> int -> bool -> unit

val marked : t -> int -> bool
val set_marked : t -> int -> bool -> unit

val max_age : int
val max_epoch_writes : int
val max_writes : int
(** Field capacities of the packed counter word.  The counters are
    instrumentation and policy inputs, not identities: incrementers
    saturate at these caps on very long runs, while the setters below
    reject out-of-range values as caller bugs. *)

val age : t -> int -> int
val set_age : t -> int -> int -> unit

val epoch_writes : t -> int -> int
val set_epoch_writes : t -> int -> int -> unit

val writes : t -> int -> int
val set_writes : t -> int -> int -> unit
