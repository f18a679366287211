(** The simulated Java object, as an index into the flat-word heap.

    Liveness is an oracle: the workload stamps each object with the
    global allocation volume at which it becomes unreachable, the
    standard trace-driven alternative to tracing a concrete pointer
    graph. Everything the collectors of the paper observe — size, age
    (which space it has reached), the write word, the mark state — is
    explicit state, packed into the words of a {!store}.

    An object is a dense integer index (its id) into a {!store}; every
    accessor takes the store first. Index lifetime rules: indices are
    assigned once by {!make}, never recycled, and stay valid for the
    life of the store — death only flips what {!is_live} answers, it
    does not invalidate the index.

    Object metadata lives in packed words inside flat [Bigarray]
    tables, and allocation bump-advances the table cursor. One header
    word packs size, heat, space, the written/marked flags and the
    reference-slot count; a second word holds the address, a float64
    word the oracle death time (kept as an IEEE double so liveness
    compares bit-identically to the record heap), and a fourth word the
    age / epoch-write / lifetime-write counters.

    Accessors use unsafe Bigarray indexing guarded by [assert]s that
    dev and test builds keep and the release profile strips with
    [-noassert]. Table growth may move storage, so object creation
    must stay confined to the sequential (boot / apply / GC) phases;
    parallel mutator generation only reads. *)

type heat = Cold | Warm | Hot
(** Write-hotness class assigned by the workload: [Hot] objects are the
    top-2 % that take 81 % of mature writes, [Warm] the next 8 % (12 %
    of writes), [Cold] the rest (Figure 2). *)

val heat_code : heat -> int
(** The 2-bit header encoding of a heat class: [Cold] 0, [Warm] 1,
    [Hot] 2. *)

val heat_of_code : int -> heat
(** Inverse of {!heat_code}. *)

type store
(** The packed metadata tables all accessors read and write. *)

val create : ?capacity:int -> unit -> store
(** Fresh store; [capacity] (default 4096) is the initial table size in
    objects, doubled on demand. *)

val length : store -> int
(** Number of objects ever allocated (the cursor minus the reserved
    null slot). *)

val capacity : store -> int

type t = int
(** A dense object index; equal to the object's trace id. *)

val null : t
(** The reserved index 0 — never returned by {!make}. *)

val is_null : t -> bool

val id : t -> int
(** The object's id — the index itself. *)

val make :
  store -> size:int -> heat:heat -> death:float -> ref_fields:int -> t
(** Bump-allocate a fresh unallocated object ([addr] = -1, [space] =
    -1, flags clear, counters zero); ids are assigned densely from 1.
    Raises [Invalid_argument] if [size] is below
    {!Layout.min_object}. *)

val size : store -> t -> int
(** Bytes, header included, word-aligned. *)

val heat : store -> t -> heat

val death : store -> t -> float
(** Allocation-volume timestamp at which it dies. *)

val ref_fields : store -> t -> int
(** Number of reference slots, for barrier traffic. *)

val addr : store -> t -> int
(** Current virtual address. *)

val set_addr : store -> t -> int -> unit

val space : store -> t -> int
(** Id of the space currently holding it. *)

val set_space : store -> t -> int -> unit

val written : store -> t -> bool
(** KG-W write-word bit. *)

val set_written : store -> t -> bool -> unit

val marked : store -> t -> bool
(** Mark state (header or mark-table backed). *)

val set_marked : store -> t -> bool -> unit

val max_age : int
val max_epoch_writes : int
val max_writes : int
(** Field capacities of the packed counter word; incrementers saturate
    at these caps (the counters are instrumentation and policy inputs,
    not identities), while the setters reject larger values. *)

val age : store -> t -> int
(** Collections survived. *)

val set_age : store -> t -> int -> unit

val writes : store -> t -> int
(** Lifetime write count (instrumentation for Figure 2). *)

val set_writes : store -> t -> int -> unit

val epoch_writes : store -> t -> int
(** Monitored writes since the last placement decision — the write
    word's count, enabling threshold placement policies. *)

val set_epoch_writes : store -> t -> int -> unit

val is_large : store -> t -> bool
(** Larger than the 8 KB small-object threshold. *)

val is_small16 : store -> t -> bool
(** At most 16 B: keeps its mark bit in the header under MDO. *)

val is_live : store -> t -> float -> bool
(** [is_live w o now]: has the oracle death time not yet passed? *)

val end_addr : store -> t -> int

val field_slots : store -> t -> int
(** Number of word-sized payload slots (at least one). *)

val field_addr : store -> t -> int -> int
(** Address of the i-th word-sized field (for write traffic). The
    index must be in range — out-of-range indices no longer wrap
    silently; debug builds assert (release strips the check with
    [-noassert]). Callers that want wrapping reduce modulo
    {!field_slots} explicitly. *)

val stream_init : store -> Kg_mem.Port.t -> t -> unit
(** Zeroing plus constructor initialisation of a freshly allocated
    object: one streaming write pass over its body. *)

val stream_copy : store -> Kg_mem.Port.t -> old_addr:int -> t -> unit
(** Traffic of moving an object: stream-read the old body, write a
    forwarding pointer word, stream-write the new body at the object's
    current address (which must already point into the destination
    space). *)
