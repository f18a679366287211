(* The flat-word heap: all object metadata lives in packed words inside
   flat Bigarray tables, and an object is a dense integer index into
   them.  Allocation bump-advances the table cursor, so the simulator's
   own bookkeeping stops allocating on the host heap and scans become
   linear sweeps (the lhc nursery.c / Nofl side-table layout).

   Tables (one word per object each):
     hdr   packed header: size, heat, space, written/marked flags,
           ref_fields (layout below)
     addr  current virtual address (-1 while unallocated)
     death oracle death time, an IEEE double kept bit-exact in a
           float64 table
     ctr   packed counters: age, epoch_writes, writes

   Header word layout (host ints are 63-bit, all fields fit):
     bits  0..27  size            (bytes, <= 256 MiB)
     bits 28..29  heat            (0 cold, 1 warm, 2 hot)
     bits 30..33  space + 1       (0 encodes the unallocated -1)
     bit  34      written
     bit  35      marked
     bits 36..57  ref_fields      (<= 4 M reference slots)

   Counter word layout:
     bits  0..11  age             (collections survived, < 4096)
     bits 12..31  epoch_writes    (< 2^20)
     bits 32..61  writes          (lifetime count, < 2^30)

   The counters are instrumentation and policy inputs (threshold
   comparisons, the Figure 2 ranking), not identities, so incrementers
   saturate at the [max_*] field capacities instead of overflowing on
   very long runs; the setters still reject out-of-range values as
   caller bugs.

   Index 0 is reserved as the null object, so indices coincide with the
   1-based object ids the runtime has always emitted into traces.  The
   accessors use unsafe Bigarray indexing guarded by asserts that the
   release profile strips with [-noassert]. *)

type heat = Cold | Warm | Hot

type int_table = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type float_table = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type store = {
  mutable hdr : int_table;
  mutable addr : int_table;
  mutable death : float_table;
  mutable ctr : int_table;
  mutable next : int;  (* bump cursor: next fresh index *)
}

type t = int

let size_bits = 28
let heat_shift = size_bits
let space_shift = heat_shift + 2
let written_shift = space_shift + 4
let marked_shift = written_shift + 1
let ref_shift = marked_shift + 1

let size_mask = (1 lsl size_bits) - 1
let heat_mask = 3
let space_mask = 15
let ref_mask = (1 lsl 22) - 1

let age_bits = 12
let epoch_shift = age_bits
let writes_shift = 32
let age_mask = (1 lsl age_bits) - 1
let epoch_mask = (1 lsl 20) - 1

let max_age = age_mask
let max_epoch_writes = epoch_mask
let max_writes = (1 lsl 30) - 1

let int_table n : int_table = Bigarray.(Array1.create int c_layout n)
let float_table n : float_table = Bigarray.(Array1.create float64 c_layout n)

let create ?(capacity = 4096) () =
  let capacity = max 16 capacity in
  { hdr = int_table capacity;
    addr = int_table capacity;
    death = float_table capacity;
    ctr = int_table capacity;
    next = 1 }

let capacity w = Bigarray.Array1.dim w.hdr
let length w = w.next - 1

(* Table growth may move the storage, so it must never race with
   concurrent readers; the runtime only creates objects from the
   sequential apply/boot phases, which upholds this. *)
let grow w =
  let old = capacity w in
  let cap = old * 2 in
  let hdr = int_table cap and addr = int_table cap and ctr = int_table cap in
  let death = float_table cap in
  Bigarray.Array1.(blit w.hdr (sub hdr 0 old));
  Bigarray.Array1.(blit w.addr (sub addr 0 old));
  Bigarray.Array1.(blit w.death (sub death 0 old));
  Bigarray.Array1.(blit w.ctr (sub ctr 0 old));
  w.hdr <- hdr;
  w.addr <- addr;
  w.death <- death;
  w.ctr <- ctr

let heat_code = function Cold -> 0 | Warm -> 1 | Hot -> 2
let heat_of_code = function 0 -> Cold | 1 -> Warm | _ -> Hot

let null = 0
let is_null o = o = 0
let id (o : t) = o

let make w ~size ~heat ~death ~ref_fields =
  if size < Layout.min_object then invalid_arg "Object_model.make: size below minimum";
  assert (size <= size_mask);
  assert (ref_fields >= 0 && ref_fields <= ref_mask);
  if w.next >= capacity w then grow w;
  let i = w.next in
  w.next <- i + 1;
  let hdr =
    size
    lor (heat_code heat lsl heat_shift)
    (* space = -1, stored as 0 in the +1 encoding *)
  in
  let hdr = hdr lor (ref_fields lsl ref_shift) in
  Bigarray.Array1.unsafe_set w.hdr i hdr;
  Bigarray.Array1.unsafe_set w.addr i (-1);
  Bigarray.Array1.unsafe_set w.death i death;
  Bigarray.Array1.unsafe_set w.ctr i 0;
  i

let check w i = assert (i >= 1 && i < w.next)

let[@inline] hdr_word w i =
  check w i;
  Bigarray.Array1.unsafe_get w.hdr i

let[@inline] set_hdr_word w i v = Bigarray.Array1.unsafe_set w.hdr i v

let[@inline] size w i = hdr_word w i land size_mask
let[@inline] heat w i = heat_of_code (hdr_word w i lsr heat_shift land heat_mask)
let[@inline] ref_fields w i = hdr_word w i lsr ref_shift land ref_mask

let[@inline] space w i = (hdr_word w i lsr space_shift land space_mask) - 1

let[@inline] set_space w i sp =
  assert (sp >= -1 && sp < space_mask);
  let h = hdr_word w i in
  set_hdr_word w i
    (h land lnot (space_mask lsl space_shift) lor ((sp + 1) lsl space_shift))

let[@inline] written w i = hdr_word w i land (1 lsl written_shift) <> 0

let[@inline] set_written w i b =
  let h = hdr_word w i in
  set_hdr_word w i
    (if b then h lor (1 lsl written_shift)
     else h land lnot (1 lsl written_shift))

let[@inline] marked w i = hdr_word w i land (1 lsl marked_shift) <> 0

let[@inline] set_marked w i b =
  let h = hdr_word w i in
  set_hdr_word w i
    (if b then h lor (1 lsl marked_shift)
     else h land lnot (1 lsl marked_shift))

let[@inline] addr w i =
  check w i;
  Bigarray.Array1.unsafe_get w.addr i

let[@inline] set_addr w i a =
  check w i;
  Bigarray.Array1.unsafe_set w.addr i a

let[@inline] death w i =
  check w i;
  Bigarray.Array1.unsafe_get w.death i

let[@inline] ctr_word w i =
  check w i;
  Bigarray.Array1.unsafe_get w.ctr i

let[@inline] set_ctr_word w i v = Bigarray.Array1.unsafe_set w.ctr i v

let[@inline] age w i = ctr_word w i land age_mask

let[@inline] set_age w i a =
  assert (a >= 0 && a <= age_mask);
  let c = ctr_word w i in
  set_ctr_word w i (c land lnot age_mask lor a)

let[@inline] epoch_writes w i = ctr_word w i lsr epoch_shift land epoch_mask

let[@inline] set_epoch_writes w i n =
  assert (n >= 0 && n <= epoch_mask);
  let c = ctr_word w i in
  set_ctr_word w i
    (c land lnot (epoch_mask lsl epoch_shift) lor (n lsl epoch_shift))

let[@inline] writes w i = ctr_word w i lsr writes_shift

let[@inline] set_writes w i n =
  assert (n >= 0 && n <= max_writes);
  let c = ctr_word w i in
  set_ctr_word w i (c land ((1 lsl writes_shift) - 1) lor (n lsl writes_shift))

let is_large w o = size w o > Layout.max_small_object
let is_small16 w o = size w o <= Layout.small_mark_threshold
let is_live w o now = death w o > now
let end_addr w o = addr w o + size w o

let field_slots w o =
  Int.max Layout.word (size w o - Layout.header_bytes) / Layout.word

let field_addr w o i =
  (* Out-of-range indices used to wrap silently ([i mod slots]); the
     callers that want wrapping now do it explicitly against
     [field_slots]. *)
  assert (i >= 0 && i < field_slots w o);
  addr w o + Layout.header_bytes + (i * Layout.word)

(* Streaming traffic of the two heap bulk operations, issued straight
   into the batched memory port. *)

let stream_init w port o =
  Kg_mem.Port.write port ~addr:(addr w o) ~size:(size w o)

let stream_copy w port ~old_addr o =
  let size = size w o in
  Kg_mem.Port.read port ~addr:old_addr ~size;
  Kg_mem.Port.write port ~addr:old_addr ~size:Layout.word;
  Kg_mem.Port.write port ~addr:(addr w o) ~size
