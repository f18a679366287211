type heat = Heap_words.heat = Cold | Warm | Hot

type store = Heap_words.t
type t = int

let null = 0
let is_null o = o = 0
let id (o : t) = o

let make w ~size ~heat ~death ~ref_fields =
  if size < Layout.min_object then invalid_arg "Object_model.make: size below minimum";
  Heap_words.alloc w ~size ~heat ~death ~ref_fields

let size = Heap_words.size
let heat = Heap_words.heat
let death = Heap_words.death
let ref_fields = Heap_words.ref_fields
let addr = Heap_words.addr
let set_addr = Heap_words.set_addr
let space = Heap_words.space
let set_space = Heap_words.set_space
let written = Heap_words.written
let set_written = Heap_words.set_written
let marked = Heap_words.marked
let set_marked = Heap_words.set_marked
let max_age = Heap_words.max_age
let max_epoch_writes = Heap_words.max_epoch_writes
let max_writes = Heap_words.max_writes
let age = Heap_words.age
let set_age = Heap_words.set_age
let writes = Heap_words.writes
let set_writes = Heap_words.set_writes
let epoch_writes = Heap_words.epoch_writes
let set_epoch_writes = Heap_words.set_epoch_writes

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
