open Kg_util
module O = Object_model

(* Word-spaced classes up to 128 B, then geometric to the small-object
   limit: the MMTk mark-sweep class ladder. *)
let size_classes =
  [| 16; 24; 32; 40; 48; 56; 64; 80; 96; 112; 128; 160; 192; 256; 320; 384; 512; 640; 768;
     1024; 1280; 1536; 2048; 3072; 4096; 6144; 8192 |]

type t = {
  id : int;
  name : string;
  words : O.store;
  arena : Arena.t;
  free : int list array;  (* per-class free cell addresses *)
  mutable footprint : int;
  mutable live : int;
  mutable cells : int;  (* bytes occupied counted in cell sizes *)
  mutable nfree : int;
  objects : O.t Vec.t;
}

let create ~words ~id ~name ~arena =
  {
    id;
    name;
    words;
    arena;
    free = Array.make (Array.length size_classes) [];
    footprint = 0;
    live = 0;
    cells = 0;
    nfree = 0;
    objects = Vec.create ();
  }

let id t = t.id
let name t = t.name

(* O(1) size -> class: a direct-indexed table over every size up to the
   largest class (8 KB of ints, built once). *)
let class_of_size =
  let max_size = size_classes.(Array.length size_classes - 1) in
  let tbl = Array.make (max_size + 1) 0 in
  let ci = ref 0 in
  for size = 0 to max_size do
    if size > size_classes.(!ci) then incr ci;
    tbl.(size) <- !ci
  done;
  tbl

let class_index size =
  if size >= Array.length class_of_size then
    invalid_arg "Freelist_space.alloc: large object"
  else Array.unsafe_get class_of_size size

(* Carve one 32 KB block into cells of one class. *)
let grow_class t ci =
  if Arena.remaining t.arena < Layout.block then false
  else begin
    let base = Arena.reserve ~who:t.name t.arena Layout.block in
    t.footprint <- t.footprint + Layout.block;
    let cell = size_classes.(ci) in
    let n = Layout.block / cell in
    for i = n - 1 downto 0 do
      t.free.(ci) <- (base + (i * cell)) :: t.free.(ci)
    done;
    t.nfree <- t.nfree + n;
    true
  end

let rec alloc t o =
  let w = t.words in
  let osize = O.size w o in
  let ci = class_index osize in
  match t.free.(ci) with
  | addr :: rest ->
    t.free.(ci) <- rest;
    t.nfree <- t.nfree - 1;
    O.set_addr w o addr;
    O.set_space w o t.id;
    t.live <- t.live + osize;
    t.cells <- t.cells + size_classes.(ci);
    Vec.push t.objects o;
    true
  | [] -> grow_class t ci && alloc t o

let sweep t ~now ?(on_dead = fun _ -> ()) () =
  let w = t.words in
  let reclaimed = ref 0 in
  Vec.filter_in_place
    (fun o ->
      if O.space w o <> t.id then false
      else if O.is_live w o now then true
      else begin
        (* An object's size never changes, so it names its cell's
           class. *)
        let oaddr = O.addr w o and osize = O.size w o in
        let ci = class_index osize in
        t.free.(ci) <- oaddr :: t.free.(ci);
        t.nfree <- t.nfree + 1;
        t.live <- t.live - osize;
        t.cells <- t.cells - size_classes.(ci);
        reclaimed := !reclaimed + osize;
        on_dead o;
        false
      end)
    t.objects;
  !reclaimed

let objects t = t.objects
let live_bytes t = t.live
let cell_bytes t = t.cells
let footprint_bytes t = t.footprint
let free_cells t = t.nfree
