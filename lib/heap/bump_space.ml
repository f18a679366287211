open Kg_util
module O = Object_model

type t = {
  id : int;
  name : string;
  words : O.store;
  base : int;
  limit : int;
  kind : Kg_mem.Device.kind;
  mutable cursor : int;
  objects : O.t Vec.t;
}

let create ~words ~id ~name ~arena ~size =
  let base = Arena.reserve ~who:name arena size in
  {
    id;
    name;
    words;
    base;
    limit = base + size;
    kind = Arena.kind arena;
    cursor = base;
    objects = Vec.create ();
  }

let id t = t.id
let name t = t.name
let size t = t.limit - t.base
let base t = t.base
let kind t = t.kind

let alloc t o =
  let w = t.words in
  let osize = O.size w o in
  if t.cursor + osize > t.limit then false
  else begin
    O.set_addr w o t.cursor;
    O.set_space w o t.id;
    t.cursor <- t.cursor + osize;
    Vec.push t.objects o;
    true
  end

let free_bytes t = t.limit - t.cursor
let used_bytes t = t.cursor - t.base

let objects t = t.objects

let reset t =
  Vec.clear t.objects;
  t.cursor <- t.base

let live_bytes t ~now =
  let w = t.words in
  Vec.fold (fun acc o -> if O.is_live w o now then acc + O.size w o else acc) 0 t.objects
