type t = {
  kind : Kg_mem.Device.kind;
  base : int;
  limit : int;
  mutable cursor : int;
}

let create ~kind ~base ~size = { kind; base; limit = base + size; cursor = base }

let kind t = t.kind

let reserve ?(who = "?") t bytes =
  let bytes = Layout.align_up bytes Layout.page in
  if t.cursor + bytes > t.limit then
    failwith
      (Printf.sprintf
         "Arena.reserve: %s arena exhausted (%s requested %d, %d left; %d reserved of %d limit)"
         (Kg_mem.Device.kind_to_string t.kind) who bytes (t.limit - t.cursor)
         (t.cursor - t.base) (t.limit - t.base));
  let addr = t.cursor in
  t.cursor <- t.cursor + bytes;
  addr

let reserved_bytes t = t.cursor - t.base
let remaining t = t.limit - t.cursor
let base t = t.base
let limit t = t.limit
