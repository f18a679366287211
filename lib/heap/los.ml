module O = Object_model

(* Treadmill nodes form a circular doubly-linked list anchored at a
   sentinel, so snap/unsnap are O(1) as in the real collector. *)

type node = {
  mutable obj : O.t;  (* O.null for the sentinel *)
  mutable prev : node;
  mutable next : node;
}

type t = {
  id : int;
  name : string;
  words : O.store;
  arena : Arena.t;
  mutable from_anchor : node;
  mutable live_bytes : int;
  mutable count : int;
}

let new_anchor () =
  let rec n = { obj = O.null; prev = n; next = n } in
  n

let create ~words ~id ~name ~arena =
  { id; name; words; arena; from_anchor = new_anchor (); live_bytes = 0; count = 0 }

let id t = t.id
let name t = t.name
let kind t = Arena.kind t.arena

let snap anchor o =
  let n = { obj = o; prev = anchor.prev; next = anchor } in
  anchor.prev.next <- n;
  anchor.prev <- n

let alloc t o =
  let w = t.words in
  let osize = O.size w o in
  if Arena.remaining t.arena < Layout.align_up osize Layout.page then false
  else begin
    O.set_addr w o (Arena.reserve ~who:t.name t.arena osize);
    O.set_space w o t.id;
    snap t.from_anchor o;
    t.live_bytes <- t.live_bytes + osize;
    t.count <- t.count + 1;
    true
  end

let adopt t o =
  let w = t.words in
  let osize = O.size w o in
  O.set_addr w o (Arena.reserve ~who:t.name t.arena osize);
  O.set_space w o t.id;
  snap t.from_anchor o;
  t.live_bytes <- t.live_bytes + osize;
  t.count <- t.count + 1

let collect t ~now ~keep ?(on_dead = fun _ -> ()) () =
  let w = t.words in
  let to_anchor = new_anchor () in
  let evicted = ref [] in
  let live = ref 0 and count = ref 0 in
  let rec walk n =
    if n != t.from_anchor then begin
      let next = n.next in
      let o = n.obj in
      if not (O.is_null o) then begin
        if O.is_live w o now then begin
          if keep o then begin
            snap to_anchor o;
            live := !live + O.size w o;
            incr count
          end
          else evicted := o :: !evicted
        end
        else (* not snapped; its pages are reclaimed *) on_dead o
      end;
      walk next
    end
  in
  walk t.from_anchor.next;
  t.from_anchor <- to_anchor;
  t.live_bytes <- !live;
  t.count <- !count;
  !evicted

let iter t f =
  let rec walk n =
    if n != t.from_anchor then begin
      if not (O.is_null n.obj) then f n.obj;
      walk n.next
    end
  in
  walk t.from_anchor.next

let live_bytes t = t.live_bytes
let object_count t = t.count
