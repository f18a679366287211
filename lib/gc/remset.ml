open Kg_util

(* An entry is two consecutive ints in a Vec, its slot address then its
   target, so recording one allocates nothing. *)
type t = {
  name : string;
  buffer_base : int;
  buffer_slots : int;
  entries : int Vec.t;
  mutable cursor : int;
  mutable total : int;
  (* Multicore front end: each mutator domain records barrier hits
     into its own pending buffer (its slice of the metadata store) and
     a handshake at the start of a stop-the-world section publishes
     every pending buffer into [entries] in domain order. Domain 0 of
     a single-domain runtime never goes through here — [insert] is the
     sequential fast path and stays byte-identical to the pre-domain
     code. *)
  domains : int;
  pending : int Vec.t array;
  pending_cursor : int array;
  mutable handshakes : int;
}

let entry_bytes = Kg_heap.Layout.word

let create ?(domains = 1) ~name ~buffer_base ~buffer_bytes () =
  if domains <= 0 then invalid_arg "Remset.create: domains must be positive";
  {
    name;
    buffer_base;
    buffer_slots = max 1 (buffer_bytes / entry_bytes);
    entries = Vec.create ();
    cursor = 0;
    total = 0;
    domains;
    pending = Array.init domains (fun _ -> Vec.create ());
    pending_cursor = Array.make domains 0;
    handshakes = 0;
  }

let name t = t.name

let[@inline] push_entry v ~slot_addr ~target =
  Vec.push v slot_addr;
  Vec.push v target

let insert t ~slot_addr ~target =
  push_entry t.entries ~slot_addr ~target;
  let addr = t.buffer_base + (t.cursor * entry_bytes) in
  t.cursor <- (t.cursor + 1) mod t.buffer_slots;
  t.total <- t.total + 1;
  addr

(* Per-domain record: the entry lands in [domain]'s pending buffer and
   the metadata store is sliced so each domain cycles through its own
   region — no two domains ever write the same SSB word between
   handshakes. *)
let record t ~domain ~slot_addr ~target =
  if domain < 0 || domain >= t.domains then
    invalid_arg "Remset.record: bad domain";
  push_entry t.pending.(domain) ~slot_addr ~target;
  let slice = max 1 (t.buffer_slots / t.domains) in
  let cur = t.pending_cursor.(domain) in
  let addr = t.buffer_base + (((domain * slice) + cur) * entry_bytes) in
  t.pending_cursor.(domain) <- (cur + 1) mod slice;
  t.total <- t.total + 1;
  addr

(* Publish all pending buffers into the shared set, in domain order —
   the deterministic half of the stop-the-world handshake. Returns the
   number of entries published. *)
let handshake t =
  let published = ref 0 in
  for d = 0 to t.domains - 1 do
    let p = t.pending.(d) in
    Vec.iter (fun x -> Vec.push t.entries x) p;
    published := !published + (Vec.length p / 2);
    Vec.clear p
  done;
  t.handshakes <- t.handshakes + 1;
  !published

let pending_total t =
  let n = ref 0 in
  Array.iter (fun p -> n := !n + (Vec.length p / 2)) t.pending;
  !n

let pending_length t ~domain = Vec.length t.pending.(domain) / 2
let handshakes t = t.handshakes
let domains t = t.domains

let length t = Vec.length t.entries / 2

let iter t f =
  let e = t.entries in
  for i = 0 to length t - 1 do
    f (Vec.get e (2 * i)) (Vec.get e ((2 * i) + 1))
  done

let clear t =
  Vec.clear t.entries;
  t.cursor <- 0

let total_inserts t = t.total
