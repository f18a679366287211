open Kg_util

type t = {
  mutable app_writes_nursery : int;
  mutable app_writes_observer : int;
  mutable app_writes_mature : int;
  mutable app_write_bytes_dram : int;
  mutable app_write_bytes_pcm : int;
  mutable ref_writes : int;
  mutable prim_writes : int;
  mutable reads : int;
  mutable gen_remset_inserts : int;
  mutable obs_remset_inserts : int;
  mutable monitor_header_writes : int;
  mutable barrier_fast_paths : int;
  mutable nursery_gcs : int;
  mutable observer_gcs : int;
  mutable major_gcs : int;
  mutable copied_bytes_nursery : int;
  mutable copied_bytes_observer : int;
  mutable copied_bytes_major : int;
  mutable remset_slot_updates : int;
  mutable mark_header_writes : int;
  mutable mark_table_writes : int;
  mutable scanned_objects : int;
  mutable nursery_alloc_bytes : int;
  mutable nursery_survived_bytes : int;
  mutable observer_in_bytes : int;
  mutable observer_survived_bytes : int;
  mutable observer_to_dram_bytes : int;
  mutable observer_to_pcm_bytes : int;
  mutable large_allocs : int;
  mutable large_allocs_in_nursery : int;
  mutable mature_moves_to_dram : int;
  mutable mature_moves_to_pcm : int;
  mutable los_moves_to_dram : int;
  retired_mature_writes : int Vec.t;
  collection_log : (Phase.t * int * int) Vec.t;
}

let create () =
  {
    app_writes_nursery = 0;
    app_writes_observer = 0;
    app_writes_mature = 0;
    app_write_bytes_dram = 0;
    app_write_bytes_pcm = 0;
    ref_writes = 0;
    prim_writes = 0;
    reads = 0;
    gen_remset_inserts = 0;
    obs_remset_inserts = 0;
    monitor_header_writes = 0;
    barrier_fast_paths = 0;
    nursery_gcs = 0;
    observer_gcs = 0;
    major_gcs = 0;
    copied_bytes_nursery = 0;
    copied_bytes_observer = 0;
    copied_bytes_major = 0;
    remset_slot_updates = 0;
    mark_header_writes = 0;
    mark_table_writes = 0;
    scanned_objects = 0;
    nursery_alloc_bytes = 0;
    nursery_survived_bytes = 0;
    observer_in_bytes = 0;
    observer_survived_bytes = 0;
    observer_to_dram_bytes = 0;
    observer_to_pcm_bytes = 0;
    large_allocs = 0;
    large_allocs_in_nursery = 0;
    mature_moves_to_dram = 0;
    mature_moves_to_pcm = 0;
    los_moves_to_dram = 0;
    retired_mature_writes = Vec.create ();
    collection_log = Vec.create ();
  }

(* The scalar counters in declaration order, each with its reader and
   writer: reset, diff and the result store's codec walk this list. *)
let counters =
  [
    ("app_writes_nursery", (fun t -> t.app_writes_nursery), fun t v -> t.app_writes_nursery <- v);
    ("app_writes_observer", (fun t -> t.app_writes_observer), fun t v -> t.app_writes_observer <- v);
    ("app_writes_mature", (fun t -> t.app_writes_mature), fun t v -> t.app_writes_mature <- v);
    ("app_write_bytes_dram", (fun t -> t.app_write_bytes_dram), fun t v -> t.app_write_bytes_dram <- v);
    ("app_write_bytes_pcm", (fun t -> t.app_write_bytes_pcm), fun t v -> t.app_write_bytes_pcm <- v);
    ("ref_writes", (fun t -> t.ref_writes), fun t v -> t.ref_writes <- v);
    ("prim_writes", (fun t -> t.prim_writes), fun t v -> t.prim_writes <- v);
    ("reads", (fun t -> t.reads), fun t v -> t.reads <- v);
    ("gen_remset_inserts", (fun t -> t.gen_remset_inserts), fun t v -> t.gen_remset_inserts <- v);
    ("obs_remset_inserts", (fun t -> t.obs_remset_inserts), fun t v -> t.obs_remset_inserts <- v);
    ("monitor_header_writes", (fun t -> t.monitor_header_writes), fun t v -> t.monitor_header_writes <- v);
    ("barrier_fast_paths", (fun t -> t.barrier_fast_paths), fun t v -> t.barrier_fast_paths <- v);
    ("nursery_gcs", (fun t -> t.nursery_gcs), fun t v -> t.nursery_gcs <- v);
    ("observer_gcs", (fun t -> t.observer_gcs), fun t v -> t.observer_gcs <- v);
    ("major_gcs", (fun t -> t.major_gcs), fun t v -> t.major_gcs <- v);
    ("copied_bytes_nursery", (fun t -> t.copied_bytes_nursery), fun t v -> t.copied_bytes_nursery <- v);
    ("copied_bytes_observer", (fun t -> t.copied_bytes_observer), fun t v -> t.copied_bytes_observer <- v);
    ("copied_bytes_major", (fun t -> t.copied_bytes_major), fun t v -> t.copied_bytes_major <- v);
    ("remset_slot_updates", (fun t -> t.remset_slot_updates), fun t v -> t.remset_slot_updates <- v);
    ("mark_header_writes", (fun t -> t.mark_header_writes), fun t v -> t.mark_header_writes <- v);
    ("mark_table_writes", (fun t -> t.mark_table_writes), fun t v -> t.mark_table_writes <- v);
    ("scanned_objects", (fun t -> t.scanned_objects), fun t v -> t.scanned_objects <- v);
    ("nursery_alloc_bytes", (fun t -> t.nursery_alloc_bytes), fun t v -> t.nursery_alloc_bytes <- v);
    ("nursery_survived_bytes", (fun t -> t.nursery_survived_bytes), fun t v -> t.nursery_survived_bytes <- v);
    ("observer_in_bytes", (fun t -> t.observer_in_bytes), fun t v -> t.observer_in_bytes <- v);
    ("observer_survived_bytes", (fun t -> t.observer_survived_bytes), fun t v -> t.observer_survived_bytes <- v);
    ("observer_to_dram_bytes", (fun t -> t.observer_to_dram_bytes), fun t v -> t.observer_to_dram_bytes <- v);
    ("observer_to_pcm_bytes", (fun t -> t.observer_to_pcm_bytes), fun t v -> t.observer_to_pcm_bytes <- v);
    ("large_allocs", (fun t -> t.large_allocs), fun t v -> t.large_allocs <- v);
    ("large_allocs_in_nursery", (fun t -> t.large_allocs_in_nursery), fun t v -> t.large_allocs_in_nursery <- v);
    ("mature_moves_to_dram", (fun t -> t.mature_moves_to_dram), fun t v -> t.mature_moves_to_dram <- v);
    ("mature_moves_to_pcm", (fun t -> t.mature_moves_to_pcm), fun t v -> t.mature_moves_to_pcm <- v);
    ("los_moves_to_dram", (fun t -> t.los_moves_to_dram), fun t v -> t.los_moves_to_dram <- v);
  ]

let reset t =
  List.iter (fun (_, _, set) -> set t 0) counters;
  Vec.clear t.retired_mature_writes;
  Vec.clear t.collection_log

let diff a b =
  let out = ref [] in
  let cmp name va vb =
    if va <> vb then out := Printf.sprintf "%s: %d <> %d" name va vb :: !out
  in
  List.iter (fun (name, get, _) -> cmp name (get a) (get b)) counters;
  cmp "retired_mature_writes length" (Vec.length a.retired_mature_writes)
    (Vec.length b.retired_mature_writes);
  if Vec.length a.retired_mature_writes = Vec.length b.retired_mature_writes then
    for i = 0 to Vec.length a.retired_mature_writes - 1 do
      if Vec.get a.retired_mature_writes i <> Vec.get b.retired_mature_writes i then
        out :=
          Printf.sprintf "retired_mature_writes[%d]: %d <> %d" i
            (Vec.get a.retired_mature_writes i)
            (Vec.get b.retired_mature_writes i)
          :: !out
    done;
  cmp "collection_log length" (Vec.length a.collection_log) (Vec.length b.collection_log);
  if Vec.length a.collection_log = Vec.length b.collection_log then
    for i = 0 to Vec.length a.collection_log - 1 do
      let pa, ca, sa = Vec.get a.collection_log i and pb, cb, sb = Vec.get b.collection_log i in
      if pa <> pb || ca <> cb || sa <> sb then
        out :=
          Printf.sprintf "collection_log[%d]: (%s, %d, %d) <> (%s, %d, %d)" i (Phase.to_string pa)
            ca sa (Phase.to_string pb) cb sb
          :: !out
    done;
  List.rev !out

let equal a b = diff a b = []

let log_collection t phase ~copied ~scanned = Vec.push t.collection_log (phase, copied, scanned)

let retire t w (o : Kg_heap.Object_model.t) =
  let module O = Kg_heap.Object_model in
  if O.age w o >= 1 then Vec.push t.retired_mature_writes (O.writes w o)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

let nursery_survival t = ratio t.nursery_survived_bytes t.nursery_alloc_bytes
let observer_survival t = ratio t.observer_survived_bytes t.observer_in_bytes

let mature_write_fraction t =
  ratio (t.app_writes_observer + t.app_writes_mature)
    (t.app_writes_nursery + t.app_writes_observer + t.app_writes_mature)

let top_fraction_writes t frac =
  let written =
    Vec.fold (fun acc w -> if w > 0 then w :: acc else acc) [] t.retired_mature_writes
  in
  let counts = Array.of_list written in
  if Array.length counts = 0 then 0.0
  else begin
    Array.sort (fun a b -> compare b a) counts;
    let total = Array.fold_left ( + ) 0 counts in
    let k = max 1 (int_of_float (frac *. float_of_int (Array.length counts))) in
    let top = ref 0 in
    for i = 0 to k - 1 do
      top := !top + counts.(i)
    done;
    ratio !top total
  end
