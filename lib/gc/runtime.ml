open Kg_util
open Kg_heap
module O = Object_model

(* Fixed space ids; "young" = nursery or observer, tested by ordering. *)
let sp_nursery = 0
let sp_observer = 1
let sp_mature_dram = 2
let sp_mature_pcm = 3
let sp_los_dram = 4
let sp_los_pcm = 5

type space_usage = {
  nursery_used : int;
  observer_used : int;
  mature_dram_used : int;
  mature_pcm_used : int;
  los_dram_used : int;
  los_pcm_used : int;
  meta_used : int;
}

type t = {
  cfg : Gc_config.t;
  words : O.store;
  mem : Mem_iface.t;
  (* One port per mutator domain. With a single domain this is [| mem |]
     — the pre-domain path, bit for bit. With N > 1 the slots form a
     {!Kg_mem.Port.sequenced_group} in front of [mem]'s sink: every
     domain appends into one shared buffer, so it holds the records in
     issue order, and any flush delivers all domains' traffic. *)
  mut_mems : Mem_iface.t array;
  domains : int;
  map : Kg_mem.Address_map.t;
  stats : Gc_stats.t;
  rng : Rng.t;
  nurseries : Bump_space.t array;  (* one private nursery per domain *)
  observer : Bump_space.t option;
  mature_dram : Immix_space.t option;
  mature_pcm : Immix_space.t;
  los_dram : Los.t option;
  los_pcm : Los.t;
  (* The metadata region: remset buffers, line-mark chunks and MDO
     mark tables, reserved from one arena and never freed. *)
  meta_kind : Kg_mem.Device.kind;
  meta_bytes : int ref;
  gen_remset : Remset.t;
  obs_remset : Remset.t option;
  mature_dram_meta : int Vec.t;  (* line-mark chunk base per 4 MB region *)
  mature_pcm_meta : int Vec.t;
  mdo_tables : (int, int) Hashtbl.t;  (* region base -> mark table base *)
  mutable now : float;
  mutable nursery_alloc_since_gc : int;  (* small objects only *)
  mutable large_alloc_since_gc : int;  (* all large allocation *)
  mutable loo_enabled : bool;
  mutable recent_survival : float;
  mutable gc_hook : Phase.t -> unit;
  (* [None] unless a recorder is attached: the mutator calls build no
     trace event otherwise. *)
  mutable event_hook : (Trace.event -> unit) option;
  mutable in_major : bool;
  mutable pcm_writes_at_last_major : int;
}

let config t = t.cfg
let stats t = t.stats
let now t = t.now
let domains t = t.domains
let shutdown _ = ()
let words t = t.words
let is_young t o = O.space t.words o <= sp_observer
let in_nursery t o = O.space t.words o = sp_nursery

(* The port a given mutator domain issues its traffic through. *)
let[@inline] mut_mem t domain = t.mut_mems.(domain)

let object_in_pcm t o =
  Kg_mem.Address_map.kind_of t.map (O.addr t.words o) = Kg_mem.Device.Pcm

let set_gc_hook t f = t.gc_hook <- f

let set_event_hook t f = t.event_hook <- Some f

(* ------------------------------------------------------------------ *)
(* Introspection (for the invariant auditor and tests)                 *)

let address_map t = t.map
let mem t = t.mem

(* Push any buffered port records to the sink; callers reading device
   counters or controller state mid-run must flush first. The runtime
   itself flushes before every gc_hook invocation. Domain ports drain
   first (one delivery), then the runtime's own port, matching
   program order: mutator records were issued before whatever the
   caller is about to account. *)
let flush_mem t =
  if t.domains > 1 then Mem_iface.flush t.mut_mems.(0);
  Mem_iface.flush t.mem

let nursery_space t = t.nurseries.(0)
let nursery_spaces t = t.nurseries
let observer_space t = t.observer
let mature_pcm_space t = t.mature_pcm
let mature_dram_space t = t.mature_dram
let los_pcm_space t = t.los_pcm
let los_dram_space t = t.los_dram
let meta_kind t = t.meta_kind
let gen_remset t = t.gen_remset
let obs_remset t = t.obs_remset

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let line_mark_chunk_bytes = Immix_space.meta_bytes_per_block * (Layout.mature_region / Layout.block)

let create ?(domains = 1) ?parallel_gc:_ ~config:cfg ~mem ~map ~seed () =
  if domains <= 0 then invalid_arg "Runtime.create: domains must be positive";
  let open Kg_mem in
  let words = O.create () in
  let arena_of_region kind =
    match kind with
    | Device.Dram ->
      Arena.create ~kind ~base:(Address_map.dram_base map) ~size:(Address_map.dram_size map)
    | Device.Pcm ->
      Arena.create ~kind ~base:(Address_map.pcm_base map) ~size:(Address_map.pcm_size map)
  in
  (* The "main" arena hosts everything that is not explicitly DRAM: the
     single memory for the baselines, PCM for the Kingsguard configs. *)
  let main_arena =
    if Address_map.pcm_size map > 0 then arena_of_region Device.Pcm
    else arena_of_region Device.Dram
  in
  let dram_arena =
    match cfg.Gc_config.collector with
    | Gc_config.Gen_immix -> main_arena
    | _ -> arena_of_region Device.Dram
  in
  let meta_arena =
    match cfg.Gc_config.collector with
    | Gc_config.Kg_writers _ -> dram_arena
    | _ -> main_arena
  in
  let meta_bytes = ref 0 in
  let alloc_table bytes =
    let addr = Arena.reserve ~who:"meta" meta_arena bytes in
    meta_bytes := !meta_bytes + bytes;
    addr
  in
  let mature_pcm_meta = Vec.create () in
  let mature_dram_meta = Vec.create () in
  let mdo_tables = Hashtbl.create 64 in
  let mdo_on =
    match cfg.Gc_config.collector with
    | Gc_config.Kg_writers { mdo; _ } -> mdo
    | _ -> false
  in
  let on_pcm_region ~base =
    Vec.push mature_pcm_meta (alloc_table line_mark_chunk_bytes);
    if mdo_on then Hashtbl.replace mdo_tables base (alloc_table Layout.mark_table_bytes_per_region)
  in
  let on_dram_region ~base:_ =
    Vec.push mature_dram_meta (alloc_table line_mark_chunk_bytes)
  in
  (* Per-domain private nurseries splitting the configured nursery
     budget, all under the one [sp_nursery] space id. A single domain
     gets one nursery of the full size at the same arena offset as the
     pre-domain runtime — the layout (and so every downstream address)
     is unchanged. *)
  let nurseries =
    Array.init domains (fun d ->
        let name = if d = 0 then "nursery" else Printf.sprintf "nursery-%d" d in
        Bump_space.create ~words ~id:sp_nursery ~name ~arena:dram_arena
          ~size:(cfg.Gc_config.nursery_bytes / domains))
  in
  let has_observer = Gc_config.has_observer cfg in
  let observer =
    if has_observer then
      Some
        (Bump_space.create ~words ~id:sp_observer ~name:"observer" ~arena:dram_arena
           ~size:cfg.Gc_config.observer_bytes)
    else None
  in
  let mature_dram =
    if has_observer then
      Some
        (Immix_space.create ~words ~id:sp_mature_dram ~name:"mature-dram" ~arena:dram_arena
           ~on_new_region:on_dram_region ())
    else None
  in
  let mature_pcm =
    Immix_space.create ~words ~id:sp_mature_pcm ~name:"mature-pcm" ~arena:main_arena
      ~on_new_region:on_pcm_region ()
  in
  let los_dram =
    if has_observer then
      Some (Los.create ~words ~id:sp_los_dram ~name:"los-dram" ~arena:dram_arena)
    else None
  in
  let los_pcm = Los.create ~words ~id:sp_los_pcm ~name:"los-pcm" ~arena:main_arena in
  let remset_buffer = alloc_table (Units.mib / 4) in
  let gen_remset =
    Remset.create ~domains ~name:"gen" ~buffer_base:remset_buffer
      ~buffer_bytes:(Units.mib / 4) ()
  in
  let obs_remset =
    if has_observer then begin
      let b = alloc_table (Units.mib / 4) in
      Some
        (Remset.create ~domains ~name:"observer" ~buffer_base:b
           ~buffer_bytes:(Units.mib / 4) ())
    end
    else None
  in
  let mut_mems =
    if domains = 1 then [| mem |]
    else
      Kg_mem.Port.sequenced_group ~capacity:(Kg_mem.Port.capacity mem)
        ~sink:(Kg_mem.Port.sink mem) domains
  in
  {
    cfg;
    words;
    mem;
    mut_mems;
    domains;
    map;
    stats = Gc_stats.create ();
    rng = Rng.of_seed seed;
    nurseries;
    observer;
    mature_dram;
    mature_pcm;
    los_dram;
    los_pcm;
    meta_kind = Arena.kind meta_arena;
    meta_bytes;
    gen_remset;
    obs_remset;
    mature_dram_meta;
    mature_pcm_meta;
    mdo_tables;
    now = 0.0;
    nursery_alloc_since_gc = 0;
    large_alloc_since_gc = 0;
    loo_enabled = false;
    recent_survival = 0.2;
    gc_hook = (fun _ -> ());
    event_hook = None;
    in_major = false;
    pcm_writes_at_last_major = 0;
  }

(* ------------------------------------------------------------------ *)
(* Usage accounting                                                    *)

let usage t =
  {
    nursery_used =
      Array.fold_left (fun a n -> a + Bump_space.used_bytes n) 0 t.nurseries;
    observer_used = (match t.observer with Some o -> Bump_space.used_bytes o | None -> 0);
    mature_dram_used = (match t.mature_dram with Some s -> Immix_space.live_bytes s | None -> 0);
    mature_pcm_used = Immix_space.live_bytes t.mature_pcm;
    los_dram_used = (match t.los_dram with Some l -> Los.live_bytes l | None -> 0);
    los_pcm_used = Los.live_bytes t.los_pcm;
    meta_used = !(t.meta_bytes);
  }

let heap_used t =
  let u = usage t in
  u.nursery_used + u.observer_used + u.mature_dram_used + u.mature_pcm_used
  + u.los_dram_used + u.los_pcm_used

let space_kind_is_pcm t base = Kg_mem.Address_map.kind_of t.map base = Kg_mem.Device.Pcm

let dram_used t =
  let u = usage t in
  let add_if_dram base v acc = if space_kind_is_pcm t base then acc else acc + v in
  let acc = 0 in
  let acc = add_if_dram (Bump_space.base t.nurseries.(0)) u.nursery_used acc in
  let acc =
    match t.observer with Some o -> add_if_dram (Bump_space.base o) u.observer_used acc | None -> acc
  in
  let acc = acc + u.mature_dram_used + u.los_dram_used in
  let acc = if t.meta_kind = Kg_mem.Device.Dram then acc + u.meta_used else acc in
  acc

let pcm_used t =
  let u = usage t in
  let total =
    u.nursery_used + u.observer_used + u.mature_dram_used + u.mature_pcm_used
    + u.los_dram_used + u.los_pcm_used + u.meta_used
  in
  total - dram_used t

(* ------------------------------------------------------------------ *)
(* Copy machinery                                                      *)

(* Traffic of moving an object: the streaming pass lives with the
   object model ({!O.stream_copy}); the allocation into the destination
   space must already have updated the object's address. *)
let copy_traffic t ~old_addr o = O.stream_copy t.words t.mem ~old_addr o

let alloc_into_immix _t space o =
  if not (Immix_space.alloc space o) then
    failwith (Printf.sprintf "Runtime: %s exhausted" (Immix_space.name space))

(* Model of updating heap references to a moved object. The referrer
   count is small (most objects have one or two incoming pointers); we
   charge the slot writes against a random mature resident, which is
   where old-to-young and old-to-old pointers physically live. *)
let referrer_update_writes t moved =
  let w = t.words in
  let candidates = Immix_space.objects t.mature_pcm in
  let n = if Rng.bernoulli t.rng 0.3 then 2 else 1 in
  if Vec.length candidates > 0 then
    for _ = 1 to n do
      let r = Vec.get candidates (Rng.int t.rng (Vec.length candidates)) in
      if r <> moved then begin
        let slot = Rng.int t.rng 64 mod O.field_slots w r in
        Mem_iface.write t.mem ~addr:(O.field_addr w r slot) ~size:Layout.word;
        t.stats.Gc_stats.remset_slot_updates <- t.stats.Gc_stats.remset_slot_updates + 1
      end
    done

(* ------------------------------------------------------------------ *)
(* Remembered sets                                                     *)

(* Consume a remembered set: read each entry, and update the recorded
   slot if its target survived (and therefore moved). Slots live in the
   writing object's space, so updating a PCM-resident slot is a PCM
   write — the GC-phase PCM traffic of §6.1.6. *)
let process_remset t rs =
  let st = t.stats in
  Remset.iter rs (fun slot_addr target ->
      st.Gc_stats.scanned_objects <- st.Gc_stats.scanned_objects + 1;
      if O.is_live t.words target t.now then begin
        Mem_iface.write t.mem ~addr:slot_addr ~size:Layout.word;
        st.Gc_stats.remset_slot_updates <- st.Gc_stats.remset_slot_updates + 1
      end);
  Remset.clear rs

(* ------------------------------------------------------------------ *)
(* Collections                                                         *)

let adopt_large t los o =
  let old_addr = O.addr t.words o in
  Los.adopt los o;
  copy_traffic t ~old_addr o

(* Copy a nursery survivor to the observer if there is one with room:
   large survivors pass through it too (§4.2.4) and reach large PCM
   only after surviving an observer collection. Otherwise (no observer,
   or a survival spike overflowing it) a large survivor goes to large
   PCM and a small one to mature PCM. *)
let promote_nursery_object t o =
  let w = t.words in
  let old_addr = O.addr w o in
  let observed = match t.observer with Some obs -> Bump_space.alloc obs o | None -> false in
  if observed then begin
    copy_traffic t ~old_addr o;
    t.stats.Gc_stats.observer_in_bytes <- t.stats.Gc_stats.observer_in_bytes + O.size w o
  end
  else if O.is_large w o then adopt_large t t.los_pcm o
  else begin
    alloc_into_immix t t.mature_pcm o;
    copy_traffic t ~old_addr o
  end;
  O.set_age w o (Int.min (O.age w o + 1) O.max_age)

let collect_nursery t =
  let w = t.words in
  let st = t.stats in
  st.Gc_stats.nursery_gcs <- st.Gc_stats.nursery_gcs + 1;
  (* A minor collection is stop-the-world across every domain: promote
     each domain's survivors in domain order before the shared remset
     is consumed. *)
  let survived = ref 0 in
  let used =
    Int.max 1 (Array.fold_left (fun a n -> a + Bump_space.used_bytes n) 0 t.nurseries)
  in
  Array.iter
    (fun nursery ->
      Vec.iter
        (fun o ->
          if O.is_live w o t.now then begin
            promote_nursery_object t o;
            let osize = O.size w o in
            survived := !survived + osize;
            st.Gc_stats.copied_bytes_nursery <- st.Gc_stats.copied_bytes_nursery + osize
          end)
        (Bump_space.objects nursery);
      Bump_space.reset nursery)
    t.nurseries;
  st.Gc_stats.nursery_survived_bytes <- st.Gc_stats.nursery_survived_bytes + !survived;
  t.recent_survival <- 0.5 *. (t.recent_survival +. (float_of_int !survived /. float_of_int used));
  process_remset t t.gen_remset;
  (* LOO decision (§4.2.4): enable nursery allocation of large objects
     when large allocation outpaces the nursery. With hysteresis: once
     on, the optimization itself diverts large objects into the
     nursery, so the raw large-PCM rate collapses; only a clear drop in
     large pressure turns it back off. *)
  (match t.cfg.Gc_config.collector with
  | Gc_config.Kg_writers { loo = true; _ } ->
    t.loo_enabled <-
      (if t.loo_enabled then t.large_alloc_since_gc * 4 > t.nursery_alloc_since_gc
       else t.large_alloc_since_gc > t.nursery_alloc_since_gc)
  | _ -> ());
  t.nursery_alloc_since_gc <- 0;
  t.large_alloc_since_gc <- 0

(* Evacuate the observer space: written survivors to mature DRAM,
   read-mostly survivors to mature PCM, large survivors straight to the
   large PCM space (§4.2.1, §4.2.3, §4.2.4). *)
let evacuate_observer t obs =
  let w = t.words in
  let st = t.stats in
  let mature_dram = Option.get t.mature_dram in
  Vec.iter
    (fun o ->
      if not (O.is_live w o t.now) then Gc_stats.retire st w o
      else begin
        let osize = O.size w o in
        st.Gc_stats.observer_survived_bytes <- st.Gc_stats.observer_survived_bytes + osize;
        st.Gc_stats.copied_bytes_observer <- st.Gc_stats.copied_bytes_observer + osize;
        let old_addr = O.addr w o in
        if O.is_large w o then adopt_large t t.los_pcm o
        else if O.written w o then begin
          alloc_into_immix t mature_dram o;
          copy_traffic t ~old_addr o;
          O.set_written w o false;
          O.set_epoch_writes w o 0;
          st.Gc_stats.observer_to_dram_bytes <- st.Gc_stats.observer_to_dram_bytes + osize
        end
        else begin
          alloc_into_immix t t.mature_pcm o;
          copy_traffic t ~old_addr o;
          st.Gc_stats.observer_to_pcm_bytes <- st.Gc_stats.observer_to_pcm_bytes + osize
        end;
        O.set_age w o (Int.min (O.age w o + 1) O.max_age)
      end)
    (Bump_space.objects obs);
  Bump_space.reset obs

(* Work performed between [snapshot] and now, for the pause log. *)
let copied_scanned st =
  ( st.Gc_stats.copied_bytes_nursery + st.Gc_stats.copied_bytes_observer
    + st.Gc_stats.copied_bytes_major,
    st.Gc_stats.scanned_objects + st.Gc_stats.remset_slot_updates )

let log_pause t phase (copied0, scanned0) =
  let copied, scanned = copied_scanned t.stats in
  Gc_stats.log_collection t.stats phase ~copied:(copied - copied0) ~scanned:(scanned - scanned0)

(* The young generation's collection, alone or at the head of a major:
   with [~observer] and an observer space, evacuate the observer, then
   the nursery (part of an observer collection, §4.2.2), then consume
   the observer remset; otherwise the nursery alone. *)
let collect_young t ~observer =
  match t.observer with
  | Some obs when observer ->
    Mem_iface.set_phase t.mem Phase.Observer_gc;
    evacuate_observer t obs;
    collect_nursery t;
    Option.iter (process_remset t) t.obs_remset
  | _ ->
    Mem_iface.set_phase t.mem Phase.Nursery_gc;
    collect_nursery t

(* Every collection ends alike: log the pause with the work done since
   [work0], flush the runtime's port, then run the hook. *)
let end_collection t phase work0 =
  log_pause t phase work0;
  Mem_iface.flush t.mem;
  t.gc_hook phase

(* Marking a live mature object: trace-read its header and reference
   fields, then record its mark state. MDO redirects the mark write of
   PCM objects above 16 bytes into the DRAM mark table (§4.2.5). *)
let mark_object t ~(mdo : bool) ~in_pcm o =
  let w = t.words in
  let st = t.stats in
  st.Gc_stats.scanned_objects <- st.Gc_stats.scanned_objects + 1;
  let oaddr = O.addr w o in
  Mem_iface.read t.mem ~addr:oaddr
    ~size:(Int.min (O.size w o) (Layout.header_bytes + (O.ref_fields w o * Layout.word)));
  O.set_marked w o true;
  if mdo && in_pcm && not (O.is_small16 w o) then begin
    let rbase = Immix_space.region_base_of_addr t.mature_pcm oaddr in
    let table = Hashtbl.find t.mdo_tables rbase in
    Mem_iface.write t.mem ~addr:(table + ((oaddr - rbase) / Layout.small_mark_threshold)) ~size:1;
    st.Gc_stats.mark_table_writes <- st.Gc_stats.mark_table_writes + 1
  end
  else begin
    Mem_iface.write t.mem ~addr:oaddr ~size:1;
    st.Gc_stats.mark_header_writes <- st.Gc_stats.mark_header_writes + 1
  end

let sweep_immix t space meta_chunks =
  let write_meta ~block_index ~lines =
    let blocks_per_region = Layout.mature_region / Layout.block in
    let chunk = Vec.get meta_chunks (block_index / blocks_per_region) in
    let addr = chunk + (block_index mod blocks_per_region * Immix_space.meta_bytes_per_block) in
    Mem_iface.write t.mem ~addr ~size:lines
  in
  ignore
    (Immix_space.sweep space ~now:t.now ~write_meta
       ~on_dead:(fun o -> Gc_stats.retire t.stats t.words o)
       ())

(* Treadmill collection: snapping a live node rewrites two link words
   in its header, in whatever memory holds the object. *)
let collect_los t los ~keep =
  let evicted =
    Los.collect los ~now:t.now ~keep
      ~on_dead:(fun o -> Gc_stats.retire t.stats t.words o)
      ()
  in
  Los.iter los (fun o ->
      Mem_iface.write t.mem ~addr:(O.addr t.words o) ~size:(2 * Layout.word));
  evicted

let major_gc_inner t =
  let w = t.words in
  let st = t.stats in
  st.Gc_stats.major_gcs <- st.Gc_stats.major_gcs + 1;
  let work0 = copied_scanned st in
  collect_young t ~observer:true;
  Mem_iface.set_phase t.mem Phase.Major_gc;
  let mdo =
    match t.cfg.Gc_config.collector with
    | Gc_config.Kg_writers { mdo; _ } -> mdo
    | _ -> false
  in
  (* Mark phase over the mature Immix spaces. *)
  let mark_space space ~in_pcm =
    Vec.iter
      (fun o -> if O.is_live w o t.now then mark_object t ~mdo ~in_pcm o)
      (Immix_space.objects space)
  in
  mark_space t.mature_pcm ~in_pcm:true;
  (match t.mature_dram with Some s -> mark_space s ~in_pcm:false | None -> ());
  (* KG-W movement between mature spaces (§4.2.3): unwritten DRAM
     objects out to PCM, then written PCM objects back to DRAM. A move
     appends to the destination's population only, so each pass walks
     a population that does not grow under it; the PCM pass also walks
     the objects the DRAM pass just moved, which are unwritten and
     stay put. *)
  let move_to dst o =
    let old_addr = O.addr w o in
    alloc_into_immix t dst o;
    copy_traffic t ~old_addr o;
    st.Gc_stats.copied_bytes_major <- st.Gc_stats.copied_bytes_major + O.size w o;
    referrer_update_writes t o
  in
  (match t.mature_dram with
  | Some mature_dram ->
    Vec.iter
      (fun o ->
        if O.is_live w o t.now && not (O.written w o) then begin
          move_to t.mature_pcm o;
          st.Gc_stats.mature_moves_to_pcm <- st.Gc_stats.mature_moves_to_pcm + 1
        end)
      (Immix_space.objects mature_dram);
    Vec.iter
      (fun o ->
        if O.is_live w o t.now && O.written w o && O.space w o = sp_mature_pcm then begin
          move_to mature_dram o;
          st.Gc_stats.mature_moves_to_dram <- st.Gc_stats.mature_moves_to_dram + 1
        end)
      (Immix_space.objects t.mature_pcm);
    (* Start a fresh monitoring epoch for the next major cycle. *)
    let fresh o =
      O.set_written w o false;
      O.set_epoch_writes w o 0
    in
    Vec.iter fresh (Immix_space.objects mature_dram);
    Vec.iter fresh (Immix_space.objects t.mature_pcm)
  | None -> ());
  (* Sweep phase. *)
  sweep_immix t t.mature_pcm t.mature_pcm_meta;
  (match t.mature_dram with Some s -> sweep_immix t s t.mature_dram_meta | None -> ());
  (* Large object spaces: written PCM objects move to the DRAM
     treadmill and never come back (§4.2.4). *)
  (match t.los_dram with
  | Some los_dram ->
    let evicted = collect_los t t.los_pcm ~keep:(fun o -> not (O.written w o)) in
    List.iter
      (fun o ->
        adopt_large t los_dram o;
        O.set_written w o false;
        O.set_epoch_writes w o 0;
        st.Gc_stats.los_moves_to_dram <- st.Gc_stats.los_moves_to_dram + 1)
      evicted;
    ignore (collect_los t los_dram ~keep:(fun _ -> true))
  | None -> ignore (collect_los t t.los_pcm ~keep:(fun _ -> true)));
  let unmark o = O.set_marked w o false in
  Vec.iter unmark (Immix_space.objects t.mature_pcm);
  (match t.mature_dram with Some s -> Vec.iter unmark (Immix_space.objects s) | None -> ());
  end_collection t Phase.Major_gc work0

(* Entry into any stop-the-world section. Every domain's buffered port
   records drain first (one delivery of the group's shared buffer —
   flushing any member flushes them all), then each domain publishes
   its pending remset entries in domain order. Only after the
   handshake may a collection consume remset entries; {!Verify} flags
   pending entries still unpublished when a collection phase ends. *)
let stw_prologue t =
  if t.domains > 1 then begin
    Mem_iface.flush t.mut_mems.(0);
    ignore (Remset.handshake t.gen_remset);
    Option.iter (fun rs -> ignore (Remset.handshake rs)) t.obs_remset
  end

let run_major t =
  if not t.in_major then begin
    t.in_major <- true;
    stw_prologue t;
    major_gc_inner t;
    Mem_iface.set_phase t.mem Phase.Application;
    t.in_major <- false;
    t.pcm_writes_at_last_major <- t.stats.Gc_stats.app_write_bytes_pcm
  end

(* Only externally forced majors are traced: heap- and write-triggered
   collections re-fire by themselves when a trace is replayed. *)
let major_gc t =
  Option.iter (fun f -> f Trace.Major_gc) t.event_hook;
  run_major t

let maybe_major t =
  if heap_used t > t.cfg.Gc_config.heap_bytes then run_major t
  else
    (* Extension (§6.2.1 future work): writes accumulating on PCM
       objects can themselves justify a full collection, which rescues
       the written objects into DRAM well before the heap fills. *)
    match t.cfg.Gc_config.pcm_write_trigger_bytes with
    | Some limit when t.stats.Gc_stats.app_write_bytes_pcm - t.pcm_writes_at_last_major > limit ->
      run_major t
    | _ -> ()

(* A young collection outside a major: nursery only for the baselines;
   with an observer, a plain nursery GC when the observer has room for
   1.5x the expected survivors, otherwise a full observer collection. *)
let young_gc t =
  stw_prologue t;
  let observer =
    match t.observer with
    | Some obs ->
      let expected =
        int_of_float
          (t.recent_survival
          *. float_of_int
               (Array.fold_left (fun a n -> a + Bump_space.used_bytes n) 0 t.nurseries))
      in
      Bump_space.free_bytes obs < expected * 3 / 2
    | None -> false
  in
  let st = t.stats in
  if observer then st.Gc_stats.observer_gcs <- st.Gc_stats.observer_gcs + 1;
  let work0 = copied_scanned st in
  collect_young t ~observer;
  end_collection t (if observer then Phase.Observer_gc else Phase.Nursery_gc) work0;
  Mem_iface.set_phase t.mem Phase.Application;
  maybe_major t

(* ------------------------------------------------------------------ *)
(* Mutator interface                                                   *)

let alloc_large t ~domain o =
  let w = t.words in
  let osize = O.size w o in
  let st = t.stats in
  st.Gc_stats.large_allocs <- st.Gc_stats.large_allocs + 1;
  t.large_alloc_since_gc <- t.large_alloc_since_gc + osize;
  let nursery = t.nurseries.(domain) in
  let in_nursery_ok =
    t.loo_enabled && osize < Bump_space.free_bytes nursery / 2
    && Bump_space.alloc nursery o
  in
  if in_nursery_ok then begin
    st.Gc_stats.large_allocs_in_nursery <- st.Gc_stats.large_allocs_in_nursery + 1;
    st.Gc_stats.nursery_alloc_bytes <- st.Gc_stats.nursery_alloc_bytes + osize
  end
  else if not (Los.alloc t.los_pcm o) then
    failwith "Runtime: large object space exhausted"

let rec alloc_small t ~domain o =
  if not (Bump_space.alloc t.nurseries.(domain) o) then begin
    young_gc t;
    alloc_small t ~domain o
  end
  else begin
    let osize = O.size t.words o in
    t.stats.Gc_stats.nursery_alloc_bytes <- t.stats.Gc_stats.nursery_alloc_bytes + osize;
    t.nursery_alloc_since_gc <- t.nursery_alloc_since_gc + osize
  end

let alloc ?(domain = 0) t ~size ~heat ~death ~ref_fields =
  let size = Layout.align_object_size size in
  let o = O.make t.words ~size ~heat ~death ~ref_fields in
  if O.is_large t.words o then alloc_large t ~domain o else alloc_small t ~domain o;
  O.stream_init t.words (mut_mem t domain) o;
  t.now <- t.now +. float_of_int size;
  maybe_major t;
  (match t.event_hook with
  | Some f -> f (Trace.Alloc { id = O.id o; size; heat; death; ref_fields })
  | None -> ());
  o

let alloc_boot t ~size ~heat ~ref_fields =
  let size = Layout.align_object_size size in
  let o = O.make t.words ~size ~heat ~death:infinity ~ref_fields in
  if O.is_large t.words o then begin
    if not (Los.alloc t.los_pcm o) then failwith "Runtime: large object space exhausted"
  end
  else alloc_into_immix t t.mature_pcm o;
  O.set_age t.words o 1;
  O.stream_init t.words t.mem o;
  t.now <- t.now +. float_of_int size;
  (match t.event_hook with
  | Some f -> f (Trace.Alloc_boot { id = O.id o; size; heat; ref_fields })
  | None -> ());
  o

let classify_app_write t o slot_addr =
  let w = t.words in
  let st = t.stats in
  let sp = O.space w o in
  (* Per-object counts feed the Figure 2 concentration analysis, which
     considers only writes received outside the nursery. *)
  if sp <> sp_nursery then O.set_writes w o (Int.min (O.writes w o + 1) O.max_writes);
  if sp = sp_nursery then
    st.Gc_stats.app_writes_nursery <- st.Gc_stats.app_writes_nursery + 1
  else if sp = sp_observer then
    st.Gc_stats.app_writes_observer <- st.Gc_stats.app_writes_observer + 1
  else st.Gc_stats.app_writes_mature <- st.Gc_stats.app_writes_mature + 1;
  match Kg_mem.Address_map.kind_of t.map slot_addr with
  | Kg_mem.Device.Dram ->
    st.Gc_stats.app_write_bytes_dram <- st.Gc_stats.app_write_bytes_dram + Layout.word
  | Kg_mem.Device.Pcm ->
    st.Gc_stats.app_write_bytes_pcm <- st.Gc_stats.app_write_bytes_pcm + Layout.word

(* The KG-W monitoring slow path (Figure 4, lines 13-17): every store
   to a non-nursery object also sets the write word in its header.
   [mem] is the issuing domain's port. *)
let monitor_write t mem o =
  let w = t.words in
  if O.space w o <> sp_nursery then begin
    (* The write word records a count; "written" for placement means
       reaching the configured threshold (1 reproduces the paper's
       single bit; higher values are the counting extension). *)
    let ew = Int.min (O.epoch_writes w o + 1) O.max_epoch_writes in
    O.set_epoch_writes w o ew;
    if ew >= t.cfg.Gc_config.write_threshold then O.set_written w o true;
    Mem_iface.write mem ~addr:(O.addr w o + Layout.header_bytes) ~size:Layout.word;
    t.stats.Gc_stats.monitor_header_writes <- t.stats.Gc_stats.monitor_header_writes + 1
  end

(* Remset entry via the path matching the runtime's domain count: the
   sequential fast path publishes directly into the shared set; a
   multicore barrier records into the issuing domain's pending buffer,
   published at the next stop-the-world handshake. *)
let remset_note t rs ~domain ~slot_addr ~target =
  if t.domains = 1 then Remset.insert rs ~slot_addr ~target
  else Remset.record rs ~domain ~slot_addr ~target

(* The i-th field slot the barrier touches: uniform over [0, 64) like
   the record heap, wrapped into the object's payload. *)
let[@inline] pick_slot t o =
  Rng.int t.rng 64 mod O.field_slots t.words o

let write_ref ?(domain = 0) t ~src ~tgt =
  let w = t.words in
  (match t.event_hook with
  | Some f -> f (Trace.Write_ref { src = O.id src; tgt = O.id tgt })
  | None -> ());
  let st = t.stats in
  let mem = mut_mem t domain in
  st.Gc_stats.ref_writes <- st.Gc_stats.ref_writes + 1;
  let slot_addr = O.field_addr w src (pick_slot t src) in
  classify_app_write t src slot_addr;
  let slow = ref false in
  if O.space w src <> sp_nursery && O.space w tgt = sp_nursery then begin
    let maddr = remset_note t t.gen_remset ~domain ~slot_addr ~target:tgt in
    Mem_iface.write mem ~addr:maddr ~size:Layout.word;
    st.Gc_stats.gen_remset_inserts <- st.Gc_stats.gen_remset_inserts + 1;
    slow := true
  end;
  (match t.obs_remset with
  | Some rs when O.space w src > sp_observer && O.space w tgt <= sp_observer ->
    let maddr = remset_note t rs ~domain ~slot_addr ~target:tgt in
    Mem_iface.write mem ~addr:maddr ~size:Layout.word;
    st.Gc_stats.obs_remset_inserts <- st.Gc_stats.obs_remset_inserts + 1;
    slow := true
  | _ -> ());
  (match t.cfg.Gc_config.collector with
  | Gc_config.Kg_writers _ ->
    monitor_write t mem src;
    slow := true
  | _ -> ());
  if not !slow then st.Gc_stats.barrier_fast_paths <- st.Gc_stats.barrier_fast_paths + 1;
  Mem_iface.write mem ~addr:slot_addr ~size:Layout.word

let write_prim ?(domain = 0) t o =
  let w = t.words in
  (match t.event_hook with Some f -> f (Trace.Write_prim { obj = O.id o }) | None -> ());
  let st = t.stats in
  let mem = mut_mem t domain in
  st.Gc_stats.prim_writes <- st.Gc_stats.prim_writes + 1;
  let slot_addr = O.field_addr w o (pick_slot t o) in
  classify_app_write t o slot_addr;
  (match t.cfg.Gc_config.collector with
  | Gc_config.Kg_writers { pm = true; _ } -> monitor_write t mem o
  | _ -> st.Gc_stats.barrier_fast_paths <- st.Gc_stats.barrier_fast_paths + 1);
  Mem_iface.write mem ~addr:slot_addr ~size:Layout.word

let read_obj ?(domain = 0) t o =
  (match t.event_hook with Some f -> f (Trace.Read { obj = O.id o }) | None -> ());
  t.stats.Gc_stats.reads <- t.stats.Gc_stats.reads + 1;
  Mem_iface.read (mut_mem t domain)
    ~addr:(O.field_addr t.words o (pick_slot t o))
    ~size:Layout.word

let read_burst ?(domain = 0) t o n =
  let w = t.words in
  (match t.event_hook with
  | Some f -> f (Trace.Read_burst { obj = O.id o; words = n })
  | None -> ());
  t.stats.Gc_stats.reads <- t.stats.Gc_stats.reads + n;
  let addr = O.field_addr w o (pick_slot t o) in
  let size = Int.min (n * Layout.word) (O.size w o - (addr - O.addr w o)) in
  Mem_iface.read (mut_mem t domain) ~addr ~size:(Int.max Layout.word size)

let flush_retirement_stats t =
  let w = t.words in
  let st = t.stats in
  let each o = if O.is_live w o t.now then Gc_stats.retire st w o in
  Vec.iter each (Immix_space.objects t.mature_pcm);
  (match t.mature_dram with Some s -> Vec.iter each (Immix_space.objects s) | None -> ());
  (match t.observer with Some obs -> Vec.iter each (Bump_space.objects obs) | None -> ());
  Los.iter t.los_pcm each;
  match t.los_dram with Some l -> Los.iter l each | None -> ()

let nursery_free ?(domain = 0) t = Bump_space.free_bytes t.nurseries.(domain)
