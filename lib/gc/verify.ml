open Kg_util
module O = Kg_heap.Object_model
module Bump = Kg_heap.Bump_space
module Immix = Kg_heap.Immix_space
module Los = Kg_heap.Los
module Meta = Kg_heap.Meta_space
module Layout = Kg_heap.Layout
module Map = Kg_mem.Address_map
module Device = Kg_mem.Device

type violation = { phase : Phase.t; invariant : string; detail : string }

let to_string v = Printf.sprintf "[%s] %s: %s" (Phase.to_string v.phase) v.invariant v.detail

(* A uniform view over every object-holding space of the runtime. *)
type pop = {
  p_name : string;
  p_id : int;
  p_kind : Device.kind;
  p_iter : (O.t -> unit) -> unit;
}

let populations rt =
  let bump name sp =
    {
      p_name = name;
      p_id = Bump.id sp;
      p_kind = Bump.kind sp;
      p_iter = (fun f -> Vec.iter f (Bump.objects sp));
    }
  in
  let immix name sp =
    {
      p_name = name;
      p_id = Immix.id sp;
      p_kind = Immix.kind sp;
      p_iter = (fun f -> Vec.iter f (Immix.objects sp));
    }
  in
  let los name l =
    { p_name = name; p_id = Los.id l; p_kind = Los.kind l; p_iter = (fun f -> Los.iter l f) }
  in
  List.concat
    [
      (Runtime.nursery_spaces rt |> Array.to_list
      |> List.map (fun sp -> bump (Bump.name sp) sp));
      (match Runtime.observer_space rt with Some s -> [ bump "observer" s ] | None -> []);
      (match Runtime.mature_dram_space rt with Some s -> [ immix "mature-dram" s ] | None -> []);
      [ immix "mature-pcm" (Runtime.mature_pcm_space rt) ];
      (match Runtime.los_dram_space rt with Some l -> [ los "los-dram" l ] | None -> []);
      [ los "los-pcm" (Runtime.los_pcm_space rt) ];
    ]

let live_census rt =
  let w = Runtime.words rt in
  let now = Runtime.now rt in
  let count = ref 0 and bytes = ref 0 in
  List.iter
    (fun p ->
      p.p_iter (fun o ->
          if O.is_live w o now then begin
            incr count;
            bytes := !bytes + O.size w o
          end))
    (populations rt);
  (!count, !bytes)

let audit ?counters ?(phase = Phase.Application) rt =
  (* The counter cross-checks below read the device tallies, so any
     records still buffered in the memory port must reach the sink
     first. *)
  Runtime.flush_mem rt;
  let vs = ref [] in
  let add invariant fmt =
    Printf.ksprintf (fun detail -> vs := { phase; invariant; detail } :: !vs) fmt
  in
  let st = Runtime.stats rt in
  let w = Runtime.words rt in
  let map = Runtime.address_map rt in
  let now = Runtime.now rt in
  let pops = populations rt in

  (* I1: every resident object carries its space's id, lies on the
     device backing that space (checked through the address map at both
     ends, so an object cannot straddle devices either), and resides in
     exactly one space. *)
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun p ->
      p.p_iter (fun o ->
          let oid = O.id o in
          let oaddr = O.addr w o and osize = O.size w o in
          if O.space w o <> p.p_id then
            add "space-id" "%s holds object %d with space id %d (expected %d)" p.p_name oid
              (O.space w o) p.p_id;
          if oaddr < 0 then add "placement" "%s holds unallocated object %d" p.p_name oid
          else begin
            (match Map.kind_of map oaddr with
            | k when k <> p.p_kind ->
              add "placement" "object %d at %#x is on %s but %s is a %s space" oid oaddr
                (Device.kind_to_string k) p.p_name (Device.kind_to_string p.p_kind)
            | _ -> ()
            | exception Invalid_argument _ ->
              add "placement" "object %d at %#x lies outside the address map" oid oaddr);
            match Map.kind_of map (oaddr + osize - 1) with
            | k when k <> p.p_kind ->
              add "placement" "object %d (%#x..%#x) straddles devices" oid oaddr
                (oaddr + osize - 1)
            | _ -> ()
            | exception Invalid_argument _ ->
              add "placement" "object %d at %#x extends outside the address map" oid oaddr
          end;
          match Hashtbl.find_opt seen oid with
          | Some other ->
            add "unique-residence" "object %d resides in both %s and %s" oid other p.p_name
          | None -> Hashtbl.add seen oid p.p_name))
    pops;

  (* I2: bump spaces are contiguous — residents in allocation order
     tile the space from its base, ending at the bump cursor. *)
  let check_bump name sp =
    let cursor = ref (Bump.base sp) in
    Vec.iter
      (fun o ->
        if O.addr w o <> !cursor then
          add "bump-contiguity" "%s object %d sits at %#x, expected %#x" name (O.id o)
            (O.addr w o) !cursor;
        cursor := O.end_addr w o)
      (Bump.objects sp);
    let extent = !cursor - Bump.base sp in
    if extent <> Bump.used_bytes sp then
      add "bump-contiguity" "%s used_bytes %d disagrees with resident extent %d" name
        (Bump.used_bytes sp) extent
  in
  Array.iter
    (fun sp -> check_bump (Bump.name sp) sp)
    (Runtime.nursery_spaces rt);
  Option.iter (check_bump "observer") (Runtime.observer_space rt);

  (* I3: Immix line/block metadata is consistent with the resident
     objects (structural checks always; exact line-mark coverage when no
     allocation has happened since the last sweep — see
     {!Immix_space.audit}). *)
  let check_immix sp = List.iter (fun m -> add "immix" "%s" m) (Immix.audit sp) in
  check_immix (Runtime.mature_pcm_space rt);
  Option.iter check_immix (Runtime.mature_dram_space rt);

  (* Live objects of an Immix space never overlap: sorted by address,
     each ends at or before the next begins. (In a bump space,
     bump-contiguity above already implies this.) *)
  let check_overlap name sp =
    let live =
      Vec.fold (fun acc o -> if O.is_live w o now then o :: acc else acc) [] (Immix.objects sp)
    in
    let rec go = function
      | a :: (b :: _ as rest) ->
        if O.end_addr w a > O.addr w b then
          add "no-overlap" "%s: live objects %d at %#x and %d at %#x overlap" name (O.id a)
            (O.addr w a) (O.id b) (O.addr w b);
        go rest
      | _ -> ()
    in
    go (List.sort (fun a b -> Int.compare (O.addr w a) (O.addr w b)) live)
  in
  check_overlap "mature-pcm" (Runtime.mature_pcm_space rt);
  Option.iter (check_overlap "mature-dram") (Runtime.mature_dram_space rt);

  (* LOS occupancy accounting matches its treadmill population. *)
  let check_los name l =
    let bytes = ref 0 and count = ref 0 in
    Los.iter l (fun o ->
        bytes := !bytes + O.size w o;
        incr count);
    if !bytes <> Los.live_bytes l then
      add "los-occupancy" "%s live_bytes %d disagrees with resident bytes %d" name
        (Los.live_bytes l) !bytes;
    if !count <> Los.object_count l then
      add "los-occupancy" "%s object_count %d disagrees with resident count %d" name
        (Los.object_count l) !count
  in
  check_los "los-pcm" (Runtime.los_pcm_space rt);
  Option.iter (check_los "los-dram") (Runtime.los_dram_space rt);

  (* I4: on a hybrid system, spaces sit on the devices Figure 3
     prescribes for the collector configuration. *)
  if Map.dram_size map > 0 && Map.pcm_size map > 0 then begin
    let expect name k want =
      if k <> want then
        add "config-placement" "%s space is on %s, the configuration places it on %s" name
          (Device.kind_to_string k) (Device.kind_to_string want)
    in
    let nursery_kind = Bump.kind (Runtime.nursery_space rt) in
    match (Runtime.config rt).Gc_config.collector with
    | Gc_config.Gen_immix ->
      List.iter
        (fun p ->
          if p.p_kind <> nursery_kind then
            add "config-placement" "GenImmix is single-memory but %s is on %s while the nursery is on %s"
              p.p_name (Device.kind_to_string p.p_kind) (Device.kind_to_string nursery_kind))
        pops;
      expect "metadata" (Meta.kind (Runtime.meta_space rt)) nursery_kind
    | Gc_config.Kg_nursery ->
      expect "nursery" nursery_kind Device.Dram;
      expect "mature-pcm" (Immix.kind (Runtime.mature_pcm_space rt)) Device.Pcm;
      expect "los-pcm" (Los.kind (Runtime.los_pcm_space rt)) Device.Pcm;
      expect "metadata" (Meta.kind (Runtime.meta_space rt)) Device.Pcm
    | Gc_config.Kg_writers _ ->
      expect "nursery" nursery_kind Device.Dram;
      Option.iter (fun s -> expect "observer" (Bump.kind s) Device.Dram) (Runtime.observer_space rt);
      Option.iter
        (fun s -> expect "mature-dram" (Immix.kind s) Device.Dram)
        (Runtime.mature_dram_space rt);
      expect "mature-pcm" (Immix.kind (Runtime.mature_pcm_space rt)) Device.Pcm;
      Option.iter (fun l -> expect "los-dram" (Los.kind l) Device.Dram) (Runtime.los_dram_space rt);
      expect "los-pcm" (Los.kind (Runtime.los_pcm_space rt)) Device.Pcm;
      expect "metadata" (Meta.kind (Runtime.meta_space rt)) Device.Dram
  end;

  (* I5: remembered sets are consumed by the collections that use them
     and never retain entries pointing back into an evacuated space. *)
  let gen = Runtime.gen_remset rt in
  let obs = Runtime.obs_remset rt in
  (match phase with
  | Phase.Nursery_gc | Phase.Observer_gc | Phase.Major_gc ->
    if Remset.length gen <> 0 then
      add "remset" "generational remset holds %d entries after a %s" (Remset.length gen)
        (Phase.to_string phase);
    (* Missed handshake: with multiple domains, every stop-the-world
       section must begin by publishing all per-domain pending entries
       — any still buffered when the collection ends were invisible to
       the collector and could have been dropped as roots. *)
    if Remset.pending_total gen <> 0 then
      add "remset-handshake" "generational remset has %d unpublished pending entries after a %s"
        (Remset.pending_total gen) (Phase.to_string phase);
    Option.iter
      (fun rs ->
        if Remset.pending_total rs <> 0 then
          add "remset-handshake" "observer remset has %d unpublished pending entries after a %s"
            (Remset.pending_total rs) (Phase.to_string phase))
      obs
  | Phase.Application | Phase.Migration -> ());
  (match (phase, obs) with
  | (Phase.Observer_gc | Phase.Major_gc), Some rs ->
    if Remset.length rs <> 0 then
      add "remset" "observer remset holds %d entries after a %s" (Remset.length rs)
        (Phase.to_string phase)
  | Phase.Nursery_gc, Some rs ->
    Remset.iter rs (fun e ->
        if
          O.is_live w e.Remset.target now
          && O.space w e.Remset.target = Runtime.sp_nursery
        then
          add "remset" "observer remset slot %#x still targets live nursery object %d after a nursery collection"
            e.Remset.slot_addr (O.id e.Remset.target))
  | _ -> ());
  if Remset.total_inserts gen < st.Gc_stats.gen_remset_inserts then
    add "remset" "generational remset lifetime inserts %d below the statistics' %d"
      (Remset.total_inserts gen) st.Gc_stats.gen_remset_inserts;
  Option.iter
    (fun rs ->
      if Remset.total_inserts rs < st.Gc_stats.obs_remset_inserts then
        add "remset" "observer remset lifetime inserts %d below the statistics' %d"
          (Remset.total_inserts rs) st.Gc_stats.obs_remset_inserts)
    obs;

  (* I6: counter conservation laws. *)
  let eq inv la a lb b = if a <> b then add inv "%s (%d) <> %s (%d)" la a lb b in
  let le inv la a lb b = if a > b then add inv "%s (%d) exceeds %s (%d)" la a lb b in
  let writes = st.Gc_stats.ref_writes + st.Gc_stats.prim_writes in
  eq "write-conservation" "application writes by target space"
    (st.Gc_stats.app_writes_nursery + st.Gc_stats.app_writes_observer
   + st.Gc_stats.app_writes_mature)
    "ref + prim writes" writes;
  eq "write-conservation" "application write bytes by device"
    (st.Gc_stats.app_write_bytes_dram + st.Gc_stats.app_write_bytes_pcm)
    "word * (ref + prim writes)" (Layout.word * writes);
  le "write-conservation" "barrier fast paths" st.Gc_stats.barrier_fast_paths
    "ref + prim writes" writes;
  eq "copy-conservation" "copied_bytes_nursery" st.Gc_stats.copied_bytes_nursery
    "nursery_survived_bytes" st.Gc_stats.nursery_survived_bytes;
  eq "copy-conservation" "copied_bytes_observer" st.Gc_stats.copied_bytes_observer
    "observer_survived_bytes" st.Gc_stats.observer_survived_bytes;
  le "copy-conservation" "nursery_survived_bytes" st.Gc_stats.nursery_survived_bytes
    "nursery_alloc_bytes" st.Gc_stats.nursery_alloc_bytes;
  le "copy-conservation" "observer_survived_bytes" st.Gc_stats.observer_survived_bytes
    "observer_in_bytes" st.Gc_stats.observer_in_bytes;
  le "demographics" "large_allocs_in_nursery" st.Gc_stats.large_allocs_in_nursery
    "large_allocs" st.Gc_stats.large_allocs;

  (* I7: device traffic tallies agree with the barrier's view. *)
  Option.iter
    (fun (c : Mem_iface.counters) ->
      eq "traffic-conservation" "per-phase PCM write bytes"
        (Array.fold_left ( + ) 0 c.Mem_iface.pcm_write_bytes_by_phase)
        "total PCM write bytes" c.Mem_iface.pcm_write_bytes;
      le "traffic-conservation" "barrier DRAM write bytes" st.Gc_stats.app_write_bytes_dram
        "device DRAM write bytes" c.Mem_iface.dram_write_bytes;
      le "traffic-conservation" "barrier PCM write bytes" st.Gc_stats.app_write_bytes_pcm
        "device PCM write bytes" c.Mem_iface.pcm_write_bytes)
    counters;

  List.rev !vs

let attach ?counters rt =
  let acc = Vec.create () in
  Runtime.add_gc_hook rt (fun phase -> List.iter (Vec.push acc) (audit ?counters ~phase rt));
  acc
