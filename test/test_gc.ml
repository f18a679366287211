open Kg_gc
module O = Kg_heap.Object_model
module Rt = Runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mib = Kg_util.Units.mib

(* Small heaps so collections trigger quickly in tests. *)
let mk ?(nursery_mb = 1) ?(heap_mb = 8) ?(map = Kg_mem.Address_map.hybrid ()) collector =
  let cfg = Gc_config.make ~nursery_mb ~heap_mb collector in
  let mem, counters = Mem_iface.counting ~map in
  let rt = Rt.create ~config:cfg ~mem ~map ~seed:1 () in
  (rt, counters)

let alloc ?(size = 64) ?(death = infinity) rt =
  Rt.alloc rt ~size ~heat:O.Cold ~death ~ref_fields:2

let fill_mb rt mb ~death =
  (* churn allocation to force collections *)
  for _ = 1 to mb * mib / 128 do
    ignore (alloc ~size:128 ~death rt)
  done

(* ------------------------------------------------------------------ *)
(* Config, phase, remset                                               *)

let test_config_names () =
  let n c = Gc_config.name (Gc_config.make ~heap_mb:64 c) in
  Alcotest.(check string) "genimmix" "GenImmix" (n Gc_config.Gen_immix);
  Alcotest.(check string) "kg-n" "KG-N" (n Gc_config.Kg_nursery);
  Alcotest.(check string) "kg-w" "KG-W" (n Gc_config.kg_w_default);
  Alcotest.(check string) "kg-w-loo" "KG-W-LOO"
    (n (Gc_config.Kg_writers { loo = false; mdo = true; pm = true }));
  Alcotest.(check string) "kg-w-loo-mdo" "KG-W-LOO-MDO"
    (n (Gc_config.Kg_writers { loo = false; mdo = false; pm = true }));
  Alcotest.(check string) "kg-w-pm" "KG-W-PM"
    (n (Gc_config.Kg_writers { loo = true; mdo = true; pm = false }));
  Alcotest.(check string) "kg-n-12" "KG-N-12"
    (Gc_config.name (Gc_config.make ~nursery_mb:12 ~heap_mb:64 Gc_config.Kg_nursery))

let test_config_observer_default () =
  let cfg = Gc_config.make ~nursery_mb:4 ~heap_mb:64 Gc_config.kg_w_default in
  check_int "observer = 2x nursery" (8 * mib) cfg.Gc_config.observer_bytes;
  check_bool "has observer" true (Gc_config.has_observer cfg);
  check_bool "genimmix has none" false
    (Gc_config.has_observer (Gc_config.make ~heap_mb:64 Gc_config.Gen_immix))

let test_phase_roundtrip () =
  List.iter
    (fun p -> check_bool "roundtrip" true (Phase.of_tag (Phase.to_tag p) = p))
    Phase.all;
  Alcotest.check_raises "invalid" (Invalid_argument "Phase.of_tag: 7") (fun () ->
      ignore (Phase.of_tag 7))

let test_remset_basic () =
  let rs = Remset.create ~name:"t" ~buffer_base:1000 ~buffer_bytes:64 () in
  let w = O.create () in
  let o = O.make w ~size:64 ~heat:O.Cold ~death:infinity ~ref_fields:1 in
  let a1 = Remset.insert rs ~slot_addr:42 ~target:o in
  check_bool "entry addr in buffer" true (a1 >= 1000 && a1 < 1064);
  for _ = 1 to 20 do
    let a = Remset.insert rs ~slot_addr:43 ~target:o in
    check_bool "cycles within buffer" true (a >= 1000 && a < 1064)
  done;
  check_int "length" 21 (Remset.length rs);
  check_int "total" 21 (Remset.total_inserts rs);
  let seen = ref 0 in
  Remset.iter rs (fun _ -> incr seen);
  check_int "iter" 21 !seen;
  Remset.clear rs;
  check_int "cleared" 0 (Remset.length rs);
  check_int "total persists" 21 (Remset.total_inserts rs)

(* Satellite 2a: model-based check of the multicore front end. Any
   interleaving of per-domain records and handshakes must leave the
   shared set holding exactly the published entries, with each
   handshake publishing pending buffers in domain order. *)
let remset_handshake_model_qcheck =
  QCheck.Test.make ~name:"remset handshake publishes pending in domain order" ~count:200
    QCheck.(pair (int_range 1 4) (small_list (int_range 0 99)))
    (fun (domains, ops) ->
      let rs =
        Remset.create ~domains ~name:"model" ~buffer_base:0 ~buffer_bytes:4096 ()
      in
      let w = O.create () in
      let o = O.make w ~size:64 ~heat:O.Cold ~death:infinity ~ref_fields:1 in
      (* Reference model: per-domain pending queues + published list. *)
      let m_pending = Array.make domains [] in
      let m_published = ref [] in
      let next_slot = ref 0 in
      let m_handshake () =
        Array.iteri
          (fun d q ->
            m_published := !m_published @ List.rev q;
            m_pending.(d) <- [])
          m_pending
      in
      let ok = ref true in
      List.iter
        (fun op ->
          if op mod 10 = 0 then begin
            ignore (Remset.handshake rs);
            m_handshake ()
          end
          else begin
            let d = op mod domains in
            incr next_slot;
            ignore (Remset.record rs ~domain:d ~slot_addr:!next_slot ~target:o);
            m_pending.(d) <- !next_slot :: m_pending.(d)
          end;
          let m_pending_total = Array.fold_left (fun a q -> a + List.length q) 0 m_pending in
          ok :=
            !ok
            && Remset.pending_total rs = m_pending_total
            && Remset.length rs = List.length !m_published)
        ops;
      (* Final handshake: the shared set must list every entry in
         publication order. *)
      ignore (Remset.handshake rs);
      m_handshake ();
      let seen = ref [] in
      Remset.iter rs (fun e -> seen := e.Remset.slot_addr :: !seen);
      !ok && List.rev !seen = !m_published && Remset.pending_total rs = 0)

let test_remset_record_slices () =
  (* Each domain's pending entries write into its own slice of the
     metadata store, so concurrent barrier hits never share lines. *)
  let rs = Remset.create ~domains:2 ~name:"s" ~buffer_base:1000 ~buffer_bytes:64 () in
  let w = O.create () in
  let o = O.make w ~size:64 ~heat:O.Cold ~death:infinity ~ref_fields:1 in
  for _ = 1 to 10 do
    let a0 = Remset.record rs ~domain:0 ~slot_addr:1 ~target:o in
    let a1 = Remset.record rs ~domain:1 ~slot_addr:2 ~target:o in
    check_bool "domain 0 slice" true (a0 >= 1000 && a0 < 1032);
    check_bool "domain 1 slice" true (a1 >= 1032 && a1 < 1064)
  done;
  check_int "pending per domain" 10 (Remset.pending_length rs ~domain:0);
  check_int "published" 20 (Remset.handshake rs);
  check_int "handshake count" 1 (Remset.handshakes rs)

(* Satellite 2b: a pending entry still unpublished when a collection
   phase ends is a protocol violation the auditor must flag. *)
let test_verify_catches_missed_handshake () =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Gc_config.make ~nursery_mb:1 ~heap_mb:8 Gc_config.Kg_nursery in
  let mem, _ = Mem_iface.counting ~map in
  let rt = Rt.create ~domains:2 ~config:cfg ~mem ~map ~seed:1 () in
  let src = Rt.alloc_boot rt ~size:64 ~heat:O.Cold ~ref_fields:2 in
  let tgt = Rt.alloc ~domain:1 rt ~size:64 ~heat:O.Cold ~death:infinity ~ref_fields:2 in
  Rt.write_ref ~domain:1 rt ~src ~tgt;
  check_bool "barrier hit is pending" true (Remset.pending_total (Rt.gen_remset rt) > 0);
  let flags phase =
    Verify.audit ~phase rt
    |> List.exists (fun v -> v.Verify.invariant = "remset-handshake")
  in
  check_bool "mutator phase is fine" false (flags Phase.Application);
  check_bool "nursery gc phase flags it" true (flags Phase.Nursery_gc);
  ignore (Remset.handshake (Rt.gen_remset rt));
  check_bool "handshake clears the violation" false (flags Phase.Nursery_gc)

let test_counting_mem () =
  let map = Kg_mem.Address_map.hybrid () in
  let mem, c = Mem_iface.counting ~map in
  Mem_iface.write mem ~addr:0 ~size:10;
  Mem_iface.set_phase mem Phase.Major_gc;
  Mem_iface.write mem ~addr:(2 * Kg_util.Units.gib) ~size:7;
  Mem_iface.read mem ~addr:(2 * Kg_util.Units.gib) ~size:5;
  Mem_iface.flush mem;
  check_int "dram writes" 10 c.Mem_iface.dram_write_bytes;
  check_int "pcm writes" 7 c.Mem_iface.pcm_write_bytes;
  check_int "pcm reads" 5 c.Mem_iface.pcm_read_bytes;
  check_int "phase attribution" 7 c.Mem_iface.pcm_write_bytes_by_phase.(Phase.to_tag Phase.Major_gc)

(* ------------------------------------------------------------------ *)
(* Allocation and promotion                                            *)

let test_alloc_in_nursery () =
  let rt, _ = mk Gc_config.Gen_immix in
  let o = alloc rt in
  check_bool "in nursery" true (Rt.in_nursery rt o);
  check_bool "young" true (Rt.is_young rt o);
  check_int "no collections yet" 0 (Rt.stats rt).Gc_stats.nursery_gcs

let test_nursery_gc_triggers_and_promotes () =
  let rt, _ = mk Gc_config.Gen_immix in
  let survivor = alloc rt in
  fill_mb rt 2 ~death:0.0;
  (* all dead churn *)
  check_bool "gc happened" true ((Rt.stats rt).Gc_stats.nursery_gcs >= 1);
  check_bool "survivor promoted" false (Rt.is_young rt survivor);
  check_bool "survivor aged" true (O.age (Rt.words rt) survivor >= 1)

let test_survival_stats_extremes () =
  let rt, _ = mk Gc_config.Gen_immix in
  fill_mb rt 3 ~death:0.0;
  check_bool "all-dead churn ~0 survival" true (Gc_stats.nursery_survival (Rt.stats rt) < 0.02)

let test_kgn_placement () =
  let rt, _ = mk Gc_config.Kg_nursery in
  let o = alloc rt in
  check_bool "nursery object in DRAM" false (Rt.object_in_pcm rt o);
  fill_mb rt 2 ~death:0.0;
  check_bool "promoted to PCM" true (Rt.object_in_pcm rt o)

let test_kgw_survivors_enter_observer () =
  let rt, _ = mk Gc_config.kg_w_default in
  let o = alloc rt in
  fill_mb rt 2 ~death:0.0;
  check_bool "left nursery" false (Rt.in_nursery rt o);
  check_bool "still young (observer)" true (Rt.is_young rt o);
  check_bool "observer is DRAM" false (Rt.object_in_pcm rt o)

let test_genimmix_promotes_directly () =
  let rt, _ = mk Gc_config.Gen_immix in
  let o = alloc rt in
  fill_mb rt 2 ~death:0.0;
  check_bool "not young after one gc" false (Rt.is_young rt o)

let test_boot_alloc () =
  let rt, _ = mk Gc_config.kg_w_default in
  let o = Rt.alloc_boot rt ~size:64 ~heat:O.Cold ~ref_fields:1 in
  check_bool "boot object mature" false (Rt.is_young rt o);
  check_bool "boot in PCM" true (Rt.object_in_pcm rt o);
  check_int "age 1" 1 (O.age (Rt.words rt) o);
  check_int "boot skips demographics" 0 (Rt.stats rt).Gc_stats.nursery_alloc_bytes

let test_nursery_12mb_variant () =
  let rt, _ = mk ~nursery_mb:12 ~heap_mb:64 Gc_config.Kg_nursery in
  fill_mb rt 11 ~death:0.0;
  check_int "no gc below 12MB" 0 (Rt.stats rt).Gc_stats.nursery_gcs;
  fill_mb rt 2 ~death:0.0;
  check_bool "gc above 12MB" true ((Rt.stats rt).Gc_stats.nursery_gcs >= 1)

(* ------------------------------------------------------------------ *)
(* Barriers                                                            *)

let test_write_barrier_remset () =
  let rt, _ = mk Gc_config.Gen_immix in
  let mature = alloc rt in
  fill_mb rt 2 ~death:0.0;
  (* mature is now in the mature space *)
  let young = alloc rt in
  Rt.write_ref rt ~src:mature ~tgt:young;
  check_int "old->young remembered" 1 (Rt.stats rt).Gc_stats.gen_remset_inserts;
  Rt.write_ref rt ~src:young ~tgt:mature;
  check_int "young->old not remembered" 1 (Rt.stats rt).Gc_stats.gen_remset_inserts

let test_kgw_observer_remset () =
  let rt, _ = mk Gc_config.kg_w_default in
  let obs_obj = alloc rt in
  fill_mb rt 2 ~death:0.0;
  (* obs_obj now in observer *)
  let mature = Rt.alloc_boot rt ~size:64 ~heat:O.Cold ~ref_fields:1 in
  Rt.write_ref rt ~src:mature ~tgt:obs_obj;
  check_bool "observer remset insert" true ((Rt.stats rt).Gc_stats.obs_remset_inserts >= 1)

let test_kgw_monitoring_sets_write_bit () =
  let rt, _ = mk Gc_config.kg_w_default in
  let o = alloc rt in
  Rt.write_prim rt o;
  check_bool "nursery writes unmonitored" false (O.written (Rt.words rt) o);
  fill_mb rt 2 ~death:0.0;
  Rt.write_prim rt o;
  check_bool "observer write monitored" true (O.written (Rt.words rt) o);
  check_bool "header write counted" true ((Rt.stats rt).Gc_stats.monitor_header_writes >= 1)

let test_genimmix_never_monitors () =
  let rt, _ = mk Gc_config.Gen_immix in
  let o = alloc rt in
  fill_mb rt 2 ~death:0.0;
  Rt.write_prim rt o;
  Rt.write_ref rt ~src:o ~tgt:o;
  check_bool "no write bit" false (O.written (Rt.words rt) o);
  check_int "no monitor writes" 0 (Rt.stats rt).Gc_stats.monitor_header_writes

let test_pm_variant_skips_primitives () =
  let rt, _ = mk (Gc_config.Kg_writers { loo = true; mdo = true; pm = false }) in
  let o = alloc rt in
  fill_mb rt 2 ~death:0.0;
  Rt.write_prim rt o;
  check_bool "primitive unmonitored" false (O.written (Rt.words rt) o);
  Rt.write_ref rt ~src:o ~tgt:o;
  check_bool "reference still monitored" true (O.written (Rt.words rt) o)

let test_write_classification () =
  let rt, _ = mk Gc_config.kg_w_default in
  let o = alloc rt in
  Rt.write_prim rt o;
  check_int "nursery write" 1 (Rt.stats rt).Gc_stats.app_writes_nursery;
  fill_mb rt 2 ~death:0.0;
  Rt.write_prim rt o;
  check_int "observer write" 1 (Rt.stats rt).Gc_stats.app_writes_observer

(* ------------------------------------------------------------------ *)
(* Observer classification and major-GC movement                       *)

let test_observer_classifies_written_to_dram () =
  let rt, _ = mk Gc_config.kg_w_default in
  let written = alloc rt in
  let clean = alloc rt in
  fill_mb rt 2 ~death:0.0;
  (* both in observer now *)
  Rt.write_prim rt written;
  (* fill the observer (2 MB) with survivors to force an observer GC *)
  fill_mb rt 4 ~death:(Rt.now rt +. (3.0 *. float_of_int mib));
  check_bool "observer gc ran" true ((Rt.stats rt).Gc_stats.observer_gcs >= 1);
  check_bool "written object left young gen" false (Rt.is_young rt written);
  check_bool "written object in DRAM" false (Rt.object_in_pcm rt written);
  check_bool "clean object in PCM" true (Rt.object_in_pcm rt clean);
  check_bool "write bit reset on placement" false (O.written (Rt.words rt) written)

let test_major_moves_written_pcm_to_dram () =
  let rt, _ = mk Gc_config.kg_w_default in
  let o = Rt.alloc_boot rt ~size:64 ~heat:O.Hot ~ref_fields:1 in
  check_bool "starts in PCM" true (Rt.object_in_pcm rt o);
  Rt.write_prim rt o;
  check_bool "monitored in mature PCM" true (O.written (Rt.words rt) o);
  Rt.major_gc rt;
  check_bool "moved to mature DRAM" false (Rt.object_in_pcm rt o);
  check_bool "bit reset after move" false (O.written (Rt.words rt) o);
  check_bool "stat recorded" true ((Rt.stats rt).Gc_stats.mature_moves_to_dram >= 1)

let test_major_moves_unwritten_dram_to_pcm () =
  let rt, _ = mk Gc_config.kg_w_default in
  let o = Rt.alloc_boot rt ~size:64 ~heat:O.Hot ~ref_fields:1 in
  Rt.write_prim rt o;
  Rt.major_gc rt;
  check_bool "in DRAM" false (Rt.object_in_pcm rt o);
  (* not written since: next major sends it back to PCM capacity *)
  Rt.major_gc rt;
  check_bool "unwritten object returns to PCM" true (Rt.object_in_pcm rt o)

let test_major_reclaims_dead_mature () =
  let rt, _ = mk Gc_config.Gen_immix in
  let doomed = alloc ~death:(10.0 *. float_of_int mib) rt in
  fill_mb rt 2 ~death:0.0;
  check_bool "promoted" false (Rt.is_young rt doomed);
  let used_before = Rt.heap_used rt in
  fill_mb rt 9 ~death:0.0;
  (* doomed now dead *)
  Rt.major_gc rt;
  check_bool "heap shrank or stable" true (Rt.heap_used rt <= used_before + (2 * mib))

let test_heap_trigger_fires_major () =
  let rt, _ = mk ~heap_mb:8 Gc_config.Gen_immix in
  (* allocate > 8 MB of immortal data; trigger must fire *)
  for _ = 1 to 10 * mib / 4096 do
    ignore (alloc ~size:4096 rt)
  done;
  check_bool "major happened" true ((Rt.stats rt).Gc_stats.major_gcs >= 1)

let test_kgn_nursery_gc_writes_pcm_slots () =
  (* §6.1.6: "KG-N incurs writes to PCM during a nursery collection
     both due to copying survivors into the PCM mature space and due to
     updating the references in PCM that point to them." *)
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Gc_config.make ~nursery_mb:1 ~heap_mb:8 Gc_config.Kg_nursery in
  let mem, c = Mem_iface.counting ~map in
  let rt = Rt.create ~config:cfg ~mem ~map ~seed:1 () in
  let pcm_holder = Rt.alloc_boot rt ~size:64 ~heat:O.Cold ~ref_fields:4 in
  let young = alloc rt in
  Rt.write_ref rt ~src:pcm_holder ~tgt:young;
  let tag = Phase.to_tag Phase.Nursery_gc in
  Mem_iface.flush mem;
  let before = c.Mem_iface.pcm_write_bytes_by_phase.(tag) in
  fill_mb rt 2 ~death:0.0;
  Mem_iface.flush mem;
  check_bool "nursery GC wrote PCM (survivor copies + slot updates)" true
    (c.Mem_iface.pcm_write_bytes_by_phase.(tag) > before);
  check_bool "slot update recorded" true ((Rt.stats rt).Gc_stats.remset_slot_updates >= 1)

let test_loo_enables_dynamically () =
  (* §4.2.4: LOO turns on when the large PCM space allocates faster
     than the nursery; large objects then start life in the nursery. *)
  let rt, _ = mk ~heap_mb:64 Gc_config.kg_w_default in
  let early = alloc ~size:(16 * 1024) rt in
  check_bool "LOO off at start: large goes to PCM" true (Rt.object_in_pcm rt early);
  (* out-allocate the nursery with large objects, then force exactly
     one nursery GC so the rate comparison runs (each further GC
     re-evaluates the rates) *)
  for _ = 1 to 128 do
    ignore (alloc ~size:(32 * 1024) ~death:0.0 rt)
  done;
  while (Rt.stats rt).Gc_stats.nursery_gcs = 0 do
    ignore (alloc ~size:128 ~death:0.0 rt)
  done;
  let late = alloc ~size:(16 * 1024) rt in
  check_bool "LOO on: large allocates in the nursery" true (Rt.in_nursery rt late);
  check_bool "counted" true ((Rt.stats rt).Gc_stats.large_allocs_in_nursery >= 1)

(* ------------------------------------------------------------------ *)
(* Large objects                                                       *)

let test_large_goes_to_los () =
  let rt, _ = mk Gc_config.kg_w_default in
  let o = alloc ~size:(16 * 1024) rt in
  check_bool "large flagged" true (O.is_large (Rt.words rt) o);
  check_bool "in PCM los" true (Rt.object_in_pcm rt o);
  check_bool "not young" false (Rt.is_young rt o);
  check_int "counted" 1 (Rt.stats rt).Gc_stats.large_allocs

let test_written_large_moves_to_dram_los_once () =
  let rt, _ = mk Gc_config.kg_w_default in
  let o = alloc ~size:(16 * 1024) rt in
  Rt.write_prim rt o;
  check_bool "monitored" true (O.written (Rt.words rt) o);
  Rt.major_gc rt;
  check_bool "moved to DRAM los" false (Rt.object_in_pcm rt o);
  check_int "stat" 1 (Rt.stats rt).Gc_stats.los_moves_to_dram;
  (* "once a large object is copied to DRAM, we never move it back" *)
  Rt.major_gc rt;
  check_bool "never moves back" false (Rt.object_in_pcm rt o)

let test_large_in_genimmix_single_los () =
  let rt, _ = mk Gc_config.Gen_immix ~map:(Kg_mem.Address_map.pcm_only ()) in
  let o = alloc ~size:(64 * 1024) rt in
  Rt.write_prim rt o;
  Rt.major_gc rt;
  check_bool "baseline never moves large" true (Rt.object_in_pcm rt o)

(* ------------------------------------------------------------------ *)
(* MDO                                                                 *)

let test_mdo_redirects_mark_writes () =
  let major_pcm_writes mdo =
    let rt, c = mk (Gc_config.Kg_writers { loo = true; mdo; pm = true }) in
    for _ = 1 to 2000 do
      ignore (Rt.alloc_boot rt ~size:256 ~heat:O.Cold ~ref_fields:2)
    done;
    (* boot objects live in mature PCM; a major marks them all *)
    Rt.major_gc rt;
    Rt.flush_mem rt;
    (Rt.stats rt).Gc_stats.mark_table_writes
    + (c.Mem_iface.pcm_write_bytes_by_phase.(Phase.to_tag Phase.Major_gc) * 0)
    |> fun table_writes ->
    (table_writes, c.Mem_iface.pcm_write_bytes_by_phase.(Phase.to_tag Phase.Major_gc))
  in
  let tw_on, pcm_on = major_pcm_writes true in
  let tw_off, pcm_off = major_pcm_writes false in
  check_bool "mdo writes tables" true (tw_on > 0);
  check_int "no tables without mdo" 0 tw_off;
  check_bool "mdo reduces major-GC PCM writes" true (pcm_on < pcm_off)

let test_mdo_small_objects_use_header () =
  let rt, _ = mk Gc_config.kg_w_default in
  for _ = 1 to 2000 do
    ignore (Rt.alloc_boot rt ~size:16 ~heat:O.Cold ~ref_fields:1)
  done;
  Rt.major_gc rt;
  check_bool "small objects mark in header" true ((Rt.stats rt).Gc_stats.mark_header_writes > 0)

(* ------------------------------------------------------------------ *)
(* Metadata placement (Figure 3): KG-N keeps JVM metadata in PCM,
   KG-W moves it (remsets, mark tables) to DRAM.                        *)

let test_metadata_device_placement () =
  (* Remset insert traffic lands where the metadata space lives. *)
  let run collector =
    let map = Kg_mem.Address_map.hybrid () in
    let cfg = Gc_config.make ~nursery_mb:1 ~heap_mb:8 collector in
    let mem, c = Mem_iface.counting ~map in
    let rt = Rt.create ~config:cfg ~mem ~map ~seed:1 () in
    let mature = Rt.alloc_boot rt ~size:64 ~heat:O.Cold ~ref_fields:1 in
    let young = alloc rt in
    (* isolate the remset-insert traffic *)
    Mem_iface.flush mem;
    let dram0 = c.Mem_iface.dram_write_bytes and pcm0 = c.Mem_iface.pcm_write_bytes in
    Rt.write_ref rt ~src:mature ~tgt:young;
    Mem_iface.flush mem;
    (c.Mem_iface.dram_write_bytes - dram0, c.Mem_iface.pcm_write_bytes - pcm0)
  in
  (* KG-N: metadata in PCM, and the store itself hits the PCM-resident
     mature object -> all barrier traffic is PCM *)
  let dram_n, pcm_n = run Gc_config.Kg_nursery in
  check_int "KG-N: nothing lands in DRAM" 0 dram_n;
  check_bool "KG-N: remset insert + store hit PCM" true (pcm_n >= 2 * Kg_heap.Layout.word);
  (* KG-W: the remset buffer and monitoring get DRAM writes *)
  let dram_w, _ = run Gc_config.kg_w_default in
  check_bool "KG-W: metadata writes land in DRAM" true (dram_w >= Kg_heap.Layout.word)

let test_observer_gc_cheaper_than_major () =
  (* §6.2.2: observer collections reclaim objects without full-heap
     work. An observer GC must not touch (scan) boot-image objects. *)
  let rt, _ = mk Gc_config.kg_w_default in
  for _ = 1 to 1000 do
    ignore (Rt.alloc_boot rt ~size:256 ~heat:O.Cold ~ref_fields:2)
  done;
  let scanned0 = (Rt.stats rt).Gc_stats.scanned_objects in
  (* force observer GCs with surviving churn, but no major *)
  fill_mb rt 4 ~death:(Rt.now rt +. (3.0 *. float_of_int mib));
  check_bool "observer gcs ran" true ((Rt.stats rt).Gc_stats.observer_gcs >= 1);
  check_int "no major ran" 0 (Rt.stats rt).Gc_stats.major_gcs;
  check_bool "boot objects never scanned" true
    ((Rt.stats rt).Gc_stats.scanned_objects - scanned0 < 1000)

(* ------------------------------------------------------------------ *)
(* Extensions: threshold placement and write-triggered majors          *)

let mk_threshold k =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Gc_config.make ~nursery_mb:1 ~write_threshold:k ~heap_mb:8 Gc_config.kg_w_default in
  let mem, _ = Mem_iface.counting ~map in
  Rt.create ~config:cfg ~mem ~map ~seed:1 ()

let test_threshold_placement () =
  let rt = mk_threshold 3 in
  let once = alloc rt and thrice = alloc rt in
  fill_mb rt 2 ~death:0.0;
  (* both now observed *)
  Rt.write_prim rt once;
  for _ = 1 to 3 do
    Rt.write_prim rt thrice
  done;
  check_bool "below threshold: not written" false (O.written (Rt.words rt) once);
  check_bool "at threshold: written" true (O.written (Rt.words rt) thrice);
  (* classification follows the thresholded bit *)
  fill_mb rt 4 ~death:(Rt.now rt +. (3.0 *. float_of_int mib));
  check_bool "once-written object still goes to PCM" true (Rt.object_in_pcm rt once);
  check_bool "hot object goes to DRAM" false (Rt.object_in_pcm rt thrice)

let test_threshold_one_matches_paper_bit () =
  let rt = mk_threshold 1 in
  let o = alloc rt in
  fill_mb rt 2 ~death:0.0;
  Rt.write_prim rt o;
  check_bool "single write sets the bit" true (O.written (Rt.words rt) o)

let test_write_trigger_fires_major () =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg =
    Gc_config.make ~nursery_mb:1 ~pcm_write_trigger_mb:1 ~heap_mb:64 Gc_config.kg_w_default
  in
  let mem, _ = Mem_iface.counting ~map in
  let rt = Rt.create ~config:cfg ~mem ~map ~seed:1 () in
  let o = Rt.alloc_boot rt ~size:4096 ~heat:O.Hot ~ref_fields:8 in
  (* hammer the PCM-resident object: > 1 MB of barrier-observed PCM
     writes must fire a major even though the heap is nearly empty *)
  for _ = 1 to 200_000 do
    Rt.write_prim rt o;
    ignore (alloc ~size:64 ~death:0.0 rt)
  done;
  check_bool "write-triggered major fired" true ((Rt.stats rt).Gc_stats.major_gcs >= 1);
  check_bool "hot object rescued to DRAM" false (Rt.object_in_pcm rt o)

let test_no_write_trigger_by_default () =
  let rt, _ = mk ~heap_mb:64 Gc_config.kg_w_default in
  let o = Rt.alloc_boot rt ~size:4096 ~heat:O.Hot ~ref_fields:8 in
  for _ = 1 to 50_000 do
    Rt.write_prim rt o
  done;
  check_int "no major without the extension" 0 (Rt.stats rt).Gc_stats.major_gcs

let test_defrag_under_pressure () =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg =
    Gc_config.make ~nursery_mb:1 ~defrag_threshold:0.2 ~heap_mb:8 Gc_config.Gen_immix
  in
  let mem, _ = Mem_iface.counting ~map in
  let rt = Rt.create ~config:cfg ~mem ~map ~seed:1 () in
  (* interleave immortal and churn objects so mature blocks go sparse,
     then force majors: the defrag pass must not corrupt the heap *)
  for round = 1 to 3 do
    ignore round;
    for i = 1 to 8192 do
      let death = if i mod 8 = 0 then infinity else Rt.now rt +. 300_000.0 in
      ignore (alloc ~size:256 ~death rt)
    done;
    Rt.major_gc rt
  done;
  check_bool "survived repeated defragging majors" true ((Rt.stats rt).Gc_stats.major_gcs >= 3);
  check_bool "copies attributed to majors" true ((Rt.stats rt).Gc_stats.copied_bytes_major >= 0)

let test_observer_size_override () =
  let cfg = Gc_config.make ~nursery_mb:1 ~observer_mb:5 ~heap_mb:8 Gc_config.kg_w_default in
  check_int "observer override" (5 * mib) cfg.Gc_config.observer_bytes

(* ------------------------------------------------------------------ *)
(* Stats plumbing                                                      *)

let test_stats_reset () =
  let rt, _ = mk Gc_config.Gen_immix in
  fill_mb rt 2 ~death:0.0;
  Gc_stats.reset (Rt.stats rt);
  check_int "gcs zeroed" 0 (Rt.stats rt).Gc_stats.nursery_gcs;
  check_int "alloc zeroed" 0 (Rt.stats rt).Gc_stats.nursery_alloc_bytes

let test_flush_retirement () =
  let rt, _ = mk Gc_config.Gen_immix in
  let o = alloc rt in
  fill_mb rt 2 ~death:0.0;
  Rt.write_prim rt o;
  check_int "nothing retired yet" 0 (Kg_util.Vec.length (Rt.stats rt).Gc_stats.retired_mature_writes);
  Rt.flush_retirement_stats rt;
  check_bool "live mature flushed" true
    (Kg_util.Vec.length (Rt.stats rt).Gc_stats.retired_mature_writes >= 1);
  check_bool "top fraction computes" true (Gc_stats.top_fraction_writes (Rt.stats rt) 0.02 > 0.0)

let test_invariants_after_collections () =
  let rt, _ = mk ~heap_mb:8 Gc_config.kg_w_default in
  fill_mb rt 6 ~death:(Rt.now rt +. (2.0 *. float_of_int mib));
  Rt.major_gc rt;
  Alcotest.(check (list string)) "no violations" [] (List.map Verify.to_string (Verify.audit rt));
  check_bool "collections happened" true ((Rt.stats rt).Gc_stats.nursery_gcs > 0)

let test_gc_hook_fires () =
  let rt, _ = mk Gc_config.Gen_immix in
  let fired = ref [] in
  Rt.set_gc_hook rt (fun p -> fired := p :: !fired);
  fill_mb rt 2 ~death:0.0;
  check_bool "hook saw nursery gc" true (List.mem Phase.Nursery_gc !fired)

(* Random operation storm: no exception, and bookkeeping invariants
   hold at every scale. *)
let runtime_storm_qcheck =
  QCheck.Test.make ~name:"runtime survives random op streams with sane accounting" ~count:10
    QCheck.(pair int (small_list (int_range 16 20000)))
    (fun (seed, sizes) ->
      let rt, _ = mk ~heap_mb:8 Gc_config.kg_w_default in
      let rng = Kg_util.Rng.of_seed seed in
      let pool = ref [] in
      List.iter
        (fun s ->
          let death =
            if Kg_util.Rng.bernoulli rng 0.5 then Rt.now rt +. Kg_util.Rng.float rng 2e6
            else infinity
          in
          let o = Rt.alloc rt ~size:s ~heat:O.Cold ~death ~ref_fields:2 in
          pool := o :: !pool;
          List.iter
            (fun tgt ->
              if O.is_live (Rt.words rt) tgt (Rt.now rt) then
                if Kg_util.Rng.bernoulli rng 0.5 then Rt.write_prim rt tgt
                else Rt.write_ref rt ~src:tgt ~tgt:o)
            (List.filteri (fun i _ -> i < 3) !pool))
        sizes;
      let u = Rt.usage rt in
      let sum =
        u.Rt.nursery_used + u.Rt.observer_used + u.Rt.mature_dram_used + u.Rt.mature_pcm_used
        + u.Rt.los_dram_used + u.Rt.los_pcm_used
      in
      sum = Rt.heap_used rt
      && Rt.dram_used rt >= 0
      && Rt.pcm_used rt >= 0
      && Rt.dram_used rt + Rt.pcm_used rt = sum + u.Rt.meta_used
      && Gc_stats.nursery_survival (Rt.stats rt) <= 1.0
      && Verify.audit rt = [])

(* ------------------------------------------------------------------ *)
(* Multi-domain heaps and collection edge cases                        *)

(* The auditor stays green over a full 4-domain KG-W run with the
   parallel collector modeled. *)
let test_auditor_green_multi_domain () =
  let r =
    Kg_sim.Run.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads:4 ~parallel_gc:true
      ~check:true ~mode:Kg_sim.Run.Count Kg_sim.Run.kg_w
      (Kg_workload.Descriptor.find "xalan")
  in
  Alcotest.(check (list string)) "no violations" [] r.Kg_sim.Run.check_violations

(* Drive one scripted heap population on a bare 4-domain runtime,
   force a final major collection, and require a clean audit of the
   final heap. Returns the statistics. *)
let edge_case ?defrag_threshold name script =
  let cfg = Gc_config.make ~nursery_mb:1 ?defrag_threshold ~heap_mb:8 Gc_config.kg_w_default in
  let map = Kg_mem.Address_map.hybrid () in
  let mem, counters = Mem_iface.counting ~map in
  let rt = Rt.create ~domains:4 ~config:cfg ~mem ~map ~seed:1 () in
  script rt;
  Rt.major_gc rt;
  Mem_iface.flush mem;
  Alcotest.(check (list string))
    (name ^ ": auditor green") []
    (List.map Verify.to_string (Verify.audit ~counters rt));
  let st = Rt.stats rt in
  check_bool (name ^ ": collected") true (st.Gc_stats.major_gcs >= 1);
  st

let test_edge_empty_mature () = ignore (edge_case "empty mature space" (fun _ -> ()))

let test_edge_single_live () =
  ignore (edge_case "single live object" (fun rt -> ignore (alloc ~size:128 rt)))

(* More domains than live objects: most nurseries are empty. *)
let test_edge_domains_exceed_live () =
  ignore
    (edge_case "domains > live objects" (fun rt ->
         ignore (alloc ~size:128 rt);
         ignore (alloc ~size:128 rt)))

(* A fragmented mature heap under an always-on defragmentation
   threshold: most promoted objects die mid-run, so the majors leave
   sparse blocks and the defragmenting evacuation runs. *)
let test_edge_defrag () =
  let populate rt =
    (* 6 MiB of 128-byte objects; 1 in 16 immortal, the rest dying at
       the 5 MiB mark — late enough to reach the mature space alive
       (observer evacuations land around the 3 MiB mark), early enough
       to be swept by the final major, which strands the immortals on
       ~12%-marked blocks: exactly the §6.3 evacuation case. (1 in 8
       would mark exactly lines_per_block/4 lines per block — one line
       per four — and sit right on the candidate cutoff.) *)
    for i = 1 to 6 * mib / 128 do
      let death = if i land 15 = 0 then infinity else float_of_int (5 * mib) in
      ignore (alloc ~size:128 ~death rt)
    done;
    Rt.major_gc rt
  in
  let st = edge_case ~defrag_threshold:0.1 "defrag-triggering heap" populate in
  check_bool "majors ran" true (st.Gc_stats.major_gcs >= 2);
  check_bool "defrag moved objects" true (st.Gc_stats.copied_bytes_major > 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kg_gc"
    [
      ( "config+phase+remset",
        [
          Alcotest.test_case "config names" `Quick test_config_names;
          Alcotest.test_case "observer default" `Quick test_config_observer_default;
          Alcotest.test_case "phase roundtrip" `Quick test_phase_roundtrip;
          Alcotest.test_case "remset" `Quick test_remset_basic;
          Alcotest.test_case "remset record slices" `Quick test_remset_record_slices;
          q remset_handshake_model_qcheck;
          Alcotest.test_case "missed handshake flagged" `Quick
            test_verify_catches_missed_handshake;
          Alcotest.test_case "counting mem" `Quick test_counting_mem;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "alloc in nursery" `Quick test_alloc_in_nursery;
          Alcotest.test_case "nursery gc promotes" `Quick test_nursery_gc_triggers_and_promotes;
          Alcotest.test_case "survival extremes" `Quick test_survival_stats_extremes;
          Alcotest.test_case "KG-N placement" `Quick test_kgn_placement;
          Alcotest.test_case "KG-W observer path" `Quick test_kgw_survivors_enter_observer;
          Alcotest.test_case "GenImmix direct promote" `Quick test_genimmix_promotes_directly;
          Alcotest.test_case "boot alloc" `Quick test_boot_alloc;
          Alcotest.test_case "12MB nursery" `Quick test_nursery_12mb_variant;
        ] );
      ( "barriers",
        [
          Alcotest.test_case "generational remset" `Quick test_write_barrier_remset;
          Alcotest.test_case "observer remset" `Quick test_kgw_observer_remset;
          Alcotest.test_case "monitoring write bit" `Quick test_kgw_monitoring_sets_write_bit;
          Alcotest.test_case "genimmix never monitors" `Quick test_genimmix_never_monitors;
          Alcotest.test_case "PM variant" `Quick test_pm_variant_skips_primitives;
          Alcotest.test_case "write classification" `Quick test_write_classification;
        ] );
      ( "collections",
        [
          Alcotest.test_case "observer classification" `Quick test_observer_classifies_written_to_dram;
          Alcotest.test_case "major: written PCM->DRAM" `Quick test_major_moves_written_pcm_to_dram;
          Alcotest.test_case "major: clean DRAM->PCM" `Quick test_major_moves_unwritten_dram_to_pcm;
          Alcotest.test_case "major reclaims" `Quick test_major_reclaims_dead_mature;
          Alcotest.test_case "heap trigger" `Quick test_heap_trigger_fires_major;
          Alcotest.test_case "KG-N nursery GC writes PCM" `Quick test_kgn_nursery_gc_writes_pcm_slots;
          Alcotest.test_case "LOO enables dynamically" `Quick test_loo_enables_dynamically;
          Alcotest.test_case "auditor green, 4-domain run" `Quick test_auditor_green_multi_domain;
        ] );
      ( "large objects",
        [
          Alcotest.test_case "to LOS" `Quick test_large_goes_to_los;
          Alcotest.test_case "written -> DRAM, once" `Quick test_written_large_moves_to_dram_los_once;
          Alcotest.test_case "baseline single LOS" `Quick test_large_in_genimmix_single_los;
        ] );
      ( "mdo",
        [
          Alcotest.test_case "redirects mark writes" `Quick test_mdo_redirects_mark_writes;
          Alcotest.test_case "small objects in header" `Quick test_mdo_small_objects_use_header;
        ] );
      ( "placement",
        [
          Alcotest.test_case "metadata device placement" `Quick test_metadata_device_placement;
          Alcotest.test_case "observer GC is partial" `Quick test_observer_gc_cheaper_than_major;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "threshold placement" `Quick test_threshold_placement;
          Alcotest.test_case "threshold 1 = paper bit" `Quick test_threshold_one_matches_paper_bit;
          Alcotest.test_case "write trigger fires major" `Quick test_write_trigger_fires_major;
          Alcotest.test_case "no trigger by default" `Quick test_no_write_trigger_by_default;
          Alcotest.test_case "observer size override" `Quick test_observer_size_override;
          Alcotest.test_case "defrag under pressure" `Quick test_defrag_under_pressure;
        ] );
      ( "stats",
        [
          Alcotest.test_case "reset" `Quick test_stats_reset;
          Alcotest.test_case "flush retirement" `Quick test_flush_retirement;
          Alcotest.test_case "invariants after collections" `Quick test_invariants_after_collections;
          Alcotest.test_case "gc hook" `Quick test_gc_hook_fires;
          q runtime_storm_qcheck;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty mature space" `Quick test_edge_empty_mature;
          Alcotest.test_case "single live object" `Quick test_edge_single_live;
          Alcotest.test_case "domains > live objects" `Quick test_edge_domains_exceed_live;
          Alcotest.test_case "defrag-triggering heap" `Quick test_edge_defrag;
        ] );
    ]
