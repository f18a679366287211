open Kg_workload
module D = Descriptor
module O = Kg_heap.Object_model
module Rt = Kg_gc.Runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mib = Kg_util.Units.mib

(* ------------------------------------------------------------------ *)
(* Descriptors                                                         *)

let test_descriptor_population () =
  check_int "18 benchmarks" 18 (List.length D.all);
  check_int "7 simulated" 7 (List.length D.simulated);
  let sim_names = List.map (fun d -> d.D.name) D.simulated in
  List.iter
    (fun n -> check_bool n true (List.mem n sim_names))
    [ "xalan"; "pmd"; "pmd.s"; "lusearch"; "lu.fix"; "antlr"; "bloat" ]

let test_descriptor_find () =
  check_bool "case-insensitive" true ((D.find "Xalan").D.name = "xalan");
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (D.find "nosuch"))

let test_descriptor_sanity () =
  List.iter
    (fun d ->
      check_bool (d.D.name ^ " survival") true
        (d.D.nursery_survival >= 0.0 && d.D.nursery_survival <= 1.0);
      check_bool (d.D.name ^ " obs survival") true
        (d.D.observer_survival >= 0.0 && d.D.observer_survival <= 1.0);
      check_bool (d.D.name ^ " nursery write frac") true
        (d.D.nursery_write_frac > 0.0 && d.D.nursery_write_frac < 1.0);
      check_bool (d.D.name ^ " top ordering") true (d.D.top2_frac <= d.D.top10_frac);
      check_bool (d.D.name ^ " alloc") true (d.D.alloc_mb > 0);
      check_int (d.D.name ^ " live") (d.D.heap_mb / 2) (D.live_mb d))
    D.all

let test_descriptor_figure2_average () =
  (* the paper: nursery writes average ~70% across the suite *)
  let avg =
    Kg_util.Stats.mean (Array.of_list (List.map (fun d -> d.D.nursery_write_frac) D.all))
  in
  check_bool "average near 0.70" true (Float.abs (avg -. 0.70) < 0.03)

let test_descriptor_table3 () =
  List.iter
    (fun d ->
      check_bool (d.D.name ^ " has scaling") true (d.D.scaling_32core > 1.0);
      check_bool (d.D.name ^ " has rate") true (d.D.write_rate_gbs > 0.0))
    D.simulated

(* ------------------------------------------------------------------ *)
(* Lifetime model                                                      *)

let mk_life ?(live_mb = 32) name =
  Lifetime.make ~live_mb (D.find name) ~nursery_bytes:(4 * mib) ~observer_bytes:(8 * mib)

let test_lifetime_p_long () =
  let d = D.find "xalan" in
  let l = mk_life "xalan" in
  check_bool "p_long = ns*os" true
    (Float.abs (Lifetime.p_long l -. (d.D.nursery_survival *. d.D.observer_survival)) < 1e-9);
  check_bool "target recorded" true
    (Lifetime.expected_nursery_survival l = d.D.nursery_survival)

let test_lifetime_draw_classes () =
  let l = mk_life "xalan" in
  let rng = Kg_util.Rng.of_seed 5 in
  let shorts = ref 0 and mediums = ref 0 and longs = ref 0 in
  for _ = 1 to 20_000 do
    match Lifetime.draw l rng ~nursery_remaining:(2.0 *. float_of_int mib) with
    | Lifetime.Short, life ->
      incr shorts;
      check_bool "short clamped or modest" true (life <= float_of_int mib +. 1.0)
    | Lifetime.Medium, life ->
      incr mediums;
      check_bool "medium survives nursery" true (life >= 4.0 *. float_of_int mib)
    | Lifetime.Long, life ->
      incr longs;
      check_bool "long survives nursery" true (life >= 4.0 *. float_of_int mib)
    | Lifetime.Immortal, _ -> Alcotest.fail "draw never returns immortal"
  done;
  check_bool "mostly short" true (!shorts > !mediums + !longs);
  check_bool "some long" true (!longs > 0)

let test_lifetime_clamping_bounds_survival () =
  (* jython: survival ~0; clamped shorts must die before the next GC *)
  let l = mk_life "jython" in
  let rng = Kg_util.Rng.of_seed 6 in
  let leaked = ref 0 and n = 20_000 in
  let remaining = 0.5 *. float_of_int mib in
  for _ = 1 to n do
    let _, life = Lifetime.draw l rng ~nursery_remaining:remaining in
    if life >= remaining then incr leaked
  done;
  check_bool "almost nothing outlives the GC" true (float_of_int !leaked /. float_of_int n < 0.01)

(* ------------------------------------------------------------------ *)
(* Mutator                                                             *)

let mk_rt ?(heap_mb = 48) ?(domains = 1) collector =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Kg_gc.Gc_config.make ~heap_mb collector in
  let mem = Kg_gc.Mem_iface.null () in
  Rt.create ~domains ~config:cfg ~mem ~map ~seed:3 ()

let test_mutator_run_allocates_target () =
  let rt = mk_rt Kg_gc.Gc_config.Gen_immix in
  let m = Mutator.create ~live_mb:16 (D.find "pmd") ~rt ~seed:4 in
  Mutator.run m ~alloc_bytes:(8 * mib) ();
  check_bool "allocated at least target" true (Rt.now rt >= 8.0 *. float_of_int mib);
  check_bool "but not wildly more" true (Rt.now rt < 10.0 *. float_of_int mib)

let test_mutator_startup_builds_boot_image () =
  let rt = mk_rt Kg_gc.Gc_config.kg_w_default in
  let m = Mutator.create ~live_mb:20 (D.find "pmd") ~rt ~seed:4 in
  Mutator.allocate_startup m;
  (* 40% of the live target, directly into mature spaces *)
  check_bool "~8MB boot" true (Rt.heap_used rt >= 7 * mib && Rt.heap_used rt <= 11 * mib);
  check_int "no collections during boot" 0 (Rt.stats rt).Kg_gc.Gc_stats.nursery_gcs

(* The calibration tests run each descriptor at 1 and 2 threads: the
   one generator runs ops at once with one thread and buffers them for
   the merge with two, and both modes must honour the descriptor. *)
let calibrated_run ~threads ~seed name =
  let d = D.find name in
  let rt = mk_rt ~domains:threads Kg_gc.Gc_config.Gen_immix in
  let m = Mutator.create ~live_mb:16 ~threads d ~rt ~seed in
  Mutator.allocate_startup m;
  Kg_gc.Gc_stats.reset (Rt.stats rt);
  Mutator.run m ~alloc_bytes:(24 * mib) ();
  (d, Rt.stats rt)

let test_mutator_survival_calibration () =
  List.iter
    (fun threads ->
      List.iter
        (fun name ->
          let d, st = calibrated_run ~threads ~seed:7 name in
          let measured = Kg_gc.Gc_stats.nursery_survival st in
          let target = d.D.nursery_survival in
          check_bool
            (Printf.sprintf "%s, %d threads: survival %.3f vs target %.3f" name threads measured
               target)
            true
            (Float.abs (measured -. target) < Float.max 0.06 (0.45 *. target)))
        [ "xalan"; "lusearch"; "hsqldb"; "pmd"; "jython" ])
    [ 1; 2 ]

let test_mutator_write_split_calibration () =
  List.iter
    (fun threads ->
      let d, st = calibrated_run ~threads ~seed:8 "bloat" in
      let mf = Kg_gc.Gc_stats.mature_write_fraction st in
      check_bool
        (Printf.sprintf "bloat, %d threads: mature frac %.2f vs %.2f" threads mf
           (1.0 -. d.D.nursery_write_frac))
        true
        (Float.abs (mf -. (1.0 -. d.D.nursery_write_frac)) < 0.16))
    [ 1; 2 ]

let test_mutator_generates_all_event_kinds () =
  let rt = mk_rt Kg_gc.Gc_config.kg_w_default in
  let m = Mutator.create ~live_mb:16 (D.find "pmd") ~rt ~seed:9 in
  Mutator.allocate_startup m;
  Mutator.run m ~alloc_bytes:(12 * mib) ();
  let st = Rt.stats rt in
  check_bool "ref writes" true (st.Kg_gc.Gc_stats.ref_writes > 0);
  check_bool "prim writes" true (st.Kg_gc.Gc_stats.prim_writes > 0);
  check_bool "reads" true (st.Kg_gc.Gc_stats.reads > 0);
  check_bool "remset activity" true (st.Kg_gc.Gc_stats.gen_remset_inserts > 0);
  check_bool "large objects" true (st.Kg_gc.Gc_stats.large_allocs > 0)

let test_mutator_threads () =
  let run threads =
    let rt = mk_rt ~domains:threads Kg_gc.Gc_config.Gen_immix in
    let m = Mutator.create ~live_mb:16 ~threads (D.find "xalan") ~rt ~seed:12 in
    Mutator.run m ~alloc_bytes:(6 * mib) ();
    Rt.stats rt
  in
  let st1 = run 1 and st4 = run 4 in
  check_bool "both allocate" true
    (st1.Kg_gc.Gc_stats.nursery_alloc_bytes > 0 && st4.Kg_gc.Gc_stats.nursery_alloc_bytes > 0);
  (* interleaving changes streams but not the global write character *)
  let mf s = Kg_gc.Gc_stats.mature_write_fraction s in
  check_bool "write split stable across threads" true (Float.abs (mf st1 -. mf st4) < 0.1)

let test_mutator_threads_need_domains () =
  let rt = mk_rt Kg_gc.Gc_config.Gen_immix in
  Alcotest.check_raises "domain mismatch rejected"
    (Invalid_argument "Mutator.create: 4 threads need a runtime with 4 domains (has 1)")
    (fun () -> ignore (Mutator.create ~live_mb:16 ~threads:4 (D.find "xalan") ~rt ~seed:12))

(* Satellite 5: thread 0 has no privileged role at startup — boot
   allocation round-robins, so the per-thread boot counts are level. *)
let test_mutator_startup_symmetry () =
  let threads = 4 in
  let rt = mk_rt ~domains:threads Kg_gc.Gc_config.kg_w_default in
  let m = Mutator.create ~live_mb:20 ~threads (D.find "pmd") ~rt ~seed:4 in
  Mutator.allocate_startup m;
  let counts = Mutator.boot_allocs_by_thread m in
  check_int "all threads recorded" threads (Array.length counts);
  let mn = Array.fold_left min counts.(0) counts in
  let mx = Array.fold_left max counts.(0) counts in
  check_bool "round-robin spread" true (mx - mn <= 1);
  check_bool "everyone allocated" true (mn > 0);
  (* single-thread runs keep the whole boot image on thread 0 *)
  let rt1 = mk_rt Kg_gc.Gc_config.kg_w_default in
  let m1 = Mutator.create ~live_mb:20 (D.find "pmd") ~rt:rt1 ~seed:4 in
  Mutator.allocate_startup m1;
  check_int "one thread, one counter" 1 (Array.length (Mutator.boot_allocs_by_thread m1))

let test_mutator_determinism () =
  let run () =
    let rt = mk_rt Kg_gc.Gc_config.kg_w_default in
    let m = Mutator.create ~live_mb:16 (D.find "xalan") ~rt ~seed:11 in
    Mutator.allocate_startup m;
    Mutator.run m ~alloc_bytes:(8 * mib) ();
    let st = Rt.stats rt in
    (st.Kg_gc.Gc_stats.ref_writes, st.Kg_gc.Gc_stats.nursery_gcs, Rt.heap_used rt)
  in
  let a = run () and b = run () in
  check_bool "bit-identical runs" true (a = b)

(* The runtime builds a trace event only when a recorder is attached.
   Attaching one must change no output: the same run with and without
   it gives identical stats and port traffic, on the sequential path
   and on the epoch path (2 domains). And the recorder
   sees exactly one event per runtime call: per kind, the counts agree
   with the runtime's own counters. *)
let test_recorder_changes_no_output () =
  let run ~threads recorder =
    let map = Kg_mem.Address_map.hybrid () in
    let cfg = Kg_gc.Gc_config.make ~heap_mb:48 Kg_gc.Gc_config.kg_w_default in
    let mem, _ = Kg_gc.Mem_iface.counting ~map in
    let rt = Rt.create ~domains:threads ~config:cfg ~mem ~map ~seed:3 () in
    Option.iter (fun r -> Rt.set_event_hook rt (Kg_gc.Trace.record r)) recorder;
    let m = Mutator.create ~live_mb:16 ~threads (D.find "lusearch") ~rt ~seed:11 in
    Mutator.allocate_startup m;
    Mutator.run m ~alloc_bytes:(6 * mib) ();
    Rt.flush_mem rt;
    (rt, Kg_gc.Mem_iface.stats mem)
  in
  List.iter
    (fun threads ->
      let what = Printf.sprintf "%d domains: " threads in
      let rc = Kg_gc.Trace.recorder () in
      let plain, plain_traffic = run ~threads None in
      let traced, traced_traffic = run ~threads (Some rc) in
      let st = Rt.stats traced in
      check_bool (what ^ "stats equal") true (Kg_gc.Gc_stats.equal (Rt.stats plain) st);
      check_bool (what ^ "port stats equal") true (plain_traffic = traced_traffic);
      let allocs = ref 0 and refs = ref 0 and prims = ref 0 and bursts = ref 0 in
      let words = ref 0 in
      Array.iter
        (function
          | Kg_gc.Trace.Alloc _ | Kg_gc.Trace.Alloc_boot _ -> incr allocs
          | Kg_gc.Trace.Write_ref _ -> incr refs
          | Kg_gc.Trace.Write_prim _ -> incr prims
          | Kg_gc.Trace.Read_burst { words = n; _ } ->
            incr bursts;
            words := !words + n
          | _ -> Alcotest.fail "unexpected event kind")
        (Kg_gc.Trace.events rc);
      check_int (what ^ "one event per call") (Kg_gc.Trace.length rc)
        (!allocs + !refs + !prims + !bursts);
      check_int (what ^ "alloc calls") (O.length (Rt.words traced)) !allocs;
      check_int (what ^ "write_ref calls") st.Kg_gc.Gc_stats.ref_writes !refs;
      check_int (what ^ "write_prim calls") st.Kg_gc.Gc_stats.prim_writes !prims;
      check_int (what ^ "read_burst words") st.Kg_gc.Gc_stats.reads !words;
      check_bool (what ^ "bursts recorded") true (!bursts > 0))
    [ 1; 2 ]

let test_scaled_alloc_bounds () =
  let d = D.find "als" in
  (* 14245 MB *)
  check_int "scaled" (890 * mib) (Mutator.scaled_alloc_bytes d ~scale:16 ~cap_mb:2000);
  check_int "capped" (256 * mib) (Mutator.scaled_alloc_bytes d ~scale:16 ~cap_mb:256);
  let small = D.find "luindex" in
  (* 37 MB: floor keeps the full workload *)
  check_int "small runs whole" (37 * mib) (Mutator.scaled_alloc_bytes small ~scale:16 ~cap_mb:256)

let mutator_any_benchmark_qcheck =
  QCheck.Test.make ~name:"every benchmark runs on every collector" ~count:12
    QCheck.(pair (int_bound 17) (int_bound 2))
    (fun (bi, ci) ->
      let d = List.nth D.all bi in
      let collector =
        match ci with
        | 0 -> Kg_gc.Gc_config.Gen_immix
        | 1 -> Kg_gc.Gc_config.Kg_nursery
        | _ -> Kg_gc.Gc_config.kg_w_default
      in
      let rt = mk_rt collector in
      let m = Mutator.create ~live_mb:16 d ~rt ~seed:(bi + ci) in
      Mutator.allocate_startup m;
      Mutator.run m ~alloc_bytes:(6 * mib) ();
      Rt.heap_used rt > 0 && Kg_gc.Gc_stats.nursery_survival (Rt.stats rt) <= 1.0)

(* ------------------------------------------------------------------ *)
(* Epoch chunk schedule                                                *)

(* Differential against the boxed merge it replaced
   (test/reference_epoch.ml): identically seeded generators, 1-4
   streams of 0-40 ops (all-empty included), the same (domain, index)
   sequence once the chunks are expanded, and the same generator state
   after. The schedule is drawn twice into one reused value so that a
   stale chunk or cursor would show. *)
let schedule_matches_reference_qcheck =
  let gen =
    QCheck.Gen.(
      pair (int_bound 1_000_000)
        (frequency
           [
             (6, list_size (int_range 1 4) (int_range 0 40));
             (1, map (fun n -> List.init n (fun _ -> 0)) (int_range 1 4));
           ]))
  in
  QCheck.Test.make ~name:"chunk schedule equals the boxed merge" ~count:500
    (QCheck.make gen ~print:(fun (seed, lens) ->
         Printf.sprintf "seed %d, lengths [%s]" seed
           (String.concat "; " (List.map string_of_int lens))))
    (fun (seed, lens) ->
      let lens = Array.of_list lens in
      let streams = Array.map (fun len -> Kg_util.Vec.of_array (Array.init len Fun.id)) lens in
      let bufs =
        Array.mapi
          (fun d len ->
            let ops = Epoch.ops_create d in
            for i = 1 to len do
              Epoch.push_write_prim ops i
            done;
            ops)
          lens
      in
      let sched = Epoch.schedule_create () in
      let expand () =
        let out = ref [] in
        Epoch.iter_schedule sched (fun d i -> out := (d, i) :: !out);
        List.rev !out
      in
      let once rng = Epoch.draw_schedule sched rng bufs; expand () in
      let r = Kg_util.Rng.of_seed seed and oracle = Kg_util.Rng.of_seed seed in
      let reference () = Array.to_list (Kg_util.Vec.to_array (Reference_epoch.merge_schedule oracle streams)) in
      let first = once r in
      let first_ref = reference () in
      let second = once r in
      let second_ref = reference () in
      first = first_ref && second = second_ref
      && List.init 4 (fun _ -> Kg_util.Rng.bits64 r)
         = List.init 4 (fun _ -> Kg_util.Rng.bits64 oracle))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kg_workload"
    [
      ( "descriptor",
        [
          Alcotest.test_case "population" `Quick test_descriptor_population;
          Alcotest.test_case "find" `Quick test_descriptor_find;
          Alcotest.test_case "sanity" `Quick test_descriptor_sanity;
          Alcotest.test_case "figure 2 average" `Quick test_descriptor_figure2_average;
          Alcotest.test_case "table 3" `Quick test_descriptor_table3;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "p_long" `Quick test_lifetime_p_long;
          Alcotest.test_case "draw classes" `Quick test_lifetime_draw_classes;
          Alcotest.test_case "clamping bounds survival" `Quick test_lifetime_clamping_bounds_survival;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "run allocates target" `Quick test_mutator_run_allocates_target;
          Alcotest.test_case "startup boot image" `Quick test_mutator_startup_builds_boot_image;
          Alcotest.test_case "survival calibration" `Slow test_mutator_survival_calibration;
          Alcotest.test_case "write split calibration" `Slow test_mutator_write_split_calibration;
          Alcotest.test_case "all event kinds" `Quick test_mutator_generates_all_event_kinds;
          Alcotest.test_case "threads" `Quick test_mutator_threads;
          Alcotest.test_case "threads need domains" `Quick test_mutator_threads_need_domains;
          Alcotest.test_case "startup symmetry" `Quick test_mutator_startup_symmetry;
          Alcotest.test_case "determinism" `Quick test_mutator_determinism;
          Alcotest.test_case "recorder changes no output" `Quick test_recorder_changes_no_output;
          Alcotest.test_case "scaled alloc bounds" `Quick test_scaled_alloc_bounds;
          q mutator_any_benchmark_qcheck;
        ] );
      ("epoch", [ q schedule_matches_reference_qcheck ]);
    ]
