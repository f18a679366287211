(* The auditor/trace/replay test suite: trace serialization round
   trips, model-based random mutator programs audited under every
   collector family, cross-collector differential runs, record/replay
   bit-determinism, and negative tests proving the auditor actually
   detects corruption. *)

open Kg_gc
module O = Kg_heap.Object_model
module Rt = Runtime
module Vec = Kg_util.Vec
module D = Kg_workload.Descriptor
module Mut = Kg_workload.Mutator
module R = Kg_sim.Run

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mib = Kg_util.Units.mib

let mk ?(nursery_mb = 1) ?(heap_mb = 8) ?(map = Kg_mem.Address_map.hybrid ()) collector =
  let cfg = Gc_config.make ~nursery_mb ~heap_mb collector in
  let mem, counters = Mem_iface.counting ~map in
  let rt = Rt.create ~config:cfg ~mem ~map ~seed:1 () in
  (rt, counters)

let strings_of vs = List.map Verify.to_string vs

(* ------------------------------------------------------------------ *)
(* Trace serialization                                                 *)

let sample_events =
  [
    Trace.Alloc { id = 1; size = 64; heat = O.Cold; death = infinity; ref_fields = 2 };
    Trace.Alloc { id = 2; size = 9 * 1024; heat = O.Hot; death = 1234567.8901234567; ref_fields = 0 };
    Trace.Alloc { id = 3; size = 72; heat = O.Warm; death = 0x1.5p20; ref_fields = 31 };
    Trace.Alloc_boot { id = 4; size = 16; heat = O.Warm; ref_fields = 1 };
    Trace.Write_ref { src = 1; tgt = 2 };
    Trace.Write_prim { obj = 4 };
    Trace.Read { obj = 1 };
    Trace.Read_burst { obj = 2; words = 128 };
    Trace.Major_gc;
    Trace.Reset_stats;
    Trace.Flush_retirement;
  ]

let test_trace_json_roundtrip () =
  List.iter
    (fun e ->
      let line = Trace.to_json e in
      check_bool (Printf.sprintf "roundtrip %s" line) true (Trace.of_json line = e))
    sample_events

let test_trace_file_roundtrip () =
  let f = Filename.temp_file "kg_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      let evs = Array.of_list sample_events in
      Trace.save f evs;
      check_bool "file roundtrip" true (Trace.load f = evs))

let test_trace_malformed () =
  let bad line =
    match Trace.of_json line with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "accepted malformed line %S" line
  in
  bad "";
  bad "{}";
  bad {|{"ev":"teleport"}|};
  bad {|{"ev":"alloc","id":1}|};
  bad {|{"ev":"alloc","id":"x","size":64,"heat":0,"death":"inf","rf":2}|};
  bad {|{"ev":"wref","src":1,"tgt":4}2}|};
  bad {|garbage{"ev":"wprim","obj":7}|};
  bad {|{"ev":"wref","src":1,"tgt":42,"x":}|};
  bad {|{"ev":"boot","id":4,"size":16,"heat":3,"rf":1}|}

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* A trace cut anywhere inside its last line: a cut that leaves part of
   an object fails naming that line (the cut field used to read as a
   shorter value: "tgt":42 as 4); a cut at or after the closing brace
   loads every event unchanged. *)
let test_trace_truncated_last_line () =
  let evs = Array.of_list (sample_events @ [ Trace.Write_ref { src = 1; tgt = 42 } ]) in
  let last_no = Array.length evs in
  let f = Filename.temp_file "kg_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      Trace.save f evs;
      let full = In_channel.with_open_bin f In_channel.input_all in
      let last = Trace.to_json evs.(last_no - 1) in
      let start = String.length full - String.length last - 1 in
      for cut = start + 1 to String.length full do
        Out_channel.with_open_bin f (fun oc -> output_string oc (String.sub full 0 cut));
        if cut < start + String.length last then
          match Trace.load f with
          | _ -> Alcotest.failf "a cut at byte %d loaded" cut
          | exception Failure m ->
            check_bool
              (Printf.sprintf "cut at byte %d names line %d: %s" cut last_no m)
              true
              (contains m (Printf.sprintf "line %d:" last_no))
        else
          check_bool (Printf.sprintf "cut at byte %d loads every event" cut) true (Trace.load f = evs)
      done)

(* A heat tag outside 0-2 is malformed input like any other: the load
   fails naming the line, not with an escaped [Invalid_argument]. *)
let test_trace_bad_heat_names_line () =
  let f = Filename.temp_file "kg_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      Trace.save f (Array.of_list sample_events);
      Out_channel.with_open_gen [ Open_append; Open_text ] 0o644 f (fun oc ->
          output_string oc {|{"ev":"alloc","id":5,"size":64,"heat":7,"death":"inf","rf":2}|};
          output_char oc '\n');
      let line_no = List.length sample_events + 1 in
      match Trace.load f with
      | _ -> Alcotest.fail "a heat tag of 7 loaded"
      | exception Failure m ->
        check_bool
          (Printf.sprintf "names line %d: %s" line_no m)
          true
          (contains m (Printf.sprintf "line %d:" line_no)))

(* ------------------------------------------------------------------ *)
(* Model-based testing: random mutator programs under every collector,
   auditing after every collection, with a shadow model of the write
   barrier predicting remembered-set inserts.                          *)

type op =
  | OAlloc of { large : bool; life : int }
  | OWrite_ref of int * int
  | OWrite_prim of int
  | ORead of int
  | OChurn of int  (** a burst of short-lived allocation, to force GCs *)
  | OMajor

let op_to_string = function
  | OAlloc { large; life } -> Printf.sprintf "alloc(large=%b,life=%d)" large life
  | OWrite_ref (a, b) -> Printf.sprintf "wref(%d,%d)" a b
  | OWrite_prim a -> Printf.sprintf "wprim(%d)" a
  | ORead a -> Printf.sprintf "read(%d)" a
  | OChurn n -> Printf.sprintf "churn(%d)" n
  | OMajor -> "major"

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      ( 5,
        map2
          (fun l life -> OAlloc { large = l = 0; life })
          (int_bound 19) (int_bound 2) );
      (6, map2 (fun a b -> OWrite_ref (a, b)) (int_bound 999) (int_bound 999));
      (3, map (fun a -> OWrite_prim a) (int_bound 999));
      (2, map (fun a -> ORead a) (int_bound 999));
      (2, map (fun n -> OChurn (1 + n)) (int_bound 3));
      (1, return OMajor);
    ]

let program_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 20 120) op_gen)

let run_model collector ops =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Gc_config.make ~nursery_mb:1 ~heap_mb:8 collector in
  let mem, counters = Mem_iface.counting ~map in
  let rt = Rt.create ~config:cfg ~mem ~map ~seed:7 () in
  let violations = Vec.create () in
  Rt.set_gc_hook rt (fun phase ->
      List.iter (Vec.push violations) (Verify.audit ~counters ~phase rt));
  let has_obs = Gc_config.has_observer cfg in
  let pool = Vec.create () in
  let shadow_gen = ref 0 and shadow_obs = ref 0 in
  let shadow_ref = ref 0 and shadow_prim = ref 0 in
  (* A mutator only writes objects it can still reach, so targets are
     picked among the oracle-live. *)
  let live_pick sel =
    let now = Rt.now rt in
    let w = Rt.words rt in
    let live = Vec.fold (fun acc o -> if O.is_live w o now then o :: acc else acc) [] pool in
    match live with [] -> None | l -> Some (List.nth l (sel mod List.length l))
  in
  List.iter
    (fun opn ->
      match opn with
      | OAlloc { large; life } ->
        let size = if large then (9 * 1024) + (517 * life) else 64 + (32 * life) in
        let death =
          match life with
          | 0 -> Rt.now rt +. 200_000.0 (* dies young *)
          | 1 -> Rt.now rt +. 3_000_000.0 (* reaches maturity *)
          | _ -> infinity
        in
        Vec.push pool (Rt.alloc rt ~size ~heat:O.Cold ~death ~ref_fields:4)
      | OWrite_ref (a, b) -> (
        match (live_pick a, live_pick b) with
        | Some src, Some tgt ->
          (* Shadow barrier (Figure 4): predict the remembered-set
             inserts from the spaces as the runtime sees them. Nothing
             can move objects between this prediction and the call. *)
          let w = Rt.words rt in
          if O.space w src <> Rt.sp_nursery && O.space w tgt = Rt.sp_nursery then
            incr shadow_gen;
          if has_obs && O.space w src > Rt.sp_observer && O.space w tgt <= Rt.sp_observer then
            incr shadow_obs;
          incr shadow_ref;
          Rt.write_ref rt ~src ~tgt
        | _ -> ())
      | OWrite_prim a -> (
        match live_pick a with
        | Some o ->
          incr shadow_prim;
          Rt.write_prim rt o
        | None -> ())
      | ORead a -> (
        match live_pick a with Some o -> Rt.read_burst rt o 16 | None -> ())
      | OChurn n ->
        for _ = 1 to n * 1024 do
          ignore (Rt.alloc rt ~size:256 ~heat:O.Cold ~death:(Rt.now rt +. 100_000.0) ~ref_fields:2)
        done
      | OMajor -> Rt.major_gc rt)
    ops;
  Rt.major_gc rt;
  let final = Verify.audit ~counters ~phase:Phase.Application rt in
  let vs = Array.to_list (Vec.to_array violations) @ final in
  (vs, Rt.stats rt, (!shadow_gen, !shadow_obs, !shadow_ref, !shadow_prim))

let model_collectors =
  [
    ("genimmix", Gc_config.Gen_immix);
    ("kg-n", Gc_config.Kg_nursery);
    ("kg-w", Gc_config.kg_w_default);
    ("kg-w-loo", Gc_config.Kg_writers { loo = false; mdo = true; pm = true });
    ("kg-w-mdo", Gc_config.Kg_writers { loo = true; mdo = false; pm = true });
    ("kg-w-pm", Gc_config.Kg_writers { loo = true; mdo = true; pm = false });
  ]

let model_qcheck =
  QCheck.Test.make ~count:20
    ~name:"random programs: zero violations + shadow barrier model, all collectors" program_arb
    (fun ops ->
      List.iter
        (fun (name, collector) ->
          let vs, st, (sg, so, sr, sp) = run_model collector ops in
          if vs <> [] then
            QCheck.Test.fail_reportf "%s: %d violation(s):\n%s" name (List.length vs)
              (String.concat "\n" (strings_of vs));
          let expect what got want =
            if got <> want then
              QCheck.Test.fail_reportf "%s: %s = %d, shadow model predicts %d" name what got
                want
          in
          expect "gen_remset_inserts" st.Gc_stats.gen_remset_inserts sg;
          expect "obs_remset_inserts" st.Gc_stats.obs_remset_inserts so;
          expect "ref_writes" st.Gc_stats.ref_writes sr;
          expect "prim_writes" st.Gc_stats.prim_writes sp)
        model_collectors;
      true)

(* ------------------------------------------------------------------ *)
(* Cross-collector differential runs: the mutator's stream depends
   only on the allocation clock and nursery headroom, which evolve
   identically under every collector (absent LOO diversion), so runs
   must agree on everything collector-independent.                     *)

let differential_run d collector =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Gc_config.make ~nursery_mb:4 ~heap_mb:32 collector in
  let mem, _counters = Mem_iface.counting ~map in
  let rt = Rt.create ~config:cfg ~mem ~map ~seed:5 () in
  let m = Mut.create ~live_mb:16 d ~rt ~seed:12 in
  Mut.allocate_startup m;
  Mut.run m ~alloc_bytes:(24 * mib) ();
  rt

let differential_check name base other =
  Alcotest.(check (float 0.0))
    (name ^ ": allocation clock") (Rt.now base) (Rt.now other);
  let bc, bb = Verify.live_census base and oc, ob = Verify.live_census other in
  check_int (name ^ ": live objects") bc oc;
  check_int (name ^ ": live bytes") bb ob;
  let bs = Rt.stats base and os = Rt.stats other in
  check_int (name ^ ": ref writes") bs.Gc_stats.ref_writes os.Gc_stats.ref_writes;
  check_int (name ^ ": prim writes") bs.Gc_stats.prim_writes os.Gc_stats.prim_writes;
  check_int (name ^ ": reads") bs.Gc_stats.reads os.Gc_stats.reads;
  check_int (name ^ ": large allocs") bs.Gc_stats.large_allocs os.Gc_stats.large_allocs;
  check_int (name ^ ": nursery allocs")
    bs.Gc_stats.nursery_alloc_bytes os.Gc_stats.nursery_alloc_bytes

let test_differential_collectors () =
  let d = D.find "lusearch" in
  let base = differential_run d Gc_config.Gen_immix in
  let kgn = differential_run d Gc_config.Kg_nursery in
  (* LOO stays off: diverting large objects into the nursery changes
     the nursery headroom the lifetime model sees, so the full KG-W
     stream legitimately diverges from the baselines (even lusearch's
     3% large allocations enable LOO — its large objects are heavy-
     tailed enough to outpace the small ones between collections). *)
  let kgw = differential_run d (Gc_config.Kg_writers { loo = false; mdo = true; pm = true }) in
  check_int "kg-w: no LOO diversion" 0 (Rt.stats kgw).Gc_stats.large_allocs_in_nursery;
  differential_check "genimmix vs kg-n" base kgn;
  differential_check "genimmix vs kg-w" base kgw

let test_differential_large_heavy () =
  (* luindex is 50% large allocation; with LOO forced off the streams
     still agree across collector families. *)
  let d = D.find "luindex" in
  let base = differential_run d Gc_config.Gen_immix in
  let kgw = differential_run d (Gc_config.Kg_writers { loo = false; mdo = true; pm = true }) in
  differential_check "genimmix vs kg-w-no-loo (large-heavy)" base kgw

(* ------------------------------------------------------------------ *)
(* Record -> replay bit-determinism                                    *)

let test_replay_determinism () =
  let d = D.find "lusearch" in
  List.iter
    (fun (name, spec) ->
      let r, events = R.record ~scale:512 ~cap_mb:4 ~check:true spec d in
      Alcotest.(check (list string)) (name ^ ": recorded run audits clean") []
        r.R.check_violations;
      check_bool (name ^ ": trace is non-trivial") true (Array.length events > 1000);
      match R.replay spec d events with
      | Error m -> Alcotest.failf "%s: replay diverged: %s" name m
      | Ok (st, c) ->
        Alcotest.(check (list string)) (name ^ ": statistics bit-identical") []
          (Gc_stats.diff r.R.stats st);
        check_int (name ^ ": PCM write bytes")
          (int_of_float r.R.mem_pcm_write_bytes)
          c.Mem_iface.pcm_write_bytes;
        check_int (name ^ ": DRAM write bytes")
          (int_of_float r.R.mem_dram_write_bytes)
          c.Mem_iface.dram_write_bytes;
        check_int (name ^ ": PCM read bytes")
          (int_of_float r.R.mem_pcm_read_bytes)
          c.Mem_iface.pcm_read_bytes;
        check_int (name ^ ": DRAM read bytes")
          (int_of_float r.R.mem_dram_read_bytes)
          c.Mem_iface.dram_read_bytes;
        Array.iteri
          (fun i v ->
            check_int
              (Printf.sprintf "%s: PCM writes in %s" name (Phase.to_string (Phase.of_tag i)))
              (int_of_float v)
              c.Mem_iface.pcm_write_bytes_by_phase.(i))
          r.R.pcm_writes_by_phase)
    [ ("kg-n", R.kg_n); ("kg-w", R.kg_w) ]

let test_replay_through_file () =
  let d = D.find "lusearch" in
  let r, events = R.record ~scale:512 ~cap_mb:4 R.kg_w d in
  let f = Filename.temp_file "kg_replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove f)
    (fun () ->
      Trace.save f events;
      let events = Trace.load f in
      match R.replay R.kg_w d events with
      | Error m -> Alcotest.failf "replay of reloaded trace diverged: %s" m
      | Ok (st, _) ->
        Alcotest.(check (list string)) "stats identical after file round trip" []
          (Gc_stats.diff r.R.stats st))

let test_replay_wrong_config_diverges () =
  (* A KG-W trace replayed under KG-N must be detected, not silently
     produce different numbers: collections fire at different points,
     so an allocation id eventually mismatches or stats differ. *)
  let d = D.find "lusearch" in
  let r, events = R.record ~scale:512 ~cap_mb:4 R.kg_w d in
  match R.replay R.kg_n d events with
  | Error _ -> ()
  | Ok (st, _) ->
    check_bool "stats must differ under the wrong collector" true
      (Gc_stats.diff r.R.stats st <> [])

(* ------------------------------------------------------------------ *)
(* Negative tests: corrupt the heap / the statistics and prove the
   auditor reports it.                                                 *)

let has_invariant inv vs = List.exists (fun (v : Verify.violation) -> v.invariant = inv) vs

let test_detects_space_id_corruption () =
  let rt, counters = mk Gc_config.Kg_nursery in
  let o = Rt.alloc_boot rt ~size:64 ~heat:O.Cold ~ref_fields:1 in
  Alcotest.(check (list string)) "clean before corruption" []
    (strings_of (Verify.audit ~counters rt));
  O.set_space (Rt.words rt) o 9;
  let vs = Verify.audit ~counters rt in
  check_bool "space-id corruption detected" true (has_invariant "immix" vs);
  O.set_space (Rt.words rt) o Rt.sp_mature_pcm;
  Alcotest.(check (list string)) "clean after restore" []
    (strings_of (Verify.audit ~counters rt))

let test_detects_immix_overlap () =
  let rt, counters = mk Gc_config.Kg_nursery in
  let w = Rt.words rt in
  let a = Rt.alloc_boot rt ~size:64 ~heat:O.Cold ~ref_fields:1 in
  let b = Rt.alloc_boot rt ~size:64 ~heat:O.Cold ~ref_fields:1 in
  check_int "both in mature PCM" Rt.sp_mature_pcm (O.space w b);
  Alcotest.(check (list string)) "clean before corruption" []
    (strings_of (Verify.audit ~counters rt));
  let b_addr = O.addr w b in
  O.set_addr w b (O.addr w a + 32);
  check_bool "overlap detected" true (has_invariant "no-overlap" (Verify.audit ~counters rt));
  O.set_addr w b b_addr;
  Alcotest.(check (list string)) "clean after restore" []
    (strings_of (Verify.audit ~counters rt))

let test_detects_stats_corruption () =
  let rt, counters = mk Gc_config.kg_w_default in
  let a = Rt.alloc rt ~size:64 ~heat:O.Cold ~death:infinity ~ref_fields:2 in
  let b = Rt.alloc rt ~size:64 ~heat:O.Cold ~death:infinity ~ref_fields:2 in
  Rt.write_ref rt ~src:a ~tgt:b;
  Alcotest.(check (list string)) "clean before corruption" []
    (strings_of (Verify.audit ~counters rt));
  let st = Rt.stats rt in
  st.Gc_stats.ref_writes <- st.Gc_stats.ref_writes + 1;
  check_bool "counter corruption detected" true
    (has_invariant "write-conservation" (Verify.audit ~counters rt));
  st.Gc_stats.ref_writes <- st.Gc_stats.ref_writes - 1

let test_detects_leftover_remset () =
  let rt, counters = mk Gc_config.kg_w_default in
  let o = Rt.alloc rt ~size:64 ~heat:O.Cold ~death:infinity ~ref_fields:2 in
  (* An unconsumed generational entry after a "nursery collection". *)
  ignore (Remset.insert (Rt.gen_remset rt) ~slot_addr:4096 ~target:o);
  check_bool "leftover gen entry detected" true
    (has_invariant "remset" (Verify.audit ~counters ~phase:Phase.Nursery_gc rt));
  (* A dangling observer entry still targeting a live nursery object. *)
  (match Rt.obs_remset rt with
  | Some rs ->
    ignore (Remset.insert rs ~slot_addr:8192 ~target:o);
    check_bool "dangling obs entry detected" true
      (List.exists
         (fun (v : Verify.violation) ->
           v.invariant = "remset"
           && String.length v.detail > 8
           && String.sub v.detail 0 8 = "observer")
         (Verify.audit ~counters ~phase:Phase.Nursery_gc rt))
  | None -> Alcotest.fail "KG-W must have an observer remset")

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "check"
    [
      ( "trace",
        [
          Alcotest.test_case "json roundtrip" `Quick test_trace_json_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_trace_malformed;
          Alcotest.test_case "truncated final line" `Quick test_trace_truncated_last_line;
          Alcotest.test_case "bad heat tag names its line" `Quick test_trace_bad_heat_names_line;
        ] );
      ("model", [ q model_qcheck ]);
      ( "differential",
        [
          Alcotest.test_case "genimmix/kg-n/kg-w agree" `Quick test_differential_collectors;
          Alcotest.test_case "large-heavy, LOO off" `Quick test_differential_large_heavy;
        ] );
      ( "replay",
        [
          Alcotest.test_case "record/replay bit-identical" `Quick test_replay_determinism;
          Alcotest.test_case "through a trace file" `Quick test_replay_through_file;
          Alcotest.test_case "wrong config diverges" `Quick test_replay_wrong_config_diverges;
        ] );
      ( "negative",
        [
          Alcotest.test_case "space-id corruption" `Quick test_detects_space_id_corruption;
          Alcotest.test_case "immix overlap" `Quick test_detects_immix_overlap;
          Alcotest.test_case "stats corruption" `Quick test_detects_stats_corruption;
          Alcotest.test_case "leftover remset entries" `Quick test_detects_leftover_remset;
        ] );
    ]
