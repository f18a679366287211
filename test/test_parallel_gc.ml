(* Differential tests for the domain-parallel collection phases.

   The collector's parallel phases follow one protocol: plan in
   parallel over contiguous index ranges into slice-private buffers,
   then apply the buffers sequentially in slice order. That apply
   order reproduces sequential iteration exactly, so a run with
   [parallel_gc:true] must be bit-identical to the inline collector at
   the same domain count — same statistics, same device counters, same
   allocation-id stream (visible through the event trace). The inline
   collector IS the oracle; these tests hold the two sides together
   over random full runs and over the phase-partition edge cases
   (empty mature space, single live object, more domains than live
   objects, a defrag-triggering heap). *)

open Kg_gc
open Kg_sim
module O = Kg_heap.Object_model
module Rt = Runtime
module GS = Gc_stats

let check_bool = Alcotest.(check bool)
let mib = Kg_util.Units.mib

(* ------------------------------------------------------------------ *)
(* Full-run differential: parallel collector vs inline collector       *)

(* Everything a run exposes that could diverge, including the traffic
   totals the counting port accumulates in retirement order. *)
let fingerprint (r : Run.result) =
  let st = r.Run.stats in
  ( ( st.GS.nursery_gcs,
      st.GS.observer_gcs,
      st.GS.major_gcs,
      st.GS.nursery_alloc_bytes,
      st.GS.copied_bytes_nursery,
      st.GS.copied_bytes_observer,
      st.GS.copied_bytes_major ),
    ( st.GS.ref_writes,
      st.GS.prim_writes,
      st.GS.reads,
      st.GS.gen_remset_inserts,
      st.GS.obs_remset_inserts,
      st.GS.mark_header_writes,
      st.GS.scanned_objects ),
    ( st.GS.mature_moves_to_dram,
      st.GS.mature_moves_to_pcm,
      st.GS.app_write_bytes_pcm,
      st.GS.app_write_bytes_dram ),
    ( r.Run.mem_pcm_write_bytes,
      r.Run.mem_dram_write_bytes,
      r.Run.mem_pcm_read_bytes,
      r.Run.mem_dram_read_bytes ) )

let quick ?(seed = 11) ?(mode = Run.Count) ?(spec = Run.kg_w) ?(bench = "xalan")
    ~parallel_gc threads =
  Run.run ~seed ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads ~parallel_gc ~mode spec
    (Kg_workload.Descriptor.find bench)

let agree ?seed ?mode ?spec ?bench threads =
  let rp = quick ?seed ?mode ?spec ?bench ~parallel_gc:true threads in
  let ri = quick ?seed ?mode ?spec ?bench ~parallel_gc:false threads in
  fingerprint rp = fingerprint ri && GS.equal rp.Run.stats ri.Run.stats

(* The headline differential: for any domain count, seed and
   collector, the team collector and the inline collector agree on
   every statistic and counter. *)
let parallel_gc_matches_inline_qcheck =
  QCheck.Test.make ~name:"team collector is bit-identical to the inline collector"
    ~count:6
    QCheck.(triple (int_range 1 4) (int_bound 1000) (int_bound 2))
    (fun (threads, seed, spec_i) ->
      let spec = [| Run.pcm_only; Run.kg_w; Run.kg_n |].(spec_i) in
      agree ~seed ~spec threads)

(* Under full simulation the cache hierarchy makes device traffic a
   function of the exact retirement order, so agreement here pins the
   order of every port record the collection phases emit. *)
let test_parallel_gc_simulate () =
  List.iter
    (fun threads ->
      check_bool
        (Printf.sprintf "simulate, %d domains" threads)
        true
        (agree ~mode:Run.Simulate ~bench:"antlr" threads))
    [ 2; 4 ]

(* Only the modeled collection time may differ — and it must shrink
   when there is collection work to divide. *)
let test_parallel_gc_shrinks_gc_time () =
  let rp = quick ~mode:Run.Simulate ~bench:"antlr" ~parallel_gc:true 4 in
  let ri = quick ~mode:Run.Simulate ~bench:"antlr" ~parallel_gc:false 4 in
  check_bool "stats equal" true (GS.equal rp.Run.stats ri.Run.stats);
  check_bool "inline run collected" true
    (ri.Run.time_parts.Time_model.gc_ns > 0.0);
  check_bool "team gc time smaller" true
    (rp.Run.time_parts.Time_model.gc_ns < ri.Run.time_parts.Time_model.gc_ns)

(* The heap auditor must stay green while the phases run on the team. *)
let test_parallel_gc_auditor_green () =
  let r =
    Run.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads:4 ~parallel_gc:true
      ~check:true ~mode:Run.Count Run.kg_w
      (Kg_workload.Descriptor.find "xalan")
  in
  Alcotest.(check (list string)) "no violations" [] r.Run.check_violations

(* ------------------------------------------------------------------ *)
(* Phase-partition edge cases                                          *)

(* Drive one scripted heap population on a bare runtime, force a final
   major collection, and return everything observable: statistics,
   device-counter totals, the event trace (which carries the
   runtime-assigned object ids, so it pins the allocation stream), and
   the auditor's verdict on the final heap. *)
let observe ?(domains = 4) ?defrag_threshold ~parallel_gc script =
  let cfg =
    Gc_config.make ~nursery_mb:1 ?defrag_threshold ~heap_mb:8 Gc_config.kg_w_default
  in
  let map = Kg_mem.Address_map.hybrid () in
  let mem, counters = Mem_iface.counting ~map in
  let rt = Rt.create ~domains ~parallel_gc ~config:cfg ~mem ~map ~seed:1 () in
  Fun.protect ~finally:(fun () -> Rt.shutdown rt) @@ fun () ->
  let rcd = Trace.recorder () in
  Rt.set_event_hook rt (Trace.record rcd);
  script rt;
  Rt.major_gc rt;
  Mem_iface.flush mem;
  let violations = List.map Verify.to_string (Verify.audit ~counters rt) in
  (Rt.stats rt, Mem_iface.stats mem, Trace.events rcd, violations)

(* Both sides of one scenario: stats equal, counters equal, traces
   byte-identical, auditor green on each. *)
let scenario ?domains ?defrag_threshold name script =
  let sp, cp, tp, vp = observe ?domains ?defrag_threshold ~parallel_gc:true script in
  let si, ci, ti, vi = observe ?domains ?defrag_threshold ~parallel_gc:false script in
  Alcotest.(check (list string)) (name ^ ": stats diff") [] (GS.diff si sp);
  check_bool (name ^ ": device counters equal") true (cp = ci);
  check_bool (name ^ ": traces byte-identical") true (tp = ti);
  Alcotest.(check (list string)) (name ^ ": auditor green (team)") [] vp;
  Alcotest.(check (list string)) (name ^ ": auditor green (inline)") [] vi;
  (sp, si)

let alloc ?(size = 128) ?(death = infinity) rt =
  Rt.alloc rt ~size ~heat:O.Cold ~death ~ref_fields:2

let test_edge_empty_mature () =
  ignore (scenario "empty mature space" (fun _ -> ()))

let test_edge_single_live () =
  ignore (scenario "single live object" (fun rt -> ignore (alloc rt)))

(* More plan slices than live objects: most ranges are empty, the
   merge must still replay the populated ones in slice order. *)
let test_edge_domains_exceed_live () =
  let sp, _ =
    scenario ~domains:4 "domains > live objects" (fun rt ->
        ignore (alloc rt);
        ignore (alloc rt))
  in
  check_bool "collected" true (sp.GS.major_gcs >= 1)

(* A fragmented mature heap under an always-on defragmentation
   threshold: most promoted objects die mid-run, so the majors leave
   sparse blocks and the sweep's evacuation planning runs too. *)
let test_edge_defrag () =
  let populate rt =
    (* 6 MiB of 128-byte objects; 1 in 16 immortal, the rest dying at
       the 5 MiB mark — late enough to reach the mature space alive
       (observer evacuations land around the 3 MiB mark), early enough
       to be swept by the final major, which strands the immortals on
       ~12%-marked blocks: exactly the §6.3 evacuation case. (1 in 8
       would mark exactly lines_per_block/4 lines per block — one line
       per four — and sit right on the candidate cutoff.) *)
    for i = 1 to (6 * mib) / 128 do
      let death = if i land 15 = 0 then infinity else float_of_int (5 * mib) in
      ignore (alloc ~death rt)
    done;
    Rt.major_gc rt
  in
  let sp, _ = scenario ~defrag_threshold:0.1 "defrag-triggering heap" populate in
  check_bool "majors ran" true (sp.GS.major_gcs >= 2);
  check_bool "defrag moved objects" true (sp.GS.copied_bytes_major > 0)

(* ------------------------------------------------------------------ *)
(* Failure                                                             *)

exception Slice_failed of int

(* A slice that raises on a worker: the coordinator re-raises it after
   every slice has finished, the team stays usable, and shutdown joins
   the worker and returns its domain to the budget. *)
let test_team_reraises_worker_exception () =
  let before = Kg_util.Domain_budget.claimed () in
  let team = Gc_par.create ~domains:2 ~parallel:true in
  let r = Gc_par.runner team in
  let ran = Array.make 2 0 in
  (match Kg_util.Parfor.run r (fun i -> if i = 1 then raise (Slice_failed i) else ran.(i) <- 1) with
  | () -> Alcotest.fail "run returned normally"
  | exception Slice_failed i -> Alcotest.(check int) "raised by slice 1" 1 i);
  Alcotest.(check int) "slice 0 still ran" 1 ran.(0);
  Alcotest.(check int) "the worker holds a claim" (before + 1) (Kg_util.Domain_budget.claimed ());
  Kg_util.Parfor.run r (fun i -> ran.(i) <- 2);
  Alcotest.(check (array int)) "both slices run next time" [| 2; 2 |] ran;
  Gc_par.shutdown team;
  Alcotest.(check int) "shutdown released the claim" before (Kg_util.Domain_budget.claimed ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kg_parallel_gc"
    [
      ( "differential",
        [
          q parallel_gc_matches_inline_qcheck;
          Alcotest.test_case "simulate mode traffic order" `Quick
            test_parallel_gc_simulate;
          Alcotest.test_case "only modeled gc time shrinks" `Quick
            test_parallel_gc_shrinks_gc_time;
          Alcotest.test_case "auditor green on the team" `Quick
            test_parallel_gc_auditor_green;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "empty mature space" `Quick test_edge_empty_mature;
          Alcotest.test_case "single live object" `Quick test_edge_single_live;
          Alcotest.test_case "domains > live objects" `Quick
            test_edge_domains_exceed_live;
          Alcotest.test_case "defrag-triggering heap" `Quick test_edge_defrag;
        ] );
      ( "failure",
        [
          Alcotest.test_case "worker exception re-raised" `Quick
            test_team_reraises_worker_exception;
        ] );
    ]
