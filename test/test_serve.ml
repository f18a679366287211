(* Determinism and SLO tests for the Kg_serve request/response
   mutator.

   Serve runs ride the same epoch protocol as the batch mutator, so
   they inherit its promise: a run is a pure function of
   (seed, schedule_seed, domains, rate). On top, the histograms must
   be non-degenerate (a pause profile with max <= P50 or a zero P50
   means the recorder is wired wrong). *)

open Kg_sim
module GS = Kg_gc.Gc_stats
module H = Kg_util.Hdr_histogram

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let serve_run ?(rate = 1024.0) threads =
  Run.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads
    ~serve:rate ~mode:Run.Count Run.kg_w
    (Kg_workload.Descriptor.find "pjbb")

let metrics (r : Run.result) =
  match r.Run.serve with
  | Some s -> s
  | None -> Alcotest.fail "serve run carries no serve metrics"

let test_serve_repeat_determinism () =
  List.iter
    (fun threads ->
      let fp r =
        let s = metrics r in
        (s.Run.requests, s.Run.t1_hits, H.nonzero s.Run.latency_hist,
         H.nonzero s.Run.pause_hist, GS.equal r.Run.stats r.Run.stats)
      in
      let a = fp (serve_run threads) and b = fp (serve_run threads) in
      check_bool (Printf.sprintf "%d domains reproducible" threads) true (a = b))
    [ 1; 2 ]

(* Non-degenerate SLO histograms at each offered rate: requests flowed,
   every request got a latency sample, pauses were recorded, and the
   pause profile has spread (max > P50 > 0); a degenerate shape means
   the recorder is wired wrong, since the modeled pauses are a pure
   function of the run. *)
let test_serve_histograms_non_degenerate () =
  List.iter
    (fun rate ->
      let r = serve_run ~rate 1 in
      let s = metrics r in
      let at what = Printf.sprintf "%s at %.0f req/s" what rate in
      check_bool (at "requests served") true (s.Run.requests > 0);
      check_int (at "one latency sample per request") s.Run.requests (H.count s.Run.latency_hist);
      let st = r.Run.stats in
      (* One pause per stop-the-world event. Observer and major
         collections subsume a nursery collection (§4.2.2), so every
         STW event bumps [nursery_gcs] exactly once while the GC hook —
         and hence the histogram — fires once per event. *)
      check_int (at "one pause per STW event") st.GS.nursery_gcs (H.count s.Run.pause_hist);
      check_bool (at "pause P50 positive") true (H.p50 s.Run.pause_hist > 0.0);
      check_bool (at "pause max > P50") true (H.max_value s.Run.pause_hist > H.p50 s.Run.pause_hist);
      check_bool (at "latency P50 positive") true (H.p50 s.Run.latency_hist > 0.0);
      check_bool (at "latency P99 >= P50") true
        (H.p99 s.Run.latency_hist >= H.p50 s.Run.latency_hist))
    [ 256.0; 1024.0; 1792.0 ]

(* The latency model's load dependence: driving the arrival rate
   toward the per-domain service capacity must raise queueing delay. *)
let test_serve_latency_rises_with_rate () =
  let p99 rate = H.p99 (metrics (serve_run ~rate 1)).Run.latency_hist in
  check_bool "P99 latency grows with offered load" true (p99 1792.0 > p99 256.0)

(* The cache and session machinery actually runs: hits, fills and
   churn all present under the default config. *)
let test_serve_cache_activity () =
  let s = metrics (serve_run 1) in
  check_bool "tier1 hits" true (s.Run.t1_hits > 0);
  check_bool "backend fills" true (s.Run.backend_fills > 0);
  check_bool "sessions churned" true (s.Run.sessions_churned > 0)

let () =
  Alcotest.run "kg_serve"
    [
      ( "differential",
        [
          Alcotest.test_case "repeat determinism" `Quick test_serve_repeat_determinism;
        ] );
      ( "slo",
        [
          Alcotest.test_case "histograms non-degenerate" `Quick
            test_serve_histograms_non_degenerate;
          Alcotest.test_case "latency rises with load" `Quick test_serve_latency_rises_with_rate;
          Alcotest.test_case "cache activity" `Quick test_serve_cache_activity;
        ] );
    ]
