(* kingsguard serve: run the request/response mutator under one
   collector and print the SLO view of the run — request counters,
   cache behaviour, and the pause/latency histograms. *)

open Cmdliner
module R = Kg_sim.Run
module D = Kg_workload.Descriptor
module GS = Kg_gc.Gc_stats
module H = Kg_util.Hdr_histogram
module O = Run_opts

let doc = "Serve a request/response workload and report pause/latency SLOs"

let print_serve (r : R.result) (s : R.serve_metrics) =
  let st = r.R.stats in
  let pctf part whole =
    if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole
  in
  let probes = s.R.t1_hits + s.R.t2_hits + s.R.backend_fills in
  Printf.printf "benchmark        %s\n" r.R.bench.D.name;
  Printf.printf "collector        %s\n" (R.label r.R.spec);
  Printf.printf "offered rate     %.0f req/s\n" s.R.rate;
  Printf.printf "requests         %d (modeled duration %.3f s)\n" s.R.requests
    (if s.R.rate > 0.0 then float_of_int s.R.requests /. s.R.rate else 0.0);
  Printf.printf "cache            tier1 %.1f%%, tier2 %.1f%%, backend %.1f%% of %d probes\n"
    (pctf s.R.t1_hits probes) (pctf s.R.t2_hits probes)
    (pctf s.R.backend_fills probes)
    probes;
  Printf.printf "sessions churned %d\n" s.R.sessions_churned;
  Printf.printf "allocated        %d MB\n" (r.R.alloc_bytes / 1048576);
  (* Observer and major collections subsume a nursery pass, so
     [nursery_gcs] counts every stop-the-world event once — the same
     total the pause histogram's [n] reports. *)
  Printf.printf "collections      %d STW (%d nursery-only, %d observer, %d major)\n"
    st.GS.nursery_gcs
    (st.GS.nursery_gcs - st.GS.observer_gcs - st.GS.major_gcs)
    st.GS.observer_gcs st.GS.major_gcs;
  Printf.printf "gc pause ms      %s\n" (H.summary s.R.pause_hist);
  Printf.printf "req latency ms   %s\n" (H.summary s.R.latency_hist)

let serve_cmd bench spec rate simulate scale heap_scale cap_mb seed domains schedule_seed
    parallel_gc =
  if O.wp_without_simulate spec ~simulate then 1
  else
  match D.find bench with
  | exception Not_found ->
    Printf.eprintf "unknown benchmark %S; try: %s\n" bench (String.concat ", " (D.names ()));
    1
  | d -> (
    let mode = if simulate then R.Simulate else R.Count in
    let r =
      R.run ~seed ~scale ~heap_scale ~cap_mb ~threads:domains ~schedule_seed ~parallel_gc
        ~serve:(float_of_int rate) ~mode spec d
    in
    match r.R.serve with
    | None -> prerr_endline "internal error: serve run produced no serve metrics"; 1
    | Some s ->
      print_serve r s;
      0)

let bench_arg =
  let doc = "Benchmark supplying demographics (see `kingsguard list')." in
  Arg.(value & pos 0 string "pjbb" & info [] ~docv:"BENCHMARK" ~doc)

let rate_arg =
  let doc = "Open-loop arrival rate, requests/sec across all domains." in
  Arg.(value & opt O.positive 1024 & info [ "rate" ] ~docv:"REQ_S" ~doc)

let term =
  Term.(
    const serve_cmd $ bench_arg $ O.collector $ rate_arg $ O.simulate $ O.scale $ O.heap_scale
    $ O.cap_mb $ O.seed $ O.domains $ O.schedule_seed $ O.parallel_gc)
