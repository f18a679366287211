(* kingsguard: run one benchmark under one collector/memory system and
   print the collector's view of the run. *)

open Cmdliner
module R = Kg_sim.Run
module D = Kg_workload.Descriptor
module GS = Kg_gc.Gc_stats
module O = Kg_cli.Run_opts

let print_result (r : R.result) simulate =
  let st = r.R.stats in
  let mb x = x /. 1048576.0 in
  Printf.printf "benchmark        %s\n" r.R.bench.D.name;
  Printf.printf "collector        %s\n" (R.label r.R.spec);
  Printf.printf "allocated        %d MB\n" (r.R.alloc_bytes / 1048576);
  Printf.printf "collections      %d nursery, %d observer, %d major\n" st.GS.nursery_gcs
    st.GS.observer_gcs st.GS.major_gcs;
  Printf.printf "nursery survival %.1f%%\n" (100.0 *. GS.nursery_survival st);
  Printf.printf "observer surv.   %.1f%%\n" (100.0 *. GS.observer_survival st);
  Printf.printf "mature writes    %.1f%% of app writes (top2%% take %.1f%%)\n"
    (100.0 *. GS.mature_write_fraction st)
    (100.0 *. GS.top_fraction_writes st 0.02);
  Printf.printf "barrier PCM wr   %.1f MB (DRAM %.1f MB)\n"
    (mb (float_of_int st.GS.app_write_bytes_pcm))
    (mb (float_of_int st.GS.app_write_bytes_dram));
  if simulate then begin
    Printf.printf "memory PCM wr    %.1f MB (DRAM %.1f MB)\n" (mb r.R.mem_pcm_write_bytes)
      (mb r.R.mem_dram_write_bytes);
    Printf.printf "exec time        %.3f s (modeled)\n" r.R.time_s;
    Printf.printf "write rate       %.2f GB/s (4-core) / %.2f GB/s (32-core)\n"
      (R.pcm_write_rate_4core_gbs r) (R.pcm_write_rate_32core_gbs r);
    Printf.printf "PCM lifetime     %.1f years @30M endurance\n" (R.lifetime_years r);
    (match r.R.energy with
    | Some e ->
      Printf.printf "energy           %.3f J, EDP %.4f Js\n" (Kg_sim.Energy.total_j e) r.R.edp
    | None -> ());
    Printf.printf "wear-level CoV   %.4f\n" r.R.wear_cov
  end;
  Printf.printf "heap: DRAM avg/max %.1f/%.1f MB, PCM avg/max %.1f/%.1f MB, meta %.1f MB\n"
    r.R.dram_avg_mb r.R.dram_max_mb r.R.pcm_avg_mb r.R.pcm_max_mb r.R.meta_mb

let run_cmd bench spec simulate scale heap_scale cap_mb seed domains schedule_seed parallel_gc
    threshold trigger observer =
  let spec =
    {
      spec with
      R.write_threshold = threshold;
      pcm_write_trigger_mb = trigger;
      observer_mb = (if observer = None then spec.R.observer_mb else observer);
    }
  in
  if O.wp_without_simulate spec ~simulate then 1
  else
  match D.find bench with
  | exception Not_found ->
    Printf.eprintf "unknown benchmark %S; try: %s\n" bench (String.concat ", " (D.names ()));
    1
  | d ->
    let mode = if simulate then R.Simulate else R.Count in
    let r =
      R.run ~seed ~scale ~heap_scale ~cap_mb ~threads:domains ~schedule_seed ~parallel_gc ~mode
        spec d
    in
    print_result r simulate;
    0

let bench_arg =
  let doc = "Benchmark name (see `kingsguard list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

let threshold_arg =
  let doc = "KG-W extension: writes needed before an object counts as written (default 1)." in
  Arg.(value & opt O.positive 1 & info [ "write-threshold" ] ~doc)

let trigger_arg =
  let doc = "KG-W extension: trigger a major GC after this many MB of PCM writes." in
  Arg.(value & opt (some O.positive) None & info [ "pcm-write-trigger-mb" ] ~doc)

let observer_arg =
  let doc = "Observer space size in MB (default: the collector's, 2x nursery but for kg-b)." in
  Arg.(value & opt (some O.positive) None & info [ "observer-mb" ] ~doc)

let run_t =
  Term.(
    const run_cmd $ bench_arg $ O.collector $ O.simulate $ O.scale $ O.heap_scale $ O.cap_mb
    $ O.seed $ O.domains $ O.schedule_seed $ O.parallel_gc $ threshold_arg $ trigger_arg
    $ observer_arg)

(* ------------------------------------------------------------------ *)
(* check: audit heap invariants across benchmarks x collectors         *)

let check_cmd benches scale heap_scale cap_mb seed domains jobs =
  let benches = if benches = [] then [ "lusearch"; "xalan"; "pmd" ] else benches in
  let specs = [ ("genimmix", R.pcm_only); ("kg-n", R.kg_n); ("kg-w", R.kg_w) ] in
  let failures = ref 0 in
  let matrix =
    List.concat_map
      (fun bench ->
        match D.find bench with
        | exception Not_found ->
          Printf.eprintf "unknown benchmark %S; try: %s\n" bench
            (String.concat ", " (D.names ()));
          incr failures;
          []
        | d -> List.map (fun (name, spec) -> (bench, d, name, spec)) specs)
      benches
  in
  (* Resolve the audit matrix on the pool; run_all returns in
     submission order, so the report reads the same at any --jobs width. *)
  let pool = Kg_engine.Pool.create ~jobs in
  let results =
    Kg_engine.Pool.run_all pool
      (List.map
         (fun (_, d, _, spec) () ->
           R.run ~seed ~scale ~heap_scale ~cap_mb ~threads:domains ~check:true ~mode:R.Count
             spec d)
         matrix)
  in
  Kg_engine.Pool.shutdown pool;
  List.iter2
    (fun (bench, _, name, _) (r : R.result) ->
      let st = r.R.stats in
      let gcs = st.GS.nursery_gcs + st.GS.observer_gcs + st.GS.major_gcs in
      match r.R.check_violations with
      | [] ->
        Printf.printf "ok   %-10s %-9s %4d collections audited, 0 violations\n" bench name gcs
      | vs ->
        incr failures;
        Printf.printf "FAIL %-10s %-9s %d violation(s) in %d collections:\n" bench name
          (List.length vs) gcs;
        List.iter (fun v -> Printf.printf "       %s\n" v) vs)
    matrix results;
  if !failures > 0 then 1 else 0

let benches_arg =
  let doc = "Benchmarks to audit (default: lusearch xalan pmd)." in
  Arg.(value & pos_all string [] & info [] ~docv:"BENCHMARK" ~doc)

let jobs_arg =
  let doc = "Audit on this many worker domains." in
  Arg.(value & opt O.positive 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let check_t =
  Term.(
    const check_cmd $ benches_arg $ O.scale $ O.heap_scale $ O.cap_mb $ O.seed $ O.domains
    $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* replay: record a run, replay its trace, compare bit-for-bit         *)

let replay_cmd bench spec scale heap_scale cap_mb seed trace_file =
  if O.wp_without_simulate spec ~simulate:false then 1
  else
  match D.find bench with
  | exception Not_found ->
    Printf.eprintf "unknown benchmark %S; try: %s\n" bench (String.concat ", " (D.names ()));
    1
  | d ->
    let r, events = R.record ~seed ~scale ~heap_scale ~cap_mb spec d in
    let events =
      match trace_file with
      | None -> events
      | Some f ->
        (* Exercise the serialization too: what we replay is what was
           parsed back from disk. *)
        Kg_gc.Trace.save f events;
        Printf.printf "trace            %s (%d events)\n" f (Array.length events);
        Kg_gc.Trace.load f
    in
    Printf.printf "recorded         %s under %s: %d events, %d MB allocated\n" bench
      (R.label spec) (Array.length events) (r.R.alloc_bytes / 1048576);
    (match R.replay ~seed ~heap_scale spec d events with
    | Error m ->
      Printf.printf "replay DIVERGED: %s\n" m;
      1
    | Ok (st, c) ->
      let stat_diff = GS.diff r.R.stats st in
      let ctr_diff = ref [] in
      let cmp name a b =
        if int_of_float a <> b then
          ctr_diff := Printf.sprintf "%s: %d <> %d" name (int_of_float a) b :: !ctr_diff
      in
      cmp "pcm_write_bytes" r.R.mem_pcm_write_bytes c.Kg_gc.Mem_iface.pcm_write_bytes;
      cmp "dram_write_bytes" r.R.mem_dram_write_bytes c.Kg_gc.Mem_iface.dram_write_bytes;
      cmp "pcm_read_bytes" r.R.mem_pcm_read_bytes c.Kg_gc.Mem_iface.pcm_read_bytes;
      cmp "dram_read_bytes" r.R.mem_dram_read_bytes c.Kg_gc.Mem_iface.dram_read_bytes;
      Array.iteri
        (fun i v ->
          cmp
            (Printf.sprintf "pcm_write_bytes[%s]" (Kg_gc.Phase.to_string (Kg_gc.Phase.of_tag i)))
            v
            c.Kg_gc.Mem_iface.pcm_write_bytes_by_phase.(i))
        r.R.pcm_writes_by_phase;
      let diffs = stat_diff @ List.rev !ctr_diff in
      if diffs = [] then begin
        Printf.printf
          "replay           identical: all statistics and device write counters match\n";
        0
      end
      else begin
        Printf.printf "replay DIVERGED in %d counter(s):\n" (List.length diffs);
        List.iter (fun m -> Printf.printf "       %s\n" m) diffs;
        1
      end)

let trace_file_arg =
  let doc = "Also save the trace to this JSONL file and replay the reloaded copy." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let replay_t =
  Term.(
    const replay_cmd $ bench_arg $ O.collector $ O.scale $ O.heap_scale $ O.cap_mb $ O.seed
    $ trace_file_arg)

let list_cmd () =
  List.iter
    (fun (d : D.t) ->
      Printf.printf "%-10s alloc %5d MB, heap %4d MB, nursery survival %5.1f%%%s\n" d.D.name
        d.D.alloc_mb d.D.heap_mb
        (100.0 *. d.D.nursery_survival)
        (if d.D.simulated then "  [simulated subset]" else ""))
    D.all;
  0

let cmds =
  let run =
    Cmd.v (Cmd.info "run" ~doc:"Run one benchmark under one collector") run_t
  in
  let list = Cmd.v (Cmd.info "list" ~doc:"List benchmarks") Term.(const list_cmd $ const ()) in
  let check =
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Audit heap invariants after every collection phase, across benchmarks and the \
            GenImmix/KG-N/KG-W collectors")
      check_t
  in
  let replay =
    Cmd.v
      (Cmd.info "replay"
         ~doc:
           "Record a run as an event trace, replay it through a fresh runtime, and verify the \
            statistics and device write counters reproduce bit-for-bit")
      replay_t
  in
  let experiments =
    Cmd.v (Cmd.info "experiments" ~doc:Kg_cli.Experiments_cmd.doc) Kg_cli.Experiments_cmd.term
  in
  let serve = Cmd.v (Cmd.info "serve" ~doc:Kg_cli.Serve_cmd.doc) Kg_cli.Serve_cmd.term in
  Cmd.group
    (Cmd.info "kingsguard" ~doc:"Write-rationing GC simulator")
    [ run; list; check; replay; experiments; serve ]

let () = exit (Cmd.eval' cmds)
