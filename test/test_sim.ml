open Kg_sim
module R = Run
module D = Kg_workload.Descriptor

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Tiny runs: every Run.run here is capped to a few MB. *)
let quick ?(spec = R.kg_w) ?(mode = R.Count) ?(trace = false) name =
  R.run ~seed:5 ~scale:512 ~heap_scale:8 ~cap_mb:16 ~trace ~mode spec (D.find name)

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)

let test_machine_maps () =
  let gib = Kg_util.Units.gib in
  check_int "dram-only" (32 * gib) (Kg_mem.Address_map.dram_size (Machine.map_of Machine.Dram_only));
  check_int "pcm-only" (32 * gib) (Kg_mem.Address_map.pcm_size (Machine.map_of Machine.Pcm_only));
  check_int "hybrid dram" gib (Kg_mem.Address_map.dram_size (Machine.map_of Machine.Hybrid));
  check_int "hybrid pcm" (32 * gib) (Kg_mem.Address_map.pcm_size (Machine.map_of Machine.Hybrid))

let test_machine_build () =
  let m = Machine.build Machine.Hybrid in
  check_bool "wear present" true (m.Machine.wear <> None);
  check_int "no traffic yet" 0 (Machine.pcm_write_bytes m);
  let d = Machine.build Machine.Dram_only in
  check_bool "no pcm, no wear" true (d.Machine.wear = None)

(* ------------------------------------------------------------------ *)
(* Time and energy models                                              *)

let test_time_parts_sum () =
  let p =
    {
      Time_model.app_ns = 1.0;
      gc_ns = 2.0;
      remset_ns = 3.0;
      monitor_ns = 4.0;
      mem_base_ns = 5.0;
      mem_pcm_extra_ns = 6.0;
    }
  in
  check_bool "total" true (Time_model.total_ns p = 21.0);
  check_bool "seconds" true (Float.abs (Time_model.seconds p -. 21e-9) < 1e-18)

let test_time_cpu_parts_from_stats () =
  let st = Kg_gc.Gc_stats.create () in
  st.Kg_gc.Gc_stats.reads <- 1000;
  st.Kg_gc.Gc_stats.nursery_gcs <- 2;
  st.Kg_gc.Gc_stats.monitor_header_writes <- 50;
  let p = Time_model.cpu_parts st ~alloc_bytes:1_000_000 in
  check_bool "app time positive" true (p.Time_model.app_ns > 0.0);
  check_bool "gc fixed cost" true (p.Time_model.gc_ns >= 2.0 *. Costs.t_gc_fixed_ns);
  check_bool "monitor" true (p.Time_model.monitor_ns = 50.0 *. Costs.t_monitor_ns);
  check_bool "no memory part" true (p.Time_model.mem_base_ns = 0.0)

(* The parallel collector is a modeled parameter: a quick 4-domain
   KG-W run that collects. *)
let antlr_4_domains ?(mode = R.Count) ~parallel_gc () =
  R.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads:4 ~parallel_gc ~mode R.kg_w
    (D.find "antlr")

(* Spreading each pause's copy/scan work over 4 cores must cut the
   modeled collection time by at least 1.5x on real collection work. *)
let test_time_parallel_gc_speedup () =
  let r = antlr_4_domains ~parallel_gc:false () in
  check_bool "the run collected" true (r.R.stats.Kg_gc.Gc_stats.nursery_gcs > 0);
  let gc_ns parallel_gc =
    (Time_model.cpu_parts ~domains:4 ~parallel_gc r.R.stats ~alloc_bytes:r.R.alloc_bytes)
      .Time_model.gc_ns
  in
  let speedup = gc_ns false /. gc_ns true in
  if speedup < 1.5 then
    Alcotest.failf "modeled gc speedup at 4 domains is %.3fx (floor 1.5x)" speedup

(* Only the modeled collection time may differ between the two
   settings — and it must shrink. *)
let test_time_parallel_gc_only_gc_time () =
  let rp = antlr_4_domains ~mode:R.Simulate ~parallel_gc:true () in
  let ri = antlr_4_domains ~mode:R.Simulate ~parallel_gc:false () in
  check_bool "stats equal" true (Kg_gc.Gc_stats.equal rp.R.stats ri.R.stats);
  check_bool "inline run collected" true (ri.R.time_parts.Time_model.gc_ns > 0.0);
  check_bool "parallel gc time smaller" true
    (rp.R.time_parts.Time_model.gc_ns < ri.R.time_parts.Time_model.gc_ns)

let test_energy_statics () =
  let m = Machine.build Machine.Dram_only in
  let e = Energy.of_run ~machine:m ~time_s:2.0 in
  check_bool "dram static dominates" true
    (e.Energy.static_dram_j = Costs.dram_static_w_per_gb *. 32.0 *. 2.0);
  check_bool "edp" true (Energy.edp e ~time_s:2.0 = Energy.total_j e *. 2.0)

let test_energy_pcm_write_cost () =
  let m = Machine.build Machine.Pcm_only in
  Kg_cache.Controller.line_write m.Machine.ctrl 0 ~tag:0;
  let e = Energy.of_run ~machine:m ~time_s:1.0 in
  check_bool "dynamic energy recorded" true (e.Energy.dynamic_j > 1e-6)

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)

let test_run_count_mode_basics () =
  let r = quick "xalan" in
  check_bool "allocated" true (r.R.alloc_bytes = 16 * 1048576);
  check_bool "collections happened" true (r.R.stats.Kg_gc.Gc_stats.nursery_gcs > 0);
  check_bool "no machine traffic in count mode" true (r.R.edp = 0.0);
  check_bool "time modeled anyway" true (r.R.time_s > 0.0);
  check_bool "usage sampled" true (r.R.pcm_avg_mb > 0.0)

let test_run_labels () =
  Alcotest.(check string) "kg-w" "KG-W" (R.label R.kg_w);
  Alcotest.(check string) "kg-n-12" "KG-N-12" (R.label R.kg_n_12);
  Alcotest.(check string) "wp" "WP" (R.label R.wp);
  Alcotest.(check string) "dram" "DRAM-only" (R.label R.dram_only);
  Alcotest.(check string) "pm" "KG-W-PM" (R.label R.kg_w_no_pm)

let test_run_deterministic () =
  let a = quick "pmd" and b = quick "pmd" in
  check_bool "same barrier writes" true
    (a.R.stats.Kg_gc.Gc_stats.app_write_bytes_pcm = b.R.stats.Kg_gc.Gc_stats.app_write_bytes_pcm);
  check_bool "same time" true (a.R.time_s = b.R.time_s)

let test_run_kgw_saves_barrier_pcm_writes () =
  let n = quick ~spec:R.kg_n "hsqldb" in
  let w = quick ~spec:R.kg_w "hsqldb" in
  check_bool "KG-W < KG-N barrier PCM writes" true
    (w.R.stats.Kg_gc.Gc_stats.app_write_bytes_pcm < n.R.stats.Kg_gc.Gc_stats.app_write_bytes_pcm)

let test_run_trace () =
  let r = quick ~trace:true "pmd" in
  check_bool "trace collected" true (List.length r.R.trace > 0);
  List.iter
    (fun (clock, pcm, dram) ->
      check_bool "clock grows" true (clock > 0.0);
      check_bool "non-negative" true (pcm >= 0.0 && dram >= 0.0))
    r.R.trace

let test_run_simulate_mode () =
  let rp = quick ~mode:R.Simulate ~spec:R.pcm_only "lu.fix" in
  let rd = quick ~mode:R.Simulate ~spec:R.dram_only "lu.fix" in
  check_bool "pcm traffic recorded" true (rp.R.mem_pcm_write_bytes > 0.0);
  check_bool "dram-only has no pcm traffic" true (rd.R.mem_pcm_write_bytes = 0.0);
  check_bool "pcm slower" true (rp.R.time_s > rd.R.time_s);
  check_bool "energy present" true (rp.R.energy <> None && rp.R.edp > 0.0);
  check_bool "lifetime finite" true (R.lifetime_years rp < 1e6);
  (* at this tiny scale only a sliver of the 32 GB sees writes; the
     full uniformity property is covered by the kg_mem wear tests *)
  check_bool "wear stats present" true (rp.R.wear_cov >= 0.0)

let test_run_kingsguard_beats_pcm_only () =
  let rp = quick ~mode:R.Simulate ~spec:R.pcm_only "lu.fix" in
  let rn = quick ~mode:R.Simulate ~spec:R.kg_n "lu.fix" in
  check_bool "KG-N cuts memory-level PCM writes" true
    (rn.R.mem_pcm_write_bytes < 0.8 *. rp.R.mem_pcm_write_bytes);
  check_bool "lifetime extends" true (R.lifetime_years rn > R.lifetime_years rp)

let test_run_wp_mode () =
  let r = quick ~mode:R.Simulate ~spec:R.wp "lu.fix" in
  check_bool "runs" true (r.R.mem_pcm_write_bytes > 0.0);
  check_bool "phase array sized" true (Array.length r.R.pcm_writes_by_phase = Kg_gc.Phase.count)

let test_run_phase_attribution () =
  let r = quick ~mode:R.Simulate ~spec:R.kg_n "lu.fix" in
  let total = Array.fold_left ( +. ) 0.0 r.R.pcm_writes_by_phase in
  check_bool "phases account for all pcm writes" true
    (Float.abs (total -. r.R.mem_pcm_write_bytes) < 1e-6);
  check_bool "application phase present" true (r.R.pcm_writes_by_phase.(0) > 0.0)

let test_write_rate_scaling () =
  let r = quick ~mode:R.Simulate ~spec:R.pcm_only "antlr" in
  let r4 = R.pcm_write_rate_4core_gbs r in
  let r32 = R.pcm_write_rate_32core_gbs r in
  check_bool "32-core rate = scaling x 4-core" true
    (Float.abs (r32 -. (r4 *. 52.0)) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Pipelined sink                                                      *)

module Budget = Kg_util.Domain_budget

(* [f ()] with every spare core claimed, so Run.run keeps its cache-sim
   sink inline. *)
let inline f =
  let n = Budget.capacity () in
  Budget.claim n;
  Fun.protect ~finally:(fun () -> Budget.release n) f

let same_float a b = Int64.bits_of_float a = Int64.bits_of_float b

(* On a host with a spare core the first run below pipelines its sink
   onto a second domain; on a one-core host both runs are inline. Every
   output must be bit-identical either way. *)
let test_pipelined_run_matches_inline () =
  List.iter
    (fun (what, spec, threads) ->
      let go () =
        R.run ~seed:5 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads ~mode:R.Simulate spec
          (D.find "lusearch")
      in
      let before = Budget.claimed () in
      let p = go () in
      check_int (what ^ ": the pipe released its claim") before (Budget.claimed ());
      let i = inline go in
      let same name ok = check_bool (what ^ ": " ^ name) true ok in
      same "gc stats" (Kg_gc.Gc_stats.equal p.R.stats i.R.stats);
      same "pcm writes" (same_float p.R.mem_pcm_write_bytes i.R.mem_pcm_write_bytes);
      same "dram writes" (same_float p.R.mem_dram_write_bytes i.R.mem_dram_write_bytes);
      same "pcm reads" (same_float p.R.mem_pcm_read_bytes i.R.mem_pcm_read_bytes);
      same "dram reads" (same_float p.R.mem_dram_read_bytes i.R.mem_dram_read_bytes);
      same "pcm writes by phase"
        (Array.for_all2 same_float p.R.pcm_writes_by_phase i.R.pcm_writes_by_phase);
      same "wear cov" (same_float p.R.wear_cov i.R.wear_cov);
      same "migration bytes" (same_float p.R.migration_pcm_bytes i.R.migration_pcm_bytes);
      same "wp dram" (same_float p.R.wp_dram_mb i.R.wp_dram_mb);
      same "time parts" (compare p.R.time_parts i.R.time_parts = 0);
      same "time" (same_float p.R.time_s i.R.time_s);
      same "energy" (compare p.R.energy i.R.energy = 0);
      same "edp" (same_float p.R.edp i.R.edp))
    [
      ("pcm-only", R.pcm_only, 1);
      ("dram-only", R.dram_only, 1);
      ("kg-n", R.kg_n, 1);
      ("kg-w", R.kg_w, 1);
      ("wp", R.wp, 1);
      ("kg-w, 2 threads", R.kg_w, 2);
    ]

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)

let tiny_env () =
  Experiments.make_env { Experiments.scale = 512; heap_scale = 8; cap_mb = 12; seed = 5 }

let test_experiments_registry () =
  check_int "25 experiments" 25 (List.length Experiments.all);
  List.iter
    (fun (e : Experiments.experiment) ->
      check_bool (e.Experiments.id ^ " described") true
        (String.length e.Experiments.doc > 0))
    Experiments.all

let test_experiments_static_tables () =
  let env = tiny_env () in
  let t1 = Experiments.run_by_name env "tab1" in
  check_bool "tab1 renders" true (String.length (Kg_util.Table.render t1) > 100);
  let t2 = Experiments.run_by_name env "tab2" in
  check_bool "tab2 renders" true (String.length (Kg_util.Table.render t2) > 100)

let test_experiments_fig11_runs () =
  (* fig11 covers all 18 benchmarks at tiny scale; smoke the pipeline *)
  let env = tiny_env () in
  let t = Experiments.run_by_name env "fig11" in
  let rendered = Kg_util.Table.render t in
  check_bool "has average row" true
    (List.exists
       (fun line -> String.length line >= 7 && String.sub line 0 7 = "Average")
       (String.split_on_char '\n' rendered))

let test_experiments_unknown () =
  let env = tiny_env () in
  Alcotest.check_raises "unknown id" Not_found (fun () ->
      ignore (Experiments.run_by_name env "fig99"))

let test_pause_ordering () =
  (* pick a high-survival benchmark so all three collection kinds fire *)
  let r =
    R.run ~seed:5 ~scale:8 ~heap_scale:6 ~cap_mb:64 ~mode:R.Count R.kg_w (D.find "hsqldb")
  in
  let acc = Hashtbl.create 4 in
  Kg_util.Vec.iter
    (fun (phase, copied, scanned) ->
      let sum, n = Option.value (Hashtbl.find_opt acc phase) ~default:(0.0, 0) in
      Hashtbl.replace acc phase (sum +. Time_model.pause_ms ~copied ~scanned (), n + 1))
    r.R.stats.Kg_gc.Gc_stats.collection_log;
  let avg phase =
    match Hashtbl.find_opt acc phase with
    | Some (sum, n) when n > 0 -> sum /. float_of_int n
    | _ -> 0.0
  in
  let nursery = avg Kg_gc.Phase.Nursery_gc in
  let observer = avg Kg_gc.Phase.Observer_gc in
  let major = avg Kg_gc.Phase.Major_gc in
  check_bool "all kinds fired" true (nursery > 0.0 && observer > 0.0 && major > 0.0);
  check_bool "nursery < observer" true (nursery < observer);
  check_bool "observer < major" true (observer < major)

let test_modes_agree_at_barrier_level () =
  (* Barrier-level accounting is architecture-independent: Count and
     Simulate modes must report identical collector-side statistics for
     the same seed, differing only below the caches. *)
  let spec = R.kg_w and d = D.find "fop" in
  let a = R.run ~seed:9 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~mode:R.Count spec d in
  let b = R.run ~seed:9 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~mode:R.Simulate spec d in
  let key (r : R.result) =
    let st = r.R.stats in
    ( st.Kg_gc.Gc_stats.app_write_bytes_pcm,
      st.Kg_gc.Gc_stats.nursery_gcs,
      st.Kg_gc.Gc_stats.ref_writes,
      st.Kg_gc.Gc_stats.gen_remset_inserts )
  in
  check_bool "identical barrier-level stats" true (key a = key b)

let test_experiments_cache_reuse () =
  let env = tiny_env () in
  let d = D.find "fop" in
  let a = Experiments.fetch env (Experiments.job R.Count R.kg_n d) in
  let b = Experiments.fetch env (Experiments.job R.Count R.kg_n d) in
  check_bool "memoised (same physical result)" true (a == b)

let () =
  Alcotest.run "kg_sim"
    [
      ( "machine",
        [
          Alcotest.test_case "maps" `Quick test_machine_maps;
          Alcotest.test_case "build" `Quick test_machine_build;
        ] );
      ( "models",
        [
          Alcotest.test_case "time parts sum" `Quick test_time_parts_sum;
          Alcotest.test_case "cpu parts" `Quick test_time_cpu_parts_from_stats;
          Alcotest.test_case "parallel-gc speedup >= 1.5x" `Quick test_time_parallel_gc_speedup;
          Alcotest.test_case "only modeled gc time shrinks" `Quick
            test_time_parallel_gc_only_gc_time;
          Alcotest.test_case "energy statics" `Quick test_energy_statics;
          Alcotest.test_case "pcm write energy" `Quick test_energy_pcm_write_cost;
        ] );
      ( "run",
        [
          Alcotest.test_case "count mode basics" `Quick test_run_count_mode_basics;
          Alcotest.test_case "labels" `Quick test_run_labels;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "KG-W saves PCM writes" `Quick test_run_kgw_saves_barrier_pcm_writes;
          Alcotest.test_case "trace" `Quick test_run_trace;
          Alcotest.test_case "simulate mode" `Slow test_run_simulate_mode;
          Alcotest.test_case "kingsguard beats pcm-only" `Slow test_run_kingsguard_beats_pcm_only;
          Alcotest.test_case "wp mode" `Slow test_run_wp_mode;
          Alcotest.test_case "phase attribution" `Slow test_run_phase_attribution;
          Alcotest.test_case "write-rate scaling" `Slow test_write_rate_scaling;
          Alcotest.test_case "pipelined == inline" `Slow test_pipelined_run_matches_inline;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_experiments_registry;
          Alcotest.test_case "static tables" `Quick test_experiments_static_tables;
          Alcotest.test_case "fig11 pipeline" `Slow test_experiments_fig11_runs;
          Alcotest.test_case "pause ordering (4.2.1)" `Slow test_pause_ordering;
          Alcotest.test_case "unknown id" `Quick test_experiments_unknown;
          Alcotest.test_case "cache reuse" `Quick test_experiments_cache_reuse;
          Alcotest.test_case "modes agree at barrier level" `Slow test_modes_agree_at_barrier_level;
        ] );
    ]
