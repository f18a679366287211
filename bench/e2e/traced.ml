(* The traced run: per-layer host time, measured from outside the
   libraries at the boundary of each call into them.

   A run workload is recorded once live (the bench assembles Run.run's
   pipeline and records a Kg_gc.Trace), then replayed twice: untimed,
   and with one clock read per Replay.step. During the timed replay a
   wrapped port sink times every batch, and the gc hook timestamps the
   end of every collection, so each step's time splits into sink time,
   collection time and the runtime call's own (self) time. Collections,
   sink batches, figure-set jobs and store calls are kept as spans and
   written as Chrome trace events on request; runtime calls are only
   aggregated. *)

open Kg_sim
open Workload
module Trace = Kg_gc.Trace
module Runtime = Kg_gc.Runtime
module Vec = Kg_util.Vec

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = { name : string; cat : string; start : int; stop : int; id : int; parent : int }

let spans : span Vec.t = Vec.create ()
let last_id = ref 0

let new_id () =
  incr last_id;
  !last_id

let span ?(id = new_id ()) ?(parent = 0) ~cat name start stop =
  Vec.push spans { name; cat; start; stop; id; parent };
  id

let chrome_json () =
  let origin = Vec.fold (fun a s -> min a s.start) max_int spans in
  let us ns = Json.Num (float_of_int (ns - origin) /. 1000.0) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (Vec.fold
             (fun acc s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("cat", Json.Str s.cat);
                   ("ph", Json.Str "X");
                   ("ts", us s.start);
                   ("dur", Json.Num (float_of_int (s.stop - s.start) /. 1000.0));
                   ("pid", Json.Num 1.0);
                   ("tid", Json.Num 1.0);
                   ( "args",
                     Json.Obj
                       [ ("id", Json.Num (float_of_int s.id)); ("parent", Json.Num (float_of_int s.parent)) ]
                   );
                 ]
               :: acc)
             [] spans
          |> List.rev) );
    ]

(* ------------------------------------------------------------------ *)
(* Per-layer totals, summed over a workload's specs. *)

let totals : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  ignore (Metric.find name);
  Hashtbl.replace totals name (v +. Option.value (Hashtbl.find_opt totals name) ~default:0.0)

let add_s name ns = add name (Stats.secs ns)

(* setup.*: medians over [setup_reps] assemblies of each set-up case,
   timing the memory system, Runtime.create and the boot image.
   Returns each case's total, which traced runs subtract. *)
let setup_layers ctx cases =
  let seed = ctx.seed in
  List.map
    (fun s ->
      let samples =
        List.init (setup_reps ctx) (fun _ ->
            let p =
              Pipeline.assemble ~mode:s.s_mode ~seed ~heap_scale:s.s_heap_scale ~threads:s.s_threads
                ~parallel_gc:s.s_parallel_gc s.s_spec s.s_bench
            in
            let m =
              Pipeline.mutator p ~heap_scale:s.s_heap_scale ~threads:s.s_threads ~seed s.s_bench
            in
            let boot, () = time_ns (fun () -> Kg_workload.Mutator.allocate_startup m) in
            Runtime.shutdown p.rt;
            (p.machine_ns, p.runtime_ns, boot))
      in
      let med f = Stats.median (List.map (fun x -> Stats.secs (f x)) samples) in
      add "setup.machine_s" (med (fun (m, _, _) -> m));
      add "setup.runtime_s" (med (fun (_, r, _) -> r));
      add "setup.boot_s" (med (fun (_, _, b) -> b));
      Stats.median (List.map (fun (m, r, b) -> float_of_int (m + r + b)) samples) |> int_of_float)
    cases

(* ------------------------------------------------------------------ *)
(* Run workloads *)

let op_names = Array.of_list Metric.runtime_ops
let other = Array.length op_names

(* Index into [op_names]. Markers and forced majors are not calls the
   mutator makes, and the mutators never call read_obj; all fall to
   replay.other_s. *)
let op_index = function
  | Trace.Alloc _ | Trace.Alloc_boot _ -> 0
  | Trace.Write_ref _ -> 1
  | Trace.Write_prim _ -> 2
  | Trace.Read_burst _ -> 3
  | Trace.Read _ | Trace.Major_gc | Trace.Reset_stats | Trace.Flush_retirement -> other

let sink_name (r : runs) (spec : Run.spec) =
  match r.mode with Run.Count -> "counting" | Run.Simulate -> if spec.wp then "wp" else "cache_sim"

(* What the checks compare a pipeline's output against. *)
let check_output c what (ref_ : Run.result) (p : Pipeline.t) =
  check c what
    (Kg_gc.Gc_stats.equal ref_.stats (Runtime.stats p.rt)
    && Pipeline.traffic_equal ref_ (Kg_gc.Mem_iface.stats p.port))

(* The run, live, through the assembled pipeline: as Run.run, with an
   optional recorder and gc hook. *)
let live ?wrap ?recorder ?(on_gc = ignore) ~seed (r : runs) spec bench ~alloc_bytes =
  let p =
    Pipeline.assemble ?wrap ~mode:r.mode ~seed ~heap_scale:r.heap_scale ~threads:r.threads
      ~parallel_gc:r.parallel_gc spec bench
  in
  let mark ev = Option.iter (fun rc -> Trace.record rc ev) recorder in
  Option.iter (fun rc -> Runtime.set_event_hook p.rt (Trace.record rc)) recorder;
  Runtime.set_gc_hook p.rt on_gc;
  let m = Pipeline.mutator p ~heap_scale:r.heap_scale ~threads:r.threads ~seed bench in
  Kg_workload.Mutator.allocate_startup m;
  mark Trace.Reset_stats;
  Kg_gc.Gc_stats.reset (Runtime.stats p.rt);
  Kg_workload.Mutator.run m ~alloc_bytes ();
  mark Trace.Flush_retirement;
  Runtime.flush_retirement_stats p.rt;
  ignore (Pipeline.finish p);
  Runtime.shutdown p.rt;
  p

let assemble_replay ?wrap ~seed (r : runs) spec bench =
  Pipeline.assemble ?wrap ~mode:r.mode ~seed ~heap_scale:r.heap_scale ~threads:1 ~parallel_gc:false
    spec bench

(* The cost of resolving trace ids to objects, which a replay pays and
   the live run does not: the same lookups, with nothing else. *)
let lookup_pass objs events =
  let find id = Hashtbl.find objs id in
  let acc = ref 0 in
  let ns, () =
    time_ns (fun () ->
        Array.iter
          (function
            | Trace.Write_ref { src; tgt } -> acc := !acc + find src + find tgt
            | Trace.Write_prim { obj } | Trace.Read { obj } | Trace.Read_burst { obj; _ } ->
              acc := !acc + find obj
            | Trace.Alloc { id; _ } | Trace.Alloc_boot { id; _ } -> Hashtbl.replace objs id (find id)
            | Trace.Major_gc | Trace.Reset_stats | Trace.Flush_retirement -> ())
          events)
  in
  ignore (Sys.opaque_identity !acc);
  ns

(* The timed replay; returns (replay wall, attributed time), each
   runtime call's self time including one clock read. *)
let timed_replay c ~seed ~what (r : runs) spec bench events ref_ =
  let sink = sink_name r spec in
  let root = new_id () in
  let self = Array.make (other + 1) 0 and calls = Array.make (other + 1) 0 in
  let gc_ns = ref 0 and gcs = ref 0 in
  let sink_ns = ref 0 and records = ref 0 and batches = ref 0 in
  (* The current segment runs from the end of the last step or
     collection; sink batches inside it are subtracted from whichever
     step or collection closes it, and become that span's children. *)
  let seg_start = ref 0 and seg_sink = ref 0 and pending = ref [] in
  let close_batches parent =
    List.iter (fun (t0, t1) -> ignore (span ~parent ~cat:"sink" ("sink." ^ sink) t0 t1)) !pending;
    pending := []
  in
  let on_batch len t0 t1 =
    sink_ns := !sink_ns + (t1 - t0);
    seg_sink := !seg_sink + (t1 - t0);
    records := !records + len;
    incr batches;
    pending := (t0, t1) :: !pending
  in
  let p = assemble_replay ~wrap:(Pipeline.timed_sink on_batch) ~seed r spec bench in
  Runtime.set_gc_hook p.rt (fun phase ->
      let t = Stats.now_ns () in
      gc_ns := !gc_ns + (t - !seg_start) - !seg_sink;
      incr gcs;
      let id = span ~parent:root ~cat:"gc" (Kg_gc.Phase.to_string phase) !seg_start t in
      close_batches id;
      seg_start := t;
      seg_sink := 0);
  let objs = Hashtbl.create 65536 in
  let t_first = Stats.now_ns () in
  seg_start := t_first;
  Array.iter
    (fun ev ->
      Kg_gc.Replay.step p.rt objs ev;
      let t = Stats.now_ns () in
      let k = op_index ev in
      self.(k) <- self.(k) + (t - !seg_start) - !seg_sink;
      calls.(k) <- calls.(k) + 1;
      seg_start := t;
      seg_sink := 0;
      if !pending <> [] then close_batches root)
    events;
  let drain = Pipeline.finish p in
  close_batches root;
  let t_end = Stats.now_ns () in
  ignore (span ~id:root ~cat:"replay" ("replay " ^ what) t_first t_end);
  check_output c (what ^ ": timed replay reproduces the run") ref_ p;
  Array.iteri
    (fun i op ->
      add_s ("runtime." ^ op ^ ".s") self.(i);
      add ("runtime." ^ op ^ ".calls") (float_of_int calls.(i)))
    op_names;
  add_s "gc.s" !gc_ns;
  add "gc.count" (float_of_int !gcs);
  add_s ("sink." ^ sink ^ ".s") !sink_ns;
  add ("sink." ^ sink ^ ".records") (float_of_int !records);
  if sink = "cache_sim" then add "sink.cache_sim.batches" (float_of_int !batches);
  if r.mode = Run.Simulate then add_s "cache.drain_s" drain;
  Option.iter
    (fun w ->
      add "wp.migrations"
        (float_of_int (Kg_os.Write_partition.migrations_to_dram w + Kg_os.Write_partition.migrations_to_pcm w)))
    p.wp;
  let attributed = Array.fold_left ( + ) 0 (Array.sub self 0 other) + !gc_ns + !sink_ns + drain in
  (t_end - t_first, attributed)

(* Record, replay untimed, replay timed; attribute. Returns the wall
   time of the untraced Run.run and its result. *)
let replayed c ~seed ~what (r : runs) bench spec =
  ignore (run ~seed r spec);
  let live_ns, (ref_ : Run.result) = time_ns (fun () -> run ~seed r spec) in
  let rc = Trace.recorder () in
  let p = live ~recorder:rc ~seed r spec bench ~alloc_bytes:ref_.alloc_bytes in
  check_output c (what ^ ": traced live run equals the untraced run") ref_ p;
  let events = Trace.events rc in
  (* Untimed replay, set-up included as in Run.run. *)
  let plain_ns, (p, objs) =
    time_ns (fun () ->
        let p = assemble_replay ~seed r spec bench in
        let objs = Hashtbl.create 65536 in
        Array.iter (Kg_gc.Replay.step p.rt objs) events;
        ignore (Pipeline.finish p);
        (p, objs))
  in
  check_output c (what ^ ": untimed replay reproduces the run") ref_ p;
  let plain_body_ns = plain_ns - p.machine_ns - p.runtime_ns in
  let lookup_ns = lookup_pass objs events in
  Hashtbl.reset objs;
  let wall, attributed = timed_replay c ~seed ~what r spec bench events ref_ in
  add_s "replay.lookup_s" lookup_ns;
  add_s "mutator.gen_s" (live_ns - plain_ns + lookup_ns);
  add_s "trace.overhead_s" (wall - plain_body_ns);
  add_s "replay.other_s" (wall - attributed);
  Printf.printf "# %s: replay %.4f s, attributed %.4f s (%.1f%%)\n" what (Stats.secs wall)
    (Stats.secs attributed)
    (100.0 *. float_of_int attributed /. float_of_int wall);
  (live_ns, ref_)

(* The multi-domain workload: replay runs on one domain, so its layers
   come from whole-run differences between the team, the inline
   collector and the single-domain oracle, plus a live run whose port
   sink and collections are counted. Returns the team run's wall time
   and result. *)
let domains c ~seed ~what (r : runs) bench spec =
  ignore (run ~seed r spec);
  let cpu0 = Unix.times () in
  let team_ns, (team : Run.result) = time_ns (fun () -> run ~seed r spec) in
  let cpu1 = Unix.times () in
  let inline_ns, inline = time_ns (fun () -> run ~parallel_gc:false ~seed r spec) in
  let oracle_ns, oracle = time_ns (fun () -> run ~oracle:true ~seed r spec) in
  check c (what ^ ": team run equals inline-GC run") (Pipeline.same_work team inline);
  check c (what ^ ": team run equals oracle run") (Pipeline.same_work team oracle);
  let cpu = Unix.(cpu1.tms_utime +. cpu1.tms_stime -. cpu0.tms_utime -. cpu0.tms_stime) in
  add "par2.cpu_over_wall" (cpu /. Stats.secs team_ns);
  add_s "epoch.domain_overhead_s" (inline_ns - oracle_ns);
  add_s "gc_par.team_overhead_s" (team_ns - inline_ns);
  let sink_ns = ref 0 and records = ref 0 and gcs = ref 0 in
  let on_batch len t0 t1 =
    sink_ns := !sink_ns + (t1 - t0);
    records := !records + len;
    ignore (span ~cat:"sink" "sink.counting" t0 t1)
  in
  let p =
    live ~wrap:(Pipeline.timed_sink on_batch) ~on_gc:(fun _ -> incr gcs) ~seed r spec bench
      ~alloc_bytes:team.alloc_bytes
  in
  check_output c (what ^ ": timed-sink team run equals the untraced run") team p;
  add_s "sink.counting.s" !sink_ns;
  add "sink.counting.records" (float_of_int !records);
  add "gc.count" (float_of_int !gcs);
  (team_ns, team)

let runs ctx c (w : Workload.t) r =
  let bench = Kg_workload.Descriptor.find r.bench in
  let setups = setup_layers ctx (setup_cases w ctx.seed) in
  List.iter2
    (fun (name, spec) setup_ns ->
      let what = w.name ^ "/" ^ name in
      let wall_ns, (res : Run.result) =
        (if r.threads > 1 then domains else replayed) c ~seed:ctx.seed ~what r bench spec
      in
      add ("ns_per_byte." ^ name) (float_of_int (wall_ns - setup_ns) /. float_of_int res.alloc_bytes))
    r.specs setups

(* ------------------------------------------------------------------ *)
(* The figure set *)

let figset ctx c w f =
  let opts = figset_opts f ctx.seed in
  ignore (setup_layers ctx (setup_cases w ctx.seed));
  (* The runs' own layers, measured on the set's lusearch jobs: one
     benchmark under every configuration the set uses. *)
  List.iter
    (fun (j : E.job) ->
      if j.bench.Kg_workload.Descriptor.name = "lusearch" then
        let r =
          {
            bench = "lusearch";
            mode = j.mode;
            specs = [];
            heap_scale = f.fig_heap_scale;
            cap_mb = f.fig_cap_mb;
            threads = 1;
            parallel_gc = false;
          }
        in
        let what =
          Printf.sprintf "figset/%s/%s"
            (match j.mode with Run.Simulate -> "sim" | Run.Count -> "count")
            (Run.label j.spec)
        in
        ignore (replayed c ~seed:ctx.seed ~what r j.bench j.spec))
    (figset_jobs f ctx.seed);
  (* The pool at its configured width, untraced: busy share and idle
     time; then a warm pass over the same store. *)
  let dir = fresh_store () in
  let _, tables, ex = pass ~jobs:f.jobs opts f.ids dir in
  let t = Kg_engine.Pool.totals (Exec.pool ex) in
  let capacity = t.wall_s *. float_of_int f.jobs in
  add "pool.busy_frac" (t.busy_s /. capacity);
  add "pool.idle_s" (capacity -. t.busy_s);
  let warm_ns, warm, _ = pass ~jobs:f.jobs opts f.ids dir in
  check_tables c "figset: warm tables equal cold tables" tables warm;
  add_s "figset.warm_s" warm_ns;
  rm_rf dir;
  (* The traced pass resolves jobs one at a time, so its reference is
     an untraced single-domain pass. *)
  let dir = fresh_store () in
  let seq_ns, seq, _ = pass ~jobs:1 opts f.ids dir in
  check_tables c "figset: one-domain tables equal pool tables" tables seq;
  rm_rf dir;
  let dir = fresh_store () in
  let store = Kg_engine.Store.create ~dir () in
  let root = new_id () in
  let t_first = Stats.now_ns () in
  let keyed = List.map (fun j -> (Kg_engine.Store.key ~opts j, j)) (figset_jobs f ctx.seed) in
  let results = Hashtbl.create 256 in
  let job_times =
    List.map
      (fun (key, (j : E.job)) ->
        let t0 = Stats.now_ns () in
        let res = E.run_job opts j in
        let t1 = Stats.now_ns () in
        Kg_engine.Store.store store key res;
        let t2 = Stats.now_ns () in
        let id = span ~parent:root ~cat:"engine" ("job " ^ key) t0 t2 in
        ignore (span ~parent:id ~cat:"engine" "run_job" t0 t1);
        ignore (span ~parent:id ~cat:"store" "store.write" t1 t2);
        add_s "engine.compute_s" (t1 - t0);
        add_s "store.write_s" (t2 - t1);
        add "store.bytes" (float_of_int (Unix.stat (Kg_engine.Store.path store key)).Unix.st_size);
        add "store.entries" 1.0;
        Hashtbl.replace results key res;
        Stats.secs (t1 - t0))
      keyed
  in
  (* Every fetch a table makes is among its declared jobs. *)
  let fetch tbl j = Hashtbl.find tbl (Kg_engine.Store.key ~opts j) in
  let env = E.make_env_with ~fetch:(fetch results) opts in
  let traced_tables =
    List.map
      (fun id ->
        let t0 = Stats.now_ns () in
        let s = Kg_util.Table.render (E.run_by_name env id) in
        let t1 = Stats.now_ns () in
        ignore (span ~parent:root ~cat:"render" ("render " ^ id) t0 t1);
        add_s "render_s" (t1 - t0);
        s)
      f.ids
  in
  let t_end = Stats.now_ns () in
  ignore (span ~id:root ~cat:"figset" "figset traced pass" t_first t_end);
  check_tables c "figset: traced tables equal pool tables" tables traced_tables;
  add_s "trace.overhead_s" (t_end - t_first - seq_ns);
  add "engine.run.p50_s" (Stats.median job_times);
  add "engine.run.p90_s" (Stats.percentile job_times 90);
  (* Reads: every entry back from the store, rendered again. *)
  let read = Hashtbl.create 256 in
  List.iter
    (fun (key, _) ->
      let t0 = Stats.now_ns () in
      let found = Kg_engine.Store.find store key in
      let t1 = Stats.now_ns () in
      ignore (span ~cat:"store" "store.read" t0 t1);
      add_s "store.read_s" (t1 - t0);
      match found with
      | Some r -> Hashtbl.replace read key r
      | None -> check c ("figset: store entry readable " ^ key) false)
    keyed;
  check_tables c "figset: tables from stored results equal pool tables" tables
    (render_all (E.make_env_with ~fetch:(fetch read) opts) f.ids);
  rm_rf dir

(* The traced run happens in a child (its runs spawn domains); with
   [chrome], the child writes its spans there. *)
let run ?chrome ctx w =
  let c = checks () in
  let layers = Metric.of_kind Metric.Layer in
  let v =
    in_child c (fun cc ->
        (match w.kind with Runs r -> runs ctx cc w r | Figset f -> figset ctx cc w f);
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Json.to_string (chrome_json ()));
            close_out oc)
          chrome;
        Json.Obj
          (List.map
             (fun (d : Metric.def) ->
               (d.name, Json.Num (Option.value (Hashtbl.find_opt totals d.name) ~default:0.0)))
             layers))
  in
  {
    Metric.attempted = c.attempted;
    failed = c.failed;
    metrics =
      List.map (fun (d : Metric.def) -> (d.name, Stats.single (Json.to_num (Json.member d.name v)))) layers;
  }
