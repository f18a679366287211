open Kg_util
open Kg_workload

type opts = { scale : int; heap_scale : int; cap_mb : int; seed : int }

let default_opts = { scale = 8; heap_scale = 3; cap_mb = 256; seed = 42 }
let quick_opts = { scale = 64; heap_scale = 8; cap_mb = 24; seed = 42 }

type job = {
  mode : Run.mode;
  spec : Run.spec;
  bench : Descriptor.t;
  trace : bool;
  threads : int;
  parallel_gc : bool;
  cap_mb : int option;
  serve : int option;
}

let job ?(trace = false) ?(threads = 1) ?(parallel_gc = false) ?cap_mb ?serve mode spec
    bench =
  { mode; spec; bench; trace; threads; parallel_gc; cap_mb; serve }

let job_key o j =
  let s = j.spec in
  let opt = function None -> "-" | Some m -> string_of_int m in
  Printf.sprintf
    "mode=%s;sys=%s;col=%s;nur=%d;wp=%b;obs=%s;thr=%d;trig=%s;bench=%s;trace=%b;threads=%d;scale=%d;heap=%d;cap=%d;seed=%d"
    (match j.mode with Run.Simulate -> "sim" | Run.Count -> "cnt")
    (Machine.system_name s.Run.system)
    (match s.Run.collector with
    | Kg_gc.Gc_config.Gen_immix -> "genimmix"
    | Kg_gc.Gc_config.Kg_nursery -> "kgn"
    | Kg_gc.Gc_config.Kg_writers { loo; mdo; pm } ->
      Printf.sprintf "kgw:%b:%b:%b" loo mdo pm)
    s.Run.nursery_mb s.Run.wp (opt s.Run.observer_mb) s.Run.write_threshold
    (opt s.Run.pcm_write_trigger_mb) j.bench.Descriptor.name j.trace j.threads o.scale
    o.heap_scale
    (Option.value j.cap_mb ~default:o.cap_mb)
    o.seed
  (* Appended only when set, so every pre-existing cache key (and the
     stored results behind it) stays valid. *)
  ^ (if j.parallel_gc then ";pargc" else "")
  ^ match j.serve with None -> "" | Some r -> Printf.sprintf ";serve=%d" r

let run_job o j =
  let serve =
    Option.map
      (fun r -> { Kg_serve.Server.default_config with Kg_serve.Server.rate = float_of_int r })
      j.serve
  in
  Run.run ~seed:o.seed ~scale:o.scale ~heap_scale:o.heap_scale
    ~cap_mb:(Option.value j.cap_mb ~default:o.cap_mb)
    ~trace:j.trace ~threads:j.threads ~parallel_gc:j.parallel_gc ?serve ~mode:j.mode j.spec
    j.bench

type env = { o : opts; resolve : job -> Run.result }

let make_env_with ~fetch o = { o; resolve = fetch }

let make_env o =
  let cache = Hashtbl.create 64 in
  make_env_with o ~fetch:(fun j ->
      let key = job_key o j in
      match Hashtbl.find_opt cache key with
      | Some r -> r
      | None ->
        let r = run_job o j in
        Hashtbl.replace cache key r;
        r)

let fetch env j = env.resolve j

(* ------------------------------------------------------------------ *)
(* Plans: a value together with the runs it reads. [jobs] is fixed
   before any result exists, so an engine can resolve every one of
   them (in parallel, against a persistent store) before [read] asks
   for the first. *)

type 'a plan = { jobs : job list; read : (job -> Run.result) -> 'a }

let pure x = { jobs = []; read = (fun _ -> x) }

let get ?trace ?threads ?parallel_gc ?cap_mb ?serve mode spec bench =
  let j = job ?trace ?threads ?parallel_gc ?cap_mb ?serve mode spec bench in
  { jobs = [ j ]; read = (fun resolve -> resolve j) }

let ( let+ ) p f = { jobs = p.jobs; read = (fun resolve -> f (p.read resolve)) }

let ( and+ ) a b =
  {
    jobs = a.jobs @ b.jobs;
    read =
      (fun resolve ->
        let x = a.read resolve in
        (x, b.read resolve));
  }

let each xs f =
  let ps = List.map f xs in
  {
    jobs = List.concat_map (fun p -> p.jobs) ps;
    read = (fun resolve -> List.map (fun p -> p.read resolve) ps);
  }

let cap s = String.capitalize_ascii s
let mean = Stats.mean
let pct = Table.cell_pct
let f2 = Table.cell_f

let table columns rows =
  let t = Table.create ~columns in
  List.iter (Table.add_row t) rows;
  t

(* Rows in groups, each group followed by a rule. *)
let grouped columns groups =
  let t = Table.create ~columns in
  List.iter
    (fun rows ->
      List.iter (Table.add_row t) rows;
      Table.add_rule t)
    groups;
  t

(* One row per benchmark, then a rule and each column's average. [row b]
   plans the benchmark's numbers; [cell] formats them. *)
let bench_rows ?(cell = f2) columns benches row =
  let+ rows = each benches row in
  let t =
    grouped columns
      [ List.map2 (fun b cells -> cap b.Descriptor.name :: List.map cell cells) benches rows ]
  in
  let avg i = mean (Array.of_list (List.map (fun cells -> List.nth cells i) rows)) in
  Table.add_row t ("Average" :: List.mapi (fun i _ -> cell (avg i)) (List.hd rows));
  t

let barrier_pcm (r : Run.result) = float_of_int r.Run.stats.Kg_gc.Gc_stats.app_write_bytes_pcm
let pcm_writes (r : Run.result) = r.Run.mem_pcm_write_bytes

(* The share of observer survivors the collector kept in DRAM. *)
let held_in_dram st =
  let d = st.Kg_gc.Gc_stats.observer_to_dram_bytes
  and p = st.Kg_gc.Gc_stats.observer_to_pcm_bytes in
  if d + p = 0 then 0.0 else float_of_int d /. float_of_int (d + p)

(* ------------------------------------------------------------------ *)

let fig1 _ =
  let+ runs =
    each [ Run.pcm_only; Run.kg_n; Run.kg_w ] (fun spec ->
        each Descriptor.simulated (get Run.Simulate spec))
  in
  let avg endurance rs = mean (Array.of_list (List.map (Run.lifetime_years ~endurance) rs)) in
  table
    [ "Endurance"; "PCM-only (years)"; "KG-N (years)"; "KG-W (years)" ]
    (List.map
       (fun (label, endurance) -> label :: List.map (fun rs -> f2 (avg endurance rs)) runs)
       [ ("10 M", 10e6); ("30 M", 30e6); ("100 M", 100e6) ])

let fig2 _ =
  bench_rows ~cell:pct
    [ "Benchmark"; "Nursery"; "Mature"; "Top 10%"; "Top 2%" ]
    Descriptor.all
    (fun b ->
      let+ r = get Run.Count Run.dram_only b in
      let st = r.Run.stats in
      let mf = Kg_gc.Gc_stats.mature_write_fraction st in
      [
        1.0 -. mf;
        mf;
        Kg_gc.Gc_stats.top_fraction_writes st 0.10;
        Kg_gc.Gc_stats.top_fraction_writes st 0.02;
      ])

let tab1 _ =
  pure
    (table
       [ "Configuration"; "monitor writes"; "metadata in DRAM"; "LOO in nursery" ]
       [
         [ "KG-N: Kingsguard-nursery"; "no"; "no"; "no" ];
         [ "KG-W: Kingsguard-writers"; "yes"; "yes"; "yes" ];
         [ "KG-W-LOO"; "yes"; "yes"; "no" ];
         [ "KG-W-LOO-MDO"; "yes"; "no"; "no" ];
       ])

let tab2 _ =
  pure
    (table [ "Component"; "Parameters" ]
       [
         [ "Processor"; "1 socket, 4 cores (one simulated mutator thread)" ];
         [ "L1-D"; "32 KB, 8 way, 1 ns" ];
         [ "L2"; "256 KB per core, 8 way, 2 ns" ];
         [ "L3"; "shared 4 MB, 16 way, 7.5 ns" ];
         [ "Memory systems"; "32 GB DRAM-only / 32 GB PCM-only / 1 GB DRAM + 32 GB PCM" ];
         [ "DRAM"; "45 ns read/write; 0.678 W read, 0.825 W write" ];
         [ "PCM"; "180 ns read, 450 ns write; 0.617 W read, 3.0 W write" ];
         [ "PCM endurance"; "30 M writes per cell, start-gap line wear-leveling" ];
         [ "Heap"; "GenImmix: 4 MB nursery, heap = 2x min live; Immix 32 KB/256 B" ];
       ])

let tab3 _ =
  let+ rows =
    each Descriptor.simulated (fun b ->
        let+ r = get Run.Simulate Run.pcm_only b in
        [
          cap b.Descriptor.name;
          Printf.sprintf "%.1fx" b.Descriptor.scaling_32core;
          f2 b.Descriptor.write_rate_gbs;
          f2 (Run.pcm_write_rate_32core_gbs r);
        ])
  in
  table [ "Benchmark"; "Scaling (paper)"; "Rate GB/s (paper)"; "Rate GB/s (measured)" ] rows

let fig5 _ =
  bench_rows [ "Benchmark"; "KG-N (x)"; "KG-W (x)" ] Descriptor.simulated (fun b ->
      let life spec =
        let+ r = get Run.Simulate spec b in
        Run.lifetime_years r
      in
      let+ base = life Run.pcm_only and+ n = life Run.kg_n and+ w = life Run.kg_w in
      [ n /. base; w /. base ])

let fig6 _ =
  bench_rows
    [ "Benchmark"; "KG-N"; "KG-W"; "KG-W-LOO"; "KG-W-LOO-MDO" ]
    Descriptor.simulated
    (fun b ->
      let+ base = get Run.Simulate Run.pcm_only b
      and+ rs =
        each [ Run.kg_n; Run.kg_w; Run.kg_w_no_loo; Run.kg_w_no_loo_mdo ] (fun s ->
            get Run.Simulate s b)
      in
      List.map (fun r -> pcm_writes r /. pcm_writes base) rs)

let fig7 _ =
  bench_rows
    [ "Benchmark"; "KG-N"; "KG-W"; "WP writebacks"; "WP migrations" ]
    Descriptor.simulated
    (fun b ->
      let+ base = get Run.Simulate Run.pcm_only b
      and+ wp = get Run.Simulate Run.wp b
      and+ n = get Run.Simulate Run.kg_n b
      and+ w = get Run.Simulate Run.kg_w b in
      let base = pcm_writes base in
      [
        pcm_writes n /. base;
        pcm_writes w /. base;
        (pcm_writes wp -. wp.Run.migration_pcm_bytes) /. base;
        wp.Run.migration_pcm_bytes /. base;
      ])

let fig8 _ =
  bench_rows
    [ "Benchmark"; "DRAM-only"; "PCM-only"; "KG-N"; "KG-W" ]
    Descriptor.simulated
    (fun b ->
      let+ base = get Run.Simulate Run.dram_only b
      and+ rs =
        each [ Run.dram_only; Run.pcm_only; Run.kg_n; Run.kg_w ] (fun s -> get Run.Simulate s b)
      in
      List.map (fun r -> r.Run.edp /. base.Run.edp) rs)

let fig9 _ =
  bench_rows ~cell:pct
    [ "Benchmark"; "PCM"; "Remsets"; "GC"; "Monitoring"; "Other"; "Total" ]
    Descriptor.simulated
    (fun b ->
      let+ d = get Run.Simulate Run.dram_only b and+ w = get Run.Simulate Run.kg_w b in
      let td = Time_model.total_ns d.Run.time_parts in
      let pw = w.Run.time_parts and pd = d.Run.time_parts in
      let pcm = pw.Time_model.mem_pcm_extra_ns /. td in
      let remsets = (pw.Time_model.remset_ns -. pd.Time_model.remset_ns) /. td in
      let gc = (pw.Time_model.gc_ns -. pd.Time_model.gc_ns) /. td in
      let monitoring = pw.Time_model.monitor_ns /. td in
      let total = (Time_model.total_ns pw -. td) /. td in
      let other = total -. pcm -. remsets -. gc -. monitoring in
      [ pcm; remsets; gc; monitoring; other; total ])

let fig10 _ =
  let+ rows =
    each Descriptor.simulated (fun b ->
        let+ rn = get Run.Simulate Run.kg_n b and+ rw = get Run.Simulate Run.kg_w b in
        let base = Array.fold_left ( +. ) 0.0 rn.Run.pcm_writes_by_phase in
        let row (r : Run.result) name =
          let p = r.Run.pcm_writes_by_phase in
          let g i = if base = 0.0 then 0.0 else p.(i) /. base in
          [ cap b.Descriptor.name; name; f2 (g 0); f2 (g 1); f2 (g 2); f2 (g 3) ]
        in
        [ row rn "KG-N"; row rw "KG-W" ])
  in
  table
    [ "Benchmark"; "Collector"; "application"; "nursery-GC"; "observer-GC"; "major-GC" ]
    (List.concat rows)

let fig11 _ =
  bench_rows [ "Benchmark"; "KG-N-12"; "KG-W"; "KG-W-PM" ] Descriptor.all (fun b ->
      let+ base = get Run.Count Run.kg_n b
      and+ rs = each [ Run.kg_n_12; Run.kg_w; Run.kg_w_no_pm ] (fun s -> get Run.Count s b) in
      let base = barrier_pcm base in
      List.map (fun r -> if base = 0.0 then 0.0 else barrier_pcm r /. base) rs)

let fig12 _ =
  bench_rows
    [ "Benchmark"; "KG-W"; "KG-W-LOO"; "KG-W-LOO-MDO"; "KG-W-PM" ]
    Descriptor.all
    (fun b ->
      let+ base = get Run.Count Run.kg_n b
      and+ rs =
        each [ Run.kg_w; Run.kg_w_no_loo; Run.kg_w_no_loo_mdo; Run.kg_w_no_pm ] (fun s ->
            get Run.Count s b)
      in
      List.map (fun r -> r.Run.time_s /. base.Run.time_s) rs)

let fig13 _ =
  let+ groups =
    each [ "pr"; "eclipse" ] (fun name ->
        let+ r = get ~trace:true Run.Count Run.kg_w (Descriptor.find name) in
        let trace = Array.of_list r.Run.trace in
        let n = Array.length trace in
        let samples = min 16 n in
        List.init samples (fun i ->
            let clock, pcm, dram = trace.(i * n / samples) in
            [ cap name; f2 (clock /. 1048576.0); f2 pcm; f2 dram ]))
  in
  grouped [ "Benchmark"; "Alloc (MB)"; "PCM (MB)"; "DRAM (MB)" ] groups

let tab4 _ =
  let+ rows =
    each Descriptor.all (fun b ->
        let+ rn = get Run.Count Run.kg_n b
        and+ rw = get Run.Count Run.kg_w b
        and+ wp_dram =
          if b.Descriptor.simulated then
            let+ r = get Run.Simulate Run.wp b in
            f2 r.Run.wp_dram_mb
          else pure "-"
        in
        let st = rw.Run.stats in
        [
          cap b.Descriptor.name;
          string_of_int (rw.Run.alloc_bytes / 1048576);
          pct (Kg_gc.Gc_stats.nursery_survival st);
          Printf.sprintf "%s/%s" (f2 rn.Run.pcm_avg_mb) (f2 rn.Run.pcm_max_mb);
          Printf.sprintf "%s/%s" (f2 rw.Run.pcm_avg_mb) (f2 rw.Run.pcm_max_mb);
          Printf.sprintf "%s/%s" (f2 rw.Run.dram_avg_mb) (f2 rw.Run.dram_max_mb);
          wp_dram;
          f2 rw.Run.mature_dram_avg_mb;
          f2 rw.Run.meta_mb;
          pct (Kg_gc.Gc_stats.observer_survival st);
          pct (held_in_dram st);
        ])
  in
  table
    [
      "Benchmark";
      "alloc MB";
      "% nursery surv";
      "KG-N PCM avg/max";
      "KG-W PCM avg/max";
      "KG-W DRAM avg/max";
      "WP DRAM MB";
      "mature DRAM MB";
      "meta MB";
      "% obs surv";
      "% held in DRAM";
    ]
    rows

(* ------------------------------------------------------------------ *)
(* Extensions: the paper's explicitly-deferred future work              *)

let ext_benchmarks = [ "lusearch"; "xalan"; "hsqldb"; "cc"; "bloat" ]

(* A Count-mode sweep of one spec parameter: per benchmark, one row per
   value in [values], read against the run at [base], then a rule.
   [row at_base v r] gives the cells after the benchmark's name. *)
let sweep columns benches spec ~base values row =
  let+ groups =
    each benches (fun name ->
        let run v = get Run.Count (spec v) (Descriptor.find name) in
        let+ at_base = run base and+ rs = each values run in
        List.map2 (fun v r -> cap name :: row at_base v r) values rs)
  in
  grouped columns groups

(* §4.2.2: "Since we have an entire word, the barrier could record the
   number of writes. We leave ... counting writes for future work."
   Requiring k observed writes before an object counts as written
   trades DRAM space for PCM writes. *)
let ext_threshold _ =
  sweep
    [ "Benchmark"; "k"; "PCM writes vs k=1"; "held in DRAM"; "mature DRAM MB" ]
    ext_benchmarks
    (fun k -> { Run.kg_w with Run.write_threshold = k })
    ~base:1 [ 1; 2; 4 ]
    (fun base k r ->
      [
        string_of_int k;
        f2 (barrier_pcm r /. barrier_pcm base);
        pct (held_in_dram r.Run.stats);
        f2 r.Run.mature_dram_avg_mb;
      ])

(* §6.2.1: "These behaviors motivate additional policies for mature
   collection to be triggered by writes to PCM. We leave this
   exploration to future work." *)
let ext_write_trigger _ =
  sweep
    [ "Benchmark"; "Trigger"; "PCM writes vs none"; "major GCs" ]
    ext_benchmarks
    (fun (_, trig) -> { Run.kg_w with Run.pcm_write_trigger_mb = trig })
    ~base:("none", None)
    [ ("none", None); ("4 MB", Some 4); ("1 MB", Some 1) ]
    (fun base (label, _) r ->
      [
        label;
        f2 (barrier_pcm r /. Float.max 1.0 (barrier_pcm base));
        string_of_int r.Run.stats.Kg_gc.Gc_stats.major_gcs;
      ])

(* §5.1: "We empirically find that sizing the observer space to be
   twice that of the nursery is the best compromise between tenured
   garbage and pause time." *)
let ext_observer_size _ =
  sweep
    [ "Benchmark"; "Observer MB"; "PCM writes vs 8MB"; "time vs 8MB"; "obs survival" ]
    ext_benchmarks
    (fun mb -> { Run.kg_w with Run.observer_mb = Some mb })
    ~base:8 [ 4; 8; 16 ]
    (fun base mb r ->
      [
        string_of_int mb;
        f2 (barrier_pcm r /. Float.max 1.0 (barrier_pcm base));
        f2 (r.Run.time_s /. base.Run.time_s);
        pct (Kg_gc.Gc_stats.observer_survival r.Run.stats);
      ])

(* §4.2.1: "An observer collection thus results in pause times longer
   than nursery collections, but shorter than full heap collections." *)
let ext_pauses _ =
  let+ rows =
    each [ "hsqldb"; "pjbb"; "pr"; "cc"; "xalan" ] (fun name ->
        let+ r = get Run.Count Run.kg_w (Descriptor.find name) in
        let acc = Hashtbl.create 4 in
        Kg_util.Vec.iter
          (fun (phase, copied, scanned) ->
            let sum, n = Option.value (Hashtbl.find_opt acc phase) ~default:(0.0, 0) in
            Hashtbl.replace acc phase (sum +. Time_model.pause_ms ~copied ~scanned (), n + 1))
          r.Run.stats.Kg_gc.Gc_stats.collection_log;
        let avg phase =
          match Hashtbl.find_opt acc phase with
          | Some (sum, n) when n > 0 -> (sum /. float_of_int n, n)
          | _ -> (0.0, 0)
        in
        let na, nn = avg Kg_gc.Phase.Nursery_gc in
        let oa, on = avg Kg_gc.Phase.Observer_gc in
        let ma, mn = avg Kg_gc.Phase.Major_gc in
        [ cap name; f2 na; f2 oa; f2 ma; Printf.sprintf "%d/%d/%d" nn on mn ])
  in
  table
    [ "Benchmark"; "nursery avg ms"; "observer avg ms"; "major avg ms"; "count n/o/m" ]
    rows

(* §3's premise: "Contiguous allocation is known to outperform
   free-list allocators due to its locality benefits." Drive the Immix
   mark-region space and a segregated-fit free-list space with an
   identical allocation/death/initialisation stream through the same
   cache hierarchy, and compare footprint, internal fragmentation and
   memory traffic. *)
let ext_allocator { seed; _ } =
  let module H = Kg_heap in
  let drive ~use_immix =
    let map = Kg_mem.Address_map.pcm_only () in
    let ctrl = Kg_cache.Controller.create ~map ~line_size:64 () in
    let hier = Kg_cache.Hierarchy.create ~controller:ctrl () in
    let arena = H.Arena.create ~kind:Kg_mem.Device.Pcm ~base:0 ~size:(2 * Units.gib) in
    let words = H.Object_model.create () in
    let immix = H.Immix_space.create ~words ~id:3 ~name:"immix" ~arena () in
    let flist = H.Freelist_space.create ~words ~id:3 ~name:"freelist" ~arena in
    let rng = Rng.of_seed seed in
    let now = ref 0.0 in
    let target = 24 * Units.mib in
    let live_budget = ref (8 * Units.mib) in
    let live = ref 0 in
    while int_of_float !now < target do
      let size = H.Layout.align_object_size (16 + (8 * Rng.geometric rng 0.12)) in
      let death =
        if Rng.bernoulli rng 0.1 then infinity else !now +. Rng.exponential rng 2e6
      in
      let o = H.Object_model.make words ~size ~heat:H.Object_model.Cold ~death ~ref_fields:1 in
      let ok = if use_immix then H.Immix_space.alloc immix o else H.Freelist_space.alloc flist o in
      if not ok then failwith "ext_allocator: arena exhausted";
      (* one zero/init pass: the write stream whose locality differs *)
      Kg_cache.Hierarchy.access_range hier ~addr:(H.Object_model.addr words o) ~size ~write:true;
      now := !now +. float_of_int size;
      live := !live + size;
      if !live > !live_budget then begin
        live :=
          (if use_immix then begin
             ignore (H.Immix_space.sweep immix ~now:!now ());
             H.Immix_space.live_bytes immix
           end
           else begin
             ignore (H.Freelist_space.sweep flist ~now:!now ());
             H.Freelist_space.live_bytes flist
           end);
        (* keep sweeps amortised as the immortal base grows *)
        live_budget := max !live_budget (2 * !live)
      end
    done;
    Kg_cache.Hierarchy.drain hier;
    (* Deliberately measure a cold-cache traversal: drain flushed the
       dirty lines, reopen lets demand accesses resume. *)
    Kg_cache.Hierarchy.reopen hier;
    (* The locality that matters to the mutator: objects allocated
       together are accessed together. Traverse the survivors in
       allocation order and count the reads that miss all the way to
       memory. *)
    let reads_before = Kg_cache.Controller.bytes_read ctrl Kg_mem.Device.Pcm in
    let traverse objs =
      Kg_util.Vec.iter
        (fun o ->
          Kg_cache.Hierarchy.access_range hier ~addr:(H.Object_model.addr words o)
            ~size:(H.Object_model.size words o) ~write:false)
        objs
    in
    if use_immix then traverse (H.Immix_space.objects immix)
    else traverse (H.Freelist_space.objects flist);
    let traversal_reads =
      Kg_cache.Controller.bytes_read ctrl Kg_mem.Device.Pcm - reads_before
    in
    let live_b, footprint, frag =
      if use_immix then
        ( H.Immix_space.live_bytes immix,
          H.Immix_space.footprint_bytes immix,
          H.Immix_space.fragmentation immix )
      else begin
        let lb = H.Freelist_space.live_bytes flist in
        let cb = H.Freelist_space.cell_bytes flist in
        ( lb,
          H.Freelist_space.footprint_bytes flist,
          if cb = 0 then 0.0 else 1.0 -. (float_of_int lb /. float_of_int cb) )
      end
    in
    [
      (if use_immix then "Immix (bump lines)" else "Free-list (segregated fit)");
      f2 (Units.mib_of_bytes footprint);
      f2 (Units.mib_of_bytes live_b);
      pct frag;
      f2 (float_of_int (Kg_cache.Controller.bytes_written ctrl Kg_mem.Device.Pcm) /. 1048576.);
      f2 (float_of_int traversal_reads /. 1048576.);
    ]
  in
  (* no runs: the spaces are driven when the table is read *)
  let+ () = pure () in
  let immix = drive ~use_immix:true in
  let flist = drive ~use_immix:false in
  table
    [
      "Allocator";
      "footprint MB";
      "live MB";
      "internal frag";
      "mem writes MB";
      "traversal miss MB";
    ]
    [ immix; flist ]

(* Table 3's premise: write rates grow super-linearly with threads
   because interleaved allocation and shared-cache contention defeat
   locality. Simulate 1, 2 and 4 real mutator domains — interleaved
   allocation through per-domain nurseries and ports onto one cache
   hierarchy, with the mutator-side time model running on that many
   cores — and compare memory-level PCM write rates. The scaling
   column is measured from the simulation; no Table 3 scalar enters
   it.

   With [parallel_gc], the same sweep with a parallel collector modeled
   (the "Retrofitting Parallelism onto OCaml" template: stop-the-world
   sections with parallel collector threads). The heap behaviour —
   every counter and traffic byte — is identical, since the runs use
   the one inline collector; what changes is the modeled execution
   time, whose GC term now divides across the domains. Shorter runs at
   the same write volume mean higher sustained GB/s, so the
   multi-thread columns rise relative to ext-threads, and the gap
   isolates exactly the Amdahl share the sequential collector was
   costing. *)
let thread_sweep ~parallel_gc (o : opts) =
  let rate (r : Run.result) =
    if r.Run.time_s <= 0.0 then 0.0
    else r.Run.mem_pcm_write_bytes /. r.Run.time_s /. 1073741824.0
  in
  let gc_ns (r : Run.result) = r.Run.time_parts.Time_model.gc_ns in
  let+ rows =
    each [ "xalan"; "antlr"; "bloat" ] (fun name ->
        let run ~parallel_gc threads =
          get ~threads ~parallel_gc ~cap_mb:(min o.cap_mb 64) Run.Simulate Run.pcm_only
            (Descriptor.find name)
        in
        let+ r1 = run ~parallel_gc 1
        and+ r2 = run ~parallel_gc 2
        and+ r4 = run ~parallel_gc 4
        and+ r4_seq = run ~parallel_gc:false 4 in
        let speedup =
          (* At very small scales a benchmark may never collect; 0/0 is
             "no GC time to shrink", not a slowdown. *)
          if gc_ns r4_seq <= 0.0 then "n/a"
          else Printf.sprintf "%.2fx" (gc_ns r4_seq /. Float.max 1e-9 (gc_ns r4))
        in
        [
          cap name;
          f2 (rate r1);
          f2 (rate r2);
          f2 (rate r4);
          Printf.sprintf "%.2fx" (rate r4 /. Float.max 1e-9 (rate r1));
        ]
        @ if parallel_gc then [ speedup ] else [])
  in
  table
    ([ "Benchmark"; "1-thread GB/s"; "2-thread GB/s"; "4-thread GB/s"; "scaling 1->4" ]
    @ if parallel_gc then [ "GC-time speedup @4" ] else [])
    rows

(* §6.2.1: "Using a larger nursery reduces the writes to PCM ... A
   larger nursery is not effective for applications with more writes in
   the mature space" — sweep the KG-N nursery size. *)
let ext_nursery_size _ =
  sweep
    [ "Benchmark"; "Nursery MB"; "barrier PCM writes vs 4MB" ]
    [ "lusearch"; "pjbb"; "bloat"; "eclipse" ]
    (fun mb -> { Run.kg_n with Run.nursery_mb = mb })
    ~base:4 [ 4; 12; 32 ]
    (fun base mb r ->
      [ string_of_int mb; f2 (barrier_pcm r /. Float.max 1.0 (barrier_pcm base)) ])

(* ------------------------------------------------------------------ *)
(* Serve extension: the paper evaluates batch heaps, where PCM write
   *volume* is the figure of merit. A server heap pins the allocation
   clock to an offered request rate, so the write *rate* — and with it
   Equation 1's lifetime — becomes a function of load: the modeled
   duration of an open-loop run is requests / rate, independent of the
   simulated byte volume. The SLO figure reads the other side of the
   same runs: per-collection pause and per-request latency percentiles
   from the {!Kg_serve.Server} histograms. *)

let serve_rates = [ 256; 1024; 1792 ]
let serve_bench () = Descriptor.find "pjbb"

let serve_lifetime _ =
  let b = serve_bench () in
  let life (r : Run.result) =
    match r.Run.serve with
    | Some s when s.Run.requests > 0 ->
      let duration_s = float_of_int s.Run.requests /. s.Run.rate in
      Kg_mem.Lifetime.years
        ~size_bytes:(float_of_int (32 * Units.gib))
        ~endurance:30e6
        ~write_rate_bytes_per_s:(r.Run.mem_pcm_write_bytes /. duration_s)
    | _ -> 0.0
  in
  let+ rows =
    each serve_rates (fun rate ->
        let+ rs =
          each [ Run.pcm_only; Run.kg_n; Run.kg_w ] (fun s ->
              get ~serve:rate Run.Simulate s b)
        in
        string_of_int rate :: List.map (fun r -> f2 (life r)) rs)
  in
  table [ "Rate (req/s)"; "PCM-only (years)"; "KG-N (years)"; "KG-W (years)" ] rows

let serve_slo _ =
  let module H = Hdr_histogram in
  let b = serve_bench () in
  let specs = [ Run.dram_only; Run.kg_n; Run.kg_b; Run.kg_w ] in
  let+ groups =
    each serve_rates (fun rate ->
        let+ rs = each specs (fun s -> get ~serve:rate Run.Count s b) in
        List.filter_map
          (fun (spec, (r : Run.result)) ->
            Option.map
              (fun s ->
                [
                  string_of_int rate;
                  Run.label spec;
                  f2 (H.p50 s.Run.pause_hist);
                  f2 (H.p99 s.Run.pause_hist);
                  f2 (H.p999 s.Run.pause_hist);
                  f2 (H.max_value s.Run.pause_hist);
                  f2 (H.p50 s.Run.latency_hist);
                  f2 (H.p99 s.Run.latency_hist);
                  string_of_int s.Run.requests;
                ])
              r.Run.serve)
          (List.combine specs rs))
  in
  grouped
    [
      "Rate"; "Collector"; "GC P50 ms"; "GC P99 ms"; "GC P99.9 ms"; "GC max ms";
      "Req P50 ms"; "Req P99 ms"; "Requests";
    ]
    groups

(* ------------------------------------------------------------------ *)
(* Registry: each experiment is one plan, so the runs an engine
   resolves before rendering are exactly the runs the table reads. *)

type experiment = {
  id : string;
  doc : string;
  runs : opts -> job list;
  table : env -> Kg_util.Table.t;
}

let experiment id doc plan =
  let runs o =
    let seen = Hashtbl.create 64 in
    List.filter
      (fun j ->
        let k = job_key o j in
        let fresh = not (Hashtbl.mem seen k) in
        if fresh then Hashtbl.add seen k ();
        fresh)
      (plan o).jobs
  in
  { id; doc; runs; table = (fun env -> (plan env.o).read env.resolve) }

let all =
  [
    experiment "tab1" "Table 1: collector configurations" tab1;
    experiment "tab2" "Table 2: simulated system parameters" tab2;
    experiment "tab3" "Table 3: write-rate scaling to 32 cores" tab3;
    experiment "tab4" "Table 4: object demographics and space usage" tab4;
    experiment "fig1" "Figure 1: absolute PCM lifetimes vs endurance" fig1;
    experiment "fig2" "Figure 2: where writes go (nursery/mature, top-N%)" fig2;
    experiment "fig5" "Figure 5: PCM lifetime relative to PCM-only" fig5;
    experiment "fig6" "Figure 6: PCM writes relative to PCM-only (+ablations)" fig6;
    experiment "fig7" "Figure 7: Kingsguard vs OS write partitioning" fig7;
    experiment "fig8" "Figure 8: energy-delay product relative to DRAM-only" fig8;
    experiment "fig9" "Figure 9: KG-W overhead breakdown over DRAM-only" fig9;
    experiment "fig10" "Figure 10: origin of PCM writes by GC phase" fig10;
    experiment "fig11" "Figure 11: barrier-level PCM writes relative to KG-N" fig11;
    experiment "fig12" "Figure 12: execution time relative to KG-N" fig12;
    experiment "fig13" "Figure 13: heap composition over time (PR, eclipse)" fig13;
    experiment "ext-threshold" "Extension: write-count threshold placement (4.2.2 future work)"
      ext_threshold;
    experiment "ext-write-trigger" "Extension: PCM-write-triggered major GCs (6.2.1 future work)"
      ext_write_trigger;
    experiment "ext-observer-size" "Extension: observer space sizing sweep (5.1)"
      ext_observer_size;
    experiment "ext-pauses" "Extension: pause ordering nursery < observer < major (4.2.1)"
      ext_pauses;
    experiment "ext-allocator" "Extension: Immix vs free-list locality and fragmentation (3)"
      ext_allocator;
    experiment "ext-threads" "Extension: write-rate scaling with mutator threads (Table 3)"
      (thread_sweep ~parallel_gc:false);
    experiment "ext-threads-pargc"
      "Extension: thread scaling with domain-parallel collection phases"
      (thread_sweep ~parallel_gc:true);
    experiment "ext-nursery-size" "Extension: KG-N nursery size sweep (6.2.1)" ext_nursery_size;
    experiment "serve-lifetime" "Serve: PCM lifetime vs offered request rate (open loop)"
      serve_lifetime;
    experiment "serve-slo" "Serve: GC pause and request latency percentiles vs rate" serve_slo;
  ]

let run_by_name env name =
  let e = List.find (fun e -> e.id = name) all in
  e.table env
