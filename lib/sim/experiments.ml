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

let opts env = env.o

let fetch env ?trace ?threads ?parallel_gc ?cap_mb ?serve mode spec bench =
  env.resolve (job ?trace ?threads ?parallel_gc ?cap_mb ?serve mode spec bench)

let cap s = String.capitalize_ascii s
let mean = Stats.mean
let pct = Table.cell_pct
let f2 = Table.cell_f

(* ------------------------------------------------------------------ *)

let fig1 env =
  let t =
    Table.create
      ~columns:[ "Endurance"; "PCM-only (years)"; "KG-N (years)"; "KG-W (years)" ]
  in
  let specs = [ Run.pcm_only; Run.kg_n; Run.kg_w ] in
  List.iter
    (fun (label, endurance) ->
      let avg spec =
        mean
          (Array.of_list
             (List.map
                (fun b -> Run.lifetime_years ~endurance (fetch env Run.Simulate spec b))
                Descriptor.simulated))
      in
      Table.add_row t (label :: List.map (fun s -> f2 (avg s)) specs))
    [ ("10 M", 10e6); ("30 M", 30e6); ("100 M", 100e6) ];
  t

let fig2 env =
  let t =
    Table.create
      ~columns:[ "Benchmark"; "Nursery"; "Mature"; "Top 10%"; "Top 2%" ]
  in
  let rows =
    List.map
      (fun b ->
        let r = fetch env Run.Count Run.dram_only b in
        let st = r.Run.stats in
        let mf = Kg_gc.Gc_stats.mature_write_fraction st in
        ( b.Descriptor.name,
          1.0 -. mf,
          mf,
          Kg_gc.Gc_stats.top_fraction_writes st 0.10,
          Kg_gc.Gc_stats.top_fraction_writes st 0.02 ))
      Descriptor.all
  in
  List.iter
    (fun (n, nu, m, t10, t2) -> Table.add_row t [ cap n; pct nu; pct m; pct t10; pct t2 ])
    rows;
  Table.add_rule t;
  let avg f = mean (Array.of_list (List.map f rows)) in
  Table.add_row t
    [
      "Average";
      pct (avg (fun (_, x, _, _, _) -> x));
      pct (avg (fun (_, _, x, _, _) -> x));
      pct (avg (fun (_, _, _, x, _) -> x));
      pct (avg (fun (_, _, _, _, x) -> x));
    ];
  t

let tab1 _env =
  let t =
    Table.create
      ~columns:[ "Configuration"; "monitor writes"; "metadata in DRAM"; "LOO in nursery" ]
  in
  List.iter
    (fun (n, a, b, c) -> Table.add_row t [ n; a; b; c ])
    [
      ("KG-N: Kingsguard-nursery", "no", "no", "no");
      ("KG-W: Kingsguard-writers", "yes", "yes", "yes");
      ("KG-W-LOO", "yes", "yes", "no");
      ("KG-W-LOO-MDO", "yes", "no", "no");
    ];
  t

let tab2 _env =
  let t = Table.create ~columns:[ "Component"; "Parameters" ] in
  List.iter
    (fun (a, b) -> Table.add_row t [ a; b ])
    [
      ("Processor", "1 socket, 4 cores (one simulated mutator thread)");
      ("L1-D", "32 KB, 8 way, 1 ns");
      ("L2", "256 KB per core, 8 way, 2 ns");
      ("L3", "shared 4 MB, 16 way, 7.5 ns");
      ("Memory systems", "32 GB DRAM-only / 32 GB PCM-only / 1 GB DRAM + 32 GB PCM");
      ("DRAM", "45 ns read/write; 0.678 W read, 0.825 W write");
      ("PCM", "180 ns read, 450 ns write; 0.617 W read, 3.0 W write");
      ("PCM endurance", "30 M writes per cell, start-gap line wear-leveling");
      ("Heap", "GenImmix: 4 MB nursery, heap = 2x min live; Immix 32 KB/256 B");
    ];
  t

let tab3 env =
  let t =
    Table.create
      ~columns:
        [ "Benchmark"; "Scaling (paper)"; "Rate GB/s (paper)"; "Rate GB/s (measured)" ]
  in
  List.iter
    (fun b ->
      let r = fetch env Run.Simulate Run.pcm_only b in
      Table.add_row t
        [
          cap b.Descriptor.name;
          Printf.sprintf "%.1fx" b.Descriptor.scaling_32core;
          f2 b.Descriptor.write_rate_gbs;
          f2 (Run.pcm_write_rate_32core_gbs r);
        ])
    Descriptor.simulated;
  t

let add_bench_rows t rows =
  (* rows : (name, cells) list; appends an average row per column *)
  let n = List.length (snd (List.hd rows)) in
  List.iter (fun (name, cells) -> Table.add_row t (cap name :: List.map f2 cells)) rows;
  Table.add_rule t;
  let avg i = mean (Array.of_list (List.map (fun (_, cs) -> List.nth cs i) rows)) in
  Table.add_row t ("Average" :: List.init n (fun i -> f2 (avg i)))

let fig5 env =
  let t = Table.create ~columns:[ "Benchmark"; "KG-N (x)"; "KG-W (x)" ] in
  let life spec b = Run.lifetime_years (fetch env Run.Simulate spec b) in
  let rows =
    List.map
      (fun b ->
        let base = life Run.pcm_only b in
        (b.Descriptor.name, [ life Run.kg_n b /. base; life Run.kg_w b /. base ]))
      Descriptor.simulated
  in
  add_bench_rows t rows;
  t

let pcm_writes (r : Run.result) = r.Run.mem_pcm_write_bytes

let fig6 env =
  let t =
    Table.create
      ~columns:[ "Benchmark"; "KG-N"; "KG-W"; "KG-W-LOO"; "KG-W-LOO-MDO" ]
  in
  let specs = [ Run.kg_n; Run.kg_w; Run.kg_w_no_loo; Run.kg_w_no_loo_mdo ] in
  let rows =
    List.map
      (fun b ->
        let base = pcm_writes (fetch env Run.Simulate Run.pcm_only b) in
        ( b.Descriptor.name,
          List.map (fun s -> pcm_writes (fetch env Run.Simulate s b) /. base) specs ))
      Descriptor.simulated
  in
  add_bench_rows t rows;
  t

let fig7 env =
  let t =
    Table.create
      ~columns:[ "Benchmark"; "KG-N"; "KG-W"; "WP writebacks"; "WP migrations" ]
  in
  let rows =
    List.map
      (fun b ->
        let base = pcm_writes (fetch env Run.Simulate Run.pcm_only b) in
        let wp = fetch env Run.Simulate Run.wp b in
        ( b.Descriptor.name,
          [
            pcm_writes (fetch env Run.Simulate Run.kg_n b) /. base;
            pcm_writes (fetch env Run.Simulate Run.kg_w b) /. base;
            (pcm_writes wp -. wp.Run.migration_pcm_bytes) /. base;
            wp.Run.migration_pcm_bytes /. base;
          ] ))
      Descriptor.simulated
  in
  add_bench_rows t rows;
  t

let fig8 env =
  let t =
    Table.create ~columns:[ "Benchmark"; "DRAM-only"; "PCM-only"; "KG-N"; "KG-W" ]
  in
  let rows =
    List.map
      (fun b ->
        let base = (fetch env Run.Simulate Run.dram_only b).Run.edp in
        ( b.Descriptor.name,
          List.map
            (fun s -> (fetch env Run.Simulate s b).Run.edp /. base)
            [ Run.dram_only; Run.pcm_only; Run.kg_n; Run.kg_w ] ))
      Descriptor.simulated
  in
  add_bench_rows t rows;
  t

let fig9 env =
  let t =
    Table.create
      ~columns:[ "Benchmark"; "PCM"; "Remsets"; "GC"; "Monitoring"; "Other"; "Total" ]
  in
  let rows =
    List.map
      (fun b ->
        let d = fetch env Run.Simulate Run.dram_only b in
        let w = fetch env Run.Simulate Run.kg_w b in
        let td = Time_model.total_ns d.Run.time_parts in
        let pw = w.Run.time_parts and pd = d.Run.time_parts in
        let pcm = pw.Time_model.mem_pcm_extra_ns /. td in
        let remsets = (pw.Time_model.remset_ns -. pd.Time_model.remset_ns) /. td in
        let gc = (pw.Time_model.gc_ns -. pd.Time_model.gc_ns) /. td in
        let monitoring = pw.Time_model.monitor_ns /. td in
        let total = (Time_model.total_ns pw -. td) /. td in
        let other = total -. pcm -. remsets -. gc -. monitoring in
        (b.Descriptor.name, [ pcm; remsets; gc; monitoring; other; total ]))
      Descriptor.simulated
  in
  List.iter
    (fun (name, cells) -> Table.add_row t (cap name :: List.map pct cells))
    rows;
  Table.add_rule t;
  let avg i = mean (Array.of_list (List.map (fun (_, cs) -> List.nth cs i) rows)) in
  Table.add_row t ("Average" :: List.init 6 (fun i -> pct (avg i)));
  t

let fig10 env =
  let t =
    Table.create
      ~columns:
        [ "Benchmark"; "Collector"; "application"; "nursery-GC"; "observer-GC"; "major-GC" ]
  in
  List.iter
    (fun b ->
      let rn = fetch env Run.Simulate Run.kg_n b in
      let rw = fetch env Run.Simulate Run.kg_w b in
      let base = Array.fold_left ( +. ) 0.0 rn.Run.pcm_writes_by_phase in
      let row (r : Run.result) name =
        let p = r.Run.pcm_writes_by_phase in
        let g i = if base = 0.0 then 0.0 else p.(i) /. base in
        Table.add_row t
          [ cap b.Descriptor.name; name; f2 (g 0); f2 (g 1); f2 (g 2); f2 (g 3) ]
      in
      row rn "KG-N";
      row rw "KG-W")
    Descriptor.simulated;
  t

let barrier_pcm (r : Run.result) = float_of_int r.Run.stats.Kg_gc.Gc_stats.app_write_bytes_pcm

let fig11 env =
  let t = Table.create ~columns:[ "Benchmark"; "KG-N-12"; "KG-W"; "KG-W-PM" ] in
  let rows =
    List.map
      (fun b ->
        let base = barrier_pcm (fetch env Run.Count Run.kg_n b) in
        let rel s =
          if base = 0.0 then 0.0 else barrier_pcm (fetch env Run.Count s b) /. base
        in
        (b.Descriptor.name, [ rel Run.kg_n_12; rel Run.kg_w; rel Run.kg_w_no_pm ]))
      Descriptor.all
  in
  add_bench_rows t rows;
  t

let fig12 env =
  let t =
    Table.create
      ~columns:[ "Benchmark"; "KG-W"; "KG-W-LOO"; "KG-W-LOO-MDO"; "KG-W-PM" ]
  in
  let rows =
    List.map
      (fun b ->
        let base = (fetch env Run.Count Run.kg_n b).Run.time_s in
        let rel s = (fetch env Run.Count s b).Run.time_s /. base in
        ( b.Descriptor.name,
          [
            rel Run.kg_w;
            rel Run.kg_w_no_loo;
            rel Run.kg_w_no_loo_mdo;
            rel Run.kg_w_no_pm;
          ] ))
      Descriptor.all
  in
  add_bench_rows t rows;
  t

let fig13 env =
  let t =
    Table.create ~columns:[ "Benchmark"; "Alloc (MB)"; "PCM (MB)"; "DRAM (MB)" ]
  in
  List.iter
    (fun name ->
      let b = Descriptor.find name in
      let r = fetch env ~trace:true Run.Count Run.kg_w b in
      let trace = Array.of_list r.Run.trace in
      let n = Array.length trace in
      let samples = min 16 n in
      for i = 0 to samples - 1 do
        let clock, pcm, dram = trace.(i * n / samples) in
        Table.add_row t
          [ cap name; f2 (clock /. 1048576.0); f2 pcm; f2 dram ]
      done;
      Table.add_rule t)
    [ "pr"; "eclipse" ];
  t

let tab4 env =
  let t =
    Table.create
      ~columns:
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
  in
  List.iter
    (fun b ->
      let rn = fetch env Run.Count Run.kg_n b in
      let rw = fetch env Run.Count Run.kg_w b in
      let st = rw.Run.stats in
      let wp_dram =
        if b.Descriptor.simulated then
          f2 (fetch env Run.Simulate Run.wp b).Run.wp_dram_mb
        else "-"
      in
      let held =
        let d = st.Kg_gc.Gc_stats.observer_to_dram_bytes
        and p = st.Kg_gc.Gc_stats.observer_to_pcm_bytes in
        if d + p = 0 then 0.0 else float_of_int d /. float_of_int (d + p)
      in
      Table.add_row t
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
          pct held;
        ])
    Descriptor.all;
  t

(* ------------------------------------------------------------------ *)
(* Extensions: the paper's explicitly-deferred future work              *)

let ext_benchmarks = [ "lusearch"; "xalan"; "hsqldb"; "cc"; "bloat" ]

(* §4.2.2: "Since we have an entire word, the barrier could record the
   number of writes. We leave ... counting writes for future work."
   Requiring k observed writes before an object counts as written
   trades DRAM space for PCM writes. *)
let ext_threshold env =
  let t =
    Table.create
      ~columns:
        [ "Benchmark"; "k"; "PCM writes vs k=1"; "held in DRAM"; "mature DRAM MB" ]
  in
  List.iter
    (fun name ->
      let b = Descriptor.find name in
      let run k = fetch env Run.Count { Run.kg_w with Run.write_threshold = k } b in
      let base = float_of_int (run 1).Run.stats.Kg_gc.Gc_stats.app_write_bytes_pcm in
      List.iter
        (fun k ->
          let r = run k in
          let st = r.Run.stats in
          let d = st.Kg_gc.Gc_stats.observer_to_dram_bytes
          and p = st.Kg_gc.Gc_stats.observer_to_pcm_bytes in
          let held = if d + p = 0 then 0.0 else float_of_int d /. float_of_int (d + p) in
          Table.add_row t
            [
              cap name;
              string_of_int k;
              f2 (float_of_int st.Kg_gc.Gc_stats.app_write_bytes_pcm /. base);
              pct held;
              f2 r.Run.mature_dram_avg_mb;
            ])
        [ 1; 2; 4 ];
      Table.add_rule t)
    ext_benchmarks;
  t

(* §6.2.1: "These behaviors motivate additional policies for mature
   collection to be triggered by writes to PCM. We leave this
   exploration to future work." *)
let ext_write_trigger env =
  let t =
    Table.create ~columns:[ "Benchmark"; "Trigger"; "PCM writes vs none"; "major GCs" ]
  in
  List.iter
    (fun name ->
      let b = Descriptor.find name in
      let run trig =
        fetch env Run.Count { Run.kg_w with Run.pcm_write_trigger_mb = trig } b
      in
      let base = run None in
      let basew = float_of_int base.Run.stats.Kg_gc.Gc_stats.app_write_bytes_pcm in
      List.iter
        (fun (label, trig) ->
          let r = run trig in
          Table.add_row t
            [
              cap name;
              label;
              f2 (float_of_int r.Run.stats.Kg_gc.Gc_stats.app_write_bytes_pcm /. Float.max 1.0 basew);
              string_of_int r.Run.stats.Kg_gc.Gc_stats.major_gcs;
            ])
        [ ("none", None); ("4 MB", Some 4); ("1 MB", Some 1) ];
      Table.add_rule t)
    ext_benchmarks;
  t

(* §5.1: "We empirically find that sizing the observer space to be
   twice that of the nursery is the best compromise between tenured
   garbage and pause time." *)
let ext_observer_size env =
  let t =
    Table.create
      ~columns:
        [ "Benchmark"; "Observer MB"; "PCM writes vs 8MB"; "time vs 8MB"; "obs survival" ]
  in
  List.iter
    (fun name ->
      let b = Descriptor.find name in
      let run mb = fetch env Run.Count { Run.kg_w with Run.observer_mb = Some mb } b in
      let base = run 8 in
      List.iter
        (fun mb ->
          let r = run mb in
          Table.add_row t
            [
              cap name;
              string_of_int mb;
              f2
                (float_of_int r.Run.stats.Kg_gc.Gc_stats.app_write_bytes_pcm
                /. Float.max 1.0 (float_of_int base.Run.stats.Kg_gc.Gc_stats.app_write_bytes_pcm));
              f2 (r.Run.time_s /. base.Run.time_s);
              pct (Kg_gc.Gc_stats.observer_survival r.Run.stats);
            ])
        [ 4; 8; 16 ];
      Table.add_rule t)
    ext_benchmarks;
  t

(* §4.2.1: "An observer collection thus results in pause times longer
   than nursery collections, but shorter than full heap collections." *)
let ext_pauses env =
  let t =
    Table.create
      ~columns:
        [ "Benchmark"; "nursery avg ms"; "observer avg ms"; "major avg ms"; "count n/o/m" ]
  in
  List.iter
    (fun name ->
      let b = Descriptor.find name in
      let r = fetch env Run.Count Run.kg_w b in
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
      Table.add_row t
        [ cap name; f2 na; f2 oa; f2 ma; Printf.sprintf "%d/%d/%d" nn on mn ])
    [ "hsqldb"; "pjbb"; "pr"; "cc"; "xalan" ];
  t

(* §3's premise: "Contiguous allocation is known to outperform
   free-list allocators due to its locality benefits." Drive the Immix
   mark-region space and a segregated-fit free-list space with an
   identical allocation/death/initialisation stream through the same
   cache hierarchy, and compare footprint, internal fragmentation and
   memory traffic. *)
let ext_allocator env =
  let t =
    Table.create
      ~columns:
        [
          "Allocator";
          "footprint MB";
          "live MB";
          "internal frag";
          "mem writes MB";
          "traversal miss MB";
        ]
  in
  let module H = Kg_heap in
  let drive ~use_immix =
    let map = Kg_mem.Address_map.pcm_only () in
    let ctrl = Kg_cache.Controller.create ~map ~line_size:64 () in
    let hier = Kg_cache.Hierarchy.create ~controller:ctrl () in
    let arena = H.Arena.create ~kind:Kg_mem.Device.Pcm ~base:0 ~size:(2 * Units.gib) in
    let words = H.Heap_words.create () in
    let immix = H.Immix_space.create ~words ~id:3 ~name:"immix" ~arena () in
    let flist = H.Freelist_space.create ~words ~id:3 ~name:"freelist" ~arena in
    let rng = Rng.of_seed env.o.seed in
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
    Table.add_row t
      [
        (if use_immix then "Immix (bump lines)" else "Free-list (segregated fit)");
        f2 (Units.mib_of_bytes footprint);
        f2 (Units.mib_of_bytes live_b);
        pct frag;
        f2 (float_of_int (Kg_cache.Controller.bytes_written ctrl Kg_mem.Device.Pcm) /. 1048576.);
        f2 (float_of_int traversal_reads /. 1048576.);
      ]
  in
  drive ~use_immix:true;
  drive ~use_immix:false;
  t

(* Table 3's premise: write rates grow super-linearly with threads
   because interleaved allocation and shared-cache contention defeat
   locality. Simulate 1, 2 and 4 real mutator domains — interleaved
   allocation through per-domain nurseries and ports onto one cache
   hierarchy, with the mutator-side time model running on that many
   cores — and compare memory-level PCM write rates. The scaling
   column is measured from the simulation; no Table 3 scalar enters
   it. *)
let ext_threads env =
  let t =
    Table.create
      ~columns:
        [ "Benchmark"; "1-thread GB/s"; "2-thread GB/s"; "4-thread GB/s"; "scaling 1->4" ]
  in
  List.iter
    (fun name ->
      let b = Descriptor.find name in
      let run threads =
        fetch env ~threads ~cap_mb:(min env.o.cap_mb 64) Run.Simulate Run.pcm_only b
      in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      let rate (r : Run.result) =
        if r.Run.time_s <= 0.0 then 0.0
        else r.Run.mem_pcm_write_bytes /. r.Run.time_s /. 1073741824.0
      in
      Table.add_row t
        [
          cap name;
          f2 (rate r1);
          f2 (rate r2);
          f2 (rate r4);
          Printf.sprintf "%.2fx" (rate r4 /. Float.max 1e-9 (rate r1));
        ])
    [ "xalan"; "antlr"; "bloat" ];
  t

(* The ext-threads sweep with a parallel collector modeled (the
   "Retrofitting Parallelism onto OCaml" template: stop-the-world
   sections with parallel collector threads). The heap behaviour —
   every counter and traffic byte — is identical to ext-threads, since
   the runs use the one inline collector; what changes is the modeled
   execution time, whose GC term now divides across the domains. Shorter
   runs at the same write volume mean higher sustained GB/s, so the
   multi-thread columns rise relative to ext-threads, and the gap
   isolates exactly the Amdahl share the sequential collector was
   costing. *)
let ext_threads_pargc env =
  let t =
    Table.create
      ~columns:
        [
          "Benchmark"; "1-thread GB/s"; "2-thread GB/s"; "4-thread GB/s"; "scaling 1->4";
          "GC-time speedup @4";
        ]
  in
  List.iter
    (fun name ->
      let b = Descriptor.find name in
      let run ~parallel_gc threads =
        fetch env ~threads ~parallel_gc ~cap_mb:(min env.o.cap_mb 64) Run.Simulate
          Run.pcm_only b
      in
      let r1 = run ~parallel_gc:true 1 in
      let r2 = run ~parallel_gc:true 2 in
      let r4 = run ~parallel_gc:true 4 in
      let r4_seq = run ~parallel_gc:false 4 in
      let rate (r : Run.result) =
        if r.Run.time_s <= 0.0 then 0.0
        else r.Run.mem_pcm_write_bytes /. r.Run.time_s /. 1073741824.0
      in
      Table.add_row t
        [
          cap name;
          f2 (rate r1);
          f2 (rate r2);
          f2 (rate r4);
          Printf.sprintf "%.2fx" (rate r4 /. Float.max 1e-9 (rate r1));
          (* At very small scales a benchmark may never collect; 0/0 is
             "no GC time to shrink", not a slowdown. *)
          (if r4_seq.Run.time_parts.Time_model.gc_ns <= 0.0 then "n/a"
           else
             Printf.sprintf "%.2fx"
               (r4_seq.Run.time_parts.Time_model.gc_ns
               /. Float.max 1e-9 r4.Run.time_parts.Time_model.gc_ns));
        ])
    [ "xalan"; "antlr"; "bloat" ];
  t

(* §6.2.1: "Using a larger nursery reduces the writes to PCM ... A
   larger nursery is not effective for applications with more writes in
   the mature space" — sweep the KG-N nursery size. *)
let ext_nursery_size env =
  let t =
    Table.create ~columns:[ "Benchmark"; "Nursery MB"; "barrier PCM writes vs 4MB" ]
  in
  List.iter
    (fun name ->
      let b = Descriptor.find name in
      let run mb = fetch env Run.Count { Run.kg_n with Run.nursery_mb = mb } b in
      let base = barrier_pcm (run 4) in
      List.iter
        (fun mb ->
          Table.add_row t
            [
              cap name;
              string_of_int mb;
              f2 (barrier_pcm (run mb) /. Float.max 1.0 base);
            ])
        [ 4; 12; 32 ];
      Table.add_rule t)
    [ "lusearch"; "pjbb"; "bloat"; "eclipse" ];
  t

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

let serve_lifetime env =
  let t =
    Table.create
      ~columns:[ "Rate (req/s)"; "PCM-only (years)"; "KG-N (years)"; "KG-W (years)" ]
  in
  let b = serve_bench () in
  List.iter
    (fun rate ->
      let life spec =
        let r = fetch env ~serve:rate Run.Simulate spec b in
        match r.Run.serve with
        | Some s when s.Run.requests > 0 ->
          let duration_s = float_of_int s.Run.requests /. s.Run.rate in
          Kg_mem.Lifetime.years
            ~size_bytes:(float_of_int (32 * Units.gib))
            ~endurance:30e6
            ~write_rate_bytes_per_s:(r.Run.mem_pcm_write_bytes /. duration_s)
        | _ -> 0.0
      in
      Table.add_row t
        (string_of_int rate
        :: List.map (fun s -> f2 (life s)) [ Run.pcm_only; Run.kg_n; Run.kg_w ]))
    serve_rates;
  t

let serve_slo env =
  let module H = Hdr_histogram in
  let t =
    Table.create
      ~columns:
        [
          "Rate"; "Collector"; "GC P50 ms"; "GC P99 ms"; "GC P99.9 ms"; "GC max ms";
          "Req P50 ms"; "Req P99 ms"; "Requests";
        ]
  in
  let b = serve_bench () in
  List.iter
    (fun rate ->
      List.iter
        (fun spec ->
          let r = fetch env ~serve:rate Run.Count spec b in
          match r.Run.serve with
          | None -> ()
          | Some s ->
            Table.add_row t
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
        [ Run.dram_only; Run.kg_n; Run.kg_b; Run.kg_w ];
      Table.add_rule t)
    serve_rates;
  t

(* ------------------------------------------------------------------ *)
(* Registry: each experiment declares the run matrix it will fetch so
   an engine can resolve it (in parallel, against a persistent store)
   before the sequential table renderer asks for any cell. *)

type experiment = {
  id : string;
  doc : string;
  runs : opts -> job list;
  table : env -> Kg_util.Table.t;
}

let sim_jobs specs = List.concat_map (fun s -> List.map (job Run.Simulate s) Descriptor.simulated) specs
let cnt_jobs specs benches = List.concat_map (fun s -> List.map (job Run.Count s) benches) specs
let ext_descriptors () = List.map Descriptor.find ext_benchmarks
let static _ = []

let all =
  [
    { id = "tab1"; doc = "Table 1: collector configurations"; runs = static; table = tab1 };
    { id = "tab2"; doc = "Table 2: simulated system parameters"; runs = static; table = tab2 };
    {
      id = "tab3";
      doc = "Table 3: write-rate scaling to 32 cores";
      runs = (fun _ -> sim_jobs [ Run.pcm_only ]);
      table = tab3;
    };
    {
      id = "tab4";
      doc = "Table 4: object demographics and space usage";
      runs = (fun _ -> cnt_jobs [ Run.kg_n; Run.kg_w ] Descriptor.all @ sim_jobs [ Run.wp ]);
      table = tab4;
    };
    {
      id = "fig1";
      doc = "Figure 1: absolute PCM lifetimes vs endurance";
      runs = (fun _ -> sim_jobs [ Run.pcm_only; Run.kg_n; Run.kg_w ]);
      table = fig1;
    };
    {
      id = "fig2";
      doc = "Figure 2: where writes go (nursery/mature, top-N%)";
      runs = (fun _ -> cnt_jobs [ Run.dram_only ] Descriptor.all);
      table = fig2;
    };
    {
      id = "fig5";
      doc = "Figure 5: PCM lifetime relative to PCM-only";
      runs = (fun _ -> sim_jobs [ Run.pcm_only; Run.kg_n; Run.kg_w ]);
      table = fig5;
    };
    {
      id = "fig6";
      doc = "Figure 6: PCM writes relative to PCM-only (+ablations)";
      runs =
        (fun _ ->
          sim_jobs [ Run.pcm_only; Run.kg_n; Run.kg_w; Run.kg_w_no_loo; Run.kg_w_no_loo_mdo ]);
      table = fig6;
    };
    {
      id = "fig7";
      doc = "Figure 7: Kingsguard vs OS write partitioning";
      runs = (fun _ -> sim_jobs [ Run.pcm_only; Run.kg_n; Run.kg_w; Run.wp ]);
      table = fig7;
    };
    {
      id = "fig8";
      doc = "Figure 8: energy-delay product relative to DRAM-only";
      runs = (fun _ -> sim_jobs [ Run.dram_only; Run.pcm_only; Run.kg_n; Run.kg_w ]);
      table = fig8;
    };
    {
      id = "fig9";
      doc = "Figure 9: KG-W overhead breakdown over DRAM-only";
      runs = (fun _ -> sim_jobs [ Run.dram_only; Run.kg_w ]);
      table = fig9;
    };
    {
      id = "fig10";
      doc = "Figure 10: origin of PCM writes by GC phase";
      runs = (fun _ -> sim_jobs [ Run.kg_n; Run.kg_w ]);
      table = fig10;
    };
    {
      id = "fig11";
      doc = "Figure 11: barrier-level PCM writes relative to KG-N";
      runs = (fun _ -> cnt_jobs [ Run.kg_n; Run.kg_n_12; Run.kg_w; Run.kg_w_no_pm ] Descriptor.all);
      table = fig11;
    };
    {
      id = "fig12";
      doc = "Figure 12: execution time relative to KG-N";
      runs =
        (fun _ ->
          cnt_jobs
            [ Run.kg_n; Run.kg_w; Run.kg_w_no_loo; Run.kg_w_no_loo_mdo; Run.kg_w_no_pm ]
            Descriptor.all);
      table = fig12;
    };
    {
      id = "fig13";
      doc = "Figure 13: heap composition over time (PR, eclipse)";
      runs =
        (fun _ ->
          List.map
            (fun n -> job ~trace:true Run.Count Run.kg_w (Descriptor.find n))
            [ "pr"; "eclipse" ]);
      table = fig13;
    };
    {
      id = "ext-threshold";
      doc = "Extension: write-count threshold placement (4.2.2 future work)";
      runs =
        (fun _ ->
          List.concat_map
            (fun b ->
              List.map
                (fun k -> job Run.Count { Run.kg_w with Run.write_threshold = k } b)
                [ 1; 2; 4 ])
            (ext_descriptors ()));
      table = ext_threshold;
    };
    {
      id = "ext-write-trigger";
      doc = "Extension: PCM-write-triggered major GCs (6.2.1 future work)";
      runs =
        (fun _ ->
          List.concat_map
            (fun b ->
              List.map
                (fun trig -> job Run.Count { Run.kg_w with Run.pcm_write_trigger_mb = trig } b)
                [ None; Some 4; Some 1 ])
            (ext_descriptors ()));
      table = ext_write_trigger;
    };
    {
      id = "ext-observer-size";
      doc = "Extension: observer space sizing sweep (5.1)";
      runs =
        (fun _ ->
          List.concat_map
            (fun b ->
              List.map
                (fun mb -> job Run.Count { Run.kg_w with Run.observer_mb = Some mb } b)
                [ 4; 8; 16 ])
            (ext_descriptors ()));
      table = ext_observer_size;
    };
    {
      id = "ext-pauses";
      doc = "Extension: pause ordering nursery < observer < major (4.2.1)";
      runs =
        (fun _ ->
          List.map
            (fun n -> job Run.Count Run.kg_w (Descriptor.find n))
            [ "hsqldb"; "pjbb"; "pr"; "cc"; "xalan" ]);
      table = ext_pauses;
    };
    {
      id = "ext-allocator";
      doc = "Extension: Immix vs free-list locality and fragmentation (3)";
      runs = static;
      table = ext_allocator;
    };
    {
      id = "ext-threads";
      doc = "Extension: write-rate scaling with mutator threads (Table 3)";
      runs =
        (fun o ->
          List.concat_map
            (fun n ->
              List.map
                (fun threads ->
                  job ~threads ~cap_mb:(min o.cap_mb 64) Run.Simulate Run.pcm_only
                    (Descriptor.find n))
                [ 1; 2; 4 ])
            [ "xalan"; "antlr"; "bloat" ]);
      table = ext_threads;
    };
    {
      id = "ext-threads-pargc";
      doc = "Extension: thread scaling with domain-parallel collection phases";
      runs =
        (fun o ->
          List.concat_map
            (fun n ->
              let j ~parallel_gc threads =
                job ~threads ~parallel_gc ~cap_mb:(min o.cap_mb 64) Run.Simulate
                  Run.pcm_only (Descriptor.find n)
              in
              [
                j ~parallel_gc:true 1; j ~parallel_gc:true 2; j ~parallel_gc:true 4;
                j ~parallel_gc:false 4;
              ])
            [ "xalan"; "antlr"; "bloat" ]);
      table = ext_threads_pargc;
    };
    {
      id = "ext-nursery-size";
      doc = "Extension: KG-N nursery size sweep (6.2.1)";
      runs =
        (fun _ ->
          List.concat_map
            (fun n ->
              List.map
                (fun mb -> job Run.Count { Run.kg_n with Run.nursery_mb = mb } (Descriptor.find n))
                [ 4; 12; 32 ])
            [ "lusearch"; "pjbb"; "bloat"; "eclipse" ]);
      table = ext_nursery_size;
    };
    {
      id = "serve-lifetime";
      doc = "Serve: PCM lifetime vs offered request rate (open loop)";
      runs =
        (fun _ ->
          List.concat_map
            (fun rate ->
              List.map
                (fun s -> job ~serve:rate Run.Simulate s (serve_bench ()))
                [ Run.pcm_only; Run.kg_n; Run.kg_w ])
            serve_rates);
      table = serve_lifetime;
    };
    {
      id = "serve-slo";
      doc = "Serve: GC pause and request latency percentiles vs rate";
      runs =
        (fun _ ->
          List.concat_map
            (fun rate ->
              List.map
                (fun s -> job ~serve:rate Run.Count s (serve_bench ()))
                [ Run.dram_only; Run.kg_n; Run.kg_b; Run.kg_w ])
            serve_rates);
      table = serve_slo;
    };
  ]

let run_by_name env name =
  let e = List.find (fun e -> e.id = name) all in
  e.table env
