(* Benchmark harness.

   Part 1 microbenchmarks the simulator's hot primitives with Bechamel
   (one Test.make per primitive): these bound how large a workload the
   experiment suite can replay.

   Part 2 regenerates every table and figure of the paper — one bench
   entry per experiment — timing each regeneration and printing the
   rows the paper reports. By default it runs at a reduced scale so the
   whole harness finishes in a few minutes; pass --full (or set
   KG_BENCH_FULL=1) for the EXPERIMENTS.md setting.

   Part 3 benchmarks the experiment engine itself: regenerating one
   figure sequentially versus on a --jobs-wide domain pool, both with
   the store disabled so every sample really recomputes the matrix.

   Part 4 benchmarks the batched memory port: one fixed synthetic
   access stream replayed through the Null, Counting and Cache_sim
   sink stacks, against a per-access closure-record interface shaped
   like the port's predecessor. Pass --ports to run only this part
   (the CI smoke step does), and --ports-json FILE to write the
   accesses/sec table as JSON (BENCH_port_sinks.json in the repo is a
   checked-in trajectory point from this). --assert-port-speedup makes
   the process exit nonzero if port/cache-sim falls below 0.95x the
   closure baseline — a noise-tolerant guard against reintroducing the
   pre-kernel port dispatch regression.

   Part 5 benchmarks the fused cache kernel on three characteristic
   streams (uniform random storm, sequential streaming writes, an
   L1-resident hot set), closure vs port cache-sim stacks. The
   streaming and hot streams are where the batch path's same-line run
   coalescer and lookahead prefetch pay off; the random storm is bound
   by host-memory latency on the simulator's own L2/L3 metadata and
   moves little. Pass --cache-kernel to run only this part;
   BENCH_cache_kernel.json is a checked-in trajectory point.

   Part 6 benchmarks the flat-word heap: the packed Bigarray object
   tables against the record-per-object store they replaced, on three
   kernels shaped like the simulator's hot loops (store build,
   mark/sweep metadata sweeps, and a liveness-filtered walk feeding
   the counting port). Pass --heap-words to run only this part,
   --heap-words-json FILE for the JSON trajectory point
   (BENCH_heap_words.json in the repo), and --assert-heap-speedup to
   exit nonzero if the counting-port kernel falls below 1.1x the
   record baseline.

   Part 7 benchmarks the server-scale serve mutator: a KG-W run of the
   request/response workload at an offered-rate sweep, reporting wall
   clock, request throughput and the two SLO histograms
   (per-collection GC pauses and per-request latency). Pass --serve
   to run only this part, --serve-json FILE for the JSON trajectory
   point (BENCH_serve.json in the repo), and --assert-serve-histogram
   to exit nonzero if any rate's pause profile is degenerate (max
   pause > P50 > 0 must hold). *)

open Bechamel
open Toolkit
module Port = Kg_mem.Port

(* ------------------------------------------------------------------ *)
(* Part 1: primitive microbenchmarks                                   *)

let bench_rng () =
  let rng = Kg_util.Rng.of_seed 1 in
  Test.make ~name:"rng-draw" (Staged.stage (fun () -> ignore (Kg_util.Rng.int rng 64)))

let bench_cache () =
  let map = Kg_mem.Address_map.pcm_only () in
  let ctrl = Kg_cache.Controller.create ~map ~line_size:64 () in
  let hier = Kg_cache.Hierarchy.create ~controller:ctrl () in
  let rng = Kg_util.Rng.of_seed 2 in
  Test.make ~name:"cache-hierarchy-access"
    (Staged.stage (fun () ->
         Kg_cache.Hierarchy.write hier (Kg_util.Rng.int rng (64 * 1024 * 1024))))

let bench_wear () =
  let wear = Kg_mem.Wear.create ~size:(256 * 1024 * 1024) () in
  let rng = Kg_util.Rng.of_seed 3 in
  Test.make ~name:"wear-record-write"
    (Staged.stage (fun () ->
         Kg_mem.Wear.record_write wear (Kg_util.Rng.int rng (1024 * 1024) * 256)))

let bench_barrier () =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Kg_gc.Gc_config.make ~heap_mb:512 Kg_gc.Gc_config.kg_w_default in
  let rt = Kg_gc.Runtime.create ~config:cfg ~mem:(Kg_gc.Mem_iface.null ()) ~map ~seed:4 () in
  let o = Kg_gc.Runtime.alloc_boot rt ~size:64 ~heat:Kg_heap.Object_model.Cold ~ref_fields:2 in
  Test.make ~name:"write-barrier-ref"
    (Staged.stage (fun () -> Kg_gc.Runtime.write_ref rt ~src:o ~tgt:o))

let bench_alloc () =
  let map = Kg_mem.Address_map.hybrid () in
  let cfg = Kg_gc.Gc_config.make ~heap_mb:64 Kg_gc.Gc_config.kg_w_default in
  let rt = Kg_gc.Runtime.create ~config:cfg ~mem:(Kg_gc.Mem_iface.null ()) ~map ~seed:5 () in
  Test.make ~name:"alloc-with-gc-churn"
    (Staged.stage (fun () ->
         ignore
           (Kg_gc.Runtime.alloc rt ~size:64 ~heat:Kg_heap.Object_model.Cold
              ~death:(Kg_gc.Runtime.now rt +. 100_000.0)
              ~ref_fields:2)))

let ols_report results =
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let est = match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan in
      let r2 = match Analyze.OLS.r_square r with Some r2 -> r2 | None -> nan in
      Printf.printf "  %-40s %10.1f ns/op  (r2=%.3f)\n%!" name est r2)
    (List.sort compare rows)

let run_micro () =
  print_endline "== primitive microbenchmarks (Bechamel OLS, ns/op) ==";
  let tests =
    Test.make_grouped ~name:"primitives" ~fmt:"%s/%s"
      [ bench_rng (); bench_cache (); bench_wear (); bench_barrier (); bench_alloc () ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  ols_report results

(* ------------------------------------------------------------------ *)
(* Part 2: one bench per table/figure                                  *)

let run_experiments full =
  let module E = Kg_sim.Experiments in
  let opts =
    if full then E.default_opts else { E.scale = 64; heap_scale = 5; cap_mb = 32; seed = 42 }
  in
  Printf.printf "\n== experiment regeneration (%s scale) ==\n%!"
    (if full then "full" else "reduced");
  let env = E.make_env opts in
  List.iter
    (fun (e : E.experiment) ->
      let t0 = Unix.gettimeofday () in
      let table = e.E.table env in
      Printf.printf "\n-- %s : %s [%.1f s] --\n%s%!" e.E.id e.E.doc
        (Unix.gettimeofday () -. t0)
        (Kg_util.Table.render table))
    E.all

(* ------------------------------------------------------------------ *)
(* Part 3: engine scaling — sequential vs parallel figure regeneration *)

let engine_figure = "fig2"

let bench_engine_regen ~name ~jobs opts =
  let module E = Kg_sim.Experiments in
  Test.make ~name
    (Staged.stage (fun () ->
         (* A fresh uncached engine per sample: every iteration resolves
            the figure's full run matrix from scratch. *)
         let ex = Kg_engine.Exec.create ~jobs ~cache:false opts in
         Kg_engine.Exec.prefetch_experiments ex [ engine_figure ];
         let e = List.find (fun (e : E.experiment) -> e.E.id = engine_figure) E.all in
         ignore (e.E.table (Kg_engine.Exec.env ex));
         Kg_engine.Exec.shutdown ex))

let run_engine jobs =
  let module E = Kg_sim.Experiments in
  let opts = { E.scale = 64; heap_scale = 5; cap_mb = 32; seed = 42 } in
  Printf.printf "\n== engine scaling: %s sequential vs %d-domain pool (Bechamel OLS) ==\n%!"
    engine_figure jobs;
  let tests =
    Test.make_grouped ~name:"engine" ~fmt:"%s/%s"
      [
        bench_engine_regen ~name:(engine_figure ^ "-seq") ~jobs:1 opts;
        bench_engine_regen ~name:(Printf.sprintf "%s-jobs%d" engine_figure jobs) ~jobs opts;
      ]
  in
  let cfg = Benchmark.cfg ~limit:8 ~quota:(Time.second 2.0) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  ols_report results

(* ------------------------------------------------------------------ *)
(* Part 4: batched port vs per-access closure dispatch                 *)

(* The pre-refactor interface shape: a record of per-access closures.
   Kept here (only) as the benchmark baseline. *)
type closure_iface = {
  c_read : addr:int -> size:int -> unit;
  c_write : addr:int -> size:int -> unit;
  c_set_phase : int -> unit;
}

type stream = {
  s_addrs : int array;
  s_sizes : int array;
  s_writes : bool array;
  s_tags : int array;
}

let make_stream n =
  let rng = Kg_util.Rng.of_seed 7 in
  {
    (* 4-byte-aligned addresses over the first 2 GiB of the hybrid
       map, so the stream hits both devices *)
    s_addrs = Array.init n (fun _ -> 4 * Kg_util.Rng.int rng (1 lsl 29));
    s_sizes = Array.init n (fun _ -> 8 + Kg_util.Rng.int rng 248);
    s_writes = Array.init n (fun _ -> Kg_util.Rng.bernoulli rng 0.5);
    s_tags = Array.init n (fun _ -> Kg_util.Rng.int rng Kg_gc.Phase.count);
  }

let fresh_hier () =
  let map = Kg_mem.Address_map.hybrid () in
  let ctrl = Kg_cache.Controller.create ~map ~line_size:64 () in
  (Kg_cache.Hierarchy.create ~controller:ctrl (), map)

(* One closure-record assembly per sink kind, dispatching per access
   exactly as the old interface did. *)
let closure_counting map =
  let c = Port.fresh_counters ~phases:Kg_gc.Phase.count in
  let phase = ref 0 in
  let one ~write ~addr ~size =
    match Kg_mem.Address_map.kind_of map addr with
    | Kg_mem.Device.Dram ->
      if write then c.Port.dram_write_bytes <- c.Port.dram_write_bytes + size
      else c.Port.dram_read_bytes <- c.Port.dram_read_bytes + size
    | Kg_mem.Device.Pcm ->
      if write then begin
        c.Port.pcm_write_bytes <- c.Port.pcm_write_bytes + size;
        c.Port.pcm_write_bytes_by_phase.(!phase) <-
          c.Port.pcm_write_bytes_by_phase.(!phase) + size
      end
      else c.Port.pcm_read_bytes <- c.Port.pcm_read_bytes + size
  in
  {
    c_read = (fun ~addr ~size -> one ~write:false ~addr ~size);
    c_write = (fun ~addr ~size -> one ~write:true ~addr ~size);
    c_set_phase = (fun p -> phase := p);
  }

let closure_cache hier =
  {
    c_read = (fun ~addr ~size -> Kg_cache.Hierarchy.access_range hier ~addr ~size ~write:false);
    c_write = (fun ~addr ~size -> Kg_cache.Hierarchy.access_range hier ~addr ~size ~write:true);
    c_set_phase = (fun p -> Kg_cache.Hierarchy.set_phase hier p);
  }

let drive_closure iface s =
  let n = Array.length s.s_addrs in
  let cur = ref (-1) in
  for i = 0 to n - 1 do
    let tag = s.s_tags.(i) in
    if tag <> !cur then begin
      cur := tag;
      iface.c_set_phase tag
    end;
    if s.s_writes.(i) then iface.c_write ~addr:s.s_addrs.(i) ~size:s.s_sizes.(i)
    else iface.c_read ~addr:s.s_addrs.(i) ~size:s.s_sizes.(i)
  done

let drive_port port s =
  let n = Array.length s.s_addrs in
  let cur = ref (-1) in
  for i = 0 to n - 1 do
    let tag = s.s_tags.(i) in
    if tag <> !cur then begin
      cur := tag;
      Port.set_phase_tag port tag
    end;
    if s.s_writes.(i) then Port.write port ~addr:s.s_addrs.(i) ~size:s.s_sizes.(i)
    else Port.read port ~addr:s.s_addrs.(i) ~size:s.s_sizes.(i)
  done;
  Port.flush port

let run_ports ?(json_out = None) () =
  let n = 100_000 and repeats = 5 in
  let s = make_stream n in
  let time name f =
    f ();
    (* warmup *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeats do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let aps = float_of_int (n * repeats) /. dt in
    Printf.printf "  %-28s %12.0f accesses/s\n%!" name aps;
    (name, aps)
  in
  Printf.printf "\n== port sinks: batched port vs per-access closures (%d accesses x%d) ==\n%!"
    n repeats;
  let map = Kg_mem.Address_map.hybrid () in
  let results =
    [
      time "closure/counting" (fun () -> drive_closure (closure_counting map) s);
      time "port/null" (fun () ->
          drive_port (Port.create ~sink:Port.Null ()) s);
      time "port/counting" (fun () ->
          drive_port (fst (Kg_gc.Mem_iface.counting ~map)) s);
      time "closure/cache-sim" (fun () ->
          let hier, _ = fresh_hier () in
          drive_closure (closure_cache hier) s);
      time "port/cache-sim" (fun () ->
          let hier, _ = fresh_hier () in
          drive_port (Kg_gc.Mem_iface.of_hierarchy hier) s);
    ]
  in
  let find k = List.assoc k results in
  let speedup num den = find num /. find den in
  Printf.printf "  speedup counting: %.2fx, cache-sim: %.2fx\n%!"
    (speedup "port/counting" "closure/counting")
    (speedup "port/cache-sim" "closure/cache-sim");
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc "{\n  \"bench\": \"port_sinks\",\n  \"accesses\": %d,\n  \"repeats\": %d,\n  \"accesses_per_sec\": {\n%s\n  },\n  \"speedup\": {\n    \"counting\": %.3f,\n    \"cache_sim\": %.3f\n  }\n}\n"
        n repeats
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "    %S: %.0f" k v) results))
        (speedup "port/counting" "closure/counting")
        (speedup "port/cache-sim" "closure/cache-sim");
      close_out oc;
      Printf.printf "  wrote %s\n%!" path)
    json_out;
  speedup "port/cache-sim" "closure/cache-sim"

(* ------------------------------------------------------------------ *)
(* Part 5: fused cache kernel on characteristic access streams        *)

(* Streaming init / bump allocation shape: sequential 8-byte writes,
   eight single-line records per cache line — the batch path folds
   seven of every eight into one bulk LRU update (same-line run
   coalescing), which the per-access closure interface cannot. *)
let stream_seq n =
  let region = 8 * 1024 * 1024 in
  {
    s_addrs = Array.init n (fun i -> i * 8 mod region);
    s_sizes = Array.make n 8;
    s_writes = Array.make n true;
    s_tags = Array.make n 1;
  }

(* L1-resident working set: random 8-byte accesses within 16 KiB, so
   every access after warmup is an L1 hit and the kernel's fast path
   (fused probe, no float arithmetic) dominates. *)
let stream_hot n =
  let rng = Kg_util.Rng.of_seed 11 in
  {
    s_addrs = Array.init n (fun _ -> 8 * Kg_util.Rng.int rng (16 * 1024 / 8));
    s_sizes = Array.make n 8;
    s_writes = Array.init n (fun _ -> Kg_util.Rng.bernoulli rng 0.5);
    s_tags = Array.make n 2;
  }

let run_cache_kernel ?(json_out = None) () =
  let n = 200_000 and repeats = 5 in
  Printf.printf
    "\n== cache kernel: closure vs port cache-sim per stream (%d accesses x%d) ==\n%!" n
    repeats;
  let time name f =
    f ();
    (* warmup *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeats do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let aps = float_of_int (n * repeats) /. dt in
    Printf.printf "  %-28s %12.0f accesses/s\n%!" name aps;
    (name, aps)
  in
  let results =
    List.concat_map
      (fun (sname, s) ->
        let c =
          time (sname ^ "/closure") (fun () ->
              let hier, _ = fresh_hier () in
              drive_closure (closure_cache hier) s)
        in
        let p =
          time (sname ^ "/port") (fun () ->
              let hier, _ = fresh_hier () in
              drive_port (Kg_gc.Mem_iface.of_hierarchy hier) s)
        in
        Printf.printf "  %-28s %11.2fx\n%!" (sname ^ " port speedup") (snd p /. snd c);
        [ c; p ])
      [ ("random", make_stream n); ("seq-stream", stream_seq n); ("hot-set", stream_hot n) ]
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"bench\": \"cache_kernel\",\n  \"accesses\": %d,\n  \"repeats\": %d,\n  \"accesses_per_sec\": {\n%s\n  }\n}\n"
        n repeats
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "    %S: %.0f" k v) results));
      close_out oc;
      Printf.printf "  wrote %s\n%!" path)
    json_out

(* ------------------------------------------------------------------ *)
(* Part 6: flat-word heap vs record object store                       *)

module O = Kg_heap.Object_model

(* The record-per-object store the flat-word heap replaced. Kept here
   (only) as the benchmark baseline: one heap block per object, with
   the float death timestamp boxed beside the int fields, exactly as
   the pre-refactor [Object_model.t] laid it out. *)
module Record_store = struct
  type obj = {
    id : int;
    size : int;
    heat : O.heat;
    death : float;
    ref_fields : int;
    mutable addr : int;
    mutable space : int;
    mutable written : bool;
    mutable marked : bool;
    mutable age : int;
    mutable writes : int;
    mutable epoch_writes : int;
  }

  type t = { mutable objs : obj array; mutable len : int }

  let dummy =
    {
      id = 0;
      size = 0;
      heat = O.Cold;
      death = 0.0;
      ref_fields = 0;
      addr = -1;
      space = -1;
      written = false;
      marked = false;
      age = 0;
      writes = 0;
      epoch_writes = 0;
    }

  let create ?(capacity = 4096) () = { objs = Array.make capacity dummy; len = 0 }

  let alloc t ~size ~heat ~death ~ref_fields =
    if t.len = Array.length t.objs then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.objs 0 bigger 0 t.len;
      t.objs <- bigger
    end;
    let o =
      {
        id = t.len + 1;
        size;
        heat;
        death;
        ref_fields;
        addr = -1;
        space = -1;
        written = false;
        marked = false;
        age = 0;
        writes = 0;
        epoch_writes = 0;
      }
    in
    t.objs.(t.len) <- o;
    t.len <- t.len + 1;
    o
end

(* One synthetic population, drawn once and replayed into both stores:
   sizes, heats and oracle deaths in the ranges the workloads use. *)
type heap_pop = {
  p_sizes : int array;
  p_heats : O.heat array;
  p_deaths : float array;
}

let make_pop n =
  let rng = Kg_util.Rng.of_seed 23 in
  {
    p_sizes =
      Array.init n (fun _ -> Kg_heap.Layout.min_object + 8 * Kg_util.Rng.int rng 30);
    p_heats =
      Array.init n (fun _ ->
          match Kg_util.Rng.int rng 10 with
          | 0 -> O.Hot
          | 1 | 2 -> O.Warm
          | _ -> O.Cold);
    p_deaths =
      Array.init n (fun _ ->
          if Kg_util.Rng.bernoulli rng 0.25 then infinity
          else Kg_util.Rng.float rng 1.0e6);
  }

let build_record pop =
  let n = Array.length pop.p_sizes in
  let s = Record_store.create () in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    let o =
      Record_store.alloc s ~size:pop.p_sizes.(i) ~heat:pop.p_heats.(i)
        ~death:pop.p_deaths.(i) ~ref_fields:2
    in
    o.Record_store.addr <- !cursor;
    o.Record_store.space <- i land 3;
    cursor := !cursor + pop.p_sizes.(i)
  done;
  s

let build_words pop =
  let n = Array.length pop.p_sizes in
  let w = Kg_heap.Heap_words.create () in
  let cursor = ref 0 in
  for i = 0 to n - 1 do
    let o =
      O.make w ~size:pop.p_sizes.(i) ~heat:pop.p_heats.(i) ~death:pop.p_deaths.(i)
        ~ref_fields:2
    in
    O.set_addr w o !cursor;
    O.set_space w o (i land 3);
    cursor := !cursor + pop.p_sizes.(i)
  done;
  w

(* Mark/sweep-shaped metadata pass: mark everything the oracle keeps
   alive at [now], then sweep — clear marks, age survivors, sum their
   bytes. Returns the survivor byte count as a sink. *)
let mark_sweep_record (s : Record_store.t) now =
  let bytes = ref 0 in
  for i = 0 to s.Record_store.len - 1 do
    let o = s.Record_store.objs.(i) in
    if o.Record_store.death > now then o.Record_store.marked <- true
  done;
  for i = 0 to s.Record_store.len - 1 do
    let o = s.Record_store.objs.(i) in
    if o.Record_store.marked then begin
      o.Record_store.marked <- false;
      o.Record_store.age <- o.Record_store.age + 1;
      bytes := !bytes + o.Record_store.size
    end
  done;
  !bytes

let mark_sweep_words w now =
  let bytes = ref 0 in
  let len = Kg_heap.Heap_words.length w in
  for o = 1 to len do
    if O.is_live w o now then O.set_marked w o true
  done;
  for o = 1 to len do
    if O.marked w o then begin
      O.set_marked w o false;
      O.set_age w o (O.age w o + 1);
      bytes := !bytes + O.size w o
    end
  done;
  !bytes

(* Liveness-filtered walk feeding the counting port — the shape of the
   simulator's write-traffic loops: read the oracle, then the address
   and size, and emit one access per survivor. *)
let count_record (s : Record_store.t) port now =
  for i = 0 to s.Record_store.len - 1 do
    let o = s.Record_store.objs.(i) in
    if o.Record_store.death > now then
      Port.write port ~addr:o.Record_store.addr ~size:o.Record_store.size
  done;
  Port.flush port

let count_words w port now =
  let len = Kg_heap.Heap_words.length w in
  for o = 1 to len do
    if O.is_live w o now then Port.write port ~addr:(O.addr w o) ~size:(O.size w o)
  done;
  Port.flush port

let run_heap_words ?(json_out = None) () =
  let n = 200_000 and repeats = 10 in
  Printf.printf
    "\n== heap words: flat Bigarray tables vs record objects (%d objects x%d) ==\n%!" n
    repeats;
  let pop = make_pop n in
  let time name f =
    f ();
    (* warmup *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeats do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let ops = float_of_int (n * repeats) /. dt in
    Printf.printf "  %-28s %12.0f objects/s\n%!" name ops;
    (name, ops)
  in
  let rs = build_record pop and ws = build_words pop in
  let now = 5.0e5 in
  let map = Kg_mem.Address_map.hybrid () in
  let sink = ref 0 in
  let results =
    [
      time "record/build" (fun () -> ignore (build_record pop));
      time "words/build" (fun () -> ignore (build_words pop));
      time "record/mark-sweep" (fun () -> sink := !sink + mark_sweep_record rs now);
      time "words/mark-sweep" (fun () -> sink := !sink + mark_sweep_words ws now);
      time "record/counting" (fun () ->
          count_record rs (fst (Kg_gc.Mem_iface.counting ~map)) now);
      time "words/counting" (fun () ->
          count_words ws (fst (Kg_gc.Mem_iface.counting ~map)) now);
    ]
  in
  ignore !sink;
  let find k = List.assoc k results in
  let speedup num den = find num /. find den in
  Printf.printf "  speedup build: %.2fx, mark-sweep: %.2fx, counting: %.2fx\n%!"
    (speedup "words/build" "record/build")
    (speedup "words/mark-sweep" "record/mark-sweep")
    (speedup "words/counting" "record/counting");
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n  \"bench\": \"heap_words\",\n  \"objects\": %d,\n  \"repeats\": %d,\n  \"objects_per_sec\": {\n%s\n  },\n  \"speedup\": {\n    \"build\": %.3f,\n    \"mark_sweep\": %.3f,\n    \"counting\": %.3f\n  }\n}\n"
        n repeats
        (String.concat ",\n"
           (List.map (fun (k, v) -> Printf.sprintf "    %S: %.0f" k v) results))
        (speedup "words/build" "record/build")
        (speedup "words/mark-sweep" "record/mark-sweep")
        (speedup "words/counting" "record/counting");
      close_out oc;
      Printf.printf "  wrote %s\n%!" path)
    json_out;
  speedup "words/counting" "record/counting"

(* ------------------------------------------------------------------ *)
(* Part 7: server-scale serve mutator with SLO histograms              *)

(* The histogram gate is structural, not a timing threshold: the
   modeled pause profile is a pure function of the run, so a
   degenerate shape (zero P50, or max below P50) means the recorder is
   wired wrong, not wind. *)
let run_serve ?(json_out = None) () =
  let module R = Kg_sim.Run in
  let module S = Kg_serve.Server in
  let module H = Kg_util.Hdr_histogram in
  Printf.printf "\n== serve: offered-rate sweep ==\n%!";
  let bench = Kg_workload.Descriptor.find "pjbb" in
  let go rate =
    let t0 = Unix.gettimeofday () in
    let r =
      R.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8
        ~serve:{ S.default_config with S.rate = float_of_int rate }
        ~mode:R.Count R.kg_w bench
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let metrics (r : R.result) =
    match r.R.serve with
    | Some s -> s
    | None ->
      Printf.eprintf "FAIL: serve run carries no serve metrics\n%!";
      exit 1
  in
  let rows =
    List.map
      (fun rate ->
        let r, wall = go rate in
        let s = metrics r in
        Printf.printf
          "  rate=%-5d  wall %5.2fs  %6d reqs  gc pause p50/p99/max %5.3f/%5.3f/%5.3f ms  \
           req p50/p99 %5.3f/%5.3f ms\n\
           %!"
          rate wall s.R.requests (H.p50 s.R.pause_hist) (H.p99 s.R.pause_hist)
          (H.max_value s.R.pause_hist) (H.p50 s.R.latency_hist) (H.p99 s.R.latency_hist);
        (rate, wall, s))
      [ 256; 1024; 1792 ]
  in
  let degenerate =
    List.filter
      (fun (_, _, (s : R.serve_metrics)) ->
        not (H.max_value s.R.pause_hist > H.p50 s.R.pause_hist && H.p50 s.R.pause_hist > 0.0))
      rows
  in
  List.iter
    (fun (rate, _, _) ->
      Printf.printf "  WARN: degenerate pause histogram at rate=%d\n%!" rate)
    degenerate;
  Option.iter
    (fun path ->
      let oc = open_out path in
      Printf.fprintf oc
        "{\n\
        \  \"bench\": \"serve\",\n\
        \  \"benchmark\": \"pjbb\",\n\
        \  \"collector\": \"kg-w\",\n\
        \  \"cap_mb\": 8,\n\
        \  \"rates\": [\n\
         %s\n\
        \  ]\n\
         }\n"
        (String.concat ",\n"
           (List.map
              (fun (rate, wall, (s : R.serve_metrics)) ->
                Printf.sprintf
                  "    { \"rate\": %d, \"wall_s\": %.3f, \"requests\": %d, \
                   \"gc_pause_ms\": { \"p50\": %.4f, \"p99\": %.4f, \"p999\": %.4f, \
                   \"max\": %.4f }, \"req_latency_ms\": { \"p50\": %.4f, \"p99\": %.4f, \
                   \"p999\": %.4f } }"
                  rate wall s.R.requests (H.p50 s.R.pause_hist) (H.p99 s.R.pause_hist)
                  (H.p999 s.R.pause_hist) (H.max_value s.R.pause_hist)
                  (H.p50 s.R.latency_hist) (H.p99 s.R.latency_hist)
                  (H.p999 s.R.latency_hist))
              rows));
      close_out oc;
      Printf.printf "  wrote %s\n%!" path)
    json_out;
  degenerate = []

let () =
  let full =
    Array.exists (( = ) "--full") Sys.argv || Sys.getenv_opt "KG_BENCH_FULL" = Some "1"
  in
  let jobs =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = "--jobs" then int_of_string_opt Sys.argv.(i + 1)
      else find (i + 1)
    in
    match find 0 with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  let flag_arg name =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 0
  in
  let json_out = flag_arg "--ports-json" in
  let ck_json_out = flag_arg "--cache-kernel-json" in
  let hw_json_out = flag_arg "--heap-words-json" in
  let srv_json_out = flag_arg "--serve-json" in
  (* Exit nonzero if the batched port's cache-sim stack is slower than
     the per-access closure baseline. The threshold is 0.95x, not 1.0x:
     the two stacks are within a few percent of each other on the
     random storm (both bound by host-memory latency on simulator
     metadata) and run-to-run noise on shared CI hardware is of that
     order; the guard is against reintroducing a real dispatch
     regression (the pre-kernel port measured ~0.93x), not against
     wind. *)
  let check_port_speedup su =
    if Array.exists (( = ) "--assert-port-speedup") Sys.argv && su < 0.95 then begin
      Printf.eprintf
        "FAIL: port/cache-sim is %.3fx the closure baseline (threshold 0.95x)\n%!" su;
      exit 1
    end
  in
  (* Same guard shape for the flat-word heap, but demanding a real win:
     the packed tables must beat the record store by 1.1x on the
     counting-port kernel, the one closest to the simulator's hot
     loops. The tables win by construction (no per-object pointer
     chase, no boxed death float), so a fall below 1.1x means a
     regression in the accessor packing, not wind. *)
  let check_heap_speedup su =
    if Array.exists (( = ) "--assert-heap-speedup") Sys.argv && su < 1.1 then begin
      Printf.eprintf
        "FAIL: words/counting is %.3fx the record baseline (threshold 1.10x)\n%!" su;
      exit 1
    end
  in
  (* Structural gate, not a timing one: the pause histogram is a pure
     function of the modeled run, so a degenerate profile means the
     recorder broke, not that the machine was loaded. *)
  let check_serve_histogram ok =
    if Array.exists (( = ) "--assert-serve-histogram") Sys.argv && not ok then begin
      Printf.eprintf
        "FAIL: serve pause histogram degenerate (need max pause > P50 > 0 at every rate)\n%!";
      exit 1
    end
  in
  let ports_only = Array.exists (( = ) "--ports") Sys.argv in
  let ck_only = Array.exists (( = ) "--cache-kernel") Sys.argv in
  let hw_only = Array.exists (( = ) "--heap-words") Sys.argv in
  let srv_only = Array.exists (( = ) "--serve") Sys.argv in
  if ports_only || ck_only || hw_only || srv_only then begin
    if ports_only then check_port_speedup (run_ports ~json_out ());
    if ck_only then run_cache_kernel ~json_out:ck_json_out ();
    if hw_only then check_heap_speedup (run_heap_words ~json_out:hw_json_out ());
    if srv_only then check_serve_histogram (run_serve ~json_out:srv_json_out ())
  end
  else begin
    run_micro ();
    run_experiments full;
    check_port_speedup (run_ports ~json_out ());
    run_cache_kernel ~json_out:ck_json_out ();
    check_heap_speedup (run_heap_words ~json_out:hw_json_out ());
    check_serve_histogram (run_serve ~json_out:srv_json_out ());
    run_engine jobs
  end
