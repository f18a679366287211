(* Kernel benchmarks: each case times the simulator's kernel against a
   baseline kept here, the design the kernel replaced, on one fixed
   synthetic input, and reports operations per second.

   - ports: one access stream through the batched port's Null,
     Counting and Cache_sim sink stacks, and through a per-access
     closure-record interface shaped like the port's predecessor.
   - cache-kernel: the cache-sim stack, closure vs port, on three
     stream shapes (a uniform random storm, sequential streaming
     writes, an L1-resident hot set). The streaming and hot streams are
     where the batch path's same-line run coalescer and lookahead
     prefetch pay off; the random storm is bound by host-memory latency
     on the simulator's own L2/L3 metadata and moves little.
   - heap-words: the packed Bigarray object tables against the
     record-per-object store they replaced, on three kernels shaped
     like the simulator's hot loops (store build, mark/sweep metadata
     sweeps, and a liveness-filtered walk feeding the counting port).

   Usage: main.exe [CASE...] [--json DIR] [--assert]

   No CASE runs all three. --json DIR writes each case's ops/s table
   to DIR/BENCH_<table>.json (the BENCH_*.json files in the repo are
   checked-in points of these tables). --assert exits 1 if a gated
   speedup falls below its floor; see [cases]. *)

module Port = Kg_mem.Port
module Json = Kg_util.Json

(* ------------------------------------------------------------------ *)
(* ports: batched port vs per-access closure dispatch                  *)

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
  Kg_cache.Hierarchy.create ~controller:ctrl ()

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

let closure_cache_sim s () = drive_closure (closure_cache (fresh_hier ())) s
let port_cache_sim s () = drive_port (Kg_gc.Mem_iface.of_hierarchy (fresh_hier ())) s

let ports_kernels n =
  let s = make_stream n in
  let map = Kg_mem.Address_map.hybrid () in
  [
    ("closure/counting", fun () -> drive_closure (closure_counting map) s);
    ("port/null", fun () -> drive_port (Port.create ~sink:Port.Null ()) s);
    ("port/counting", fun () -> drive_port (fst (Kg_gc.Mem_iface.counting ~map)) s);
    ("closure/cache-sim", closure_cache_sim s);
    ("port/cache-sim", port_cache_sim s);
  ]

(* ------------------------------------------------------------------ *)
(* cache-kernel: fused cache kernel on characteristic access streams   *)

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

let cache_kernel_kernels n =
  List.concat_map
    (fun (sname, s) ->
      [ (sname ^ "/closure", closure_cache_sim s); (sname ^ "/port", port_cache_sim s) ])
    [ ("random", make_stream n); ("seq-stream", stream_seq n); ("hot-set", stream_hot n) ]

(* ------------------------------------------------------------------ *)
(* heap-words: flat-word heap vs record object store                   *)

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
  let w = O.create () in
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
  let len = O.length w in
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
  let len = O.length w in
  for o = 1 to len do
    if O.is_live w o now then Port.write port ~addr:(O.addr w o) ~size:(O.size w o)
  done;
  Port.flush port

let heap_words_kernels n =
  let pop = make_pop n in
  let rs = build_record pop and ws = build_words pop in
  let now = 5.0e5 in
  let map = Kg_mem.Address_map.hybrid () in
  let sink = ref 0 in
  [
    ("record/build", fun () -> ignore (build_record pop));
    ("words/build", fun () -> ignore (build_words pop));
    ("record/mark-sweep", fun () -> sink := !sink + mark_sweep_record rs now);
    ("words/mark-sweep", fun () -> sink := !sink + mark_sweep_words ws now);
    ("record/counting", fun () -> count_record rs (fst (Kg_gc.Mem_iface.counting ~map)) now);
    ("words/counting", fun () -> count_words ws (fst (Kg_gc.Mem_iface.counting ~map)) now);
  ]

(* ------------------------------------------------------------------ *)
(* The case table                                                      *)

type case = {
  name : string;  (** command-line name *)
  table : string;  (** JSON file stem and "bench" field *)
  unit : string;  (** what one operation is *)
  n : int;  (** operations per kernel call *)
  repeats : int;
  kernels : int -> (string * (unit -> unit)) list;
      (** builds the input for [n] operations; the kernels in timing order *)
  speedups : (string * string * string) list;  (** label, kernel, its baseline *)
  floor : (string * float) option;  (** the speedup [--assert] gates, and its minimum *)
}

(* The floors guard against real regressions, not wind. ports' is
   0.95x, not 1.0x: on the random storm both cache-sim stacks are bound
   by host-memory latency on simulator metadata and sit within a few
   percent of each other, about the run-to-run noise on shared CI
   hardware, while the pre-kernel port dispatch this guards against
   measured ~0.93x. heap-words' demands a real win: the packed tables
   beat the record store by construction (no per-object pointer chase,
   no boxed death float), so a fall below 1.1x on the counting kernel,
   the one closest to the simulator's hot loops, means the accessor
   packing regressed. *)
let cases =
  [
    {
      name = "ports";
      table = "port_sinks";
      unit = "accesses";
      n = 100_000;
      repeats = 5;
      kernels = ports_kernels;
      speedups =
        [
          ("counting", "port/counting", "closure/counting");
          ("cache-sim", "port/cache-sim", "closure/cache-sim");
        ];
      floor = Some ("cache-sim", 0.95);
    };
    {
      name = "cache-kernel";
      table = "cache_kernel";
      unit = "accesses";
      n = 200_000;
      repeats = 5;
      kernels = cache_kernel_kernels;
      speedups =
        List.map
          (fun s -> (s, s ^ "/port", s ^ "/closure"))
          [ "random"; "seq-stream"; "hot-set" ];
      floor = None;
    };
    {
      name = "heap-words";
      table = "heap_words";
      unit = "objects";
      n = 200_000;
      repeats = 10;
      kernels = heap_words_kernels;
      speedups =
        [
          ("build", "words/build", "record/build");
          ("mark-sweep", "words/mark-sweep", "record/mark-sweep");
          ("counting", "words/counting", "record/counting");
        ];
      floor = Some ("counting", 1.1);
    };
  ]

(* Times every kernel of a case (one warmup call, then [repeats]) and
   returns its ops/s table and speedups. *)
let run c =
  Printf.printf "\n== %s (%d %s x%d) ==\n%!" c.name c.n c.unit c.repeats;
  let ops =
    List.map
      (fun (name, f) ->
        f ();
        let t0 = Unix.gettimeofday () in
        for _ = 1 to c.repeats do
          f ()
        done;
        let per_s = float_of_int (c.n * c.repeats) /. (Unix.gettimeofday () -. t0) in
        Printf.printf "  %-28s %12.0f %s/s\n%!" name per_s c.unit;
        (name, per_s))
      (c.kernels c.n)
  in
  let speedups =
    List.map
      (fun (label, k, base) ->
        let su = List.assoc k ops /. List.assoc base ops in
        Printf.printf "  speedup %-20s %11.2fx\n%!" label su;
        (label, su))
      c.speedups
  in
  (ops, speedups)

let write_json dir c ops =
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" c.table) in
  let j =
    Json.(
      Obj
        [
          ("bench", Str c.table);
          ("unit", Str c.unit);
          ("n", Int c.n);
          ("repeats", Int c.repeats);
          ("ops_per_sec", Obj (List.map (fun (k, v) -> (k, Int (int_of_float v))) ops));
        ])
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n');
  Printf.printf "  wrote %s\n%!" path

let usage () =
  Printf.eprintf "usage: main.exe [%s]... [--json DIR] [--assert]\n"
    (String.concat "|" (List.map (fun c -> c.name) cases));
  exit 2

let () =
  let rec parse names json check = function
    | [] -> (List.rev names, json, check)
    | "--json" :: dir :: rest -> parse names (Some dir) check rest
    | "--assert" :: rest -> parse names json true rest
    | name :: rest when List.exists (fun c -> c.name = name) cases ->
      parse (name :: names) json check rest
    | _ -> usage ()
  in
  let names, json, check = parse [] None false (List.tl (Array.to_list Sys.argv)) in
  let selected = List.filter (fun c -> names = [] || List.mem c.name names) cases in
  let failed = ref false in
  List.iter
    (fun c ->
      let ops, speedups = run c in
      Option.iter (fun dir -> write_json dir c ops) json;
      Option.iter
        (fun (label, min) ->
          let su = List.assoc label speedups in
          if check && su < min then begin
            Printf.eprintf "FAIL: %s %s speedup is %.3fx (floor %.2fx)\n%!" c.name label su min;
            failed := true
          end)
        c.floor)
    selected;
  if !failed then exit 1
