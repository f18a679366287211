open Kg_util
open Json
module E = Kg_sim.Experiments
module R = Kg_sim.Run
module GS = Kg_gc.Gc_stats

(* v2: multicore mutator domains — threaded runs now simulate real
   domain interleavings (per-domain nurseries, ports, sharded mature
   allocation), so cached threaded results from v1 are stale.
   v3: serve-mode results carry request counters and pause/latency
   histograms in a new [serve] field.
   v4: [retired_mature_writes] is zero-run encoded (see [zero_runs_j]). *)
let format_version = 4
let default_dir = Filename.concat "results" ".cache"

type t = { dir : string }

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let create ?(dir = default_dir) () =
  mkdir_p dir;
  { dir }

let dir t = t.dir
let key ~opts j = Printf.sprintf "v%d;%s" format_version (E.job_key opts j)
let path t k = Filename.concat t.dir (Digest.to_hex (Digest.string k) ^ ".json")

(* ------------------------------------------------------------------ *)
(* Run.spec *)

let system_j = function
  | Kg_sim.Machine.Dram_only -> Str "dram"
  | Kg_sim.Machine.Pcm_only -> Str "pcm"
  | Kg_sim.Machine.Hybrid -> Str "hybrid"

let system_of_j j =
  match to_str j with
  | "dram" -> Kg_sim.Machine.Dram_only
  | "pcm" -> Kg_sim.Machine.Pcm_only
  | "hybrid" -> Kg_sim.Machine.Hybrid
  | s -> raise (Malformed ("unknown system " ^ s))

let collector_j = function
  | Kg_gc.Gc_config.Gen_immix -> Obj [ ("kind", Str "genimmix") ]
  | Kg_gc.Gc_config.Kg_nursery -> Obj [ ("kind", Str "kgn") ]
  | Kg_gc.Gc_config.Kg_writers { loo; mdo; pm } ->
    Obj [ ("kind", Str "kgw"); ("loo", Bool loo); ("mdo", Bool mdo); ("pm", Bool pm) ]

let collector_of_j j =
  match to_str (member "kind" j) with
  | "genimmix" -> Kg_gc.Gc_config.Gen_immix
  | "kgn" -> Kg_gc.Gc_config.Kg_nursery
  | "kgw" ->
    Kg_gc.Gc_config.Kg_writers
      {
        loo = to_bool (member "loo" j);
        mdo = to_bool (member "mdo" j);
        pm = to_bool (member "pm" j);
      }
  | s -> raise (Malformed ("unknown collector " ^ s))

let spec_j (s : R.spec) =
  Obj
    [
      ("system", system_j s.R.system);
      ("collector", collector_j s.R.collector);
      ("nursery_mb", Int s.R.nursery_mb);
      ("wp", Bool s.R.wp);
      ("observer_mb", opt (fun m -> Int m) s.R.observer_mb);
      ("write_threshold", Int s.R.write_threshold);
      ("pcm_write_trigger_mb", opt (fun m -> Int m) s.R.pcm_write_trigger_mb);
    ]

let spec_of_j j =
  {
    R.system = system_of_j (member "system" j);
    collector = collector_of_j (member "collector" j);
    nursery_mb = to_int (member "nursery_mb" j);
    wp = to_bool (member "wp" j);
    observer_mb = to_opt to_int (member "observer_mb" j);
    write_threshold = to_int (member "write_threshold" j);
    pcm_write_trigger_mb = to_opt to_int (member "pcm_write_trigger_mb" j);
  }

(* ------------------------------------------------------------------ *)
(* Gc_stats *)

(* Write counts of retired mature objects, one per object. Most are
   zero — a few objects take most of the writes (the paper's Figure
   2) — so a maximal run of k zeros is stored as the single element
   -k; every other count (never negative) stands for itself. *)
let zero_runs_j v =
  let out = ref [] and zeros = ref 0 in
  let flush () =
    if !zeros > 0 then begin
      out := Int (- !zeros) :: !out;
      zeros := 0
    end
  in
  Vec.iter
    (fun w ->
      if w = 0 then incr zeros
      else begin
        flush ();
        out := Int w :: !out
      end)
    v;
  flush ();
  Arr (List.rev !out)

let push_zero_runs v j =
  List.iter
    (fun e ->
      let w = to_int e in
      if w >= 0 then Vec.push v w
      else
        for _ = 1 to -w do
          Vec.push v 0
        done)
    (to_arr j)

(* The counters in [GS.counters] order, then the two log vectors. *)
let stats_j (st : GS.t) =
  Obj
    (List.map (fun (k, get, _) -> (k, Int (get st))) GS.counters
    @ [
        ("retired_mature_writes", zero_runs_j st.GS.retired_mature_writes);
        ( "collection_log",
          Arr
            (Array.to_list
               (Array.map
                  (fun (p, c, s) -> Arr [ Int (Kg_gc.Phase.to_tag p); Int c; Int s ])
                  (Vec.to_array st.GS.collection_log))) );
      ])

let stats_of_j j =
  let st = GS.create () in
  List.iter (fun (k, _, set) -> set st (to_int (member k j))) GS.counters;
  push_zero_runs st.GS.retired_mature_writes (member "retired_mature_writes" j);
  List.iter
    (fun e ->
      match to_arr e with
      | [ p; c; s ] ->
        Vec.push st.GS.collection_log (Kg_gc.Phase.of_tag (to_int p), to_int c, to_int s)
      | _ -> raise (Malformed "bad collection_log entry"))
    (to_arr (member "collection_log" j));
  st

(* ------------------------------------------------------------------ *)
(* Run.result *)

let parts_j (p : Kg_sim.Time_model.parts) =
  let module T = Kg_sim.Time_model in
  Obj
    [
      ("app_ns", float p.T.app_ns);
      ("gc_ns", float p.T.gc_ns);
      ("remset_ns", float p.T.remset_ns);
      ("monitor_ns", float p.T.monitor_ns);
      ("mem_base_ns", float p.T.mem_base_ns);
      ("mem_pcm_extra_ns", float p.T.mem_pcm_extra_ns);
    ]

let parts_of_j j =
  let f k = to_float (member k j) in
  {
    Kg_sim.Time_model.app_ns = f "app_ns";
    gc_ns = f "gc_ns";
    remset_ns = f "remset_ns";
    monitor_ns = f "monitor_ns";
    mem_base_ns = f "mem_base_ns";
    mem_pcm_extra_ns = f "mem_pcm_extra_ns";
  }

let energy_j (e : Kg_sim.Energy.t) =
  let module En = Kg_sim.Energy in
  Obj
    [
      ("cpu_j", float e.En.cpu_j);
      ("static_dram_j", float e.En.static_dram_j);
      ("static_pcm_j", float e.En.static_pcm_j);
      ("dynamic_j", float e.En.dynamic_j);
    ]

let energy_of_j j =
  let f k = to_float (member k j) in
  {
    Kg_sim.Energy.cpu_j = f "cpu_j";
    static_dram_j = f "static_dram_j";
    static_pcm_j = f "static_pcm_j";
    dynamic_j = f "dynamic_j";
  }

let hist_j h =
  let module H = Kg_util.Hdr_histogram in
  Obj
    [
      ("unit_value", float (H.unit_value h));
      ("sub", Int (H.sub h));
      ("octaves", Int (H.octaves h));
      ("max_value", float (H.max_value h));
      ( "bins",
        Arr (List.map (fun (bin, count) -> Arr [ Int bin; Int count ]) (H.nonzero h)) );
    ]

let hist_of_j j =
  let module H = Kg_util.Hdr_histogram in
  H.restore ~unit_value:(to_float (member "unit_value" j))
    ~sub:(to_int (member "sub" j))
    ~octaves:(to_int (member "octaves" j))
    ~max_value:(to_float (member "max_value" j))
    (List.map
       (fun e ->
         match to_arr e with
         | [ bin; count ] -> (to_int bin, to_int count)
         | _ -> raise (Malformed "bad histogram bin"))
       (to_arr (member "bins" j)))

let serve_j (s : R.serve_metrics) =
  Obj
    [
      ("requests", Int s.R.requests);
      ("rate", float s.R.rate);
      ("t1_hits", Int s.R.t1_hits);
      ("t2_hits", Int s.R.t2_hits);
      ("backend_fills", Int s.R.backend_fills);
      ("sessions_churned", Int s.R.sessions_churned);
      ("pause_hist", hist_j s.R.pause_hist);
      ("latency_hist", hist_j s.R.latency_hist);
    ]

let serve_of_j j =
  {
    R.requests = to_int (member "requests" j);
    rate = to_float (member "rate" j);
    t1_hits = to_int (member "t1_hits" j);
    t2_hits = to_int (member "t2_hits" j);
    backend_fills = to_int (member "backend_fills" j);
    sessions_churned = to_int (member "sessions_churned" j);
    pause_hist = hist_of_j (member "pause_hist" j);
    latency_hist = hist_of_j (member "latency_hist" j);
  }

let result_j (r : R.result) =
  Obj
    [
      ("bench", Str r.R.bench.Kg_workload.Descriptor.name);
      ("spec", spec_j r.R.spec);
      ("stats", stats_j r.R.stats);
      ("alloc_bytes", Int r.R.alloc_bytes);
      ("mem_pcm_write_bytes", float r.R.mem_pcm_write_bytes);
      ("mem_dram_write_bytes", float r.R.mem_dram_write_bytes);
      ("mem_pcm_read_bytes", float r.R.mem_pcm_read_bytes);
      ("mem_dram_read_bytes", float r.R.mem_dram_read_bytes);
      ( "pcm_writes_by_phase",
        Arr (Array.to_list (Array.map float r.R.pcm_writes_by_phase)) );
      ("wear_cov", float r.R.wear_cov);
      ("migration_pcm_bytes", float r.R.migration_pcm_bytes);
      ("wp_dram_mb", float r.R.wp_dram_mb);
      ("time_parts", parts_j r.R.time_parts);
      ("time_s", float r.R.time_s);
      ("energy", opt energy_j r.R.energy);
      ("edp", float r.R.edp);
      ("dram_avg_mb", float r.R.dram_avg_mb);
      ("dram_max_mb", float r.R.dram_max_mb);
      ("pcm_avg_mb", float r.R.pcm_avg_mb);
      ("pcm_max_mb", float r.R.pcm_max_mb);
      ("mature_dram_avg_mb", float r.R.mature_dram_avg_mb);
      ("meta_mb", float r.R.meta_mb);
      ( "trace",
        Arr
          (List.map
             (fun (clock, pcm, dram) -> Arr [ float clock; float pcm; float dram ])
             r.R.trace) );
      ("check_violations", Arr (List.map (fun v -> Str v) r.R.check_violations));
      ("serve", opt serve_j r.R.serve);
    ]

let result_of_j j =
  let f k = to_float (member k j) in
  let bench_name = to_str (member "bench" j) in
  let bench =
    match Kg_workload.Descriptor.find bench_name with
    | b -> b
    | exception Not_found -> raise (Malformed ("unknown benchmark " ^ bench_name))
  in
  {
    R.bench = bench;
    spec = spec_of_j (member "spec" j);
    stats = stats_of_j (member "stats" j);
    alloc_bytes = to_int (member "alloc_bytes" j);
    mem_pcm_write_bytes = f "mem_pcm_write_bytes";
    mem_dram_write_bytes = f "mem_dram_write_bytes";
    mem_pcm_read_bytes = f "mem_pcm_read_bytes";
    mem_dram_read_bytes = f "mem_dram_read_bytes";
    pcm_writes_by_phase =
      Array.of_list (List.map to_float (to_arr (member "pcm_writes_by_phase" j)));
    wear_cov = f "wear_cov";
    migration_pcm_bytes = f "migration_pcm_bytes";
    wp_dram_mb = f "wp_dram_mb";
    time_parts = parts_of_j (member "time_parts" j);
    time_s = f "time_s";
    energy = to_opt energy_of_j (member "energy" j);
    edp = f "edp";
    dram_avg_mb = f "dram_avg_mb";
    dram_max_mb = f "dram_max_mb";
    pcm_avg_mb = f "pcm_avg_mb";
    pcm_max_mb = f "pcm_max_mb";
    mature_dram_avg_mb = f "mature_dram_avg_mb";
    meta_mb = f "meta_mb";
    trace =
      List.map
        (fun e ->
          match to_arr e with
          | [ clock; pcm; dram ] -> (to_float clock, to_float pcm, to_float dram)
          | _ -> raise (Malformed "bad trace entry"))
        (to_arr (member "trace" j));
    check_violations = List.map to_str (to_arr (member "check_violations" j));
    serve = to_opt serve_of_j (member "serve" j);
  }

let to_json r = to_string (result_j r)

let of_json line =
  try result_of_j (parse line) with Malformed m -> failwith ("Store.of_json: " ^ m)

(* ------------------------------------------------------------------ *)
(* Files *)

let header_j k =
  to_string
    (Obj [ ("store", Str "kingsguard-result"); ("v", Int format_version); ("key", Str k) ])

(* The temp name is unique per write, not per process: two domains
   storing the same key must not share (and rename away) one file. *)
let store t k r =
  let file = path t k in
  let tmp, oc =
    Filename.open_temp_file ~perms:0o666 ~temp_dir:t.dir (Filename.basename file ^ ".tmp.") ""
  in
  (try
     output_string oc (header_j k);
     output_char oc '\n';
     output_string oc (to_json r);
     output_char oc '\n';
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp file

let find t k =
  let file = path t k in
  if not (Sys.file_exists file) then None
  else begin
    let entry =
      try
        In_channel.with_open_text file (fun ic ->
            match (In_channel.input_line ic, In_channel.input_line ic) with
            | Some header, Some payload ->
              let h = parse header in
              if to_str (member "store" h) <> "kingsguard-result" then
                raise (Malformed "not a result entry");
              if to_int (member "v" h) <> format_version then
                raise (Malformed "format version mismatch");
              if to_str (member "key" h) <> k then raise (Malformed "key collision");
              Some (of_json payload)
            | _ -> raise (Malformed "truncated entry"))
      with _ -> None
    in
    (* Invalid entries (old format, corruption, hash collision) are a
       recompute, never a crash — and we drop them so the next pass
       writes a clean one. *)
    if entry = None then (try Sys.remove file with Sys_error _ -> ());
    entry
  end
