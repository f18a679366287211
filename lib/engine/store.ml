open Kg_util
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
(* Minimal JSON: exactly what our own writer emits. Floats never
   appear as JSON numbers — they are quoted "%h" hex literals, the
   only representation that survives a text round trip bit-exactly
   (including infinities, which matter for death stamps). *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let buf_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
    Buffer.add_char b '"';
    buf_escape b s;
    Buffer.add_char b '"'
  | Arr l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        write b v)
      l;
    Buffer.add_char b ']'
  | Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        write b (Str k);
        Buffer.add_char b ':';
        write b v)
      l;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 4096 in
  write b j;
  Buffer.contents b

exception Malformed of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else fail "unexpected end" in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\n' || s.[!pos] = '\r') do
      incr pos
    done
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected %C" c) in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code =
            try int_of_string ("0x" ^ String.sub s !pos 4)
            with Failure _ -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else fail "non-ASCII \\u escape"
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then (advance (); Obj [])
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | ',' -> advance (); members ()
          | '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        members ();
        Obj (List.rev !fields)
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then (advance (); Arr [])
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | ',' -> advance (); elements ()
          | ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        elements ();
        Arr (List.rev !items)
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      if peek () = '-' then advance ();
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = start then fail "expected a value";
      Int (int_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* accessors *)
let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> raise (Malformed ("missing field " ^ k)))
  | _ -> raise (Malformed ("not an object looking up " ^ k))

let to_int = function Int i -> i | _ -> raise (Malformed "expected int")
let to_str = function Str s -> s | _ -> raise (Malformed "expected string")
let to_bool = function Bool b -> b | _ -> raise (Malformed "expected bool")
let to_arr = function Arr l -> l | _ -> raise (Malformed "expected array")

let float_j f = Str (Printf.sprintf "%h" f)

let to_float = function
  | Str s -> (
    match float_of_string_opt s with
    | Some f -> f
    | None -> raise (Malformed ("bad float " ^ s)))
  | _ -> raise (Malformed "expected float string")

let opt_j f = function None -> Null | Some v -> f v
let to_opt f = function Null -> None | v -> Some (f v)

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
      ("observer_mb", opt_j (fun m -> Int m) s.R.observer_mb);
      ("write_threshold", Int s.R.write_threshold);
      ("pcm_write_trigger_mb", opt_j (fun m -> Int m) s.R.pcm_write_trigger_mb);
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

let stats_j (st : GS.t) =
  Obj
    [
      ("app_writes_nursery", Int st.GS.app_writes_nursery);
      ("app_writes_observer", Int st.GS.app_writes_observer);
      ("app_writes_mature", Int st.GS.app_writes_mature);
      ("app_write_bytes_dram", Int st.GS.app_write_bytes_dram);
      ("app_write_bytes_pcm", Int st.GS.app_write_bytes_pcm);
      ("ref_writes", Int st.GS.ref_writes);
      ("prim_writes", Int st.GS.prim_writes);
      ("reads", Int st.GS.reads);
      ("gen_remset_inserts", Int st.GS.gen_remset_inserts);
      ("obs_remset_inserts", Int st.GS.obs_remset_inserts);
      ("monitor_header_writes", Int st.GS.monitor_header_writes);
      ("barrier_fast_paths", Int st.GS.barrier_fast_paths);
      ("nursery_gcs", Int st.GS.nursery_gcs);
      ("observer_gcs", Int st.GS.observer_gcs);
      ("major_gcs", Int st.GS.major_gcs);
      ("copied_bytes_nursery", Int st.GS.copied_bytes_nursery);
      ("copied_bytes_observer", Int st.GS.copied_bytes_observer);
      ("copied_bytes_major", Int st.GS.copied_bytes_major);
      ("remset_slot_updates", Int st.GS.remset_slot_updates);
      ("mark_header_writes", Int st.GS.mark_header_writes);
      ("mark_table_writes", Int st.GS.mark_table_writes);
      ("scanned_objects", Int st.GS.scanned_objects);
      ("nursery_alloc_bytes", Int st.GS.nursery_alloc_bytes);
      ("nursery_survived_bytes", Int st.GS.nursery_survived_bytes);
      ("observer_in_bytes", Int st.GS.observer_in_bytes);
      ("observer_survived_bytes", Int st.GS.observer_survived_bytes);
      ("observer_to_dram_bytes", Int st.GS.observer_to_dram_bytes);
      ("observer_to_pcm_bytes", Int st.GS.observer_to_pcm_bytes);
      ("large_allocs", Int st.GS.large_allocs);
      ("large_allocs_in_nursery", Int st.GS.large_allocs_in_nursery);
      ("mature_moves_to_dram", Int st.GS.mature_moves_to_dram);
      ("mature_moves_to_pcm", Int st.GS.mature_moves_to_pcm);
      ("los_moves_to_dram", Int st.GS.los_moves_to_dram);
      ("retired_mature_writes", zero_runs_j st.GS.retired_mature_writes);
      ( "collection_log",
        Arr
          (Array.to_list
             (Array.map
                (fun (p, c, s) -> Arr [ Int (Kg_gc.Phase.to_tag p); Int c; Int s ])
                (Vec.to_array st.GS.collection_log))) );
    ]

let stats_of_j j =
  let st = GS.create () in
  let i k = to_int (member k j) in
  st.GS.app_writes_nursery <- i "app_writes_nursery";
  st.GS.app_writes_observer <- i "app_writes_observer";
  st.GS.app_writes_mature <- i "app_writes_mature";
  st.GS.app_write_bytes_dram <- i "app_write_bytes_dram";
  st.GS.app_write_bytes_pcm <- i "app_write_bytes_pcm";
  st.GS.ref_writes <- i "ref_writes";
  st.GS.prim_writes <- i "prim_writes";
  st.GS.reads <- i "reads";
  st.GS.gen_remset_inserts <- i "gen_remset_inserts";
  st.GS.obs_remset_inserts <- i "obs_remset_inserts";
  st.GS.monitor_header_writes <- i "monitor_header_writes";
  st.GS.barrier_fast_paths <- i "barrier_fast_paths";
  st.GS.nursery_gcs <- i "nursery_gcs";
  st.GS.observer_gcs <- i "observer_gcs";
  st.GS.major_gcs <- i "major_gcs";
  st.GS.copied_bytes_nursery <- i "copied_bytes_nursery";
  st.GS.copied_bytes_observer <- i "copied_bytes_observer";
  st.GS.copied_bytes_major <- i "copied_bytes_major";
  st.GS.remset_slot_updates <- i "remset_slot_updates";
  st.GS.mark_header_writes <- i "mark_header_writes";
  st.GS.mark_table_writes <- i "mark_table_writes";
  st.GS.scanned_objects <- i "scanned_objects";
  st.GS.nursery_alloc_bytes <- i "nursery_alloc_bytes";
  st.GS.nursery_survived_bytes <- i "nursery_survived_bytes";
  st.GS.observer_in_bytes <- i "observer_in_bytes";
  st.GS.observer_survived_bytes <- i "observer_survived_bytes";
  st.GS.observer_to_dram_bytes <- i "observer_to_dram_bytes";
  st.GS.observer_to_pcm_bytes <- i "observer_to_pcm_bytes";
  st.GS.large_allocs <- i "large_allocs";
  st.GS.large_allocs_in_nursery <- i "large_allocs_in_nursery";
  st.GS.mature_moves_to_dram <- i "mature_moves_to_dram";
  st.GS.mature_moves_to_pcm <- i "mature_moves_to_pcm";
  st.GS.los_moves_to_dram <- i "los_moves_to_dram";
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
      ("app_ns", float_j p.T.app_ns);
      ("gc_ns", float_j p.T.gc_ns);
      ("remset_ns", float_j p.T.remset_ns);
      ("monitor_ns", float_j p.T.monitor_ns);
      ("mem_base_ns", float_j p.T.mem_base_ns);
      ("mem_pcm_extra_ns", float_j p.T.mem_pcm_extra_ns);
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
      ("cpu_j", float_j e.En.cpu_j);
      ("static_dram_j", float_j e.En.static_dram_j);
      ("static_pcm_j", float_j e.En.static_pcm_j);
      ("dynamic_j", float_j e.En.dynamic_j);
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
      ("unit_value", float_j (H.unit_value h));
      ("sub", Int (H.sub h));
      ("octaves", Int (H.octaves h));
      ("max_value", float_j (H.max_value h));
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
      ("rate", float_j s.R.rate);
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
      ("mem_pcm_write_bytes", float_j r.R.mem_pcm_write_bytes);
      ("mem_dram_write_bytes", float_j r.R.mem_dram_write_bytes);
      ("mem_pcm_read_bytes", float_j r.R.mem_pcm_read_bytes);
      ("mem_dram_read_bytes", float_j r.R.mem_dram_read_bytes);
      ( "pcm_writes_by_phase",
        Arr (Array.to_list (Array.map float_j r.R.pcm_writes_by_phase)) );
      ("wear_cov", float_j r.R.wear_cov);
      ("migration_pcm_bytes", float_j r.R.migration_pcm_bytes);
      ("wp_dram_mb", float_j r.R.wp_dram_mb);
      ("time_parts", parts_j r.R.time_parts);
      ("time_s", float_j r.R.time_s);
      ("energy", opt_j energy_j r.R.energy);
      ("edp", float_j r.R.edp);
      ("dram_avg_mb", float_j r.R.dram_avg_mb);
      ("dram_max_mb", float_j r.R.dram_max_mb);
      ("pcm_avg_mb", float_j r.R.pcm_avg_mb);
      ("pcm_max_mb", float_j r.R.pcm_max_mb);
      ("mature_dram_avg_mb", float_j r.R.mature_dram_avg_mb);
      ("meta_mb", float_j r.R.meta_mb);
      ( "trace",
        Arr
          (List.map
             (fun (clock, pcm, dram) -> Arr [ float_j clock; float_j pcm; float_j dram ])
             r.R.trace) );
      ("check_violations", Arr (List.map (fun v -> Str v) r.R.check_violations));
      ("serve", opt_j serve_j r.R.serve);
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
  match parse line with
  | j -> ( try result_of_j j with Malformed m -> failwith ("Store.of_json: " ^ m))
  | exception Malformed m -> failwith ("Store.of_json: " ^ m)

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
