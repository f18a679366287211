(* Every metric the benchmark reports. BENCHMARK.json lists the same
   names, units and directions; the test keeps the two in step. *)

type better = Lower | Higher
(* [Info] metrics are printed and recorded but bound nothing: they
   are too input-dependent to gate a change (see README.md). *)
type kind = End_to_end | Layer | Info
type def = { name : string; unit : string; better : better; kind : kind }

let e n u b = { name = n; unit = u; better = b; kind = End_to_end }
let l n u b = { name = n; unit = u; better = b; kind = Layer }
let i n u b = { name = n; unit = u; better = b; kind = Info }

(* The runtime calls the mutators make (they never call read_obj). *)
let runtime_ops = [ "alloc"; "write_ref"; "write_prim"; "read_burst" ]
let spec_names = [ "pcm_only"; "kg_w"; "wp" ]

let all =
  [
    e "batch_s" "s" Lower;
    e "ns_per_byte" "ns/B" Lower;
    e "setup_s" "s" Lower;
    i "peak_rss_mb" "MB" Lower;
    l "mutator.gen_s" "s" Lower;
    l "epoch.domain_overhead_s" "s" Lower;
    l "par2.cpu_over_wall" "ratio" Higher;
  ]
  @ List.concat_map
      (fun op -> [ l ("runtime." ^ op ^ ".s") "s" Lower; l ("runtime." ^ op ^ ".calls") "count" Lower ])
      runtime_ops
  @ [
      l "gc.s" "s" Lower;
      l "gc.count" "count" Lower;
      l "gc_par.team_overhead_s" "s" Lower;
      l "sink.counting.s" "s" Lower;
      l "sink.counting.records" "count" Lower;
      l "sink.cache_sim.s" "s" Lower;
      l "sink.cache_sim.records" "count" Lower;
      l "sink.cache_sim.batches" "count" Lower;
      l "cache.drain_s" "s" Lower;
      l "sink.wp.s" "s" Lower;
      l "sink.wp.records" "count" Lower;
      l "wp.migrations" "count" Lower;
      l "setup.machine_s" "s" Lower;
      l "setup.runtime_s" "s" Lower;
      l "setup.boot_s" "s" Lower;
      l "store.write_s" "s" Lower;
      l "store.read_s" "s" Lower;
      l "store.bytes" "B" Lower;
      l "store.entries" "count" Lower;
      l "engine.compute_s" "s" Lower;
      l "engine.run.p50_s" "s" Lower;
      l "engine.run.p90_s" "s" Lower;
      l "pool.busy_frac" "ratio" Higher;
      l "pool.idle_s" "s" Lower;
      l "render_s" "s" Lower;
      l "figset.warm_s" "s" Lower;
    ]
  @ List.map (fun s -> l ("ns_per_byte." ^ s) "ns/B" Lower) spec_names
  @ [ l "trace.overhead_s" "s" Lower; l "replay.lookup_s" "s" Lower; l "replay.other_s" "s" Lower ]

let of_kind k = List.filter (fun d -> d.kind = k) all

let find name =
  match List.find_opt (fun d -> d.name = name) all with
  | Some d -> d
  | None -> invalid_arg ("Metric.find: undeclared metric " ^ name)

(* [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long. *)
let valid_name s =
  let ok c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64 && String.for_all ok s && s.[0] <> '_' && s.[0] <> '.' && s.[0] <> '-'

(* One measured result: every metric of one kind, by name. *)
type result = {
  attempted : int;
  failed : int;
  metrics : (string * Stats.summary) list;
}

let line (name, (s : Stats.summary)) =
  let d = find name in
  let spread =
    if s.n <= 1 then ""
    else
      Printf.sprintf " n=%d q1=%.6g q3=%.6g%s" s.n s.q1 s.q3
        (match s.tail with Some (p, v) -> Printf.sprintf " p%d=%.6g" p v | None -> "")
  in
  Printf.sprintf "%s %.6g %s%s" name s.value d.unit (if s.n <= 1 then " n=1" else spread)

(* The result line, printed last on standard output: exactly these
   four keys, and the run's end-to-end or per-layer metrics. *)
let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, (s : Stats.summary)) ->
               (name, Json.Obj [ ("value", Json.Num s.value); ("unit", Json.Str (find name).unit) ]))
             (List.filter (fun (name, _) -> (find name).kind <> Info) r.metrics)) );
    ]

(* The full record appended by --json: spreads, sample counts, host. *)
let record ~workload ~seed ~traced ~host r =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("trace", Json.Num (if traced then 1.0 else 0.0));
      ("host", host);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, (s : Stats.summary)) ->
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Num s.value);
                     ("unit", Json.Str (find name).unit);
                     ("n", Json.Num (float_of_int s.n));
                     ("q1", Json.Num s.q1);
                     ("q3", Json.Num s.q3);
                   ] ))
             r.metrics) );
    ]
