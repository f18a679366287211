(* The end-to-end measurement: tracing off, batches repeated for the
   requested seconds, medians reported. Every batch runs in its own
   child of a process that has run nothing, so each pays the same
   first-run costs a command-line run pays, and none inherits another's
   heap growth. *)

open Kg_sim
open Workload

(* Repeat [f] until at least [min_reps] samples and [seconds] of wall
   time; return the samples in order. *)
let repeat ~seconds ~min_reps f =
  let t0 = Stats.now_ns () in
  let rec go n acc =
    if n >= min_reps && Stats.secs (Stats.now_ns () - t0) >= seconds then List.rev acc
    else go (n + 1) (f n :: acc)
  in
  go 0 []

let min_reps ctx w = if ctx.smoke then 1 else match w.kind with Figset _ -> 2 | Runs _ -> 3

(* Batch [i] of a run workload runs input [input_seed seed i], so one
   run's median covers several inputs, not one input's quirks. *)
let input_seed seed i = seed + (1_000_003 * i)

let num x = Json.Num x
let field k j = Json.to_num (Json.member k j)

(* One batch of a run workload: its time, peak RSS, and per spec the
   output digest, the work digest and the allocated bytes. *)
type batch = { ns : float; rss_mb : float; outputs : (string * string * float) list }

let runs ctx c w r =
  let setup = setup_samples ctx c (setup_cases w ctx.seed) in
  let setup_s = List.fold_left (fun a xs -> a +. Stats.median xs) 0.0 setup in
  let batch ?oracle i =
    let v =
      in_child c (fun _ ->
          Pipeline.reset_peak_rss ();
          let t0 = Stats.now_ns () in
          let results = List.map (fun (_, spec) -> run ?oracle ~seed:(input_seed ctx.seed i) r spec) r.specs in
          let ns = Stats.now_ns () - t0 in
          Json.Obj
            [
              ("ns", num (float_of_int ns));
              ("rss_mb", num (Pipeline.peak_rss_mb ()));
              ( "outputs",
                Json.Arr
                  (List.map
                     (fun (res : Run.result) ->
                       Json.Arr
                         [
                           Json.Str (Pipeline.digest res);
                           Json.Str (Pipeline.digest ~time_parts:false res);
                           num (float_of_int res.alloc_bytes);
                         ])
                     results) );
            ])
    in
    {
      ns = field "ns" v;
      rss_mb = field "rss_mb" v;
      outputs =
        List.map
          (fun o ->
            match Json.to_list o with
            | [ d; wd; a ] -> (Json.to_str d, Json.to_str wd, Json.to_num a)
            | _ -> failwith "batch: bad output record")
          (Json.to_list (Json.member "outputs" v));
    }
  in
  let batches = repeat ~seconds:ctx.seconds ~min_reps:(min_reps ctx w) (fun i -> batch i) in
  let first = List.hd batches in
  let names = List.map fst r.specs in
  List.iter2 (fun name (d, _, _) -> check_pinned ctx c (w.name ^ "/" ^ name) d) names first.outputs;
  List.iter
    (fun b ->
      List.iter2
        (fun name ((_, _, a0), (_, _, a)) ->
          check c (w.name ^ "/" ^ name ^ ": every batch allocates the same budget") (a = a0))
        names
        (List.combine first.outputs b.outputs))
    (List.tl batches);
  (* The first input again, untimed: same outputs; and for a team run,
     the single-domain oracle does the same work. *)
  let again = batch 0 in
  List.iter2
    (fun name ((d0, _, _), (d, _, _)) ->
      check c (w.name ^ "/" ^ name ^ ": a rerun reproduces the outputs") (d = d0))
    names
    (List.combine first.outputs again.outputs);
  if r.threads > 1 then
    List.iter2
      (fun name ((_, w0, _), (_, wd, _)) ->
        check c (w.name ^ "/" ^ name ^ ": team run equals the oracle run") (wd = w0))
      names
      (List.combine first.outputs (batch ~oracle:true 0).outputs);
  let alloc = List.fold_left (fun a (_, _, x) -> a +. x) 0.0 first.outputs in
  let secs = List.map (fun b -> b.ns *. 1e-9) batches in
  [
    ("batch_s", Stats.summarize secs);
    ("ns_per_byte", Stats.summarize (List.map (fun s -> (s -. setup_s) *. 1e9 /. alloc) secs));
    ("setup_s", setup_summary setup);
    ("peak_rss_mb", Stats.summarize (List.map (fun b -> b.rss_mb) batches));
  ]

let figset ctx c w f =
  let opts = figset_opts f ctx.seed in
  let setup = setup_samples ctx c (setup_cases w ctx.seed) in
  let jobs = figset_jobs f ctx.seed in
  (* One cold pass per child; the first also checks its tables and the
     store round trip with a warm pass. *)
  let cold i =
    in_child c (fun cc ->
        Pipeline.reset_peak_rss ();
        let dir = fresh_store () in
        let ns, tables, ex = pass ~jobs:f.jobs opts f.ids dir in
        let rss = Pipeline.peak_rss_mb () in
        let alloc = List.fold_left (fun a j -> a + (Exec.fetch ex j).Run.alloc_bytes) 0 jobs in
        if i = 0 then begin
          check_first_tables ctx cc f tables;
          let _, warm, wex = pass ~jobs:f.jobs opts f.ids dir in
          check cc "figset: warm pass recomputes nothing" (Exec.misses wex = 0);
          check_tables cc "figset: warm tables equal cold tables" tables warm
        end;
        rm_rf dir;
        Json.Obj
          [
            ("ns", num (float_of_int ns));
            ("rss_mb", num rss);
            ("alloc", num (float_of_int alloc));
            ("tables", Json.Arr (List.map (fun t -> Json.Str (Digest.to_hex (Digest.string t))) tables));
          ])
  in
  let passes = repeat ~seconds:ctx.seconds ~min_reps:(min_reps ctx w) cold in
  let tables p = Json.member "tables" p in
  List.iter
    (fun p -> check c "figset: cold tables equal the first pass's" (tables p = tables (List.hd passes)))
    (List.tl passes);
  let alloc = field "alloc" (List.hd passes) in
  let secs = List.map (fun p -> field "ns" p *. 1e-9) passes in
  [
    ("batch_s", Stats.summarize secs);
    ("ns_per_byte", Stats.summarize (List.map (fun s -> s *. 1e9 /. alloc) secs));
    ("setup_s", setup_summary setup);
    ("peak_rss_mb", Stats.summarize (List.map (field "rss_mb") passes));
  ]

let run ctx w =
  let c = checks () in
  let metrics = match w.kind with Runs r -> runs ctx c w r | Figset f -> figset ctx c w f in
  { Metric.attempted = c.attempted; failed = c.failed; metrics }
