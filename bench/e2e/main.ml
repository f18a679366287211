(* The benchmark of record. See README.md for the metrics, the
   workloads and how the numbers are attributed. *)

open E2e

let usage =
  "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--chrome FILE]\n\
  \       main.exe --smoke\n\
  \       main.exe --compare PARENT.jsonl CHANGE.jsonl\n"

let die msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 2

let measure ?chrome ctx ~traced w = if traced then Traced.run ?chrome ctx w else Measure.run ctx w

let print_result (r : Metric.result) =
  List.iter (fun m -> print_endline (Metric.line m)) r.metrics;
  Printf.printf "ops_total %d count\nops_failed %d count\n" r.attempted r.failed

let append path json =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (Json.to_string json ^ "\n");
  close_out oc

let smoke seed =
  let t0 = Stats.now_ns () in
  let ctx = { Workload.seed; seconds = 0.0; smoke = true } in
  let failed =
    List.fold_left
      (fun acc w ->
        List.fold_left
          (fun acc traced ->
            Printf.printf "# smoke %s trace %d\n" w.Workload.name (Bool.to_int traced);
            let r = measure ctx ~traced (Workload.smoke w) in
            print_result r;
            acc + r.failed)
          acc [ false; true ])
      0 Workload.all
  in
  Printf.printf "# smoke: %d failed checks, %.1f s\n" failed (Stats.secs (Stats.now_ns () - t0));
  exit (if failed = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref Workload.pinned_seed and seconds = ref 15.0 in
  let trace = ref 0 and json = ref "" and chrome = ref "" and smoke_only = ref false in
  let compare_files = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME figset, count-lusearch, sim-lusearch or par2-xalan");
      ("--seed", Arg.Set_int seed, "N input seed (default 11, the seed of the figure fixtures)");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 with 1, the traced run: per-layer metrics");
      ("--traced", Arg.Unit (fun () -> trace := 1), " same as --trace 1");
      ("--json", Arg.Set_string json, "FILE append the full record to FILE, one JSON line");
      ("--chrome", Arg.Set_string chrome, "FILE write the traced run's spans as Chrome trace events");
      ("--smoke", Arg.Set smoke_only, " every workload, untraced and traced, at tiny size");
      ( "--compare",
        Arg.Tuple
          [
            Arg.String (fun f -> compare_files := [ f ]);
            Arg.String (fun f -> compare_files := !compare_files @ [ f ]);
          ],
        "PARENT CHANGE compare two files of --json records, using BENCHMARK.json's bounds" );
    ]
  in
  Arg.parse spec (fun a -> die ("unexpected argument " ^ a)) usage;
  match !compare_files with
  | [ parent; change ] -> exit (if Compare.run ~benchmark:"BENCHMARK.json" parent change then 0 else 1)
  | _ ->
    if !smoke_only then smoke !seed;
    let w =
      match Workload.find !workload with
      | Some w -> w
      | None -> die (Printf.sprintf "unknown workload %S" !workload)
    in
    if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
    if !seconds < 0.0 then die "--seconds must not be negative";
    let traced = !trace = 1 in
    let ctx = { Workload.seed = !seed; seconds = !seconds; smoke = false } in
    Printf.printf "# workload %s seed %d trace %d\n" w.name !seed !trace;
    let chrome = if !chrome = "" then None else Some !chrome in
    let r = measure ?chrome ctx ~traced w in
    print_result r;
    if !json <> "" then
      append !json (Metric.record ~workload:w.name ~seed:!seed ~traced ~host:(Pipeline.host ()) r);
    print_endline (Json.to_string (Metric.result_json r));
    exit (if r.failed = 0 then 0 else 1)
