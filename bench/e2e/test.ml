(* Tests of the benchmark itself: its statistics, its metric names
   against BENCHMARK.json, its JSON output, and a smoke pass of every
   workload, untraced and traced, at tiny size. *)

open E2e

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let close a b = Float.abs (a -. b) < 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_stats () =
  expect "median, odd n" (Stats.median [ 3.; 1.; 2. ] = 2.);
  expect "median, even n" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  expect "median, one sample" (Stats.median [ 7. ] = 7.);
  (* The values Python's statistics.quantiles(xs, n=4) gives. *)
  List.iter
    (fun (xs, e1, e3) ->
      let q1, q3 = Stats.quartiles xs in
      expect (Printf.sprintf "quartiles, n=%d" (List.length xs)) (close q1 e1 && close q3 e3))
    [
      ([ 5. ], 5., 5.);
      ([ 1.; 2. ], 0.75, 2.25);
      ([ 1.; 2.; 3.; 4. ], 1.25, 3.75);
      ([ 2.; 9.; 4.; 7.; 1. ], 1.5, 8.);
      (range 10, 2.75, 8.25);
    ];
  expect "no tail percentile below 11 samples" (Stats.tail (range 10) = None);
  expect "tail percentile at n=11" (Stats.tail (range 11) = Some (9, 1.));
  expect "tail percentile at n=20" (Stats.tail (range 20) = Some (50, 10.));
  expect "tail percentile at n=177"
    (match Stats.tail (range 177) with Some (94, v) -> 177. -. v >= 10. | _ -> false);
  expect "nearest-rank p90" (Stats.percentile (range 10) 90 = 9.)

let test_names () =
  List.iter
    (fun (d : Metric.def) -> expect ("valid metric name " ^ d.name) (Metric.valid_name d.name))
    Metric.all;
  List.iter
    (fun s -> expect ("invalid metric name " ^ s) (not (Metric.valid_name s)))
    [ ""; "a b"; "_x"; ".x"; "x/y"; String.make 65 'a' ];
  let names = List.map (fun (d : Metric.def) -> d.name) Metric.all in
  expect "metric names are unique" (List.length (List.sort_uniq compare names) = List.length names)

(* BENCHMARK.json declares exactly the registry's metrics and workloads. *)
let test_benchmark_json () =
  let ic = open_in "../../BENCHMARK.json" in
  let j = Json.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let declared key =
    List.map
      (fun m ->
        ( Json.to_str (Json.member "name" m),
          Json.to_str (Json.member "unit" m),
          Json.to_str (Json.member "better" m) ))
      (Json.to_list (Json.member key j))
  in
  let registry kind =
    List.map
      (fun (d : Metric.def) ->
        (d.name, d.unit, match d.better with Metric.Lower -> "lower" | Metric.Higher -> "higher"))
      (Metric.of_kind kind)
  in
  expect "end_to_end matches the registry" (declared "end_to_end" = registry Metric.End_to_end);
  expect "per_layer matches the registry" (declared "per_layer" = registry Metric.Layer);
  expect "workloads match"
    (List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" j))
    = List.map (fun (w : Workload.t) -> w.name) Workload.all)

let test_json () =
  let r =
    {
      Metric.attempted = 3;
      failed = 0;
      metrics =
        [
          ("batch_s", Stats.summarize [ 1.5; 2.25; 3.125 ]);
          ("setup_s", Stats.single 1e-5);
          ("peak_rss_mb", Stats.single 30.0);
        ];
    }
  in
  let line = Json.to_string (Metric.result_json r) in
  expect "result line is one line" (not (String.contains line '\n'));
  (match Json.of_string line with
  | Json.Obj kvs ->
    expect "result line keys" (List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ]);
    let metrics = Json.member "metrics" (Json.Obj kvs) in
    expect "result line values"
      (Json.member "correct" (Json.Obj kvs) = Json.Bool true
      && Json.to_num (Json.member "value" (Json.member "setup_s" metrics)) = 1e-5);
    expect "result line leaves out info metrics" (Json.member "peak_rss_mb" metrics = Json.Null)
  | _ -> expect "result line is an object" false);
  let rec_ = Metric.record ~workload:"figset" ~seed:11 ~traced:false ~host:(Pipeline.host ()) r in
  expect "record round-trips" (Json.of_string (Json.to_string rec_) = rec_);
  expect "escapes round-trip"
    (Json.of_string (Json.to_string (Json.Str "a\"b\\c\nd")) = Json.Str "a\"b\\c\nd");
  expect "malformed JSON is refused"
    (match Json.of_string "{\"a\": 1," with exception Failure _ -> true | _ -> false)

let test_compare () =
  let parent = [ 10.0; 10.1; 9.9; 10.0; 10.05; 9.95; 10.0; 10.1; 9.9; 10.0 ] in
  let scaled k = List.map (fun x -> x *. k) parent in
  let v ?(better = Metric.Lower) ?(bound = 0.1) c = Compare.verdict ~better ~bound parent c in
  expect "compare: faster everywhere is improved" (v (scaled 0.8) = Compare.Improved);
  expect "compare: the same runs are no worse" (v parent = Compare.No_worse);
  expect "compare: 30 % slower is regressed" (v (scaled 1.3) = Compare.Regressed);
  expect "compare: direction follows 'better'" (v ~better:Metric.Higher (scaled 1.3) = Compare.Improved);
  expect "compare: spread wider than the bound is unresolved"
    (v ~bound:0.01 (List.mapi (fun i x -> if i mod 2 = 0 then x *. 0.97 else x *. 1.04) parent)
    = Compare.Unresolved)

let sum_layers metrics prefixes =
  List.fold_left
    (fun a (name, (s : Stats.summary)) ->
      if List.exists (fun p -> String.starts_with ~prefix:p name) prefixes
         && (String.ends_with ~suffix:".s" name || String.ends_with ~suffix:"_s" name)
      then a +. s.value
      else a)
    0.0 metrics

let test_smoke () =
  let t0 = Stats.now_ns () in
  let ctx = { Workload.seed = 7; seconds = 0.0; smoke = true } in
  List.iter
    (fun w ->
      let w = Workload.smoke w in
      let name = w.Workload.name in
      let r = Measure.run ctx w in
      expect (name ^ ": checks ran") (r.attempted > 0);
      expect (name ^ ": no check failed") (r.failed = 0);
      expect (name ^ ": every end-to-end and info metric, positive")
        (List.map fst r.metrics
         = List.map
             (fun (d : Metric.def) -> d.name)
             (Metric.of_kind Metric.End_to_end @ Metric.of_kind Metric.Info)
        && List.for_all (fun (_, (s : Stats.summary)) -> s.value > 0.0) r.metrics);
      let t = Traced.run ctx w in
      expect (name ^ " traced: no check failed") (t.attempted > 0 && t.failed = 0);
      expect (name ^ " traced: every per-layer metric")
        (List.map fst t.metrics = List.map (fun (d : Metric.def) -> d.name) (Metric.of_kind Metric.Layer));
      (* Replayed workloads: the attributed self times cover the timed
         replay to within 10 %. *)
      if name = "count-lusearch" || name = "sim-lusearch" then begin
        let attributed = sum_layers t.metrics [ "runtime."; "gc."; "sink."; "cache.drain" ] in
        let other = (List.assoc "replay.other_s" t.metrics).value in
        expect (name ^ " traced: attribution within 10 %") (other <= 0.1 *. (attributed +. other))
      end)
    Workload.all;
  Printf.printf "smoke pass: %.1f s\n" (Stats.secs (Stats.now_ns () - t0))

let () =
  test_stats ();
  test_names ();
  test_benchmark_json ();
  test_json ();
  test_compare ();
  test_smoke ();
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
