open Kg_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_determinism () =
  let a = Rng.of_seed 7 and b = Rng.of_seed 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.of_seed 1 and b = Rng.of_seed 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  check_bool "different seeds diverge" true (!same < 8)

let test_rng_split_independent () =
  let parent = Rng.of_seed 3 in
  let child = Rng.split parent in
  let c1 = Rng.int child 1000 in
  (* drawing more from the parent must not affect the child's stream *)
  let parent2 = Rng.of_seed 3 in
  let child2 = Rng.split parent2 in
  ignore (Rng.int parent2 10);
  check_int "split streams reproducible" c1 (Rng.int child2 1000)

let test_rng_copy () =
  let a = Rng.of_seed 9 in
  ignore (Rng.int a 5);
  let b = Rng.copy a in
  check_int "copy replays" (Rng.int a 1 lsl 20) (Rng.int b 1 lsl 20)

let test_rng_int_bounds () =
  let r = Rng.of_seed 11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in [0,17)" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound must be positive" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.of_seed 12 in
  for _ = 1 to 500 do
    let v = Rng.int_in r (-3) 4 in
    check_bool "in [-3,4]" true (v >= -3 && v <= 4)
  done

let test_rng_bernoulli_extremes () =
  let r = Rng.of_seed 13 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Rng.bernoulli r 0.0)
  done;
  for _ = 1 to 100 do
    check_bool "p=1 always" true (Rng.bernoulli r 1.0)
  done

let test_rng_exponential_mean () =
  let r = Rng.of_seed 14 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 3.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 3" true (Float.abs (mean -. 3.0) < 0.1)

let test_rng_geometric_mean () =
  let r = Rng.of_seed 15 in
  let n = 50_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric r 0.25
  done;
  (* mean of failures-before-success = (1-p)/p = 3 *)
  let mean = float_of_int !sum /. float_of_int n in
  check_bool "mean near 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_rng_pareto_min () =
  let r = Rng.of_seed 16 in
  for _ = 1 to 1000 do
    check_bool "above xmin" true (Rng.pareto r ~alpha:1.5 ~xmin:10.0 >= 10.0)
  done

let test_rng_zipf_range_and_skew () =
  let r = Rng.of_seed 17 in
  let z = Rng.Zipf.create ~s:1.1 in
  let n = 100 in
  let counts = Array.make n 0 in
  for _ = 1 to 50_000 do
    let k = Rng.Zipf.draw z r ~n in
    check_bool "in range" true (k >= 0 && k < n);
    counts.(k) <- counts.(k) + 1
  done;
  check_bool "rank 0 beats rank 50" true (counts.(0) > counts.(50))

(* Differential against the closure-based three-pow draw it replaced
   (test/reference_zipf.ml): identically seeded generators, a sequence
   of pool sizes that changes between draws (so the sampler's cached
   h(n + 0.5) is both reused and recomputed), the same ranks draw for
   draw, and the same generator state after. Besides the two exponents
   the simulator uses, s = 0 (uniform), s = 1 (the log form) and a
   shallow and a steep exponent cover the other branches. *)
let zipf_matches_reference_qcheck =
  let gen =
    QCheck.Gen.(
      triple (int_bound 1_000_000)
        (oneofl [ 1.1; 1.2; 0.0; 0.5; 1.0; 2.5 ])
        (list_size (int_range 1 200)
           (frequency [ (3, int_range 1 8); (3, int_range 1 5000); (1, return 1) ])))
  in
  QCheck.Test.make ~name:"Zipf.draw equals the three-pow reference" ~count:300
    (QCheck.make gen ~print:(fun (seed, s, ns) ->
         Printf.sprintf "seed %d, s %g, n = [%s]" seed s
           (String.concat "; " (List.map string_of_int ns))))
    (fun (seed, s, ns) ->
      let r = Rng.of_seed seed and st = Random.State.make [| seed |] in
      let z = Rng.Zipf.create ~s in
      List.for_all (fun n -> Rng.Zipf.draw z r ~n = Reference_zipf.zipf st ~n ~s) ns
      && List.init 4 (fun _ -> Rng.bits64 r) = List.init 4 (fun _ -> Random.State.bits64 st))

(* The rejection branch is unreachable at the simulator's exponents:
   every draw over n >= 2 consumes exactly one uniform, so m draws
   leave the generator where m [Rng.float] draws would. *)
let test_rng_zipf_one_uniform_per_draw () =
  List.iter
    (fun s ->
      let r = Rng.of_seed 23 and u = Rng.of_seed 23 in
      let z = Rng.Zipf.create ~s in
      let m = 20_000 in
      for i = 1 to m do
        ignore (Rng.Zipf.draw z r ~n:(2 + (i * 7919 mod 10_000)));
        ignore (Rng.float u 1.0)
      done;
      check_bool (Printf.sprintf "s = %g: same state as %d floats" s m) true
        (List.init 4 (fun _ -> Rng.bits64 r) = List.init 4 (fun _ -> Rng.bits64 u)))
    [ 1.1; 1.2 ]

let test_rng_shuffle_permutation () =
  let r = Rng.of_seed 18 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_mean () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "empty" 0.0 (Stats.mean [||])

let test_stats_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "non-positive" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_stats_stddev () =
  check_float "stddev" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |]);
  check_float "single" 0.0 (Stats.stddev [| 5.0 |])

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Stats.percentile xs 100.0);
  check_float "p50 interpolates" 2.5 (Stats.percentile xs 50.0)

let test_stats_minmax () =
  check_float "min" (-1.0) (Stats.minimum [| 3.0; -1.0; 2.0 |]);
  check_float "max" 3.0 (Stats.maximum [| 3.0; -1.0; 2.0 |])

let test_stats_acc_matches_batch () =
  let r = Rng.of_seed 19 in
  let xs = Array.init 1000 (fun _ -> Rng.float r 100.0) in
  let acc = Stats.Acc.create () in
  Array.iter (Stats.Acc.add acc) xs;
  check_int "count" 1000 (Stats.Acc.count acc);
  check_bool "mean" true (Float.abs (Stats.Acc.mean acc -. Stats.mean xs) < 1e-6);
  check_bool "stddev" true (Float.abs (Stats.Acc.stddev acc -. Stats.stddev xs) < 1e-6);
  check_bool "min" true (Stats.Acc.min acc = Stats.minimum xs);
  check_bool "max" true (Stats.Acc.max acc = Stats.maximum xs)

let test_stats_normalize () =
  Alcotest.(check (array (float 1e-9)))
    "normalize" [| 0.5; 1.0 |]
    (Stats.normalize_to 2.0 [| 1.0; 2.0 |])

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check_int "get" i (Vec.get v i)
  done

let test_vec_bounds () =
  let v = Vec.of_array [| 1; 2 |] in
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: index 2 out of bounds (len 2)")
    (fun () -> ignore (Vec.get v 2))

let test_vec_pop () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check (option int)) "pop" (Some 3) (Vec.pop v);
  check_int "len" 2 (Vec.length v);
  ignore (Vec.pop v);
  ignore (Vec.pop v);
  Alcotest.(check (option int)) "empty pop" None (Vec.pop v)

let test_vec_swap_remove () =
  let v = Vec.of_array [| 10; 20; 30; 40 |] in
  check_int "removed" 20 (Vec.swap_remove v 1);
  check_int "len" 3 (Vec.length v);
  check_int "last moved in" 40 (Vec.get v 1)

let test_vec_truncate_clear () =
  let v = Vec.of_array [| 1; 2; 3; 4 |] in
  Vec.truncate v 2;
  check_int "truncated" 2 (Vec.length v);
  Vec.clear v;
  check_bool "cleared" true (Vec.is_empty v)

let test_vec_filter_in_place () =
  let v = Vec.of_array [| 1; 2; 3; 4; 5; 6 |] in
  Vec.filter_in_place (fun x -> x mod 2 = 0) v;
  Alcotest.(check (array int)) "evens in order" [| 2; 4; 6 |] (Vec.to_array v)

let test_vec_fold_exists_iteri () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  check_int "fold" 6 (Vec.fold ( + ) 0 v);
  check_bool "exists" true (Vec.exists (fun x -> x = 2) v);
  check_bool "not exists" false (Vec.exists (fun x -> x = 9) v);
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  check_int "iteri count" 3 (List.length !acc)

let vec_model_qcheck =
  QCheck.Test.make ~name:"vec behaves like list under push/swap_remove" ~count:300
    QCheck.(list (pair bool small_nat))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun (is_push, x) ->
          if is_push || !model = [] then begin
            Vec.push v x;
            model := !model @ [ x ]
          end
          else begin
            let i = x mod List.length !model in
            let removed = Vec.swap_remove v i in
            let mi = List.nth !model i in
            if removed <> mi then QCheck.Test.fail_report "removed wrong element";
            (* model swap-remove *)
            let arr = Array.of_list !model in
            let last = arr.(Array.length arr - 1) in
            arr.(i) <- last;
            model := Array.to_list (Array.sub arr 0 (Array.length arr - 1))
          end)
        ops;
      Vec.to_array v = Array.of_list !model)

(* ------------------------------------------------------------------ *)
(* Hdr_histogram                                                       *)

module H = Hdr_histogram

let test_hdr_empty () =
  let h = H.create () in
  check_int "count" 0 (H.count h);
  check_float "max" 0.0 (H.max_value h);
  check_float "quantile" 0.0 (H.quantile h 0.5);
  check_float "relative error" (1.0 /. 32.0) (H.relative_error h)

let test_hdr_basics () =
  let h = H.create () in
  List.iter (H.add h) [ 1.0; 2.0; 4.0; 8.0 ];
  H.addn h 100.0 2;
  check_int "count" 6 (H.count h);
  check_float "max exact" 100.0 (H.max_value h);
  check_bool "p50 near 4" true (H.p50 h >= 4.0 && H.p50 h <= 4.0 *. (1.0 +. H.relative_error h));
  check_bool "summary renders" true (String.length (H.summary h) > 0)

let test_hdr_restore_roundtrip () =
  let h = H.create ~unit_value:1e-3 ~sub:16 ~octaves:30 () in
  List.iter (H.add h) [ 0.0001; 0.5; 3.25; 777.0; 1e9 ];
  let h' =
    H.restore ~unit_value:(H.unit_value h) ~sub:(H.sub h) ~octaves:(H.octaves h)
      ~max_value:(H.max_value h) (H.nonzero h)
  in
  check_bool "roundtrip equal" true (H.equal h h')

let test_hdr_merge_mismatch () =
  let a = H.create ~sub:16 () and b = H.create ~sub:32 () in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Hdr_histogram.merge: geometry mismatch") (fun () ->
      ignore (H.merge a b))

(* The documented error bound against an exact nearest-rank oracle:
   exact <= quantile <= exact * (1 + 1/sub), one float rounding each
   side, for samples above unit_value. *)
let hdr_quantile_qcheck =
  QCheck.Test.make ~name:"hdr quantile within bucket error of exact nearest-rank" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_range 2e-3 1e4)) (float_range 0.0 1.0))
    (fun (samples, q) ->
      let h = H.create () in
      List.iter (H.add h) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      let n = Array.length sorted in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let exact = sorted.(rank - 1) in
      let est = H.quantile h q in
      if est < exact *. (1.0 -. 1e-9) then
        QCheck.Test.fail_reportf "quantile %g below exact %g at q=%g" est exact q;
      if est > exact *. (1.0 +. H.relative_error h +. 1e-9) then
        QCheck.Test.fail_reportf "quantile %g above bound for exact %g at q=%g" est exact q;
      true)

let hdr_merge_assoc_qcheck =
  QCheck.Test.make ~name:"hdr merge is associative and commutative" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 60) (float_range 1e-4 1e6))
        (list_of_size Gen.(0 -- 60) (float_range 1e-4 1e6))
        (list_of_size Gen.(0 -- 60) (float_range 1e-4 1e6)))
    (fun (xs, ys, zs) ->
      let mk l =
        let h = H.create () in
        List.iter (H.add h) l;
        h
      in
      let a = mk xs and b = mk ys and c = mk zs in
      let all = mk (xs @ ys @ zs) in
      H.equal (H.merge (H.merge a b) c) (H.merge a (H.merge b c))
      && H.equal (H.merge a b) (H.merge b a)
      && H.equal (H.merge (H.merge a b) c) all)

(* ------------------------------------------------------------------ *)
(* Table and Units                                                     *)

let test_table_render () =
  let t = Table.create ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "xxx"; "y" ];
  Table.add_row t [ "z" ];
  let s = Table.render t in
  check_bool "header present" true (String.length s > 0);
  check_bool "pads short rows" true (String.length (List.nth (String.split_on_char '\n' s) 3) > 0)

let test_table_too_many_cells () =
  let t = Table.create ~columns:[ "a" ] in
  Alcotest.check_raises "too many" (Invalid_argument "Table.add_row: more cells than columns")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_table_csv_quoting () =
  let t = Table.create ~columns:[ "a" ] in
  Table.add_row t [ "he,llo\"x" ];
  let csv = Table.to_csv t in
  check_bool "quoted" true (String.length csv > 0 && String.contains csv '"')

let test_table_cells () =
  Alcotest.(check string) "pct" "81.0%" (Table.cell_pct 0.81);
  Alcotest.(check string) "big float" "123" (Table.cell_f 123.4);
  Alcotest.(check string) "small float" "1.23" (Table.cell_f 1.234)

let test_units () =
  check_int "mib" (1024 * 1024) Units.mib;
  check_int "of_mib" (4 * 1024 * 1024) (Units.bytes_of_mib 4);
  check_float "mib_of_bytes" 4.0 (Units.mib_of_bytes (4 * 1024 * 1024));
  let s = Format.asprintf "%a" Units.pp_bytes (3 * Units.mib) in
  Alcotest.(check string) "pp" "3.0 MiB" s;
  check_float "year" (2.0 ** 25.0) Units.seconds_per_year

(* ------------------------------------------------------------------ *)
(* SVG charts                                                          *)

let test_svg_bar_chart () =
  let svg =
    Svg_chart.bar_chart ~title:"t" ~categories:[ "a"; "b" ]
      ~series:[ ("s1", [| 1.0; 2.0 |]); ("s2", [| 0.5; 0.25 |]) ]
      ()
  in
  check_bool "is svg" true (String.length svg > 100);
  check_bool "has rects" true
    (String.split_on_char '\n' svg |> List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "<rect"));
  check_bool "closes" true
    (let n = String.length svg in String.sub svg (n - 7) 6 = "</svg>")

let test_svg_bar_chart_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Svg_chart.bar_chart: series \"s\" length mismatch") (fun () ->
      ignore (Svg_chart.bar_chart ~title:"t" ~categories:[ "a" ] ~series:[ ("s", [| 1.; 2. |]) ] ()))

let test_svg_line_chart () =
  let svg =
    Svg_chart.line_chart ~title:"trace"
      ~series:[ ("pcm", [| (0.0, 1.0); (10.0, 5.0) |]) ]
      ()
  in
  check_bool "has path" true
    (String.split_on_char '\n' svg |> List.exists (fun l -> String.length l > 5 && String.sub l 0 5 = "<path"))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kg_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "pareto min" `Quick test_rng_pareto_min;
          Alcotest.test_case "zipf range and skew" `Quick test_rng_zipf_range_and_skew;
          Alcotest.test_case "zipf one uniform per draw" `Quick test_rng_zipf_one_uniform_per_draw;
          q zipf_matches_reference_qcheck;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "acc matches batch" `Quick test_stats_acc_matches_batch;
          Alcotest.test_case "normalize" `Quick test_stats_normalize;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "swap_remove" `Quick test_vec_swap_remove;
          Alcotest.test_case "truncate/clear" `Quick test_vec_truncate_clear;
          Alcotest.test_case "filter_in_place" `Quick test_vec_filter_in_place;
          Alcotest.test_case "fold/exists/iteri" `Quick test_vec_fold_exists_iteri;
          q vec_model_qcheck;
        ] );
      ( "hdr_histogram",
        [
          Alcotest.test_case "empty" `Quick test_hdr_empty;
          Alcotest.test_case "basics" `Quick test_hdr_basics;
          Alcotest.test_case "restore roundtrip" `Quick test_hdr_restore_roundtrip;
          Alcotest.test_case "merge geometry mismatch" `Quick test_hdr_merge_mismatch;
          q hdr_quantile_qcheck;
          q hdr_merge_assoc_qcheck;
        ] );
      ( "svg",
        [
          Alcotest.test_case "bar chart" `Quick test_svg_bar_chart;
          Alcotest.test_case "series mismatch" `Quick test_svg_bar_chart_mismatch;
          Alcotest.test_case "line chart" `Quick test_svg_line_chart;
        ] );
      ( "table+units",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "too many cells" `Quick test_table_too_many_cells;
          Alcotest.test_case "csv quoting" `Quick test_table_csv_quoting;
          Alcotest.test_case "cells" `Quick test_table_cells;
          Alcotest.test_case "units" `Quick test_units;
        ] );
    ]
