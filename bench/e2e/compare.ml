(* --compare PARENT CHANGE: one verdict per (workload, end-to-end
   metric) from two files of --json records, with the bounds of
   BENCHMARK.json and the pairing rule of the benchmark's method:
   records of a workload pair up in file order (run the two sides
   alternately), a gain needs nine tenths of the pairs and a median
   shift beyond the parent's quartile spread, and a spread wider than
   the bound leaves the metric unresolved unless every change run
   reads better (or, for a regression, worse) than every parent run. *)

type verdict = Improved | No_worse | Unresolved | Regressed

let verdict_name = function
  | Improved -> "improved"
  | No_worse -> "no worse"
  | Unresolved -> "unresolved"
  | Regressed -> "regressed"

(* [worse x y]: x reads worse than y for this metric. *)
let verdict ~(better : Metric.better) ~bound parent change =
  let worse x y = match better with Metric.Lower -> x > y | Metric.Higher -> x < y in
  let mp = Stats.median parent and mc = Stats.median change in
  let iqr xs = let q1, q3 = Stats.quartiles xs in q3 -. q1 in
  let spread = Float.max (iqr parent /. Float.abs mp) (iqr change /. Float.abs mc) in
  let n = min (List.length parent) (List.length change) in
  let pairs = List.combine (List.filteri (fun i _ -> i < n) parent) (List.filteri (fun i _ -> i < n) change) in
  let wins = List.length (List.filter (fun (p, c) -> worse p c) pairs) in
  let every f = List.for_all (fun c -> List.for_all (fun p -> f c p) parent) change in
  (* Relative change in the "worse" direction: positive is worse. *)
  let rel = (match better with Metric.Lower -> mc -. mp | Metric.Higher -> mp -. mc) /. Float.abs mp in
  if n > 0 && 10 * wins >= 9 * n && rel < 0.0 && Float.abs (mc -. mp) > iqr parent then Improved
  else if rel <= bound then if spread <= bound || every (fun c p -> worse p c) then No_worse else Unresolved
  else if spread <= bound || every worse then Regressed
  else Unresolved

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (if String.trim l = "" then acc else l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* End-to-end bounds: (name, better, bound). *)
let bounds path =
  let j = Json.of_string (String.concat "\n" (read_lines path)) in
  List.map
    (fun m ->
      ( Json.to_str (Json.member "name" m),
        (if Json.to_str (Json.member "better" m) = "higher" then Metric.Higher else Metric.Lower),
        Json.to_num (Json.member "bound" m) ))
    (Json.to_list (Json.member "end_to_end" j))

(* Untraced records: (workload, metrics object), in file order. *)
let records path =
  List.filter_map
    (fun l ->
      let j = Json.of_string l in
      match (Json.member "workload" j, Json.member "trace" j) with
      | Json.Str w, Json.Num 0.0 -> Some (w, Json.member "metrics" j)
      | _ -> None)
    (read_lines path)

let values recs workload metric =
  List.filter_map
    (fun (w, ms) ->
      if w <> workload then None
      else match Json.member "value" (Json.member metric ms) with Json.Num v -> Some v | _ -> None)
    recs

(* Prints the table; true when no pair regressed. *)
let run ~benchmark parent_path change_path =
  let parent = records parent_path and change = records change_path in
  let workloads = List.sort_uniq compare (List.map fst parent @ List.map fst change) in
  Printf.printf "%-16s %-14s %14s %14s %8s %4s  %s\n" "workload" "metric" "parent" "change" "delta" "n"
    "verdict";
  List.fold_left
    (fun ok w ->
      List.fold_left
        (fun ok (metric, better, bound) ->
          match (values parent w metric, values change w metric) with
          | [], _ | _, [] ->
            Printf.printf "%-16s %-14s %14s %14s %8s %4s  missing\n" w metric "-" "-" "-" "-";
            ok
          | p, c ->
            let v = verdict ~better ~bound p c in
            let mp = Stats.median p and mc = Stats.median c in
            Printf.printf "%-16s %-14s %14.6g %14.6g %+7.1f%% %4d  %s\n" w metric mp mc
              (100.0 *. (mc -. mp) /. mp)
              (min (List.length p) (List.length c))
              (verdict_name v);
            ok && v <> Regressed)
        ok (bounds benchmark))
    true workloads
