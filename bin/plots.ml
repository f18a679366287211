(* kingsguard-plots: turn the CSV tables written by
   `kingsguard experiments --csv --out DIR` into SVG charts.

     dune exec bin/plots.exe -- results-csv plots *)

let strip_suffix s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then s
  else
    match s.[n - 1] with 'x' | '%' -> String.sub s 0 (n - 1) | _ -> s

let cell_value s = float_of_string_opt (strip_suffix s)

let split_csv line =
  (* our tables never emit quoted cells containing commas except free
     prose columns, which are non-numeric and ignored anyway *)
  String.split_on_char ',' line

let read_csv path =
  let lines =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> None
  | header :: rows -> Some (split_csv header, List.map split_csv rows)

(* Keep the columns where every row parses as a number. *)
let numeric_columns header rows =
  let ncols = List.length header in
  let is_numeric ci =
    ci > 0
    && List.for_all
         (fun row -> match List.nth_opt row ci with Some c -> cell_value c <> None | None -> false)
         rows
  in
  List.filteri (fun ci _ -> is_numeric ci) (List.mapi (fun i h -> (i, h)) header)
  |> fun cols -> if List.length cols > 0 && ncols > 1 then cols else []

let plot_bar name header rows out =
  match numeric_columns header rows with
  | [] -> false
  | cols ->
    let categories = List.map (fun row -> List.nth row 0) rows in
    let series =
      List.map
        (fun (ci, h) ->
          ( h,
            Array.of_list
              (List.map (fun row -> Option.value (cell_value (List.nth row ci)) ~default:0.0) rows)
          ))
        cols
    in
    let svg = Kg_util.Svg_chart.bar_chart ~title:name ~categories ~series () in
    Out_channel.with_open_text out (fun oc -> output_string oc svg);
    true

let plot_fig13 header rows out =
  (* Benchmark, Alloc (MB), PCM (MB), DRAM (MB) -> one line per
     (benchmark, device) *)
  ignore header;
  let groups = Hashtbl.create 4 in
  List.iter
    (fun row ->
      match row with
      | [ bench; alloc; pcm; dram ] -> (
        match (cell_value alloc, cell_value pcm, cell_value dram) with
        | Some a, Some p, Some d ->
          let cur = Option.value (Hashtbl.find_opt groups bench) ~default:[] in
          Hashtbl.replace groups bench ((a, p, d) :: cur)
        | _ -> ())
      | _ -> ())
    rows;
  let series =
    Hashtbl.fold
      (fun bench pts acc ->
        let pts = List.rev pts in
        (bench ^ " PCM", Array.of_list (List.map (fun (a, p, _) -> (a, p)) pts))
        :: (bench ^ " DRAM", Array.of_list (List.map (fun (a, _, d) -> (a, d)) pts))
        :: acc)
      groups []
  in
  let svg =
    Kg_util.Svg_chart.line_chart ~title:"fig13: heap composition" ~xlabel:"MB allocated"
      ~ylabel:"MB resident" ~series ()
  in
  Out_channel.with_open_text out (fun oc -> output_string oc svg);
  true

let () =
  let src = if Array.length Sys.argv > 1 then Sys.argv.(1) else "results-csv" in
  let dst = if Array.length Sys.argv > 2 then Sys.argv.(2) else "plots" in
  if not (Sys.file_exists src && Sys.is_directory src) then begin
    Printf.eprintf
      "no directory %S; generate it with: kingsguard experiments --csv --out %s\n" src src;
    exit 1
  end;
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
  let plotted = ref 0 in
  Sys.readdir src |> Array.to_list |> List.sort compare
  |> List.iter (fun file ->
         if Filename.check_suffix file ".csv" then begin
           let name = Filename.chop_suffix file ".csv" in
           match read_csv (Filename.concat src file) with
           | None -> ()
           | Some (header, rows) ->
             let out = Filename.concat dst (name ^ ".svg") in
             let ok =
               if name = "fig13" then plot_fig13 header rows out
               else plot_bar name header rows out
             in
             if ok then begin
               incr plotted;
               Printf.printf "wrote %s\n" out
             end
             else Printf.printf "skipped %s (no numeric columns)\n" name
         end);
  Printf.printf "%d charts\n" !plotted
