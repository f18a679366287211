(* Regenerate any or all of the paper's tables and figures.

   The run matrix behind the selected experiments is resolved by
   Kg_engine: misses are scheduled across --jobs worker domains and
   published to the persistent store under results/.cache/, so a rerun
   (same options, any pool width) is served from disk. Tables go to
   stdout; engine narration and the final hit/miss summary go to
   stderr so table output stays byte-identical across runs. *)

open Cmdliner
module E = Kg_sim.Experiments

let doc = "Regenerate the paper's tables and figures"
let ids = List.map (fun (e : E.experiment) -> e.E.id) E.all

let run_experiments list_only names quick scale heap_scale cap_mb seed csv out_dir jobs
    no_cache cache_dir progress =
  let base = if quick then E.quick_opts else E.default_opts in
  let opts =
    {
      E.scale = Option.value scale ~default:base.E.scale;
      heap_scale = Option.value heap_scale ~default:base.E.heap_scale;
      cap_mb = Option.value cap_mb ~default:base.E.cap_mb;
      seed;
    }
  in
  if list_only then begin
    (* Job counts and cache-key prefixes are functions of the options,
       so --list honours --quick/--scale/... like a real run would. *)
    let lcp a b =
      let n = min (String.length a) (String.length b) in
      let i = ref 0 in
      while !i < n && a.[!i] = b.[!i] do incr i done;
      String.sub a 0 !i
    in
    List.iter
      (fun (e : E.experiment) ->
        let jobs = e.E.runs opts in
        Printf.printf "%-18s %3d jobs  %s\n" e.E.id (List.length jobs) e.E.doc;
        match List.map (fun j -> Kg_engine.Store.key ~opts j) jobs with
        | [] -> ()
        | first :: rest ->
          Printf.printf "%-18s %9s  key: %s...\n" "" "" (List.fold_left lcp first rest))
      E.all;
    exit 0
  end;
  let selected =
    match names with
    | [] -> E.all
    | names ->
      List.filter_map
        (fun n ->
          match List.find_opt (fun (e : E.experiment) -> e.E.id = n) E.all with
          | Some e -> Some e
          | None ->
            Printf.eprintf "unknown experiment %S (known: %s)\n" n (String.concat ", " ids);
            exit 1)
        names
  in
  let progress =
    match progress with
    | Some m -> Kg_engine.Progress.create m
    | None ->
      (* default: narrate on an interactive stderr, stay quiet in logs *)
      Kg_engine.Progress.create
        (if jobs > 1 && Unix.isatty Unix.stderr then Kg_engine.Progress.Tty
         else Kg_engine.Progress.Quiet)
  in
  let ex =
    Kg_engine.Exec.create ~jobs ~cache:(not no_cache) ?cache_dir ~progress opts
  in
  let env = Kg_engine.Exec.env ex in
  (* Resolve every selected experiment's runs up front — in
     parallel when jobs > 1 — so the sequential renderers below only
     read memoised results. *)
  Kg_engine.Exec.prefetch_experiments ex (List.map (fun (e : E.experiment) -> e.E.id) selected);
  Option.iter Kg_engine.Store.mkdir_p out_dir;
  List.iter
    (fun (e : E.experiment) ->
      Printf.printf "== %s — %s ==\n%!" e.E.id e.E.doc;
      let t0 = Unix.gettimeofday () in
      let table = e.E.table env in
      let rendered = if csv then Kg_util.Table.to_csv table else Kg_util.Table.render table in
      print_string rendered;
      print_newline ();
      Printf.eprintf "%s: %.1f s\n%!" e.E.id (Unix.gettimeofday () -. t0);
      Option.iter
        (fun d ->
          let oc = open_out (Filename.concat d (e.E.id ^ if csv then ".csv" else ".txt")) in
          output_string oc rendered;
          close_out oc)
        out_dir)
    selected;
  Printf.eprintf "%s\n%!" (Kg_engine.Exec.summary ex);
  Kg_engine.Exec.shutdown ex;
  0

let names_arg =
  let doc = "Experiments to run (default: all). Ids: " ^ String.concat ", " ids ^ "." in
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let list_arg =
  let doc = "List experiment ids and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let quick_arg =
  let doc = "Use small quick-run parameters (for smoke testing)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let scale_arg =
  Arg.(value & opt (some Run_opts.positive) None & info [ "scale" ] ~doc:"Allocation scale divisor.")

let heap_arg =
  Arg.(value & opt (some Run_opts.positive) None & info [ "heap-scale" ] ~doc:"Live-heap scale divisor.")

let cap_arg =
  Arg.(value & opt (some Run_opts.non_negative) None & info [ "cap-mb" ] ~doc:"Run length cap (MB).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")
let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned tables.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc:"Also write each table to DIR.")

let jobs_arg =
  let doc = "Resolve the run matrix on this many worker domains." in
  Arg.(value & opt Run_opts.positive 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc = "Do not read or write the persistent result store." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_dir_arg =
  let doc =
    Printf.sprintf "Persistent result store location (default %s)."
      Kg_engine.Store.default_dir
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let progress_arg =
  let parse s =
    match Kg_engine.Progress.mode_of_string s with
    | Ok m -> Ok (Some m)
    | Error e -> Error (`Msg e)
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "auto"
    | Some Kg_engine.Progress.Quiet -> Format.pp_print_string ppf "quiet"
    | Some Kg_engine.Progress.Log -> Format.pp_print_string ppf "log"
    | Some Kg_engine.Progress.Tty -> Format.pp_print_string ppf "tty"
  in
  let mode_conv = Arg.conv (parse, print) in
  let doc =
    Printf.sprintf "Engine progress on stderr: %s (default: tty when interactive and jobs > 1)."
      Kg_engine.Progress.mode_names
  in
  Arg.(value & opt mode_conv None & info [ "progress" ] ~docv:"MODE" ~doc)

let term =
  Term.(
    const run_experiments $ list_arg $ names_arg $ quick_arg $ scale_arg $ heap_arg $ cap_arg
    $ seed_arg $ csv_arg $ out_arg $ jobs_arg $ no_cache_arg $ cache_dir_arg $ progress_arg)
