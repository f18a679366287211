open Cmdliner
module R = Kg_sim.Run

let collectors =
  [
    ("dram-only", R.dram_only);
    ("pcm-only", R.pcm_only);
    ("kg-n", R.kg_n);
    ("kg-n-12", R.kg_n_12);
    ("kg-b", R.kg_b);
    ("kg-w", R.kg_w);
    ("kg-w-loo", R.kg_w_no_loo);
    ("kg-w-loo-mdo", R.kg_w_no_loo_mdo);
    ("kg-w-pm", R.kg_w_no_pm);
    ("wp", R.wp);
  ]

let collector =
  let doc =
    Printf.sprintf "Collector / memory system: %s."
      (String.concat "|" (List.map fst collectors))
  in
  Arg.(value & opt (enum collectors) R.kg_w & info [ "c"; "collector" ] ~docv:"COLLECTOR" ~doc)

let simulate =
  let doc = "Run the full cache/memory simulation (slower) instead of barrier-level counting." in
  Arg.(value & flag & info [ "simulate" ] ~doc)

(* WP places pages by the cache writebacks it observes, and a Count-mode
   run simulates no cache: it would run GenImmix on the hybrid map under
   the label WP. *)
let wp_without_simulate spec ~simulate =
  let bad = spec.R.wp && not simulate in
  if bad then
    prerr_endline
      "collector wp needs --simulate: it acts on cache writebacks, which only the cache \
       simulation produces (replay records without it, so use another collector there)";
  bad

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (Printf.sprintf "%S is not a positive integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let scale =
  let doc = "Divide the benchmark's allocation volume by this factor." in
  Arg.(value & opt int 8 & info [ "scale" ] ~doc)

let heap_scale =
  let doc = "Divide the benchmark's live-heap target by this factor." in
  Arg.(value & opt int 3 & info [ "heap-scale" ] ~doc)

let cap_mb =
  let doc = "Cap the run length in MB of allocation." in
  Arg.(value & opt int 256 & info [ "cap-mb" ] ~doc)

let seed =
  let doc = "PRNG seed (runs are deterministic given a seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let domains =
  let doc =
    "Simulated mutator domains; above 1 the run executes the deterministic epoch protocol \
     (per-domain op streams merged by the schedule seed), all on one host domain."
  in
  Arg.(value & opt positive 1 & info [ "domains" ] ~docv:"N" ~doc)

let schedule_seed =
  let doc = "Seed for the deterministic merge schedule of multi-domain runs." in
  Arg.(value & opt int 0 & info [ "schedule-seed" ] ~doc)

let parallel_gc =
  let doc =
    "Model collection phases spread over the --domains cores: only the modeled GC time \
     shrinks; every counter and table is that of the one inline collector."
  in
  Arg.(value & flag & info [ "parallel-gc" ] ~doc)
