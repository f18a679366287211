(* The four workloads of the benchmark of record, and what the
   untraced and traced measurements share: output checks, set-up
   timing, figure-set passes over a scratch store. Why each workload
   exists is written in README.md and BENCHMARK.json. *)

open Kg_sim
module E = Experiments
module Exec = Kg_engine.Exec

(* Run workloads: closed batch jobs of back-to-back Run.run calls. *)
type runs = {
  bench : string;
  mode : Run.mode;
  specs : (string * Run.spec) list;  (** named as in the ns_per_byte.<spec> metrics *)
  heap_scale : int;
  cap_mb : int;
  threads : int;
  parallel_gc : bool;
}

(* The figure set: every id regenerated into an empty store by an
   engine with [jobs] pool domains. *)
type figset = { scale : int; fig_heap_scale : int; fig_cap_mb : int; ids : string list; jobs : int }

type kind = Figset of figset | Runs of runs
type t = { name : string; kind : kind }

(* The paper's evaluation set. The ext-* figures are left out: ext-threads
   spawns 4 mutator domains, more than a 2-core host runs, and the
   serve figures' request rate does not yet change GC pressure. *)
let paper_ids =
  [
    "tab1"; "tab2"; "tab3"; "tab4"; "fig1"; "fig2"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
    "fig10"; "fig11"; "fig12"; "fig13";
  ]

let lusearch_runs =
  {
    bench = "lusearch";
    mode = Run.Count;
    specs = [ ("kg_w", Run.kg_w) ];
    heap_scale = 3;
    cap_mb = 12;
    threads = 1;
    parallel_gc = false;
  }

(* Sizes: a run workload's sample is one Run.run, short enough that
   15 s of measurement hold 4 to 15 samples on a 2-core host, so the
   median shrugs off a burst of host noise, and long enough (10-12 MB)
   that every run collects at least once. The figure set runs at 1 MB
   per run (its fixtures use 8 MB), which keeps a cold pass near 10 s. *)
let all =
  [
    {
      name = "figset";
      kind = Figset { scale = 512; fig_heap_scale = 8; fig_cap_mb = 1; ids = paper_ids; jobs = 2 };
    };
    { name = "count-lusearch"; kind = Runs lusearch_runs };
    {
      name = "sim-lusearch";
      kind =
        Runs
          {
            lusearch_runs with
            mode = Run.Simulate;
            specs = [ ("pcm_only", Run.pcm_only); ("kg_w", Run.kg_w); ("wp", Run.wp) ];
            cap_mb = 10;
          };
    };
    {
      name = "par2-xalan";
      kind =
        Runs
          {
            lusearch_runs with
            bench = "xalan";
            heap_scale = 8;
            threads = 2;
            parallel_gc = true;
          };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* One run of a run workload's configuration. *)
let run ?(oracle = false) ?parallel_gc ~seed r spec =
  Run.run ~seed ~scale:1 ~heap_scale:r.heap_scale ~cap_mb:r.cap_mb ~threads:r.threads ~oracle
    ~parallel_gc:(Option.value parallel_gc ~default:r.parallel_gc)
    ~mode:r.mode spec
    (Kg_workload.Descriptor.find r.bench)

(* Tiny sizes for the smoke pass: every code path, a few seconds. *)
let smoke w =
  match w.kind with
  | Figset f -> { w with kind = Figset { f with ids = [ "tab1"; "fig13" ] } }
  | Runs r -> { w with kind = Runs { r with cap_mb = 1 } }

type ctx = { seed : int; seconds : float; smoke : bool }

(* Output digests at seed 11 at the sizes above, recorded at the commit
   that introduced the benchmark. A run whose outputs drift fails. *)
let pinned_seed = 11

let pinned =
  [
    ("figset", "b10165804f68c947c6bebd73278664c9");
    ("count-lusearch/kg_w", "41bb7110ed0ffa30adf1fab5b0fc395b");
    ("sim-lusearch/pcm_only", "5a26c00e674b383e02204d36daca11fa");
    ("sim-lusearch/kg_w", "cc75a31957cd1549da1d8c0fa68fa4c8");
    ("sim-lusearch/wp", "fbca8b341faf993c936620c2f52aaacd");
    ("par2-xalan/kg_w", "4a71b4bf6842c4e7d77d2eedb0f03818");
  ]

(* ------------------------------------------------------------------ *)
(* Output checks: each is one attempted operation. *)

type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let check c what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* [in_child c f] runs [f] in a forked copy of this process and returns
   the JSON value it returns; the checks it makes count in [c]. OCaml
   5.1 refuses to fork once a domain has been spawned, so all work that
   may spawn one (several mutator domains, the figure set's pool) runs
   in children and this process never does. A child also starts from
   the parent's small heap and throws its own away, so one batch's heap
   growth never carries into the next, and its peak RSS is its own. *)
let in_child c f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let cc = checks () in
    let code =
      match f cc with
      | v ->
        let oc = Unix.out_channel_of_descr wr in
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("attempted", Json.Num (float_of_int cc.attempted));
                  ("failed", Json.Num (float_of_int cc.failed));
                  ("value", v);
                ]));
        close_out oc;
        0
      | exception e ->
        Printf.eprintf "measurement failed: %s\n" (Printexc.to_string e);
        2
    in
    flush_all ();
    Unix._exit code
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let out = In_channel.input_all ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 ->
      let j = Json.of_string out in
      c.attempted <- c.attempted + int_of_float (Json.to_num (Json.member "attempted" j));
      c.failed <- c.failed + int_of_float (Json.to_num (Json.member "failed" j));
      Json.member "value" j
    | _ -> failwith "a measurement process failed")

(* Prints the digest and, at the pinned seed and full size, checks it. *)
let check_pinned ctx c key digest =
  Printf.printf "# digest %s %s\n" key digest;
  if ctx.seed = pinned_seed && not ctx.smoke then
    match List.assoc_opt key pinned with
    | Some d -> check c (key ^ ": digest pinned for seed 11") (d = digest)
    | None -> check c (key ^ ": no pinned digest") false

(* ------------------------------------------------------------------ *)
(* Set-up: Run.run with no allocation budget builds the memory system,
   the runtime and the boot image, and returns. *)

let setup_reps ctx = if ctx.smoke then 3 else 11

type setup_case = {
  s_mode : Run.mode;
  s_spec : Run.spec;
  s_bench : Kg_workload.Descriptor.t;
  s_heap_scale : int;
  s_threads : int;
  s_parallel_gc : bool;
}

let figset_opts f seed = { E.scale = f.scale; heap_scale = f.fig_heap_scale; cap_mb = f.fig_cap_mb; seed }

let figset_jobs f seed =
  let o = figset_opts f seed in
  let seen = Hashtbl.create 256 in
  List.concat_map (fun id -> (List.find (fun (e : E.experiment) -> e.id = id) E.all).runs o) f.ids
  |> List.filter (fun j ->
         let k = E.job_key o j in
         if Hashtbl.mem seen k then false else (Hashtbl.add seen k (); true))

(* A run workload sets up each of its specs; the figure set sets up
   each distinct configuration its jobs use, on lusearch. *)
let setup_cases w seed =
  match w.kind with
  | Runs r ->
    List.map
      (fun (_, spec) ->
        {
          s_mode = r.mode;
          s_spec = spec;
          s_bench = Kg_workload.Descriptor.find r.bench;
          s_heap_scale = r.heap_scale;
          s_threads = r.threads;
          s_parallel_gc = r.parallel_gc;
        })
      r.specs
  | Figset f ->
    let bench = Kg_workload.Descriptor.find "lusearch" in
    List.sort_uniq compare
      (List.map
         (fun (j : E.job) ->
           {
             s_mode = j.mode;
             s_spec = j.spec;
             s_bench = bench;
             s_heap_scale = f.fig_heap_scale;
             s_threads = j.threads;
             s_parallel_gc = j.parallel_gc;
           })
         (figset_jobs f seed))

let time_ns f =
  let t0 = Stats.now_ns () in
  let r = f () in
  (Stats.now_ns () - t0, r)

(* [setup_reps] set-up times per case, in seconds, one list per case,
   measured in one child. *)
let setup_samples ctx c cases =
  in_child c (fun _ ->
      Json.Arr
        (List.map
           (fun s ->
             Json.Arr
               (List.init (setup_reps ctx) (fun _ ->
                    Json.Num
                      (Stats.secs
                         (fst
                            (time_ns (fun () ->
                                 Run.run ~seed:ctx.seed ~scale:1 ~heap_scale:s.s_heap_scale ~cap_mb:0
                                   ~threads:s.s_threads ~parallel_gc:s.s_parallel_gc ~mode:s.s_mode
                                   s.s_spec s.s_bench)))))))
           cases))
  |> Json.to_list
  |> List.map (fun xs -> List.map Json.to_num (Json.to_list xs))

(* setup_s: per repetition, the sum over cases; its median is reported. *)
let setup_summary samples =
  Stats.summarize
    (List.fold_left (List.map2 ( +. )) (List.map (fun _ -> 0.0) (List.hd samples)) samples)

(* ------------------------------------------------------------------ *)
(* Figure-set passes over scratch stores inside the checkout. *)

let tmp_root = Filename.concat "bench" (Filename.concat "e2e" "_tmp")

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let fresh_store =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Filename.concat tmp_root (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !n) in
    rm_rf d;
    mkdir_p d;
    d

let render_all env ids = List.map (fun id -> Kg_util.Table.render (E.run_by_name env id)) ids

(* Resolve every id through a fresh engine over [dir] and render the
   tables: a cold pass when the store is empty, a warm one when full.
   The engine is shut down before returning. *)
let pass ~jobs opts ids dir =
  let t0 = Stats.now_ns () in
  let ex = Exec.create ~jobs ~cache_dir:dir opts in
  Exec.prefetch_experiments ex ids;
  let tables = render_all (Exec.env ex) ids in
  Exec.shutdown ex;
  (Stats.now_ns () - t0, tables, ex)

let fixture_dir = Filename.concat "test" (Filename.concat "fixtures" "pre_refactor")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* The first cold pass's checks: the static tables match their
   fixtures (they depend on no option), and at the pinned seed the
   whole set matches its digest. *)
let check_first_tables ctx c f tables =
  if not ctx.smoke then
    List.iter2
      (fun id table ->
        if id = "tab1" || id = "tab2" then
          let path = Filename.concat fixture_dir (id ^ ".txt") in
          check c (id ^ ": equal to " ^ path) (Sys.file_exists path && read_file path = table))
      f.ids tables;
  check_pinned ctx c "figset" (Digest.to_hex (Digest.string (String.concat "" tables)))

let check_tables c what expected got =
  List.iter2 (fun e g -> check c what (e = g)) expected got
