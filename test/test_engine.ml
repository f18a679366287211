(* Engine tests: the domain pool, the persistent result store, and the
   headline determinism guarantee — the full figure set resolved on a
   multi-domain pool (cold and warm store) is field-for-field and
   byte-for-byte identical to a sequential uncached resolution.

   The determinism suite runs the complete experiment registry but at a
   tiny workload setting so `dune runtest` stays fast; set
   KG_ENGINE_OPTS=quick (CI does) to run it at the quick_opts scale the
   issue describes. *)

module E = Kg_sim.Experiments
module R = Kg_sim.Run
module D = Kg_workload.Descriptor
module GS = Kg_gc.Gc_stats
module Pool = Kg_engine.Pool
module Store = Kg_engine.Store
module Exec = Kg_engine.Exec

let check_int msg = Alcotest.(check int) msg
let check_bool msg = Alcotest.(check bool) msg
let check_str msg = Alcotest.(check string) msg

let quick_mode = Sys.getenv_opt "KG_ENGINE_OPTS" = Some "quick"

let engine_opts =
  if quick_mode then E.quick_opts
  else { E.scale = 512; heap_scale = 8; cap_mb = 8; seed = 11 }

(* Cold-resolving the full matrix on a pool is dominated by domain-GC
   contention on small CI boxes, so the default (tiny) configuration
   uses a 2-wide cold pool; quick mode uses the full 4. The warm pass
   always runs 4-wide — store hits make it cheap at any width. *)
let cold_jobs = if quick_mode then 4 else 2

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kg-engine-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (* Store.create mkdir-p's it *)
    d

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_values () =
  List.iter
    (fun jobs ->
      let p = Pool.create ~jobs in
      let vals = Pool.run_all p (List.init 20 (fun i () -> i * i)) in
      check_bool
        (Printf.sprintf "jobs=%d: values in submission order" jobs)
        true
        (vals = List.init 20 (fun i -> i * i));
      let tot = Pool.totals p in
      check_int (Printf.sprintf "jobs=%d: submitted" jobs) 20 tot.Pool.submitted;
      check_int (Printf.sprintf "jobs=%d: completed" jobs) 20 tot.Pool.completed;
      check_int (Printf.sprintf "jobs=%d: failed" jobs) 0 tot.Pool.failed;
      Pool.shutdown p)
    [ 1; 3 ]

let test_pool_cancel () =
  (* inline pool: deterministic — the failure settles before the next
     submission, so every later job is discarded as Cancelled *)
  let p = Pool.create ~jobs:1 in
  let ran = ref 0 in
  let fs =
    (fun () -> incr ran)
    :: (fun () -> failwith "boom")
    :: List.init 5 (fun _ () -> incr ran)
  in
  (try
     ignore (Pool.run_all p fs);
     Alcotest.fail "run_all should re-raise"
   with Failure m -> check_str "original error, not Cancelled" "boom" m);
  check_int "jobs after the failure never ran" 1 !ran;
  let tot = Pool.totals p in
  check_int "one failure" 1 tot.Pool.failed;
  check_int "rest cancelled" 5 tot.Pool.cancelled;
  Pool.shutdown p;
  (* parallel pool: whatever the interleaving, run_all re-raises the
     real error, never Cancelled; its workers hold the domain budget
     until shutdown *)
  let before = Kg_util.Domain_budget.claimed () in
  let p = Pool.create ~jobs:4 in
  check_int "workers claimed" (before + 4) (Kg_util.Domain_budget.claimed ());
  let fs = List.init 12 (fun i () -> if i = 3 then failwith "boom" else i) in
  (try
     ignore (Pool.run_all p fs);
     Alcotest.fail "run_all should re-raise"
   with Failure m -> check_str "real error surfaces from parallel pool" "boom" m);
  Pool.shutdown p;
  check_int "claims released on shutdown" before (Kg_util.Domain_budget.claimed ())

let test_pool_shutdown () =
  let p = Pool.create ~jobs:2 in
  ignore (Pool.run_all p [ (fun () -> ()) ]);
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  (try
     ignore (Pool.run_all p [ (fun () -> ()) ]);
     Alcotest.fail "run_all after shutdown should raise"
   with Invalid_argument _ -> ())

(* The contract the one-list pool keeps at any width: values come back
   in submission order, a failing job's own error is the one re-raised,
   and every submitted job is accounted for exactly once. *)
let pool_contract_qcheck =
  QCheck.Test.make ~name:"run_all keeps order, error and accounting" ~count:60
    QCheck.(triple (int_range 0 40) (int_range 1 3) (option (int_bound 39)))
    (fun (n, jobs, fail_at) ->
      let fail_at = Option.bind fail_at (fun i -> if i < n then Some i else None) in
      let p = Pool.create ~jobs in
      let fs =
        List.init n (fun i () -> if Some i = fail_at then failwith (string_of_int i) else i)
      in
      let outcome = try Ok (Pool.run_all p fs) with e -> Error e in
      let tot = Pool.totals p in
      Pool.shutdown p;
      let settled = tot.Pool.completed + tot.Pool.failed + tot.Pool.cancelled in
      (match (fail_at, outcome) with
      | None, Ok vals -> vals = List.init n Fun.id
      | Some i, Error (Failure m) -> m = string_of_int i
      | _ -> false)
      && tot.Pool.submitted = n
      && settled = n
      && tot.Pool.failed = Option.fold ~none:0 ~some:(fun _ -> 1) fail_at)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

(* The fields in which two results differ, by name: float fields
   compare by bits, so identical NaNs are equal and -0.0 is not 0.0. *)
let diffs (a : R.result) (b : R.result) =
  let bits x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let floats = Array.for_all2 bits in
  let serve =
    match (a.R.serve, b.R.serve) with
    | None, None -> []
    | Some sa, Some sb ->
      let module H = Kg_util.Hdr_histogram in
      [
        ("serve requests", sa.R.requests = sb.R.requests);
        ("serve rate", bits sa.R.rate sb.R.rate);
        ("serve t1_hits", sa.R.t1_hits = sb.R.t1_hits);
        ("serve t2_hits", sa.R.t2_hits = sb.R.t2_hits);
        ("serve backend_fills", sa.R.backend_fills = sb.R.backend_fills);
        ("serve sessions_churned", sa.R.sessions_churned = sb.R.sessions_churned);
        ("serve pause_hist", H.equal sa.R.pause_hist sb.R.pause_hist);
        ("serve latency_hist", H.equal sa.R.latency_hist sb.R.latency_hist);
      ]
    | _ -> [ ("serve presence", false) ]
  in
  [
    ("bench", a.R.bench.D.name = b.R.bench.D.name);
    ("spec label", R.label a.R.spec = R.label b.R.spec);
    ("stats", GS.equal a.R.stats b.R.stats);
    ("alloc_bytes", a.R.alloc_bytes = b.R.alloc_bytes);
    ("mem_pcm_write_bytes", bits a.R.mem_pcm_write_bytes b.R.mem_pcm_write_bytes);
    ("mem_dram_write_bytes", bits a.R.mem_dram_write_bytes b.R.mem_dram_write_bytes);
    ("mem_pcm_read_bytes", bits a.R.mem_pcm_read_bytes b.R.mem_pcm_read_bytes);
    ("mem_dram_read_bytes", bits a.R.mem_dram_read_bytes b.R.mem_dram_read_bytes);
    ( "pcm_writes_by_phase",
      Array.length a.R.pcm_writes_by_phase = Array.length b.R.pcm_writes_by_phase
      && floats a.R.pcm_writes_by_phase b.R.pcm_writes_by_phase );
    ("wear_cov", bits a.R.wear_cov b.R.wear_cov);
    ("migration_pcm_bytes", bits a.R.migration_pcm_bytes b.R.migration_pcm_bytes);
    ("wp_dram_mb", bits a.R.wp_dram_mb b.R.wp_dram_mb);
    ("time_s", bits a.R.time_s b.R.time_s);
    ("edp", bits a.R.edp b.R.edp);
    ( "energy",
      match (a.R.energy, b.R.energy) with
      | None, None -> true
      | Some ea, Some eb -> bits (Kg_sim.Energy.total_j ea) (Kg_sim.Energy.total_j eb)
      | _ -> false );
    ("dram_avg_mb", bits a.R.dram_avg_mb b.R.dram_avg_mb);
    ("dram_max_mb", bits a.R.dram_max_mb b.R.dram_max_mb);
    ("pcm_avg_mb", bits a.R.pcm_avg_mb b.R.pcm_avg_mb);
    ("pcm_max_mb", bits a.R.pcm_max_mb b.R.pcm_max_mb);
    ("mature_dram_avg_mb", bits a.R.mature_dram_avg_mb b.R.mature_dram_avg_mb);
    ("meta_mb", bits a.R.meta_mb b.R.meta_mb);
    ("trace", a.R.trace = b.R.trace);
    ("check_violations", a.R.check_violations = b.R.check_violations);
  ]
  @ serve
  |> List.filter_map (fun (name, same) -> if same then None else Some name)

let compare_results msg a b = Alcotest.(check (list string)) (msg ^ ": fields that differ") [] (diffs a b)

let o = engine_opts

let test_store_roundtrip_count () =
  (* trace sampling and the heap auditor on, so the optional fields are
     non-trivially populated *)
  let r =
    R.run ~seed:o.E.seed ~scale:o.E.scale ~heap_scale:o.E.heap_scale ~cap_mb:o.E.cap_mb
      ~trace:true ~check:true ~mode:R.Count R.kg_w (D.find "pr")
  in
  check_bool "trace populated" true (r.R.trace <> []);
  let r' = Store.of_json (Store.to_json r) in
  compare_results "count round-trip" r r'

let test_store_roundtrip_simulate () =
  let bench = List.hd D.simulated in
  let r =
    R.run ~seed:o.E.seed ~scale:o.E.scale ~heap_scale:o.E.heap_scale ~cap_mb:o.E.cap_mb
      ~mode:R.Simulate R.kg_w bench
  in
  check_bool "energy present" true (r.R.energy <> None);
  let r' = Store.of_json (Store.to_json r) in
  compare_results "simulate round-trip" r r'

let test_store_roundtrip_serve () =
  let r = E.run_job o (E.job ~serve:512 R.Count R.kg_w (D.find "pjbb")) in
  (match r.R.serve with
  | None -> Alcotest.fail "serve metrics missing from a serve run"
  | Some s ->
    check_bool "requests served" true (s.R.requests > 0);
    check_bool "latency histogram populated" true
      (Kg_util.Hdr_histogram.count s.R.latency_hist = s.R.requests));
  let r' = Store.of_json (Store.to_json r) in
  compare_results "serve round-trip" r r'

let test_store_key () =
  let j = E.job R.Count R.kg_w (D.find "fop") in
  let k = Store.key ~opts:o j in
  check_str "key is stable" k (Store.key ~opts:o j);
  check_bool "key is versioned" true
    (String.length k > 3 && String.sub k 0 2 = Printf.sprintf "v%d" Store.format_version);
  check_bool "seed is part of the key" true
    (k <> Store.key ~opts:{ o with E.seed = o.E.seed + 1 } j);
  check_bool "trace flag is part of the key" true
    (k <> Store.key ~opts:o (E.job ~trace:true R.Count R.kg_w (D.find "fop")));
  check_bool "mode is part of the key" true
    (k <> Store.key ~opts:o (E.job R.Simulate R.kg_w (D.find "fop")));
  check_bool "spec is part of the key" true
    (k <> Store.key ~opts:o (E.job R.Count R.kg_n (D.find "fop")));
  check_bool "serve rate is part of the key" true
    (k <> Store.key ~opts:o (E.job ~serve:512 R.Count R.kg_w (D.find "fop")))

let test_store_find_store () =
  let s = Store.create ~dir:(temp_dir ()) () in
  let j = E.job R.Count R.kg_n (D.find "fop") in
  let k = Store.key ~opts:o j in
  check_bool "empty store misses" true (Store.find s k = None);
  let r = E.run_job o j in
  Store.store s k r;
  (match Store.find s k with
  | None -> Alcotest.fail "stored entry not found"
  | Some r' -> compare_results "store round-trip" r r');
  check_bool "other key still misses" true
    (Store.find s (Store.key ~opts:{ o with E.seed = 999 } j) = None)

let test_store_corruption () =
  let s = Store.create ~dir:(temp_dir ()) () in
  let j = E.job R.Count R.kg_n (D.find "fop") in
  let k = Store.key ~opts:o j in
  let r = E.run_job o j in
  (* truncated garbage *)
  Store.store s k r;
  let oc = open_out (Store.path s k) in
  output_string oc "{\"store\":\"kingsguard-result\"";
  close_out oc;
  check_bool "corrupt entry reads as a miss" true (Store.find s k = None);
  check_bool "corrupt entry is removed" false (Sys.file_exists (Store.path s k));
  (* valid JSON, wrong format version *)
  Store.store s k r;
  let lines =
    let ic = open_in (Store.path s k) in
    let a = input_line ic in
    let b = input_line ic in
    close_in ic;
    (a, b)
  in
  let oc = open_out (Store.path s k) in
  output_string oc
    (Printf.sprintf "{\"store\":\"kingsguard-result\",\"v\":%d,\"key\":\"old\"}\n"
       (Store.format_version + 1));
  output_string oc (snd lines);
  close_out oc;
  check_bool "old-version entry reads as a miss" true (Store.find s k = None);
  check_bool "old-version entry is removed" false (Sys.file_exists (Store.path s k));
  (* a fresh store call repopulates *)
  Store.store s k r;
  check_bool "repopulated entry hits" true (Store.find s k <> None)

let test_exec_recompute_on_corruption () =
  (* the engine recomputes through a corrupted entry instead of dying *)
  let dir = temp_dir () in
  let j = E.job R.Count R.kg_w (D.find "fop") in
  let ex = Exec.create ~cache_dir:dir o in
  let r = Exec.fetch ex j in
  check_int "first resolution computes" 1 (Exec.misses ex);
  Exec.shutdown ex;
  let s = Store.create ~dir () in
  let oc = open_out (Store.path s (Store.key ~opts:o j)) in
  output_string oc "not json at all\n";
  close_out oc;
  let ex = Exec.create ~cache_dir:dir o in
  let r' = Exec.fetch ex j in
  check_int "corrupted entry recomputed, no crash" 1 (Exec.misses ex);
  check_int "corruption is a miss, not a hit" 0 (Exec.hits ex);
  compare_results "recomputed equals original" r r';
  check_bool "store healed" true (Store.find s (Store.key ~opts:o j) <> None);
  Exec.shutdown ex

(* The lusearch KG-W Count run at the figure set's scale: most of its
   retired write counts are zero, and some zero runs are long. *)
let figset_opts = { E.scale = 512; heap_scale = 8; cap_mb = 1; seed = 11 }
let lusearch_job = E.job R.Count R.kg_w (D.find "lusearch")
let lusearch_result = lazy (E.run_job figset_opts lusearch_job)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then raise Not_found else if String.sub s i m = sub then i else go (i + 1)
  in
  go 0

(* The encoded retired-writes array of a payload line, as text. *)
let retired_field = "\"retired_mature_writes\":["

let retired_array json =
  let start = index_of json retired_field + String.length retired_field in
  String.sub json start (String.index_from json start ']' - start)

let with_retired (r : R.result) writes =
  let st = GS.create () in
  List.iter (Kg_util.Vec.push st.GS.retired_mature_writes) writes;
  { r with R.stats = st }

(* A maximal run of k zeros is the one element -k; every other count
   is itself. *)
let test_store_zero_run_cases () =
  List.iter
    (fun (writes, encoded) ->
      let r = with_retired (Lazy.force lusearch_result) writes in
      let json = Store.to_json r in
      check_str "encoded array" encoded (retired_array json);
      check_bool "decodes to the same stats" true
        (GS.equal r.R.stats (Store.of_json json).R.stats))
    [
      ([], "");
      ([ 0 ], "-1");
      ([ 3 ], "3");
      (List.init 5000 (fun _ -> 0), "-5000");
      ([ 0; 0; 0; 5; 0; 7; 7; 0; 0 ], "-3,5,-1,7,7,-2");
      ([ 1; 2; 3 ], "1,2,3");
    ]

let retired_gen =
  let open QCheck.Gen in
  let zeros k = List.init k (fun _ -> 0) in
  let mixed =
    list_size (int_range 0 40)
      (oneof
         [
           map zeros (int_range 0 1000);
           list_size (int_range 0 200) (int_range 0 Kg_heap.Object_model.max_writes);
         ])
    >|= fun segs -> List.filteri (fun i _ -> i < 5000) (List.concat segs)
  in
  frequency
    [
      (4, mixed);
      (1, list_size (int_range 0 5000) (int_range 1 Kg_heap.Object_model.max_writes));
      (1, map zeros (int_range 0 5000));
    ]

let store_zero_run_qcheck =
  QCheck.Test.make ~name:"store: retired writes round-trip zero-run encoded" ~count:200
    (QCheck.make ~print:QCheck.Print.(list int) retired_gen)
    (fun writes ->
      let r = with_retired (Lazy.force lusearch_result) writes in
      let json = Store.to_json r in
      let r' = Store.of_json json in
      let arr = retired_array json in
      let elements = if arr = "" then 0 else List.length (String.split_on_char ',' arr) in
      let nonzero = List.length (List.filter (fun w -> w <> 0) writes) in
      GS.equal r.R.stats r'.R.stats
      && Kg_util.Vec.to_array r'.R.stats.GS.retired_mature_writes = Array.of_list writes
      && elements <= (2 * nonzero) + 1)

let test_store_truncated_zero_run () =
  (* a writer that died mid-payload: the line ends inside a -k run *)
  let s = Store.create ~dir:(temp_dir ()) () in
  let k = Store.key ~opts:figset_opts lusearch_job in
  let r = Lazy.force lusearch_result in
  Store.store s k r;
  let header, payload =
    In_channel.with_open_text (Store.path s k) (fun ic ->
        let h = Option.get (In_channel.input_line ic) in
        (h, Option.get (In_channel.input_line ic)))
  in
  (* cut after the first digit of the first run of ten or more zeros *)
  let digit i = payload.[i] >= '0' && payload.[i] <= '9' in
  let rec run i =
    if payload.[i] = ']' then Alcotest.fail "no zero run of ten or more"
    else if payload.[i] = '-' && digit (i + 1) && digit (i + 2) then i
    else run (i + 1)
  in
  let cut = run (index_of payload retired_field) + 2 in
  Out_channel.with_open_text (Store.path s k) (fun oc ->
      output_string oc header;
      output_char oc '\n';
      output_string oc (String.sub payload 0 cut));
  check_bool "truncated entry reads as a miss" true (Store.find s k = None);
  check_bool "truncated entry is removed" false (Sys.file_exists (Store.path s k))

let test_store_entry_size () =
  let s = Store.create ~dir:(temp_dir ()) () in
  let k = Store.key ~opts:figset_opts lusearch_job in
  Store.store s k (Lazy.force lusearch_result);
  let bytes = (Unix.stat (Store.path s k)).Unix.st_size in
  check_bool (Printf.sprintf "lusearch KG-W entry is %d B, under 32 KB" bytes) true
    (bytes < 32 * 1024)

let test_store_two_domains () =
  (* two domains publishing one key at once: each write has its own
     temp file, so neither rename can find its file already moved *)
  let dir = temp_dir () in
  let s = Store.create ~dir () in
  let k = Store.key ~opts:figset_opts lusearch_job in
  let r = Lazy.force lusearch_result in
  let writer () =
    let failed = ref 0 in
    for _ = 1 to 30 do
      try Store.store s k r with _ -> incr failed
    done;
    !failed
  in
  let other = Domain.spawn writer in
  let mine = writer () in
  let failed = mine + Domain.join other in
  check_int "no store call raised" 0 failed;
  (match Store.find s k with
  | None -> Alcotest.fail "raced entry not found"
  | Some r' -> compare_results "raced entry" r r');
  Alcotest.(check (list string))
    "only the entry remains, no temp file" [ Filename.basename (Store.path s k) ]
    (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Groups: one mutator, many runtimes                                  *)

(* The specs by op-stream class (Experiments.stream_key): nursery size,
   then large objects in the nursery (LOO) or not. The 12 MB class has
   no second named spec, so a GenImmix one joins it. *)
let stream_classes =
  [
    [ R.dram_only; R.pcm_only; R.kg_n; R.kg_w_no_loo; R.kg_w_no_loo_mdo; R.wp ];
    [ R.kg_w; R.kg_w_no_pm; R.kg_b ];
    [ R.kg_n_12; { R.pcm_only with R.nursery_mb = 12 } ];
  ]

let member_gen spec =
  let open QCheck.Gen in
  let+ mode = if spec.R.wp then pure R.Simulate else oneofl [ R.Count; R.Simulate ]
  and+ trace = bool in
  { R.mode; spec; trace }

(* A random benchmark, cap and same-class member list, in random order. *)
let group_gen =
  let open QCheck.Gen in
  let* bench = oneofl D.all and* cap = int_range 1 2 and* cls = oneofl stream_classes in
  let* specs = shuffle_l cls in
  let* k = int_range 1 (min 4 (List.length specs)) in
  let+ members = flatten_l (List.map member_gen (List.filteri (fun i _ -> i < k) specs)) in
  (bench, cap, members)

let print_group (bench, cap, members) =
  Printf.sprintf "%s cap %d: %s" bench.D.name cap
    (String.concat ", "
       (List.map
          (fun (m : R.member) ->
            Printf.sprintf "%s/%s%s"
              (match m.R.mode with R.Count -> "cnt" | R.Simulate -> "sim")
              (R.label m.R.spec)
              (if m.R.trace then "+trace" else ""))
          members))

let group_opts cap = { E.scale = 512; heap_scale = 8; cap_mb = cap; seed = 11 }

let solo (o : E.opts) bench (m : R.member) =
  R.run ~seed:o.E.seed ~scale:o.E.scale ~heap_scale:o.E.heap_scale ~cap_mb:o.E.cap_mb
    ~trace:m.R.trace ~mode:m.R.mode m.R.spec bench

let run_group (o : E.opts) bench group =
  R.run_group ~seed:o.E.seed ~scale:o.E.scale ~heap_scale:o.E.heap_scale ~cap_mb:o.E.cap_mb bench
    group

let group_qcheck =
  QCheck.Test.make ~name:"run_group: every member equals its solo run" ~count:12
    (QCheck.make ~print:print_group group_gen)
    (fun (bench, cap, members) ->
      let o = group_opts cap in
      let results = run_group o bench members in
      List.length results = List.length members
      && snd (List.hd results) = None
      && List.for_all2 (fun m (r, _) -> diffs r (solo o bench m) = []) members results)

(* [run_group], after checking that every member equals its solo run. *)
let check_group o bench group =
  let results = run_group o bench group in
  List.iter2
    (fun (m : R.member) (r, _) ->
      compare_results (R.label m.R.spec ^ " equals its solo run") (solo o bench m) r)
    group results;
  results

let lusearch = D.find "lusearch"
let check_split msg expected actual = Alcotest.(check (list (option int))) msg expected actual

(* A member that splits still equals its solo run, so the property
   holds even if every follower splits at its first allocation. At the
   figure-set options none splits: KG-N, PCM-only and WP, all
   Simulate, share lusearch's whole stream. *)
let test_figset_group_stays () =
  let o = group_opts 1 in
  check_split "no member splits" [ None; None; None ]
    (List.map snd
       (check_group o lusearch
          (List.map
             (fun spec -> { R.mode = R.Simulate; spec; trace = false })
             [ R.kg_n; R.pcm_only; R.wp ])))

(* The quick options at seed 11, where lusearch's LOO classes split. *)
let split_opts = { E.quick_opts with E.seed = 11 }
let count spec = { R.mode = R.Count; spec; trace = false }

(* The splits of a checked group of Count runs. *)
let split_group specs = List.map snd (check_group split_opts lusearch (List.map count specs))

let test_split_loo () =
  match split_group [ R.kg_n; R.kg_w ] with
  | [ None; Some k ] ->
    check_bool (Printf.sprintf "KG-W splits after allocation 0 (at %d)" k) true (k > 0)
  | _ -> Alcotest.fail "expected KG-W to split from KG-N"

let test_split_nursery () =
  check_split "KG-N-12 splits at its first allocation" [ None; Some 0 ]
    (split_group [ R.kg_n; R.kg_n_12 ])

(* KG-W and KG-W-PM leave KG-N at one allocation, together, and do not
   split from each other after. *)
let test_split_subgroup () =
  match split_group [ R.kg_n; R.kg_w; R.kg_w_no_pm ] with
  | [ None; Some k; Some k' ] ->
    check_int "KG-W and KG-W-PM leave at one allocation" k k';
    check_split "KG-W-PM stays with KG-W" [ None; None ]
      (List.map snd (run_group split_opts lusearch [ count R.kg_w; count R.kg_w_no_pm ]))
  | _ -> Alcotest.fail "expected KG-W and KG-W-PM to split from KG-N"

(* A member of KG-W's stream class whose write-triggered majors empty
   its nursery at other times: Exec groups it with KG-W, it splits,
   and Exec stores the result it computed on from there. *)
let test_exec_stores_split () =
  let o = split_opts in
  let triggered = { R.kg_w with R.pcm_write_trigger_mb = Some 1 } in
  let jobs = [ E.job R.Count R.kg_w lusearch; E.job R.Count triggered lusearch ] in
  check_bool "one stream key" true
    (E.stream_key o (List.hd jobs) = E.stream_key o (List.nth jobs 1));
  let split_run =
    match check_group o lusearch [ count R.kg_w; count triggered ] with
    | [ (_, None); (r, Some _) ] -> r
    | _ -> Alcotest.fail "expected the write-triggered member to split"
  in
  let dir = temp_dir () in
  let ex = Exec.create ~jobs:2 ~cache_dir:dir o in
  Exec.prefetch ex jobs;
  check_int "both computed" 2 (Exec.misses ex);
  Exec.shutdown ex;
  match Store.find (Store.create ~dir ()) (Store.key ~opts:o (List.nth jobs 1)) with
  | None -> Alcotest.fail "split member not stored"
  | Some r -> compare_results "stored split member equals its solo run" split_run r

(* ------------------------------------------------------------------ *)
(* Determinism: parallel + store == sequential, cold and warm          *)

let all_ids = List.map (fun (e : E.experiment) -> e.E.id) E.all

let render_all env =
  List.map (fun (e : E.experiment) -> (e.E.id, Kg_util.Table.render (e.E.table env))) E.all

let declared_keys (e : E.experiment) = List.map (E.job_key o) (e.E.runs o)

(* The determinism test's cold pool pass, rendered, with its options:
   the fixture test checks these tables when the options are the
   fixture's rather than compute the matrix again. *)
let cold_tables = ref None

let test_determinism () =
  let dir = temp_dir () in
  (* cold store, parallel pool *)
  let ex4 = Exec.create ~jobs:cold_jobs ~cache_dir:dir o in
  Exec.prefetch_experiments ex4 all_ids;
  check_int "cold pass: everything computed" 0 (Exec.hits ex4);
  let distinct = List.sort_uniq compare (List.concat_map declared_keys E.all) in
  check_int "cold pass: one run per distinct declared key" (List.length distinct)
    (Exec.misses ex4);
  let tables4 = render_all (Exec.env ex4) in
  cold_tables := Some (o, tables4);
  check_int "rendering after the prefetch computes nothing" (List.length distinct)
    (Exec.misses ex4);
  (* Each table reads exactly the runs its experiment declares, and no
     declared run list repeats a key. *)
  List.iter
    (fun (e : E.experiment) ->
      let declared = declared_keys e in
      check_int (e.E.id ^ ": runs repeat no key") (List.length declared)
        (List.length (List.sort_uniq compare declared));
      let read = ref [] in
      let env =
        E.make_env_with o ~fetch:(fun j ->
            read := E.job_key o j :: !read;
            Exec.fetch ex4 j)
      in
      ignore (e.E.table env);
      Alcotest.(check (list string))
        (e.E.id ^ ": reads exactly its declared runs")
        (List.sort compare declared) (List.sort_uniq compare !read))
    E.all;
  (* Release the pool's domains: the sequential engine then finds a
     spare core (on a host with two or more) and pipelines its
     Simulate runs' cache-sim sinks, which the pool's jobs did not. *)
  Exec.shutdown ex4;
  (* cold, sequential, no store at all, and no prefetch: each run is
     fetched, so computed alone, while the pool computed stream groups *)
  let ex1 = Exec.create ~jobs:1 ~cache:false o in
  let tables1 = render_all (Exec.env ex1) in
  List.iter2
    (fun (id4, t4) (id1, t1) ->
      check_str "registry order" id4 id1;
      check_str
        (Printf.sprintf "%s: table byte-identical, jobs=%d vs jobs=1" id4 cold_jobs)
        t1 t4)
    tables4 tables1;
  (* field-for-field on every job the figure set declares *)
  let planned = List.concat_map (fun (e : E.experiment) -> e.E.runs o) E.all in
  check_bool "figure set declares runs" true (planned <> []);
  List.iter
    (fun j ->
      compare_results
        (Printf.sprintf "planned job %s" (E.job_key o j))
        (Exec.fetch ex1 j) (Exec.fetch ex4 j))
    planned;
  Exec.shutdown ex1;
  (* warm store, fresh engine: zero recomputation, identical bytes *)
  let ex4w = Exec.create ~jobs:4 ~cache_dir:dir o in
  Exec.prefetch_experiments ex4w all_ids;
  check_int "warm pass: zero recomputed runs" 0 (Exec.misses ex4w);
  check_bool "warm pass: served from the store" true (Exec.hits ex4w > 0);
  List.iter2
    (fun (id, cold) (idw, warm) ->
      check_str "registry order (warm)" id idw;
      check_str (id ^ ": table byte-identical, warm vs cold") cold warm)
    tables4
    (render_all (Exec.env ex4w));
  Exec.shutdown ex4w

(* ------------------------------------------------------------------ *)
(* Byte-identity against the recorded pre-refactor figure set.

   test/fixtures/pre_refactor/ holds every table rendered by the code
   as it stood before the batched memory-port refactor, generated with
     kingsguard experiments --scale 512 --heap-scale 8 --cap-mb 8 \
       --seed 11 --no-cache --out test/fixtures/pre_refactor
   The options are pinned here (not taken from KG_ENGINE_OPTS) so the
   comparison always runs at the scale the fixture was recorded at. *)

let fixture_opts = { E.scale = 512; heap_scale = 8; cap_mb = 8; seed = 11 }
let fixture_dir = Filename.concat "fixtures" "pre_refactor"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* The figure set at the fixture options: the determinism test's cold
   pool pass when it ran at them (outside quick mode), else a pass of
   its own. *)
let fixture_tables () =
  match !cold_tables with
  | Some (o, tables) when o = fixture_opts -> tables
  | _ ->
    let ex = Exec.create ~jobs:cold_jobs ~cache:false fixture_opts in
    Exec.prefetch_experiments ex all_ids;
    let tables = render_all (Exec.env ex) in
    Exec.shutdown ex;
    tables

let test_pre_refactor_fixture () =
  List.iter
    (fun (id, table) ->
      let expected = read_file (Filename.concat fixture_dir (id ^ ".txt")) in
      check_str (id ^ ": byte-identical to pre-refactor fixture") expected table)
    (fixture_tables ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "kg_engine"
    [
      ( "pool",
        [
          Alcotest.test_case "values in order" `Quick test_pool_values;
          Alcotest.test_case "cancel on first error" `Quick test_pool_cancel;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          QCheck_alcotest.to_alcotest pool_contract_qcheck;
        ] );
      ( "store",
        [
          Alcotest.test_case "count round-trip (trace+check)" `Quick test_store_roundtrip_count;
          Alcotest.test_case "simulate round-trip (energy)" `Quick test_store_roundtrip_simulate;
          Alcotest.test_case "serve round-trip (histograms)" `Quick test_store_roundtrip_serve;
          Alcotest.test_case "key scheme" `Quick test_store_key;
          Alcotest.test_case "find/store" `Quick test_store_find_store;
          Alcotest.test_case "corruption and version invalidation" `Quick test_store_corruption;
          Alcotest.test_case "engine recomputes through corruption" `Quick
            test_exec_recompute_on_corruption;
          Alcotest.test_case "zero-run encoding cases" `Quick test_store_zero_run_cases;
          QCheck_alcotest.to_alcotest store_zero_run_qcheck;
          Alcotest.test_case "truncated zero run is a miss" `Quick
            test_store_truncated_zero_run;
          Alcotest.test_case "figset lusearch entry under 32 KB" `Quick test_store_entry_size;
          Alcotest.test_case "two domains store one key" `Quick test_store_two_domains;
        ] );
      ( "group",
        [
          QCheck_alcotest.to_alcotest group_qcheck;
          Alcotest.test_case "figure-set group stays in the stream" `Quick
            test_figset_group_stays;
          Alcotest.test_case "LOO member splits" `Quick test_split_loo;
          Alcotest.test_case "KG-N-12 splits at allocation 0" `Quick test_split_nursery;
          Alcotest.test_case "LOO members split as one subgroup" `Quick test_split_subgroup;
          Alcotest.test_case "engine stores a split member's run" `Quick test_exec_stores_split;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel == sequential, cold and warm" `Slow test_determinism;
          Alcotest.test_case "byte-identical to pre-refactor fixture" `Slow
            test_pre_refactor_fixture;
        ] );
    ]
