module E = Kg_sim.Experiments

type t = {
  o : E.opts;
  pool : Pool.t;
  store : Store.t option;
  progress : Progress.t;
  memo : (string, Kg_sim.Run.result) Hashtbl.t;
  memo_m : Mutex.t;
}

let create ?(jobs = 1) ?(cache = true) ?cache_dir ?progress o =
  {
    o;
    pool = Pool.create ~jobs;
    store = (if cache then Some (Store.create ?dir:cache_dir ()) else None);
    progress = (match progress with Some p -> p | None -> Progress.create Progress.Quiet);
    memo = Hashtbl.create 256;
    memo_m = Mutex.create ();
  }

let opts t = t.o
let pool t = t.pool
let store t = t.store

let memo_find t key =
  Mutex.lock t.memo_m;
  let r = Hashtbl.find_opt t.memo key in
  Mutex.unlock t.memo_m;
  r

let memo_add t key r =
  Mutex.lock t.memo_m;
  Hashtbl.replace t.memo key r;
  Mutex.unlock t.memo_m

let label (j : E.job) =
  Printf.sprintf "%s/%s/%s%s%s"
    (match j.E.mode with Kg_sim.Run.Simulate -> "sim" | Kg_sim.Run.Count -> "cnt")
    (Kg_sim.Run.label j.E.spec)
    j.E.bench.Kg_workload.Descriptor.name
    (if j.E.trace then "+trace" else if j.E.threads > 1 then Printf.sprintf "x%d" j.E.threads else "")
    (match j.E.serve with None -> "" | Some r -> Printf.sprintf "@%drps" r)

(* Runs execute in whatever domain the pool put them on; everything
   they touch is either freshly created (the runs) or mutex-guarded
   (memo, store file via atomic rename, progress). *)

(* A store hit, memoised; [None] on a miss. *)
let stored t key j =
  let hit = Option.bind t.store (fun s -> Store.find s key) in
  Option.iter
    (fun r ->
      memo_add t key r;
      Progress.job_done t.progress ~label:(label j) ~hit:true ~group:1 ~elapsed_s:0.0)
    hit;
  hit

(* Publish a computed result to the store and the memo. *)
let publish t key ~label r ~group ~elapsed_s =
  Option.iter (fun s -> Store.store s key r) t.store;
  memo_add t key r;
  Progress.job_done t.progress ~label ~hit:false ~group ~elapsed_s

let compute t key j =
  let t0 = Unix.gettimeofday () in
  let r = E.run_job t.o j in
  publish t key ~label:(label j) r ~group:1 ~elapsed_s:(Unix.gettimeofday () -. t0);
  r

let fetch t j =
  let key = Store.key ~opts:t.o j in
  match memo_find t key with
  | Some r -> r
  | None -> ( match stored t key j with Some r -> r | None -> compute t key j)

let env t = E.make_env_with ~fetch:(fetch t) t.o

(* One pool job: the runs of one stream key. Store hits are served;
   the misses run as one group, and every member's result is
   published, a member that split off the leader's stream included. *)
let resolve_group t members =
  match List.filter (fun (key, j) -> stored t key j = None) members with
  | [] -> ()
  | [ (key, j) ] -> ignore (compute t key j)
  | misses ->
    let t0 = Unix.gettimeofday () in
    let results = E.run_group t.o (List.map snd misses) in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    List.iter2
      (fun (key, j) (r, split) ->
        let label =
          match split with
          | None -> label j
          | Some k -> Printf.sprintf "%s (split at allocation %d)" (label j) k
        in
        publish t key ~label r ~group:(List.length misses) ~elapsed_s)
      misses results

(* A one-wide pool leaves the host's other cores to its runs' cache-sim
   pipes (Kg_mem.Sink_pipe), one per Simulate run, while a group can
   pipe only as many members as there are spare cores: on two cores,
   its first Simulate member. Grouped anyway, a one-wide pass over the
   figure set at the CLI's default options ran 7 % longer there. So
   only a wider pool, whose domains take those cores, groups runs. *)
let group_key t key j =
  if Pool.jobs t.pool > 1 then Option.value (E.stream_key t.o j) ~default:key else key

let prefetch t jobs =
  (* The distinct keys the memo does not hold yet. *)
  let seen = Hashtbl.create 64 in
  let pending =
    List.filter_map
      (fun j ->
        let key = Store.key ~opts:t.o j in
        if Hashtbl.mem seen key || memo_find t key <> None then None
        else begin
          Hashtbl.add seen key ();
          Some (key, j)
        end)
      jobs
  in
  (* Grouped by stream key in first-seen order (a job without one, or
     any job on a one-wide pool, is a group of its own, under its
     store key), largest group first so the longest pool jobs start
     first. *)
  let groups = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun ((key, j) as p) ->
      let k = group_key t key j in
      match Hashtbl.find_opt groups k with
      | Some ms -> Hashtbl.replace groups k (p :: ms)
      | None ->
        Hashtbl.add groups k [ p ];
        order := k :: !order)
    pending;
  let groups =
    List.stable_sort
      (fun a b -> compare (List.length b) (List.length a))
      (List.rev_map (fun k -> List.rev (Hashtbl.find groups k)) !order)
  in
  ignore (Pool.run_all t.pool (List.map (fun g () -> resolve_group t g) groups));
  Progress.finish t.progress

let prefetch_experiments t ids =
  prefetch t
    (List.concat_map
       (fun id ->
         match List.find_opt (fun (e : E.experiment) -> e.E.id = id) E.all with
         | Some e -> e.E.runs t.o
         | None -> [])
       ids)

let hits t = Progress.hits t.progress
let misses t = Progress.misses t.progress

(* A pool job resolves a whole stream group, so the rate counts runs,
   not pool jobs. *)
let summary t =
  let tot = Pool.totals t.pool in
  let runs = hits t + misses t in
  Printf.sprintf
    "engine: %d runs, %d hits, %d misses (jobs=%d, wall %.1f s, %.2f runs/s busy %.1f s)" runs
    (hits t) (misses t) (Pool.jobs t.pool) tot.Pool.wall_s
    (if tot.Pool.wall_s <= 0.0 then 0.0 else float_of_int runs /. tot.Pool.wall_s)
    tot.Pool.busy_s

let shutdown t = Pool.shutdown t.pool
