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

(* Resolve a miss (not in the memo): store first, then compute and
   publish. Runs in whatever domain the pool put it on; everything it
   touches is either freshly created (the run) or mutex-guarded (memo,
   store file via atomic rename, progress). *)
let resolve t key j =
  let hit =
    match t.store with
    | None -> None
    | Some s -> Store.find s key
  in
  match hit with
  | Some r ->
    memo_add t key r;
    Progress.job_done t.progress ~label:(label j) ~hit:true ~elapsed_s:0.0;
    r
  | None ->
    let t0 = Unix.gettimeofday () in
    let r = E.run_job t.o j in
    (match t.store with None -> () | Some s -> Store.store s key r);
    memo_add t key r;
    Progress.job_done t.progress ~label:(label j) ~hit:false
      ~elapsed_s:(Unix.gettimeofday () -. t0);
    r

let fetch t j =
  let key = Store.key ~opts:t.o j in
  match memo_find t key with Some r -> r | None -> resolve t key j

let env t = E.make_env_with ~fetch:(fetch t) t.o

let prefetch t jobs =
  (* One pool job per distinct key the memo does not hold yet. *)
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
  ignore
    (Pool.run_all t.pool
       (List.map (fun (key, j) () -> ignore (resolve t key j)) pending));
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

let summary t =
  let tot = Pool.totals t.pool in
  Printf.sprintf
    "engine: %d runs, %d hits, %d misses (jobs=%d, wall %.1f s, %.2f runs/s busy %.1f s)"
    (hits t + misses t)
    (hits t) (misses t) (Pool.jobs t.pool) tot.Pool.wall_s (Pool.throughput tot)
    tot.Pool.busy_s

let shutdown t = Pool.shutdown t.pool
