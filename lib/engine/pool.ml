exception Cancelled

type 'a outcome = Pending | Value of 'a | Failed of exn

type core = {
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  settled : Condition.t;  (* broadcast whenever any future settles *)
  queue : (unit -> unit) Queue.t;  (* thunk runs the job and fills its future *)
  njobs : int;
  created_at : float;
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable busy_s : float;
  mutable first_error : exn option;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

type t = core
type 'a future = { core : core; mutable outcome : 'a outcome }

let now () = Unix.gettimeofday ()

let worker t () =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.not_empty t.m
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.m
    else begin
      let job = Queue.pop t.queue in
      Condition.broadcast t.not_full;
      Mutex.unlock t.m;
      job ();
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let njobs = max 1 (min jobs 128) in
  let t =
    {
      m = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      settled = Condition.create ();
      queue = Queue.create ();
      njobs;
      created_at = now ();
      submitted = 0;
      completed = 0;
      failed = 0;
      cancelled = 0;
      busy_s = 0.0;
      first_error = None;
      stopping = false;
      workers = [];
    }
  in
  if njobs > 1 then begin
    Kg_util.Domain_budget.claim njobs;
    t.workers <- List.init njobs (fun _ -> Domain.spawn (worker t))
  end;
  t

let jobs t = t.njobs

(* Execute [f] for [fut], settling it and the pool accounting. Called
   from a worker domain (or inline); takes the lock only to settle. *)
let execute t fut f =
  let cancelled_before_run =
    Mutex.lock t.m;
    let c = t.first_error <> None in
    if c then begin
      fut.outcome <- Failed Cancelled;
      t.cancelled <- t.cancelled + 1;
      Condition.broadcast t.settled
    end;
    Mutex.unlock t.m;
    c
  in
  if not cancelled_before_run then begin
    let t0 = now () in
    let outcome = try Value (f ()) with e -> Failed e in
    let dt = now () -. t0 in
    Mutex.lock t.m;
    t.busy_s <- t.busy_s +. dt;
    fut.outcome <- outcome;
    (match outcome with
    | Value _ -> t.completed <- t.completed + 1
    | Failed e ->
      t.failed <- t.failed + 1;
      if t.first_error = None then begin
        t.first_error <- Some e;
        (* wake submitters blocked on a full queue: the matrix is
           cancelled, everything they enqueue settles as Cancelled *)
        Condition.broadcast t.not_full
      end
    | Pending -> assert false);
    Condition.broadcast t.settled;
    Mutex.unlock t.m
  end

let submit t f =
  Mutex.lock t.m;
  if t.stopping then begin
    Mutex.unlock t.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  t.submitted <- t.submitted + 1;
  let fut = { core = t; outcome = Pending } in
  if t.first_error <> None then begin
    (* fail fast: the matrix is already doomed, don't run stragglers *)
    fut.outcome <- Failed Cancelled;
    t.cancelled <- t.cancelled + 1;
    Condition.broadcast t.settled;
    Mutex.unlock t.m;
    fut
  end
  else if t.njobs <= 1 then begin
    Mutex.unlock t.m;
    execute t fut f;
    fut
  end
  else begin
    while Queue.length t.queue >= 4 * t.njobs && t.first_error = None do
      Condition.wait t.not_full t.m
    done;
    Queue.push (fun () -> execute t fut f) t.queue;
    Condition.signal t.not_empty;
    Mutex.unlock t.m;
    fut
  end

let await fut =
  let t = fut.core in
  Mutex.lock t.m;
  while fut.outcome = Pending do
    Condition.wait t.settled t.m
  done;
  let o = fut.outcome in
  Mutex.unlock t.m;
  match o with Value v -> v | Failed e -> raise e | Pending -> assert false

let run_all t fs =
  let futs = List.map (submit t) fs in
  let settled =
    List.map (fun fut -> try Ok (await fut) with e -> Error e) futs
  in
  let first_real_error =
    List.find_map (function Error e when e <> Cancelled -> Some e | _ -> None) settled
  in
  List.map
    (function
      | Ok v -> v
      | Error e -> ( match first_real_error with Some e' -> raise e' | None -> raise e))
    settled

type totals = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  busy_s : float;
  wall_s : float;
}

let totals t =
  Mutex.lock t.m;
  let r =
    {
      submitted = t.submitted;
      completed = t.completed;
      failed = t.failed;
      cancelled = t.cancelled;
      busy_s = t.busy_s;
      wall_s = now () -. t.created_at;
    }
  in
  Mutex.unlock t.m;
  r

let throughput tot = if tot.wall_s <= 0.0 then 0.0 else float_of_int tot.completed /. tot.wall_s

let shutdown t =
  Mutex.lock t.m;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.not_empty
  end;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.m;
  List.iter Domain.join workers;
  if workers <> [] then Kg_util.Domain_budget.release (List.length workers)
