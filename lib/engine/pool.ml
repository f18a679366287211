exception Cancelled

type t = {
  njobs : int;
  created_at : float;
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled : int;
  mutable busy_s : float;
  mutable stopped : bool;
}

type 'a slot = Skipped | Done of 'a | Failed of exn

let now () = Unix.gettimeofday ()

let create ~jobs =
  let njobs = max 1 (min jobs 128) in
  if njobs > 1 then Kg_util.Domain_budget.claim njobs;
  {
    njobs;
    created_at = now ();
    submitted = 0;
    completed = 0;
    failed = 0;
    cancelled = 0;
    busy_s = 0.0;
    stopped = false;
  }

let jobs t = t.njobs

let run_all t fs =
  if t.stopped then invalid_arg "Pool.run_all: pool is shut down";
  let jobs = Array.of_list fs in
  let n = Array.length jobs in
  let slots = Array.make n Skipped and busy = Array.make n 0.0 in
  let cursor = Atomic.make 0 and doomed = Atomic.make false in
  (* Each worker claims the next index until the list runs out, and
     writes only the slots it claimed; after a failure it leaves the
     rest [Skipped]. *)
  let rec work () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < n then begin
      if not (Atomic.get doomed) then begin
        let t0 = now () in
        (slots.(i) <-
           try Done (jobs.(i) ())
           with e ->
             Atomic.set doomed true;
             Failed e);
        busy.(i) <- now () -. t0
      end;
      work ()
    end
  in
  let k = min t.njobs n in
  if k <= 1 then work ()
  else begin
    let domains = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !domains)
      (fun () ->
        for _ = 1 to k do
          domains := Domain.spawn work :: !domains
        done)
  end;
  (* Every domain has joined: account on the calling domain. *)
  t.submitted <- t.submitted + n;
  t.busy_s <- Array.fold_left ( +. ) t.busy_s busy;
  Array.iter
    (function
      | Done _ -> t.completed <- t.completed + 1
      | Failed _ -> t.failed <- t.failed + 1
      | Skipped -> t.cancelled <- t.cancelled + 1)
    slots;
  Array.iter (function Failed e -> raise e | _ -> ()) slots;
  Array.to_list (Array.map (function Done v -> v | _ -> raise Cancelled) slots)

type totals = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  busy_s : float;
  wall_s : float;
}

let totals (t : t) =
  {
    submitted = t.submitted;
    completed = t.completed;
    failed = t.failed;
    cancelled = t.cancelled;
    busy_s = t.busy_s;
    wall_s = now () -. t.created_at;
  }

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    if t.njobs > 1 then Kg_util.Domain_budget.release t.njobs
  end
