open Kg_util

(* The parallel-collector worker team.

   Mirrors [Mutator]'s epoch team: [width - 1] real domains parked on a
   condition variable between phase steps, with the coordinator (the
   domain that triggered the collection) executing slice 0 itself while
   it waits. Workers are spawned lazily on the first parallel [run] —
   a runtime created with [parallel:false] (the oracle protocol) never
   spawns a domain — and joined by [shutdown].

   Determinism does not depend on this module: the phase protocol only
   ever writes slice-private buffers during a [run] and merges them in
   slice order afterwards, so executing the slices here or via
   [Parfor.inline_] is observationally identical. *)

type t = {
  width : int;
  parallel : bool;
  tm : Mutex.t;
  tcv : Condition.t;
  mutable t_epoch : int;
  mutable t_done : int;
  mutable t_stop : bool;
  mutable t_job : (int -> unit) option;
  mutable t_exn : (exn * Printexc.raw_backtrace) option;
  mutable workers : unit Domain.t array;
  (* spawned lazily *)
  mutable spawned : bool;
}

let create ~domains ~parallel =
  if domains <= 0 then invalid_arg "Gc_par.create: domains must be positive";
  {
    width = domains;
    parallel = parallel && domains > 1;
    tm = Mutex.create ();
    tcv = Condition.create ();
    t_epoch = 0;
    t_done = 0;
    t_stop = false;
    t_job = None;
    t_exn = None;
    workers = [||];
    spawned = false;
  }

let width t = t.width
let parallel t = t.parallel

let worker t i () =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.tm;
    while t.t_epoch = !seen && not t.t_stop do
      Condition.wait t.tcv t.tm
    done;
    if t.t_stop then begin
      running := false;
      Mutex.unlock t.tm
    end
    else begin
      seen := t.t_epoch;
      let job = Option.get t.t_job in
      Mutex.unlock t.tm;
      (try job i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.tm;
         if t.t_exn = None then t.t_exn <- Some (e, bt);
         Mutex.unlock t.tm);
      Mutex.lock t.tm;
      t.t_done <- t.t_done + 1;
      Condition.broadcast t.tcv;
      Mutex.unlock t.tm
    end
  done

let ensure_spawned t =
  if not t.spawned then begin
    t.spawned <- true;
    Domain_budget.claim (t.width - 1);
    t.workers <- Array.init (t.width - 1) (fun i -> Domain.spawn (worker t (i + 1)))
  end

(* Run [f 0 .. f (width-1)], slices 1.. on the worker domains and slice
   0 on the calling domain; rethrows the first slice exception on the
   caller once every slice has finished. *)
let run_team t f =
  ensure_spawned t;
  Mutex.lock t.tm;
  t.t_done <- 0;
  t.t_job <- Some f;
  t.t_exn <- None;
  t.t_epoch <- t.t_epoch + 1;
  Condition.broadcast t.tcv;
  Mutex.unlock t.tm;
  let local_exn =
    try
      f 0;
      None
    with e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock t.tm;
  while t.t_done < t.width - 1 do
    Condition.wait t.tcv t.tm
  done;
  t.t_job <- None;
  let worker_exn = t.t_exn in
  Mutex.unlock t.tm;
  match (local_exn, worker_exn) with
  | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None, None -> ()

let runner t : Parfor.t =
  if t.parallel then { Parfor.width = t.width; run = run_team t }
  else Parfor.inline_ t.width

let shutdown t =
  if t.spawned then begin
    Mutex.lock t.tm;
    t.t_stop <- true;
    Condition.broadcast t.tcv;
    Mutex.unlock t.tm;
    Array.iter Domain.join t.workers;
    Domain_budget.release (t.width - 1);
    t.workers <- [||];
    t.spawned <- false
  end
