(* The generic half of the generate-then-merge epoch protocol, shared
   by Kg_workload.Mutator and Kg_serve: the schedule-PRNG stream merge
   and the worker-domain team. Both are op-type agnostic — the
   determinism argument (pure per-domain generation, PRNG-driven merge
   preserving per-domain order, coordinator-only apply) lives with the
   callers; this module only guarantees that [merge_schedule] is a
   pure function of the PRNG state and the streams, and that [round]
   runs the same per-domain generators whether on real Domains or
   inline in domain order. *)

open Kg_util

(* Interleave the domains' op streams into one schedule: repeatedly
   pick a domain with ops remaining and take a chunk, both drawn from
   the schedule PRNG. Per-domain order is preserved. *)
let merge_schedule rng (streams : 'a Vec.t array) : (int * 'a) Vec.t =
  let n = Array.length streams in
  let pos = Array.make n 0 in
  let remaining = ref 0 in
  Array.iter (fun s -> remaining := !remaining + Vec.length s) streams;
  let out = Vec.create () in
  let alive = Array.make n 0 in
  while !remaining > 0 do
    let na = ref 0 in
    for d = 0 to n - 1 do
      if pos.(d) < Vec.length streams.(d) then begin
        alive.(!na) <- d;
        incr na
      end
    done;
    let d = alive.(Rng.int rng !na) in
    let chunk = 1 + Rng.int rng 8 in
    let len = Vec.length streams.(d) in
    let take = Int.min chunk (len - pos.(d)) in
    for _ = 1 to take do
      Vec.push out (d, Vec.get streams.(d) pos.(d));
      pos.(d) <- pos.(d) + 1
    done;
    remaining := !remaining - take
  done;
  out

(* The worker team: one real Domain per mutator domain above 0 (the
   coordinator runs domain 0's generator itself while waiting), parked
   on a condition variable between epochs. In oracle mode no Domains
   are spawned and [round] runs every generator inline in domain
   order — producing, by purity of the generators, the identical
   streams. A generator that raises on a worker still counts the worker
   as done; [round] re-raises the first exception, with its backtrace,
   on the coordinator once every generator has returned, as Gc_par
   does. *)
type team = {
  n : int;
  oracle : bool;
  gen : int -> unit;
  tm : Mutex.t;
  tcv : Condition.t;
  mutable t_epoch : int;
  mutable t_done : int;
  mutable t_stop : bool;
  mutable t_exn : (exn * Printexc.raw_backtrace) option;
  mutable workers : unit Domain.t array;
}

let spawn ~n ~oracle gen =
  let team =
    {
      n;
      oracle;
      gen;
      tm = Mutex.create ();
      tcv = Condition.create ();
      t_epoch = 0;
      t_done = 0;
      t_stop = false;
      t_exn = None;
      workers = [||];
    }
  in
  let worker d () =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock team.tm;
      while team.t_epoch = !seen && not team.t_stop do
        Condition.wait team.tcv team.tm
      done;
      if team.t_stop then begin
        running := false;
        Mutex.unlock team.tm
      end
      else begin
        seen := team.t_epoch;
        Mutex.unlock team.tm;
        (try gen d
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock team.tm;
           if team.t_exn = None then team.t_exn <- Some (e, bt);
           Mutex.unlock team.tm);
        Mutex.lock team.tm;
        team.t_done <- team.t_done + 1;
        Condition.broadcast team.tcv;
        Mutex.unlock team.tm
      end
    done
  in
  if not (oracle || n <= 1) then
    team.workers <- Array.init (n - 1) (fun i -> Domain.spawn (worker (i + 1)));
  team

let round team =
  if Array.length team.workers = 0 then
    for d = 0 to team.n - 1 do
      team.gen d
    done
  else begin
    Mutex.lock team.tm;
    team.t_done <- 0;
    team.t_exn <- None;
    team.t_epoch <- team.t_epoch + 1;
    Condition.broadcast team.tcv;
    Mutex.unlock team.tm;
    let local_exn =
      try
        team.gen 0;
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock team.tm;
    while team.t_done < team.n - 1 do
      Condition.wait team.tcv team.tm
    done;
    let worker_exn = team.t_exn in
    Mutex.unlock team.tm;
    match (local_exn, worker_exn) with
    | Some (e, bt), _ | None, Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None, None -> ()
  end

let finish team =
  if not team.t_stop then begin
    Mutex.lock team.tm;
    team.t_stop <- true;
    Condition.broadcast team.tcv;
    Mutex.unlock team.tm;
    Array.iter Domain.join team.workers
  end
