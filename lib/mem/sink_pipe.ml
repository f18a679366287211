(* A two-stage pipeline between the port and the cache simulator.

   The producer fills ring slots in order and publishes each full one
   by bumping [published]; the consumer runs the wrapped driver over
   slot [consumed mod slots] and bumps [consumed]. Slot contents are
   plain arrays: every write to a slot happens before the atomic bump
   that hands it over, so the other side reads it complete. The
   producer only ever fills a slot the consumer has finished with
   ([published - consumed < slots]).

   Waits spin briefly, then block on one condition variable. A waiter
   counts itself in [sleepers] under the mutex before re-checking its
   condition, and a side that changes state wakes the condition only
   when [sleepers] is non-zero, so the common hand-off takes no lock
   and no wake-up is lost (all atomics are sequentially consistent). *)

let slots = 4
let slot_records = 8192
let spin_limit = 2048

type t = {
  inner : Port.driver;
  ring : Port.batch array;
  mutable fill : int;  (* records in the slot being filled *)
  published : int Atomic.t;
  consumed : int Atomic.t;
  closing : bool Atomic.t;
  failed : bool Atomic.t;
  mutable error : (exn * Printexc.raw_backtrace) option;  (* set before [failed] *)
  mutable reported : bool;
  mutable closed : bool;
  m : Mutex.t;
  cv : Condition.t;
  sleepers : int Atomic.t;
  mutable consumer : unit Domain.t option;
}

let await t ready =
  let rec spin k = ready t || (k > 0 && (Domain.cpu_relax (); spin (k - 1))) in
  if not (spin spin_limit) then begin
    Mutex.lock t.m;
    Atomic.incr t.sleepers;
    while not (ready t) do
      Condition.wait t.cv t.m
    done;
    Atomic.decr t.sleepers;
    Mutex.unlock t.m
  end

let wake t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.m;
    Condition.broadcast t.cv;
    Mutex.unlock t.m
  end

(* Consumer side. [closing] is read before [published]: the producer
   publishes its last slot before it sets [closing], so a consumer that
   sees [closing] also sees every slot. *)
let slot_ready t = Atomic.get t.closing || Atomic.get t.consumed < Atomic.get t.published

let consume t backtraces () =
  Printexc.record_backtrace backtraces;
  let rec loop () =
    await t slot_ready;
    let closing = Atomic.get t.closing in
    let c = Atomic.get t.consumed in
    if c < Atomic.get t.published then
      match t.inner.Port.run t.ring.(c land (slots - 1)) with
      | () ->
        Atomic.set t.consumed (c + 1);
        wake t;
        loop ()
      | exception e ->
        t.error <- Some (e, Printexc.get_raw_backtrace ());
        Atomic.set t.failed true;
        wake t
    else if not closing then loop ()
  in
  loop ()

(* Producer side. *)
let reraise t =
  match t.error with
  | Some (e, bt) when not t.reported ->
    t.reported <- true;
    Printexc.raise_with_backtrace e bt
  | Some _ | None -> ()

let check t =
  if Atomic.get t.failed then reraise t;
  if t.closed then invalid_arg "Sink_pipe: delivery to a closed pipe"

let slot_free t =
  Atomic.get t.failed || Atomic.get t.published - Atomic.get t.consumed < slots

let drained t = Atomic.get t.failed || Atomic.get t.consumed = Atomic.get t.published

let publish t =
  let p = Atomic.get t.published in
  t.ring.(p land (slots - 1)).Port.len <- t.fill;
  t.fill <- 0;
  Atomic.set t.published (p + 1);
  wake t

let run t (b : Port.batch) =
  check t;
  let src = ref 0 in
  while !src < b.len do
    let slot = t.ring.(Atomic.get t.published land (slots - 1)) in
    let n = Int.min (b.len - !src) (slot_records - t.fill) in
    let s = !src and d = t.fill in
    for i = 0 to n - 1 do
      Array.unsafe_set slot.addrs (d + i) (Array.unsafe_get b.addrs (s + i));
      Array.unsafe_set slot.sizes (d + i) (Array.unsafe_get b.sizes (s + i));
      Array.unsafe_set slot.metas (d + i) (Array.unsafe_get b.metas (s + i))
    done;
    t.fill <- d + n;
    src := s + n;
    if t.fill = slot_records then begin
      publish t;
      await t slot_free;
      check t
    end
  done

(* Publish the partial slot and wait until the consumer is idle. *)
let sync t =
  if not t.closed then begin
    check t;
    if t.fill > 0 then publish t;
    await t drained;
    check t
  end

let driver t =
  {
    Port.run = run t;
    drv_stats =
      (fun () ->
        sync t;
        t.inner.Port.drv_stats ());
  }

let start inner =
  let t =
    {
      inner;
      ring = Array.init slots (fun _ -> Port.make_batch slot_records);
      fill = 0;
      published = Atomic.make 0;
      consumed = Atomic.make 0;
      closing = Atomic.make false;
      failed = Atomic.make false;
      error = None;
      reported = false;
      closed = false;
      m = Mutex.create ();
      cv = Condition.create ();
      sleepers = Atomic.make 0;
      consumer = None;
    }
  in
  match Domain.spawn (consume t (Printexc.backtrace_status ())) with
  | d ->
    t.consumer <- Some d;
    t
  | exception e ->
    Kg_util.Domain_budget.release 1;
    raise e

let create inner =
  Kg_util.Domain_budget.claim 1;
  start inner

let attach port =
  match Port.sink port with
  | Port.Cache_sim d when Kg_util.Domain_budget.try_claim 1 ->
    let t = start d in
    Port.set_sink port (Port.Cache_sim (driver t));
    Some t
  | _ -> None

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.fill > 0 && not (Atomic.get t.failed) then publish t;
    Atomic.set t.closing true;
    wake t;
    Option.iter Domain.join t.consumer;
    t.consumer <- None;
    Kg_util.Domain_budget.release 1
  end;
  reraise t
