(* The generic half of the generate-then-merge epoch protocol, shared
   by Kg_workload.Mutator and Kg_serve: the flat per-domain op buffer,
   the schedule-PRNG chunk schedule, the apply of the shared op kinds,
   and the epoch loop. The determinism argument (per-domain generation
   from private state, PRNG-driven merge preserving per-domain order)
   lives with the callers; this module only guarantees that
   [draw_schedule] is a pure function of the PRNG state and the stream
   lengths, and that [run] generates the domains in domain order.

   Nothing here allocates per op. A buffer is four parallel columns
   that grow on demand and are reset, not recreated, every epoch; a
   target is a plain int; the schedule is a reused array of
   (domain, take) chunk pairs that apply walks over the buffers. *)

open Kg_util
module O = Kg_heap.Object_model
module Rt = Kg_gc.Runtime

(* ------------------------------------------------------------------ *)
(* Op buffers                                                          *)

type ops = {
  mutable len : int;
  mutable allocs : int;  (* allocation ops pushed this epoch *)
  mutable kind : int array;
  mutable a : int array;
  mutable b : int array;
  mutable life : float array;
}

(* Kinds 0..2 are allocations, the kind being the heat's header code. *)
let k_write_ref = 3
let k_write_prim = 4
let k_read_burst = 5
let k_private = 6

let ops_create () = { len = 0; allocs = 0; kind = [||]; a = [||]; b = [||]; life = [||] }

let reset ops =
  ops.len <- 0;
  ops.allocs <- 0

let kind ops i = ops.kind.(i)
let life ops i = ops.life.(i)

let grow ops =
  let cap = Array.length ops.kind in
  let ncap = if cap = 0 then 256 else 2 * cap in
  let ints col =
    let c = Array.make ncap 0 in
    Array.blit col 0 c 0 ops.len;
    c
  in
  let life = Array.make ncap 0.0 in
  Array.blit ops.life 0 life 0 ops.len;
  ops.kind <- ints ops.kind;
  ops.a <- ints ops.a;
  ops.b <- ints ops.b;
  ops.life <- life

let[@inline] push ops kind a b life =
  if ops.len = Array.length ops.kind then grow ops;
  let i = ops.len in
  Array.unsafe_set ops.kind i kind;
  Array.unsafe_set ops.a i a;
  Array.unsafe_set ops.b i b;
  Array.unsafe_set ops.life i life;
  ops.len <- i + 1

let[@inline] pending i = -(i + 1)

let[@inline] push_alloc ops ~size ~heat ~life ~ref_fields =
  push ops (Kg_heap.Object_model.heat_code heat) size ref_fields life;
  let p = ops.allocs in
  ops.allocs <- p + 1;
  pending p

let[@inline] push_write_ref ops ~src ~tgt = push ops k_write_ref src tgt 0.0
let[@inline] push_write_prim ops tgt = push ops k_write_prim tgt 0 0.0
let[@inline] push_read_burst ops tgt ~words = push ops k_read_burst tgt words 0.0

(* ------------------------------------------------------------------ *)
(* Targets and apply                                                   *)

let[@inline] resolve (allocs : O.t Vec.t) tgt = if tgt > 0 then tgt else Vec.get allocs (-tgt - 1)

let apply_op rt allocs d ops i =
  let k = Array.unsafe_get ops.kind i in
  let x = Array.unsafe_get ops.a i in
  let y = Array.unsafe_get ops.b i in
  if k < k_write_ref then begin
    let death = Rt.now rt +. Array.unsafe_get ops.life i in
    let o =
      Rt.alloc ~domain:d rt ~size:x ~heat:(Kg_heap.Object_model.heat_of_code k) ~death ~ref_fields:y
    in
    Vec.push allocs o;
    o
  end
  else begin
    if k = k_write_ref then Rt.write_ref ~domain:d rt ~src:(resolve allocs x) ~tgt:(resolve allocs y)
    else if k = k_write_prim then Rt.write_prim ~domain:d rt (resolve allocs x)
    else if k = k_read_burst then Rt.read_burst ~domain:d rt (resolve allocs x) y
    else invalid_arg "Epoch.apply_op: private op kind";
    O.null
  end

(* ------------------------------------------------------------------ *)
(* The chunk schedule                                                  *)

type schedule = {
  mutable chunks : int;
  mutable pairs : int array;  (* chunk c: domain at 2c, take at 2c+1 *)
  mutable pos : int array;  (* per-domain cursor, scratch *)
  mutable alive : int array;  (* domains with ops left, scratch *)
}

let schedule_create () = { chunks = 0; pairs = [||]; pos = [||]; alive = [||] }

let push_chunk s d take =
  let i = 2 * s.chunks in
  if i = Array.length s.pairs then begin
    let np = Array.make (Int.max 64 (2 * i)) 0 in
    Array.blit s.pairs 0 np 0 i;
    s.pairs <- np
  end;
  s.pairs.(i) <- d;
  s.pairs.(i + 1) <- take;
  s.chunks <- s.chunks + 1

(* Interleave the domains' op streams: repeatedly pick a domain with
   ops remaining and take a chunk, both drawn from the schedule PRNG.
   Per-domain order is preserved. Only the stream lengths matter. *)
let draw_schedule s rng (bufs : ops array) =
  let n = Array.length bufs in
  if Array.length s.pos < n then begin
    s.pos <- Array.make n 0;
    s.alive <- Array.make n 0
  end;
  let remaining = ref 0 in
  for d = 0 to n - 1 do
    s.pos.(d) <- 0;
    remaining := !remaining + bufs.(d).len
  done;
  s.chunks <- 0;
  while !remaining > 0 do
    let na = ref 0 in
    for d = 0 to n - 1 do
      if s.pos.(d) < bufs.(d).len then begin
        s.alive.(!na) <- d;
        incr na
      end
    done;
    let d = s.alive.(Rng.int rng !na) in
    let chunk = 1 + Rng.int rng 8 in
    let take = Int.min chunk (bufs.(d).len - s.pos.(d)) in
    push_chunk s d take;
    s.pos.(d) <- s.pos.(d) + take;
    remaining := !remaining - take
  done

let iter_schedule s f =
  Array.fill s.pos 0 (Array.length s.pos) 0;
  for c = 0 to s.chunks - 1 do
    let d = s.pairs.(2 * c) in
    let p = s.pos.(d) in
    let q = p + s.pairs.((2 * c) + 1) in
    for i = p to q - 1 do
      f d i
    done;
    s.pos.(d) <- q
  done

(* ------------------------------------------------------------------ *)
(* The epoch loop                                                      *)

type snapshot = { mutable now : float; nursery_free : int array }

let run ~rt ~n ~sched_rng ~bufs ~target ~generate ~apply ~barrier =
  let allocs = Array.init n (fun _ -> Vec.create ()) in
  let sched = schedule_create () in
  let snap = { now = 0.0; nursery_free = Array.make n 0 } in
  let apply_allocs d i = apply allocs d i in
  while Rt.now rt < target do
    snap.now <- Rt.now rt;
    for d = 0 to n - 1 do
      snap.nursery_free.(d) <- Rt.nursery_free ~domain:d rt
    done;
    for d = 0 to n - 1 do
      generate d snap
    done;
    draw_schedule sched sched_rng bufs;
    Array.iter Vec.clear allocs;
    iter_schedule sched apply_allocs;
    barrier allocs
  done
