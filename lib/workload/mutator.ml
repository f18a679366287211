open Kg_util
open Kg_heap
module O = Object_model
module Rt = Kg_gc.Runtime

let recent_size = 512
let cold_cap = 4096
let large_min = 12 * 1024
let large_alpha = 1.3

(* Writes within the hot class are themselves skewed (a few session
   tables/caches dominate), so hot picks rank the pool by a Zipf draw
   of this exponent over registration order. *)
let hot_skew = 1.2

(* Per-logical-thread mutator state: its own PRNG stream and hot-pick
   sampler, window of recently allocated objects ([O.null] marks an
   empty slot), and outstanding read/write debts. Pools of mature
   targets are shared (threads share data structures). *)
type thread = {
  rng : Rng.t;
  hot_zipf : Rng.Zipf.t;
  recent : O.t array;
  mutable recent_cursor : int;
  mutable write_debt : float;
  mutable read_debt : float;
}

(* Multicore mutator state. With [threads > 1] the round-robin logical
   threads are replaced by real mutator domains running an epoch
   protocol (see [run_epochs] below): each domain *generates* a
   symbolic op stream in parallel as a pure function of its private
   state plus a read-only snapshot, and the coordinator *applies* the
   streams sequentially in a schedule-seeded deterministic merge. A
   generated op names objects that do not exist yet with [T_pending]
   indices into the issuing domain's epoch allocations. *)
type target = T_obj of O.t | T_pending of int

type op =
  | Op_alloc of { size : int; heat : O.heat; life : float; ref_fields : int }
  | Op_write_ref of { src : target; tgt : target }
  | Op_write_prim of target
  | Op_read_burst of { tgt : target; words : int }

(* A mutator domain's private state: PRNG stream, recent-allocation
   ring (holding pending markers until the epoch materialises them)
   and mutation debts. Touched only by its own domain during
   generation and by the coordinator between epochs. *)
type dstate = {
  d_rng : Rng.t;
  d_hot_zipf : Rng.Zipf.t;
  d_recent : target option array;
  mutable d_recent_cursor : int;
  mutable d_write_debt : float;
  mutable d_read_debt : float;
}

type t = {
  desc : Descriptor.t;
  rt : Rt.t;
  words : O.store;  (* the runtime's flat-word heap tables *)
  threads : thread array;  (* sequential path; empty when nthreads > 1 *)
  mutable cur : int;  (* round-robin position *)
  life : Lifetime.t;
  hot : O.t Vec.t;
  warm : O.t Vec.t;
  cold : O.t Vec.t;
  mutable allocated : int;  (* objects *)
  p_large : float;
  large_mean : float;
  live_mb : int;
  (* Multicore: *)
  nthreads : int;
  oracle : bool;  (* interleaved oracle: generate inline, no Domains *)
  sched_rng : Rng.t;  (* merge schedule; seeded independently *)
  dstates : dstate array;  (* empty when nthreads = 1 *)
  boot_allocs_by_thread : int array;
}

let descriptor t = t.desc
let runtime t = t.rt
let thread_count t = t.nthreads
let boot_allocs_by_thread t = Array.copy t.boot_allocs_by_thread

let create ?live_mb ?(threads = 1) ?(schedule_seed = 0) ?(oracle = false) desc
    ~rt ~seed =
  (* Calibrated against the default sizes regardless of the collector
     under test: lifetimes are a workload property. *)
  let live_mb = Option.value live_mb ~default:(Descriptor.live_mb desc) in
  let life =
    Lifetime.make ~live_mb desc ~nursery_bytes:(4 * Units.mib) ~observer_bytes:(8 * Units.mib)
  in
  (* Mean of the truncated Pareto large-size distribution, to convert
     the byte fraction of large allocation into a per-object draw. *)
  let large_mean =
    let a = large_alpha and x = float_of_int large_min in
    a *. x /. (a -. 1.0)
  in
  let es = float_of_int desc.Descriptor.mean_small in
  let f = desc.Descriptor.large_frac in
  let p_large = if f <= 0.0 then 0.0 else f *. es /. (((1.0 -. f) *. large_mean) +. (f *. es)) in
  let root = Rng.of_seed seed in
  let threads = max 1 threads in
  if threads > 1 && Rt.domains rt <> threads then
    invalid_arg
      (Printf.sprintf
         "Mutator.create: %d threads need a runtime with %d domains (has %d)"
         threads threads (Rt.domains rt));
  let mk_thread _ =
    {
      rng = Rng.split root;
      hot_zipf = Rng.Zipf.create ~s:hot_skew;
      recent = Array.make recent_size O.null;
      recent_cursor = 0;
      write_debt = 0.0;
      read_debt = 0.0;
    }
  in
  let mk_dstate _ =
    {
      d_rng = Rng.split root;
      d_hot_zipf = Rng.Zipf.create ~s:hot_skew;
      d_recent = Array.make recent_size None;
      d_recent_cursor = 0;
      d_write_debt = 0.0;
      d_read_debt = 0.0;
    }
  in
  {
    desc;
    rt;
    words = Rt.words rt;
    threads = (if threads = 1 then [| mk_thread 0 |] else [||]);
    cur = 0;
    life;
    hot = Vec.create ();
    warm = Vec.create ();
    cold = Vec.create ();
    allocated = 0;
    p_large;
    large_mean;
    live_mb;
    nthreads = threads;
    oracle;
    sched_rng = Rng.of_seed schedule_seed;
    dstates = (if threads = 1 then [||] else Array.init threads mk_dstate);
    boot_allocs_by_thread = Array.make threads 0;
  }

let draw_small_size_rng t rng =
  (* Geometric in words around the benchmark mean, 16 B..8 KB. *)
  let mean_words = float_of_int t.desc.Descriptor.mean_small /. 8.0 in
  let p = 1.0 /. Float.max 2.0 mean_words in
  let words = 2 + Rng.geometric rng p in
  Int.min Layout.max_small_object (Int.max 16 (words * 8))

let draw_small_size t th = draw_small_size_rng t th.rng

let draw_large_size_rng rng =
  let s = Rng.pareto rng ~alpha:large_alpha ~xmin:(float_of_int large_min) in
  Int.min (2 * Units.mib) (int_of_float s)

let draw_large_size th = draw_large_size_rng th.rng

let assign_heat_rng t rng cls =
  (* Hot objects must end up ~2% of *written* mature objects (Figure
     2). Written mature objects also include the cold sample and the
     warm class, so hot is rare and restricted to long-lived *churn*
     objects (caches, session tables) - allocated at runtime, so they
     pass through the observer where KG-W can classify them. The boot
     image itself is read-mostly static data. *)
  let long_like =
    match cls with
    | Lifetime.Long -> true
    (* Benchmarks with (almost) no long-lived churn still have a hot
       working set; it just lives in the medium class. *)
    | Lifetime.Medium ->
      t.desc.Descriptor.nursery_survival *. t.desc.Descriptor.observer_survival < 0.02
    | _ -> false
  in
  if long_like then begin
    let u = Rng.float rng 1.0 in
    if u < 0.04 then O.Hot else if u < 0.20 then O.Warm else O.Cold
  end
  else
    match cls with
    | Lifetime.Short -> O.Cold
    | Lifetime.Medium -> if Rng.bernoulli rng 0.02 then O.Warm else O.Cold
    | Lifetime.Immortal -> if Rng.bernoulli rng 0.01 then O.Warm else O.Cold
    | Lifetime.Long -> O.Cold

let assign_heat t th cls = assign_heat_rng t th.rng cls

let register t th (o : O.t) =
  th.recent.(th.recent_cursor) <- o;
  th.recent_cursor <- (th.recent_cursor + 1) mod recent_size;
  t.allocated <- t.allocated + 1;
  match O.heat t.words o with
  | O.Hot -> Vec.push t.hot o
  | O.Warm -> Vec.push t.warm o
  | O.Cold ->
    if Vec.length t.cold < cold_cap then Vec.push t.cold o
    else if Rng.bernoulli th.rng (float_of_int cold_cap /. float_of_int t.allocated) then
      Vec.set t.cold (Rng.int th.rng cold_cap) o

let allocate_one t th =
  let cls, life =
    Lifetime.draw t.life th.rng ~nursery_remaining:(float_of_int (Rt.nursery_free t.rt))
  in
  let large = Rng.bernoulli th.rng t.p_large in
  let size = if large then draw_large_size th else draw_small_size t th in
  (* Large objects draw from the same lifetime mixture: "we find
     empirically that large objects often follow the weak-generational
     hypothesis, i.e., they die quickly" (4.2.4). *)
  let heat = assign_heat t th cls in
  let death = Rt.now t.rt +. life in
  let ref_fields = Int.max 1 (size / 32) in
  let o = Rt.alloc t.rt ~size ~heat ~death ~ref_fields in
  register t th o;
  o

(* The sequential picks return [O.null] for "nothing found" and
   recurse through top-level functions, so a pick allocates nothing. *)

(* Pick a live object from a pool, pruning dead entries on the way.
   Returns [O.null] if the pool is effectively empty. *)
let rec pick_live t th pool attempts =
  if attempts = 0 || Vec.length pool = 0 then O.null
  else begin
    let i = Rng.int th.rng (Vec.length pool) in
    let o = Vec.get pool i in
    if O.is_live t.words o (Rt.now t.rt) then o
    else begin
      ignore (Vec.swap_remove pool i);
      pick_live t th pool (attempts - 1)
    end
  end

let rec pick_recent_tries t th attempts =
  if attempts = 0 then O.null
  else begin
    let o = th.recent.(Rng.int th.rng recent_size) in
    if (not (O.is_null o)) && O.is_live t.words o (Rt.now t.rt) then o
    else pick_recent_tries t th (attempts - 1)
  end

let pick_recent t th = pick_recent_tries t th 4

let rec pick_hot t th attempts =
  let pool = t.hot in
  if attempts = 0 || Vec.length pool = 0 then O.null
  else begin
    let i = Rng.Zipf.draw th.hot_zipf th.rng ~n:(Vec.length pool) in
    let o = Vec.get pool i in
    if O.is_live t.words o (Rt.now t.rt) then o
    else begin
      ignore (Vec.swap_remove pool i);
      pick_hot t th (attempts - 1)
    end
  end

let pick_mature t th =
  let d = t.desc in
  let u = Rng.float th.rng 1.0 in
  let primary =
    if u < d.Descriptor.top2_frac then pick_hot t th 8
    else if u < d.Descriptor.top10_frac then pick_live t th t.warm 8
    else pick_live t th t.cold 8
  in
  if not (O.is_null primary) then primary
  else begin
    let o = pick_live t th t.cold 8 in
    if not (O.is_null o) then o else pick_recent t th
  end

(* A recent object, else a mature one. *)
let pick_recent_first t th =
  let o = pick_recent t th in
  if O.is_null o then pick_mature t th else o

let pick_write_target t th =
  if Rng.bernoulli th.rng t.desc.Descriptor.nursery_write_frac then pick_recent_first t th
  else begin
    let o = pick_mature t th in
    if O.is_null o then pick_recent t th else o
  end

let do_write t th =
  let src = pick_write_target t th in
  if not (O.is_null src) then
    if Rng.bernoulli th.rng t.desc.Descriptor.ref_write_frac then begin
      let tgt =
        if Rng.bernoulli th.rng 0.5 then pick_recent_first t th else pick_mature t th
      in
      if O.is_null tgt then Rt.write_prim t.rt src else Rt.write_ref t.rt ~src ~tgt
    end
    else Rt.write_prim t.rt src

(* Reads come in streaming bursts over one object (field walks, array
   scans), so one target pick services several load events. *)
let do_reads t th n =
  let target = if Rng.bernoulli th.rng 0.6 then pick_recent t th else pick_mature t th in
  if not (O.is_null target) then Rt.read_burst t.rt target n

(* The debts live in locals for the loop (a mutable float field of a
   mixed record is boxed, so every store to one allocates) and are
   written back once. *)
let mutate_for t th (o : O.t) =
  let d = t.desc in
  let owed = float_of_int (O.size t.words o) *. d.Descriptor.write_alloc_ratio /. 8.0 in
  let write_debt = ref (th.write_debt +. owed) in
  let read_debt = ref th.read_debt in
  while !write_debt >= 1.0 do
    do_write t th;
    write_debt := !write_debt -. 1.0;
    read_debt := !read_debt +. d.Descriptor.read_write_ratio;
    if !read_debt >= 1.0 then begin
      let burst = Int.min 8 (int_of_float !read_debt) in
      do_reads t th burst;
      read_debt := !read_debt -. float_of_int burst
    end
  done;
  th.write_debt <- !write_debt;
  th.read_debt <- !read_debt

(* Register a boot/epoch object against a mutator domain's state. The
   cold-reservoir draws use the domain's own stream here (startup runs
   sequentially, before any worker exists). *)
let register_d t ds (o : O.t) =
  ds.d_recent.(ds.d_recent_cursor) <- Some (T_obj o);
  ds.d_recent_cursor <- (ds.d_recent_cursor + 1) mod recent_size;
  t.allocated <- t.allocated + 1;
  match O.heat t.words o with
  | O.Hot -> Vec.push t.hot o
  | O.Warm -> Vec.push t.warm o
  | O.Cold ->
    if Vec.length t.cold < cold_cap then Vec.push t.cold o
    else if Rng.bernoulli ds.d_rng (float_of_int cold_cap /. float_of_int t.allocated) then
      Vec.set t.cold (Rng.int ds.d_rng cold_cap) o

let allocate_startup t =
  (* Boot image: immortal objects placed directly in the mature space.
     They still join the target pools, so long-lived hot data (session
     tables, caches) receives its share of mature writes. Boot
     allocation round-robins across all mutator threads — every
     thread's PRNG stream and recent window start populated, so thread
     0 has no privileged role once the run begins. *)
  let target = 0.4 *. float_of_int t.live_mb *. float_of_int Units.mib in
  let start = Rt.now t.rt in
  let k = ref 0 in
  while Rt.now t.rt -. start < target do
    let d = !k mod t.nthreads in
    incr k;
    let rng = if t.nthreads = 1 then t.threads.(0).rng else t.dstates.(d).d_rng in
    let large = Rng.bernoulli rng t.p_large in
    let size = if large then draw_large_size_rng rng else draw_small_size_rng t rng in
    let heat = assign_heat_rng t rng Lifetime.Immortal in
    let o = Rt.alloc_boot t.rt ~size ~heat ~ref_fields:(max 1 (size / 32)) in
    if t.nthreads = 1 then register t t.threads.(0) o else register_d t t.dstates.(d) o;
    t.boot_allocs_by_thread.(d) <- t.boot_allocs_by_thread.(d) + 1
  done

(* Each engine step runs one thread for a small burst of allocations,
   then rotates: the coarse interleaving real schedulers produce. *)
let burst_allocs = 16

let run_sequential t ~alloc_bytes ~on_tick ~tick_bytes =
  let start = Rt.now t.rt in
  let next_tick = ref (start +. float_of_int tick_bytes) in
  let target = start +. float_of_int alloc_bytes in
  while Rt.now t.rt < target do
    let th = t.threads.(t.cur) in
    t.cur <- (t.cur + 1) mod Array.length t.threads;
    let deadline = Float.min target (Rt.now t.rt +. float_of_int (burst_allocs * 256)) in
    while Rt.now t.rt < deadline do
      let o = allocate_one t th in
      mutate_for t th o
    done;
    if Rt.now t.rt >= !next_tick then begin
      on_tick (Rt.now t.rt);
      next_tick := !next_tick +. float_of_int tick_bytes
    end
  done

(* ------------------------------------------------------------------ *)
(* Epoch-parallel execution (threads > 1)                              *)
(*                                                                     *)
(* Determinism argument, in three parts:                               *)
(*                                                                     *)
(* 1. Generation is a pure function of the domain's private state      *)
(*    (PRNG, recent ring, debts) and an epoch-start snapshot           *)
(*    (allocation clock, nursery headroom, frozen target pools). No    *)
(*    shared structure is written during generation, so running the N  *)
(*    generators on real Domains or inline in domain order produces    *)
(*    identical op streams — that is exactly what the interleaved      *)
(*    oracle checks.                                                   *)
(* 2. The merge draws only from the schedule PRNG, interleaving        *)
(*    domain streams in chunks while preserving each domain's own      *)
(*    order — so a [T_pending i] reference always resolves to an       *)
(*    already-applied allocation of the same domain.                   *)
(* 3. Apply runs on the coordinator alone, one op at a time, through   *)
(*    the domain-tagged runtime interface; collections fire inside it  *)
(*    exactly where the op stream forces them, and the per-domain      *)
(*    ports stamp every record with the shared issue counter so sink   *)
(*    order is schedule order.                                         *)

type snapshot = { s_now : float; s_nursery_free : int array }

(* Pure pick helpers: same skew as the sequential path but against the
   frozen snapshot — no pruning (pools are read-only during an epoch;
   the coordinator compacts them at the barrier instead). *)

let g_pick_live w rng now pool attempts =
  let rec go a =
    if a = 0 || Vec.length pool = 0 then None
    else begin
      let o = Vec.get pool (Rng.int rng (Vec.length pool)) in
      if O.is_live w o now then Some (T_obj o) else go (a - 1)
    end
  in
  go attempts

let g_pick_recent w ds now =
  let rec go a =
    if a = 0 then None
    else begin
      match ds.d_recent.(Rng.int ds.d_rng recent_size) with
      | Some (T_obj o) when O.is_live w o now -> Some (T_obj o)
      | Some (T_pending i) -> Some (T_pending i)
      | _ -> go (a - 1)
    end
  in
  go 4

let g_pick_hot t ds now attempts =
  let pool = t.hot in
  let rec go a =
    if a = 0 || Vec.length pool = 0 then None
    else begin
      let o = Vec.get pool (Rng.Zipf.draw ds.d_hot_zipf ds.d_rng ~n:(Vec.length pool)) in
      if O.is_live t.words o now then Some (T_obj o) else go (a - 1)
    end
  in
  go attempts

let g_pick_mature t ds now =
  let d = t.desc in
  let w = t.words in
  let rng = ds.d_rng in
  let u = Rng.float rng 1.0 in
  let primary =
    if u < d.Descriptor.top2_frac then g_pick_hot t ds now 8
    else if u < d.Descriptor.top10_frac then g_pick_live w rng now t.warm 8
    else g_pick_live w rng now t.cold 8
  in
  match primary with
  | Some _ as r -> r
  | None -> (
    match g_pick_live w rng now t.cold 8 with
    | Some _ as r -> r
    | None -> g_pick_recent w ds now)

let g_pick_write_target t ds now =
  if Rng.bernoulli ds.d_rng t.desc.Descriptor.nursery_write_frac then
    match g_pick_recent t.words ds now with
    | Some o -> Some o
    | None -> g_pick_mature t ds now
  else
    match g_pick_mature t ds now with
    | Some o -> Some o
    | None -> g_pick_recent t.words ds now

let g_do_write t ds now ops =
  match g_pick_write_target t ds now with
  | None -> ()
  | Some src ->
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.ref_write_frac then begin
      let tgt =
        if Rng.bernoulli ds.d_rng 0.5 then
          match g_pick_recent t.words ds now with
          | Some o -> Some o
          | None -> g_pick_mature t ds now
        else g_pick_mature t ds now
      in
      match tgt with
      | Some tgt -> Vec.push ops (Op_write_ref { src; tgt })
      | None -> Vec.push ops (Op_write_prim src)
    end
    else Vec.push ops (Op_write_prim src)

let g_do_reads t ds now ops n =
  let target =
    if Rng.bernoulli ds.d_rng 0.6 then g_pick_recent t.words ds now
    else g_pick_mature t ds now
  in
  match target with
  | Some tgt -> Vec.push ops (Op_read_burst { tgt; words = n })
  | None -> ()

(* Bytes of allocation each domain generates per epoch. Small enough
   that domains interleave at burst granularity, large enough that the
   per-epoch barrier cost is amortised. *)
let epoch_quantum = 4 * 1024

(* Generate one epoch's op stream for domain [d]: the parallel half of
   the protocol. Touches only [t.dstates.(d)] and read-only state. *)
let generate t d snap =
  let ds = t.dstates.(d) in
  let now = snap.s_now in
  let ops = Vec.create () in
  let pending = ref 0 in
  let bytes = ref 0 in
  while !bytes < epoch_quantum do
    let cls, life =
      Lifetime.draw t.life ds.d_rng
        ~nursery_remaining:(float_of_int snap.s_nursery_free.(d))
    in
    let large = Rng.bernoulli ds.d_rng t.p_large in
    let size = if large then draw_large_size_rng ds.d_rng else draw_small_size_rng t ds.d_rng in
    let heat = assign_heat_rng t ds.d_rng cls in
    let ref_fields = Int.max 1 (size / 32) in
    Vec.push ops (Op_alloc { size; heat; life; ref_fields });
    ds.d_recent.(ds.d_recent_cursor) <- Some (T_pending !pending);
    ds.d_recent_cursor <- (ds.d_recent_cursor + 1) mod recent_size;
    incr pending;
    bytes := !bytes + size;
    ds.d_write_debt <-
      ds.d_write_debt +. (float_of_int size *. t.desc.Descriptor.write_alloc_ratio /. 8.0);
    while ds.d_write_debt >= 1.0 do
      g_do_write t ds now ops;
      ds.d_write_debt <- ds.d_write_debt -. 1.0;
      ds.d_read_debt <- ds.d_read_debt +. t.desc.Descriptor.read_write_ratio;
      if ds.d_read_debt >= 1.0 then begin
        let burst = Int.min 8 (int_of_float ds.d_read_debt) in
        g_do_reads t ds now ops burst;
        ds.d_read_debt <- ds.d_read_debt -. float_of_int burst
      end
    done
  done;
  ops

(* The schedule merge itself is op-type agnostic and shared with the
   Kg_serve request mutator — see Epoch.merge_schedule. *)
let merge_schedule t (streams : op Vec.t array) = Epoch.merge_schedule t.sched_rng streams

(* Apply one epoch's merged schedule through the domain-tagged runtime
   interface. Shared-pool registration happens here, on the
   coordinator; reservoir decisions draw from the schedule PRNG so
   generation streams stay untouched. *)
let apply_schedule t merged (epoch_allocs : O.t Vec.t array) =
  let resolve d = function
    | T_obj o -> o
    | T_pending i -> Vec.get epoch_allocs.(d) i
  in
  Vec.iter
    (fun (d, op) ->
      match op with
      | Op_alloc { size; heat; life; ref_fields } ->
        let death = Rt.now t.rt +. life in
        let o = Rt.alloc ~domain:d t.rt ~size ~heat ~death ~ref_fields in
        Vec.push epoch_allocs.(d) o;
        t.allocated <- t.allocated + 1;
        (match heat with
        | O.Hot -> Vec.push t.hot o
        | O.Warm -> Vec.push t.warm o
        | O.Cold ->
          if Vec.length t.cold < cold_cap then Vec.push t.cold o
          else if
            Rng.bernoulli t.sched_rng (float_of_int cold_cap /. float_of_int t.allocated)
          then Vec.set t.cold (Rng.int t.sched_rng cold_cap) o)
      | Op_write_ref { src; tgt } ->
        Rt.write_ref ~domain:d t.rt ~src:(resolve d src) ~tgt:(resolve d tgt)
      | Op_write_prim tgt -> Rt.write_prim ~domain:d t.rt (resolve d tgt)
      | Op_read_burst { tgt; words } -> Rt.read_burst ~domain:d t.rt (resolve d tgt) words)
    merged

(* Epoch barrier: resolve the recent rings' pending markers to the
   objects the epoch materialised, and compact the shared pools
   (the sequential path prunes lazily inside its picks; the parallel
   path must not mutate pools mid-epoch, so it prunes here). *)
let epoch_barrier t (epoch_allocs : O.t Vec.t array) =
  let now = Rt.now t.rt in
  Array.iteri
    (fun d ds ->
      Array.iteri
        (fun i slot ->
          match slot with
          | Some (T_pending p) -> ds.d_recent.(i) <- Some (T_obj (Vec.get epoch_allocs.(d) p))
          | _ -> ())
        ds.d_recent)
    t.dstates;
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.hot;
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.warm;
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.cold

(* The worker team (real Domains above 0, coordinator generating
   domain 0's stream while waiting) is the shared Epoch.team. *)
let run_epochs t ~alloc_bytes ~on_tick ~tick_bytes =
  let n = t.nthreads in
  let start = Rt.now t.rt in
  let next_tick = ref (start +. float_of_int tick_bytes) in
  let target = start +. float_of_int alloc_bytes in
  let streams : op Vec.t array = Array.init n (fun _ -> Vec.create ()) in
  let snap = ref { s_now = 0.0; s_nursery_free = [||] } in
  let team = Epoch.spawn ~n ~oracle:t.oracle (fun d -> streams.(d) <- generate t d !snap) in
  (try
     while Rt.now t.rt < target do
       snap :=
         {
           s_now = Rt.now t.rt;
           s_nursery_free = Array.init n (fun d -> Rt.nursery_free ~domain:d t.rt);
         };
       Epoch.round team;
       let merged = merge_schedule t streams in
       let epoch_allocs = Array.init n (fun _ -> Vec.create ()) in
       apply_schedule t merged epoch_allocs;
       epoch_barrier t epoch_allocs;
       if Rt.now t.rt >= !next_tick then begin
         on_tick (Rt.now t.rt);
         next_tick := !next_tick +. float_of_int tick_bytes
       end
     done
   with e ->
     Epoch.finish team;
     raise e);
  Epoch.finish team

let run t ~alloc_bytes ?(on_tick = fun _ -> ()) ?(tick_bytes = Units.mib) () =
  if t.nthreads = 1 then run_sequential t ~alloc_bytes ~on_tick ~tick_bytes
  else run_epochs t ~alloc_bytes ~on_tick ~tick_bytes

let scaled_alloc_bytes (d : Descriptor.t) ~scale ~cap_mb =
  let scaled = d.alloc_mb / max 1 scale in
  let floor_mb = min d.alloc_mb 96 in
  min cap_mb (max floor_mb scaled) * Units.mib
