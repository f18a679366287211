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

(* A mutator thread's private state: PRNG stream and hot-pick
   sampler, op buffer, recent-allocation ring ([O.null] marks an empty
   slot) and mutation debts. Pools of mature targets are shared
   (threads share data structures).

   With [threads > 1] the threads are simulated mutator domains running
   an epoch protocol (see [run_epochs] below): each domain *generates*
   a symbolic op stream as a pure function of its private state plus a
   read-only snapshot, and the streams are then *applied* in a
   schedule-seeded deterministic merge. A generated op names an object
   that does not exist yet with a negative pending target, [-(i+1)]
   for the issuing domain's i-th allocation of the epoch; the recent
   ring holds such targets until the epoch barrier materialises them.
   A domain's state is touched only by its own generator and by the
   epoch barrier. With one thread the op buffer stays empty. *)
type dstate = {
  d_rng : Rng.t;
  d_hot_zipf : Rng.Zipf.t;
  d_ops : Epoch.ops;
  d_recent : int array;
  mutable d_recent_cursor : int;
  mutable d_write_debt : float;
  mutable d_read_debt : float;
}

type t = {
  desc : Descriptor.t;
  rt : Rt.t;
  words : O.store;  (* the runtime's flat-word heap tables *)
  life : Lifetime.t;
  hot : O.t Vec.t;
  warm : O.t Vec.t;
  cold : O.t Vec.t;
  mutable allocated : int;  (* objects *)
  p_large : float;
  large_mean : float;
  live_mb : int;
  nthreads : int;
  dstates : dstate array;  (* one per thread *)
  sched_rng : Rng.t;  (* multi-domain merge schedule; seeded independently *)
  boot_allocs_by_thread : int array;
}

let descriptor t = t.desc
let runtime t = t.rt
let thread_count t = t.nthreads
let boot_allocs_by_thread t = Array.copy t.boot_allocs_by_thread

let create ?live_mb ?(threads = 1) ?(schedule_seed = 0) desc ~rt ~seed =
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
  let mk_dstate _ =
    {
      d_rng = Rng.split root;
      d_hot_zipf = Rng.Zipf.create ~s:hot_skew;
      d_ops = Epoch.ops_create ();
      d_recent = Array.make recent_size O.null;
      d_recent_cursor = 0;
      d_write_debt = 0.0;
      d_read_debt = 0.0;
    }
  in
  {
    desc;
    rt;
    words = Rt.words rt;
    life;
    hot = Vec.create ();
    warm = Vec.create ();
    cold = Vec.create ();
    allocated = 0;
    p_large;
    large_mean;
    live_mb;
    nthreads = threads;
    sched_rng = Rng.of_seed schedule_seed;
    dstates = Array.init threads mk_dstate;
    boot_allocs_by_thread = Array.make threads 0;
  }

let draw_small_size_rng t rng =
  (* Geometric in words around the benchmark mean, 16 B..8 KB. *)
  let mean_words = float_of_int t.desc.Descriptor.mean_small /. 8.0 in
  let p = 1.0 /. Float.max 2.0 mean_words in
  let words = 2 + Rng.geometric rng p in
  Int.min Layout.max_small_object (Int.max 16 (words * 8))

let draw_large_size_rng rng =
  let s = Rng.pareto rng ~alpha:large_alpha ~xmin:(float_of_int large_min) in
  Int.min (2 * Units.mib) (int_of_float s)

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

(* Count a new object and enter it in the shared target pool of its
   heat; the cold pool is a reservoir sample whose draws come from
   [rng]. *)
let add_to_pools t rng (o : O.t) =
  t.allocated <- t.allocated + 1;
  match O.heat t.words o with
  | O.Hot -> Vec.push t.hot o
  | O.Warm -> Vec.push t.warm o
  | O.Cold ->
    if Vec.length t.cold < cold_cap then Vec.push t.cold o
    else if Rng.bernoulli rng (float_of_int cold_cap /. float_of_int t.allocated) then
      Vec.set t.cold (Rng.int rng cold_cap) o

(* Register a new object against its thread's state. *)
let register t ds (o : O.t) =
  ds.d_recent.(ds.d_recent_cursor) <- o;
  ds.d_recent_cursor <- (ds.d_recent_cursor + 1) mod recent_size;
  add_to_pools t ds.d_rng o

let allocate_one t ds =
  let cls, life =
    Lifetime.draw t.life ds.d_rng ~nursery_remaining:(float_of_int (Rt.nursery_free t.rt))
  in
  let large = Rng.bernoulli ds.d_rng t.p_large in
  let size = if large then draw_large_size_rng ds.d_rng else draw_small_size_rng t ds.d_rng in
  (* Large objects draw from the same lifetime mixture: "we find
     empirically that large objects often follow the weak-generational
     hypothesis, i.e., they die quickly" (4.2.4). *)
  let heat = assign_heat_rng t ds.d_rng cls in
  let death = Rt.now t.rt +. life in
  let ref_fields = Int.max 1 (size / 32) in
  let o = Rt.alloc t.rt ~size ~heat ~death ~ref_fields in
  register t ds o;
  o

(* The sequential picks return [O.null] for "nothing found" and
   recurse through top-level functions, so a pick allocates nothing. *)

(* Pick a live object from a pool, pruning dead entries on the way.
   Returns [O.null] if the pool is effectively empty. *)
let rec pick_live t ds pool attempts =
  if attempts = 0 || Vec.length pool = 0 then O.null
  else begin
    let i = Rng.int ds.d_rng (Vec.length pool) in
    let o = Vec.get pool i in
    if O.is_live t.words o (Rt.now t.rt) then o
    else begin
      ignore (Vec.swap_remove pool i);
      pick_live t ds pool (attempts - 1)
    end
  end

let rec pick_recent_tries t ds attempts =
  if attempts = 0 then O.null
  else begin
    let o = ds.d_recent.(Rng.int ds.d_rng recent_size) in
    if (not (O.is_null o)) && O.is_live t.words o (Rt.now t.rt) then o
    else pick_recent_tries t ds (attempts - 1)
  end

let pick_recent t ds = pick_recent_tries t ds 4

let rec pick_hot t ds attempts =
  let pool = t.hot in
  if attempts = 0 || Vec.length pool = 0 then O.null
  else begin
    let i = Rng.Zipf.draw ds.d_hot_zipf ds.d_rng ~n:(Vec.length pool) in
    let o = Vec.get pool i in
    if O.is_live t.words o (Rt.now t.rt) then o
    else begin
      ignore (Vec.swap_remove pool i);
      pick_hot t ds (attempts - 1)
    end
  end

let pick_mature t ds =
  let d = t.desc in
  let u = Rng.float ds.d_rng 1.0 in
  let primary =
    if u < d.Descriptor.top2_frac then pick_hot t ds 8
    else if u < d.Descriptor.top10_frac then pick_live t ds t.warm 8
    else pick_live t ds t.cold 8
  in
  if not (O.is_null primary) then primary
  else begin
    let o = pick_live t ds t.cold 8 in
    if not (O.is_null o) then o else pick_recent t ds
  end

(* A recent object, else a mature one. *)
let pick_recent_first t ds =
  let o = pick_recent t ds in
  if O.is_null o then pick_mature t ds else o

let pick_write_target t ds =
  if Rng.bernoulli ds.d_rng t.desc.Descriptor.nursery_write_frac then pick_recent_first t ds
  else begin
    let o = pick_mature t ds in
    if O.is_null o then pick_recent t ds else o
  end

let do_write t ds =
  let src = pick_write_target t ds in
  if not (O.is_null src) then
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.ref_write_frac then begin
      let tgt =
        if Rng.bernoulli ds.d_rng 0.5 then pick_recent_first t ds else pick_mature t ds
      in
      if O.is_null tgt then Rt.write_prim t.rt src else Rt.write_ref t.rt ~src ~tgt
    end
    else Rt.write_prim t.rt src

(* Reads come in streaming bursts over one object (field walks, array
   scans), so one target pick services several load events. *)
let do_reads t ds n =
  let target = if Rng.bernoulli ds.d_rng 0.6 then pick_recent t ds else pick_mature t ds in
  if not (O.is_null target) then Rt.read_burst t.rt target n

(* The debts live in locals for the loop (a mutable float field of a
   mixed record is boxed, so every store to one allocates) and are
   written back once. *)
let mutate_for t ds (o : O.t) =
  let d = t.desc in
  let owed = float_of_int (O.size t.words o) *. d.Descriptor.write_alloc_ratio /. 8.0 in
  let write_debt = ref (ds.d_write_debt +. owed) in
  let read_debt = ref ds.d_read_debt in
  while !write_debt >= 1.0 do
    do_write t ds;
    write_debt := !write_debt -. 1.0;
    read_debt := !read_debt +. d.Descriptor.read_write_ratio;
    if !read_debt >= 1.0 then begin
      let burst = Int.min 8 (int_of_float !read_debt) in
      do_reads t ds burst;
      read_debt := !read_debt -. float_of_int burst
    end
  done;
  ds.d_write_debt <- !write_debt;
  ds.d_read_debt <- !read_debt

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
    let ds = t.dstates.(d) in
    let rng = ds.d_rng in
    let large = Rng.bernoulli rng t.p_large in
    let size = if large then draw_large_size_rng rng else draw_small_size_rng t rng in
    let heat = assign_heat_rng t rng Lifetime.Immortal in
    let o = Rt.alloc_boot t.rt ~size ~heat ~ref_fields:(max 1 (size / 32)) in
    register t ds o;
    t.boot_allocs_by_thread.(d) <- t.boot_allocs_by_thread.(d) + 1
  done

let run_sequential t ~alloc_bytes =
  let ds = t.dstates.(0) in
  let target = Rt.now t.rt +. float_of_int alloc_bytes in
  while Rt.now t.rt < target do
    mutate_for t ds (allocate_one t ds)
  done

(* ------------------------------------------------------------------ *)
(* Epoch-parallel execution (threads > 1)                              *)
(*                                                                     *)
(* Determinism argument, in three parts:                               *)
(*                                                                     *)
(* 1. Generation is a pure function of the domain's private state      *)
(*    (PRNG, recent ring, debts) and an epoch-start snapshot           *)
(*    (allocation clock, nursery headroom, frozen target pools). No    *)
(*    shared structure is written during generation, so the order in   *)
(*    which the N generators run does not change their op streams.     *)
(* 2. The merge draws only from the schedule PRNG, interleaving        *)
(*    domain streams in chunks while preserving each domain's own      *)
(*    order — so a pending target always resolves to an                *)
(*    already-applied allocation of the same domain.                   *)
(* 3. Apply runs one op at a time, through                             *)
(*    the domain-tagged runtime interface; collections fire inside it  *)
(*    exactly where the op stream forces them, and the per-domain      *)
(*    ports stamp every record with the shared issue counter so sink   *)
(*    order is schedule order.                                         *)

(* Pure pick helpers: same skew as the sequential path but against the
   frozen snapshot — no pruning (pools are read-only during an epoch;
   the barrier compacts them instead). Like the
   sequential picks they return [O.null] for "nothing found"; a pick
   from the recent ring may also return a pending target. *)

let rec g_pick_live w rng now pool attempts =
  if attempts = 0 || Vec.length pool = 0 then O.null
  else begin
    let o = Vec.get pool (Rng.int rng (Vec.length pool)) in
    if O.is_live w o now then o else g_pick_live w rng now pool (attempts - 1)
  end

let rec g_pick_recent w ds now attempts =
  if attempts = 0 then O.null
  else begin
    let x = ds.d_recent.(Rng.int ds.d_rng recent_size) in
    if x < 0 || (x > 0 && O.is_live w x now) then x else g_pick_recent w ds now (attempts - 1)
  end

let rec g_pick_hot t ds now attempts =
  let pool = t.hot in
  if attempts = 0 || Vec.length pool = 0 then O.null
  else begin
    let o = Vec.get pool (Rng.Zipf.draw ds.d_hot_zipf ds.d_rng ~n:(Vec.length pool)) in
    if O.is_live t.words o now then o else g_pick_hot t ds now (attempts - 1)
  end

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
  if not (O.is_null primary) then primary
  else begin
    let o = g_pick_live w rng now t.cold 8 in
    if not (O.is_null o) then o else g_pick_recent w ds now 4
  end

(* A recent object (or pending target), else a mature one. *)
let g_pick_recent_first t ds now =
  let o = g_pick_recent t.words ds now 4 in
  if O.is_null o then g_pick_mature t ds now else o

let g_pick_write_target t ds now =
  if Rng.bernoulli ds.d_rng t.desc.Descriptor.nursery_write_frac then g_pick_recent_first t ds now
  else begin
    let o = g_pick_mature t ds now in
    if O.is_null o then g_pick_recent t.words ds now 4 else o
  end

let g_do_write t ds now =
  let src = g_pick_write_target t ds now in
  if not (O.is_null src) then
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.ref_write_frac then begin
      let tgt =
        if Rng.bernoulli ds.d_rng 0.5 then g_pick_recent_first t ds now else g_pick_mature t ds now
      in
      if O.is_null tgt then Epoch.push_write_prim ds.d_ops src
      else Epoch.push_write_ref ds.d_ops ~src ~tgt
    end
    else Epoch.push_write_prim ds.d_ops src

let g_do_reads t ds now n =
  let tgt =
    if Rng.bernoulli ds.d_rng 0.6 then g_pick_recent t.words ds now 4 else g_pick_mature t ds now
  in
  if not (O.is_null tgt) then Epoch.push_read_burst ds.d_ops tgt ~words:n

(* Bytes of allocation each domain generates per epoch. Small enough
   that domains interleave at burst granularity, large enough that the
   per-epoch barrier cost is amortised. *)
let epoch_quantum = 4 * 1024

(* Generate one epoch's op stream for domain [d] into its buffer: the
   parallel half of the protocol. Touches only [t.dstates.(d)] and
   read-only state; the debts live in locals, as in [mutate_for]. *)
let generate t d (snap : Epoch.snapshot) =
  let ds = t.dstates.(d) in
  let desc = t.desc in
  let now = snap.now in
  let nursery_remaining = float_of_int snap.nursery_free.(d) in
  Epoch.reset ds.d_ops;
  let write_debt = ref ds.d_write_debt in
  let read_debt = ref ds.d_read_debt in
  let bytes = ref 0 in
  while !bytes < epoch_quantum do
    let cls, life = Lifetime.draw t.life ds.d_rng ~nursery_remaining in
    let large = Rng.bernoulli ds.d_rng t.p_large in
    let size = if large then draw_large_size_rng ds.d_rng else draw_small_size_rng t ds.d_rng in
    let heat = assign_heat_rng t ds.d_rng cls in
    let ref_fields = Int.max 1 (size / 32) in
    ds.d_recent.(ds.d_recent_cursor) <- Epoch.push_alloc ds.d_ops ~size ~heat ~life ~ref_fields;
    ds.d_recent_cursor <- (ds.d_recent_cursor + 1) mod recent_size;
    bytes := !bytes + size;
    write_debt := !write_debt +. (float_of_int size *. desc.Descriptor.write_alloc_ratio /. 8.0);
    while !write_debt >= 1.0 do
      g_do_write t ds now;
      write_debt := !write_debt -. 1.0;
      read_debt := !read_debt +. desc.Descriptor.read_write_ratio;
      if !read_debt >= 1.0 then begin
        let burst = Int.min 8 (int_of_float !read_debt) in
        g_do_reads t ds now burst;
        read_debt := !read_debt -. float_of_int burst
      end
    done
  done;
  ds.d_write_debt <- !write_debt;
  ds.d_read_debt <- !read_debt

(* Apply op [i] of domain [d] through the domain-tagged runtime
   interface. Shared-pool registration happens here, in schedule
   order; reservoir decisions draw from the
   schedule PRNG (after the epoch's whole schedule is drawn) so
   generation streams stay untouched. *)
let apply_op t (allocs : O.t Vec.t array) d i =
  let o = Epoch.apply_op t.rt allocs.(d) d t.dstates.(d).d_ops i in
  if not (O.is_null o) then add_to_pools t t.sched_rng o

(* Epoch barrier: resolve the recent rings' pending targets to the
   objects the epoch materialised, and compact the shared pools
   (the sequential path prunes lazily inside its picks; the parallel
   path must not mutate pools mid-epoch, so it prunes here). *)
let epoch_barrier t (allocs : O.t Vec.t array) =
  let now = Rt.now t.rt in
  Array.iteri
    (fun d ds ->
      let r = ds.d_recent in
      for i = 0 to recent_size - 1 do
        if r.(i) < 0 then r.(i) <- Epoch.resolve allocs.(d) r.(i)
      done)
    t.dstates;
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.hot;
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.warm;
  Vec.filter_in_place (fun o -> O.is_live t.words o now) t.cold

(* The epoch loop, op buffers and chunk schedule are Epoch's. *)
let run_epochs t ~alloc_bytes =
  Epoch.run ~rt:t.rt ~n:t.nthreads ~sched_rng:t.sched_rng
    ~bufs:(Array.map (fun ds -> ds.d_ops) t.dstates)
    ~target:(Rt.now t.rt +. float_of_int alloc_bytes)
    ~generate:(generate t) ~apply:(apply_op t) ~barrier:(epoch_barrier t)

let run t ~alloc_bytes () =
  if t.nthreads = 1 then run_sequential t ~alloc_bytes else run_epochs t ~alloc_bytes

let scaled_alloc_bytes (d : Descriptor.t) ~scale ~cap_mb =
  let scaled = d.alloc_mb / max 1 scale in
  let floor_mb = min d.alloc_mb 96 in
  min cap_mb (max floor_mb scaled) * Units.mib
