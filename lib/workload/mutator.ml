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
   epoch barrier. With one thread every op goes straight to the
   group's runtimes (see [split] below), and the op buffer stays
   empty.

   The debts (write at 0, read at 1) live in a float array: a mutable
   float field of a mixed record is boxed, so each store to one would
   allocate. *)
type dstate = {
  d_rng : Rng.t;
  d_hot_zipf : Rng.Zipf.t;
  d_ops : Epoch.ops;
  d_recent : int array;
  mutable d_recent_cursor : int;
  d_debts : float array;
}

type t = {
  desc : Descriptor.t;
  rt : Rt.t;  (* the leader: its clock and nursery drive the draws *)
  words : O.store;  (* the leader's flat-word heap tables *)
  life : Lifetime.t;
  hot : O.t Vec.t;
  warm : O.t Vec.t;
  cold : O.t Vec.t;
  mutable allocated : int;  (* objects *)
  p_large : float;
  live_mb : int;
  nthreads : int;
  dstates : dstate array;  (* one per thread *)
  sched_rng : Rng.t;  (* multi-domain merge schedule; seeded independently *)
  boot_allocs_by_thread : int array;
  mutable rts : Rt.t array;  (* every runtime applying the ops, [rt] first *)
  group : Rt.t array;  (* [create]'s runtimes, its leader first; the copies share it *)
  left : int array;  (* per [group] runtime: the run allocation at which it left, or -1 *)
}

let boot_allocs_by_thread t = Array.copy t.boot_allocs_by_thread

let create ?live_mb ?(threads = 1) ?(schedule_seed = 0) ?(followers = []) desc ~rt ~seed =
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
  if threads > 1 && followers <> [] then
    invalid_arg "Mutator.create: followers share one-thread runs only";
  let mk_dstate d =
    {
      d_rng = Rng.split root;
      d_hot_zipf = Rng.Zipf.create ~s:hot_skew;
      d_ops = Epoch.ops_create d;
      d_recent = Array.make recent_size O.null;
      d_recent_cursor = 0;
      d_debts = Array.make 2 0.0;
    }
  in
  let rts = Array.of_list (rt :: followers) in
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
    live_mb;
    nthreads = threads;
    sched_rng = Rng.of_seed schedule_seed;
    dstates = Array.init threads mk_dstate;
    boot_allocs_by_thread = Array.make threads 0;
    rts;
    group = rts;
    left = Array.make (Array.length rts) (-1);
  }

let splits t =
  List.init (Array.length t.left - 1) (fun i ->
      let k = t.left.(i + 1) in
      if k < 0 then None else Some k)

let draw_small_size (desc : Descriptor.t) rng =
  (* Geometric in words around the benchmark mean, 16 B..8 KB. *)
  let mean_words = float_of_int desc.mean_small /. 8.0 in
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
  let nursery_remaining = float_of_int (Rt.nursery_free t.rt) in
  let cls, life = Lifetime.draw t.life ds.d_rng ~nursery_remaining in
  let large = Rng.bernoulli ds.d_rng t.p_large in
  let size = if large then draw_large_size_rng ds.d_rng else draw_small_size t.desc ds.d_rng in
  (* Large objects draw from the same lifetime mixture: "we find
     empirically that large objects often follow the weak-generational
     hypothesis, i.e., they die quickly" (4.2.4). *)
  let heat = assign_heat_rng t ds.d_rng cls in
  let death = Rt.now t.rt +. life in
  let ref_fields = Int.max 1 (size / 32) in
  let o = Rt.alloc t.rt ~size ~heat ~death ~ref_fields in
  for i = 1 to Array.length t.rts - 1 do
    ignore (Rt.alloc (Array.unsafe_get t.rts i) ~size ~heat ~death ~ref_fields)
  done;
  register t ds o;
  o

(* The picks return [O.null] for "nothing found" and recurse through
   top-level functions, so a pick allocates nothing. [now] is the
   allocation clock at the object whose writes are being generated.
   With one thread a pick drops each dead pool entry it draws; with
   more, the pools are read-only during an epoch and the barrier
   compacts them. A pick from the recent ring may return a pending
   target. *)

(* A live object from [pool], drawn uniformly, or by the hot-pick Zipf
   sampler over registration order when [hot]. *)
let rec pick_pool t ds now pool ~hot attempts =
  let n = Vec.length pool in
  if attempts = 0 || n = 0 then O.null
  else begin
    let i = if hot then Rng.Zipf.draw ds.d_hot_zipf ds.d_rng ~n else Rng.int ds.d_rng n in
    let o = Vec.get pool i in
    if O.is_live t.words o now then o
    else begin
      if t.nthreads = 1 then ignore (Vec.swap_remove pool i);
      pick_pool t ds now pool ~hot (attempts - 1)
    end
  end

let pick_recent t ds now = Epoch.pick_recent t.words ds.d_rng ds.d_recent now 4

let pick_mature t ds now =
  let d = t.desc in
  let u = Rng.float ds.d_rng 1.0 in
  let primary =
    if u < d.Descriptor.top2_frac then pick_pool t ds now t.hot ~hot:true 8
    else if u < d.Descriptor.top10_frac then pick_pool t ds now t.warm ~hot:false 8
    else pick_pool t ds now t.cold ~hot:false 8
  in
  if not (O.is_null primary) then primary
  else begin
    let o = pick_pool t ds now t.cold ~hot:false 8 in
    if not (O.is_null o) then o else pick_recent t ds now
  end

(* A recent object, else a mature one. *)
let pick_recent_first t ds now =
  let o = pick_recent t ds now in
  if O.is_null o then pick_mature t ds now else o

let pick_write_target t ds now =
  if Rng.bernoulli ds.d_rng t.desc.Descriptor.nursery_write_frac then pick_recent_first t ds now
  else begin
    let o = pick_mature t ds now in
    if O.is_null o then pick_recent t ds now else o
  end

(* With one thread an op runs at once on each of the group's
   runtimes, leader first; with more it waits in the domain's buffer
   for the merge. *)
let write_prim t ds o =
  if t.nthreads > 1 then Epoch.push_write_prim ds.d_ops o
  else
    for i = 0 to Array.length t.rts - 1 do
      Rt.write_prim (Array.unsafe_get t.rts i) o
    done

let write_ref t ds ~src ~tgt =
  if t.nthreads > 1 then Epoch.push_write_ref ds.d_ops ~src ~tgt
  else
    for i = 0 to Array.length t.rts - 1 do
      Rt.write_ref (Array.unsafe_get t.rts i) ~src ~tgt
    done

let do_write t ds now =
  let src = pick_write_target t ds now in
  if not (O.is_null src) then
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.ref_write_frac then begin
      let tgt =
        if Rng.bernoulli ds.d_rng 0.5 then pick_recent_first t ds now else pick_mature t ds now
      in
      if O.is_null tgt then write_prim t ds src else write_ref t ds ~src ~tgt
    end
    else write_prim t ds src

(* Reads come in streaming bursts over one object (field walks, array
   scans), so one target pick services several load events. *)
let do_reads t ds now n =
  let tgt = if Rng.bernoulli ds.d_rng 0.6 then pick_recent t ds now else pick_mature t ds now in
  if not (O.is_null tgt) then
    if t.nthreads > 1 then Epoch.push_read_burst ds.d_ops tgt ~words:n
    else
      for i = 0 to Array.length t.rts - 1 do
        Rt.read_burst (Array.unsafe_get t.rts i) tgt n
      done

(* The writes and reads one new object of [size] bytes owes. *)
let mutate t ds now size =
  let d = t.desc in
  let debts = ds.d_debts in
  debts.(0) <- debts.(0) +. (float_of_int size *. d.Descriptor.write_alloc_ratio /. 8.0);
  while debts.(0) >= 1.0 do
    do_write t ds now;
    debts.(0) <- debts.(0) -. 1.0;
    debts.(1) <- debts.(1) +. d.Descriptor.read_write_ratio;
    if debts.(1) >= 1.0 then begin
      let burst = Int.min 8 (int_of_float debts.(1)) in
      do_reads t ds now burst;
      debts.(1) <- debts.(1) -. float_of_int burst
    end
  done

let allocate_startup t =
  (* Boot image: immortal objects placed directly in the mature space.
     They still join the target pools, so long-lived hot data (session
     tables, caches) receives its share of mature writes. Boot
     allocation round-robins across all mutator threads — every
     thread's PRNG stream and recent window start populated, so thread
     0 has no privileged role once the run begins. Followers allocate
     each boot object as the leader draws it: no boot draw reads the
     nursery, so no follower leaves here. *)
  let target = 0.4 *. float_of_int t.live_mb *. float_of_int Units.mib in
  let start = Rt.now t.rt in
  let k = ref 0 in
  while Rt.now t.rt -. start < target do
    let d = !k mod t.nthreads in
    incr k;
    let ds = t.dstates.(d) in
    let rng = ds.d_rng in
    let large = Rng.bernoulli rng t.p_large in
    let size = if large then draw_large_size_rng rng else draw_small_size t.desc rng in
    let heat = assign_heat_rng t rng Lifetime.Immortal in
    let ref_fields = max 1 (size / 32) in
    let o = Rt.alloc_boot t.rt ~size ~heat ~ref_fields in
    for i = 1 to Array.length t.rts - 1 do
      ignore (Rt.alloc_boot t.rts.(i) ~size ~heat ~ref_fields)
    done;
    register t ds o;
    t.boot_allocs_by_thread.(d) <- t.boot_allocs_by_thread.(d) + 1
  done

(* Does a follower's nursery headroom differ from the leader's? Asked
   before every allocation of a group, so it allocates nothing. *)
let rec diverged t free i =
  i < Array.length t.rts && (Rt.nursery_free t.rts.(i) <> free || diverged t free (i + 1))

(* One thread: allocate one object, then generate its writes and reads
   against the clock just after the allocation (generating them
   allocates nothing, so the clock holds still). The size charged is
   the aligned one the runtime allocated. *)
let rec run_sequential t ~target =
  let ds = t.dstates.(0) in
  while Rt.now t.rt < target do
    if Array.length t.rts > 1 then split t ~target;
    let o = allocate_one t ds in
    mutate t ds (Rt.now t.rt) (O.size t.words o)
  done

(* The mutator reads its runtime through the clock, the nursery
   headroom and the object store. The clocks agree (they sum the same
   sizes), and so do object ids, sizes, heats and death stamps while
   the ops agree; the headroom, which the next lifetime draw reads, is
   the one thing a collector can change. So before each allocation the
   followers whose headroom differs from the leader's leave together
   and run to [target] on a copy of this mutator, which splits again if
   they diverge in turn. Every draw so far was theirs too, so the copy
   is the mutator each would have had alone. *)
and split t ~target =
  let free = Rt.nursery_free t.rt in
  if diverged t free 1 then begin
    let stay, leave = List.partition (fun rt -> Rt.nursery_free rt = free) (Array.to_list t.rts) in
    let rts = Array.of_list leave in
    let at = t.allocated - t.boot_allocs_by_thread.(0) in
    Array.iteri (fun i rt -> if t.left.(i) < 0 && Array.memq rt rts then t.left.(i) <- at) t.group;
    t.rts <- Array.of_list stay;
    let ds = t.dstates.(0) in
    let copy v = Vec.of_array (Vec.to_array v) in
    run_sequential
      {
        t with
        rt = rts.(0);
        words = Rt.words rts.(0);
        hot = copy t.hot;
        warm = copy t.warm;
        cold = copy t.cold;
        dstates =
          [|
            {
              ds with
              d_rng = Rng.copy ds.d_rng;
              (* Its only state caches h(n + 0.5) for the last n. *)
              d_hot_zipf = Rng.Zipf.create ~s:hot_skew;
              d_recent = Array.copy ds.d_recent;
              d_debts = Array.copy ds.d_debts;
            };
          |];
        rts;
      }
      ~target
  end

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
(*    ports append into their group's one shared buffer, so sink order *)
(*    is schedule order.                                               *)

(* Bytes of allocation each domain generates per epoch. Small enough
   that domains interleave at burst granularity, large enough that the
   per-epoch barrier cost is amortised. *)
let epoch_quantum = 4 * 1024

(* Generate one epoch's op stream for domain [d] into its buffer.
   Generation runs in domain order on the calling domain, and touches
   only [t.dstates.(d)] and read-only state. An object owes writes by its drawn size, which for
   a large object is the unaligned one. *)
let generate t d (snap : Epoch.snapshot) =
  let ds = t.dstates.(d) in
  let now = snap.now in
  let nursery_remaining = float_of_int snap.nursery_free.(d) in
  Epoch.reset ds.d_ops;
  let bytes = ref 0 in
  while !bytes < epoch_quantum do
    let cls, life = Lifetime.draw t.life ds.d_rng ~nursery_remaining in
    let large = Rng.bernoulli ds.d_rng t.p_large in
    let size = if large then draw_large_size_rng ds.d_rng else draw_small_size t.desc ds.d_rng in
    let heat = assign_heat_rng t ds.d_rng cls in
    let ref_fields = Int.max 1 (size / 32) in
    ds.d_recent.(ds.d_recent_cursor) <- Epoch.push_alloc ds.d_ops ~size ~heat ~life ~ref_fields;
    ds.d_recent_cursor <- (ds.d_recent_cursor + 1) mod recent_size;
    bytes := !bytes + size;
    mutate t ds now size
  done

(* Apply op [i] of domain [d] through the domain-tagged runtime
   interface. Shared-pool registration happens here, in schedule
   order; reservoir decisions draw from the
   schedule PRNG (after the epoch's whole schedule is drawn) so
   generation streams stay untouched. *)
let apply_op t (allocs : O.t Vec.t array) d i =
  let o = Epoch.apply_op t.rt allocs.(d) t.dstates.(d).d_ops i in
  if not (O.is_null o) then add_to_pools t t.sched_rng o

(* Epoch barrier: resolve the recent rings' pending targets to the
   objects the epoch materialised, and compact the shared pools (with
   one thread the picks drop dead entries as they draw them; an epoch
   must not change the pools while domains generate, so it prunes
   here). *)
let epoch_barrier t (allocs : O.t Vec.t array) =
  let now = Rt.now t.rt in
  Array.iteri (fun d ds -> Epoch.resolve_all allocs.(d) ds.d_recent) t.dstates;
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
  if t.nthreads = 1 then run_sequential t ~target:(Rt.now t.rt +. float_of_int alloc_bytes)
  else run_epochs t ~alloc_bytes

let scaled_alloc_bytes (d : Descriptor.t) ~scale ~cap_mb =
  let scaled = d.alloc_mb / max 1 scale in
  let floor_mb = min d.alloc_mb 96 in
  min cap_mb (max floor_mb scaled) * Units.mib
