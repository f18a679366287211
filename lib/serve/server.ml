(* The request/response mutator: a server-shaped workload on top of
   the same generate-then-merge epoch protocol as Kg_workload.Mutator.

   Each mutator domain is one worker serving an open-loop stream of
   requests. Per domain and per epoch, generation is a pure function
   of the domain's private state (PRNG, arrival clock, session table,
   cache shard, recent ring, debts) plus the epoch-start snapshot;
   the op buffers are interleaved by the schedule PRNG
   (Epoch.draw_schedule) and applied sequentially on the coordinator
   through the domain-tagged runtime calls. The whole run is therefore
   a pure function of (seed, schedule_seed, domains, config) exactly
   like the batch mutator, and the ~oracle mode runs the identical
   protocol inline for the differential harness.

   Workload shape, per request:
   - an arrival drawn from a per-domain Poisson process (the n domain
     processes superpose to the configured requests/sec), stamped on
     the domain's byte clock;
   - a session-table touch with churn: expired or churned slots are
     refilled with a fresh session root whose death stamp is the
     session TTL (mature-space churn with object turnover);
   - a tiered cache probe (Zipf keys): tier-1 hit reads; tier-1 miss
     falls to tier-2 (hit promotes a copy into tier-1); a full miss
     simulates a backend fill, inserting into tier-1 and sometimes
     tier-2. Every insert allocates with death = TTL, so TTL eviction
     is real heap churn, not bookkeeping;
   - an allocation burst of response scratch drawn from the Lifetime
     demographics, with write/read debts paced by the descriptor as in
     the batch mutator.

   Latency model: the domain byte clock doubles as a single-server
   queue simulation — service demand is the request's allocated
   bytes, so queueing delay = busy_until - arrival (converted to ms
   at the configured per-domain allocation speed). On top of that the
   coordinator attributes STW pauses: every collection's modeled
   pause (Time_model, supplied by the driver) accumulates into a
   running total, and a request's end-to-end latency adds the pause
   time accumulated while its ops were being applied. *)

open Kg_util
open Kg_workload
module O = Kg_heap.Object_model
module Rt = Kg_gc.Runtime

type config = {
  rate : float;  (* open-loop arrival rate, requests/sec, all domains *)
  service_mib_s : float;  (* per-domain allocation speed, MiB of clock per second *)
  req_alloc_mean : int;  (* mean request allocation burst, bytes *)
  sessions : int;  (* session-table slots per domain *)
  session_ttl_ms : float;
  session_churn : float;  (* P(request retires its session early) *)
  tier1_entries : int;  (* per-domain cache shard sizes *)
  tier1_ttl_ms : float;
  tier2_entries : int;
  tier2_ttl_ms : float;
  tier2_insert_p : float;  (* P(backend fill also lands in tier 2) *)
}

let default_config =
  {
    rate = 256.0;
    service_mib_s = 64.0;
    req_alloc_mean = 32 * 1024;
    sessions = 256;
    session_ttl_ms = 2000.0;
    session_churn = 0.05;
    tier1_entries = 512;
    tier1_ttl_ms = 250.0;
    tier2_entries = 2048;
    tier2_ttl_ms = 2000.0;
    tier2_insert_p = 0.25;
  }

let recent_size = 256
let epoch_quantum = 16 * 1024

(* The request markers, beside Epoch's shared op kinds; a request's
   end carries its queueing delay in the op's float column. *)
let k_req_begin = Epoch.k_private
let k_req_end = Epoch.k_private + 1

(* A cache shard: per slot, the cached object (an Epoch target, so
   possibly pending this epoch; [O.null] when empty) and its expiry on
   the owning domain's byte clock. The object's death stamp enforces
   the same TTL on the global allocation clock, so the entry
   bookkeeping and the heap agree about eviction. *)
type tier = { tgt : int array; expiry : float array }

type dstate = {
  d_rng : Rng.t;
  (* Zipf samplers: session picks (s = 1.2) and the two cache tiers'
     keys (s = 1.1), one each so every sampler keeps its cached n. *)
  d_session_zipf : Rng.Zipf.t;
  d_tier1_zipf : Rng.Zipf.t;
  d_tier2_zipf : Rng.Zipf.t;
  d_ops : Epoch.ops;
  d_recent : int array;  (* Epoch targets; [O.null] marks an empty slot *)
  mutable d_recent_cursor : int;
  mutable d_write_debt : float;
  mutable d_read_debt : float;
  (* open-loop queue simulation, all on the domain byte clock *)
  mutable d_bytes : float;  (* cumulative bytes this domain generated *)
  mutable d_next_arrival : float;
  mutable d_busy_until : float;
  d_sessions : int array;  (* Epoch targets *)
  d_tier1 : tier;
  d_tier2 : tier;
  (* per-domain counters, summed deterministically at readout *)
  mutable d_t1_hits : int;
  mutable d_t2_hits : int;
  mutable d_backend_fills : int;
  mutable d_sessions_churned : int;
}

type t = {
  cfg : config;
  desc : Descriptor.t;
  rt : Rt.t;
  words : O.store;
  life : Lifetime.t;
  live_mb : int;
  nthreads : int;
  oracle : bool;
  sched_rng : Rng.t;
  dstates : dstate array;
  (* derived clock constants *)
  bytes_per_ms : float;  (* per-domain byte clock speed *)
  interarrival : float;  (* mean, per-domain, in domain bytes *)
  session_life : float;  (* global allocation-clock bytes *)
  tier1_life : float;
  tier2_life : float;
  (* coordinator-side instrumentation *)
  latencies : Hdr_histogram.t;
  pauses : Hdr_histogram.t;
  mutable pause_acc : float;  (* total pause ms so far *)
  d_pause_mark : float array;  (* pause_acc when each domain's open request began *)
  mutable requests : int;
  mutable pause_model_attached : bool;
}

let config t = t.cfg
let descriptor t = t.desc
let runtime t = t.rt
let thread_count t = t.nthreads
let latencies t = t.latencies
let pauses t = t.pauses
let request_count t = t.requests

let sum_by f t = Array.fold_left (fun acc ds -> acc + f ds) 0 t.dstates
let tier1_hits t = sum_by (fun ds -> ds.d_t1_hits) t
let tier2_hits t = sum_by (fun ds -> ds.d_t2_hits) t
let backend_fills t = sum_by (fun ds -> ds.d_backend_fills) t
let sessions_churned t = sum_by (fun ds -> ds.d_sessions_churned) t

let create ?live_mb ?(threads = 1) ?(schedule_seed = 0) ?(oracle = false) ?(config = default_config)
    desc ~rt ~seed =
  let threads = max 1 threads in
  if threads > 1 && Rt.domains rt <> threads then
    invalid_arg
      (Printf.sprintf "Server.create: %d threads need a runtime with %d domains (has %d)"
         threads threads (Rt.domains rt));
  if config.rate <= 0.0 then invalid_arg "Server.create: rate must be positive";
  let live_mb = Option.value live_mb ~default:(Descriptor.live_mb desc) in
  let life =
    Lifetime.make ~live_mb desc ~nursery_bytes:(4 * Units.mib) ~observer_bytes:(8 * Units.mib)
  in
  let root = Rng.of_seed seed in
  let mk_tier n = { tgt = Array.make (max 1 n) O.null; expiry = Array.make (max 1 n) 0.0 } in
  let mk_dstate _ =
    {
      d_rng = Rng.split root;
      d_session_zipf = Rng.Zipf.create ~s:1.2;
      d_tier1_zipf = Rng.Zipf.create ~s:1.1;
      d_tier2_zipf = Rng.Zipf.create ~s:1.1;
      d_ops = Epoch.ops_create ();
      d_recent = Array.make recent_size O.null;
      d_recent_cursor = 0;
      d_write_debt = 0.0;
      d_read_debt = 0.0;
      d_bytes = 0.0;
      d_next_arrival = 0.0;
      d_busy_until = 0.0;
      d_sessions = Array.make (max 1 config.sessions) O.null;
      d_tier1 = mk_tier config.tier1_entries;
      d_tier2 = mk_tier config.tier2_entries;
      d_t1_hits = 0;
      d_t2_hits = 0;
      d_backend_fills = 0;
      d_sessions_churned = 0;
    }
  in
  let bytes_per_ms = config.service_mib_s *. float_of_int Units.mib /. 1000.0 in
  let n = float_of_int threads in
  {
    cfg = config;
    desc;
    rt;
    words = Rt.words rt;
    life;
    live_mb;
    nthreads = threads;
    oracle;
    sched_rng = Rng.of_seed schedule_seed;
    dstates = Array.init threads mk_dstate;
    bytes_per_ms;
    (* per-domain arrival rate is rate/n, so the n Poisson processes
       superpose to the configured total *)
    interarrival = bytes_per_ms *. 1000.0 *. n /. config.rate;
    session_life = config.session_ttl_ms *. bytes_per_ms *. n;
    tier1_life = config.tier1_ttl_ms *. bytes_per_ms *. n;
    tier2_life = config.tier2_ttl_ms *. bytes_per_ms *. n;
    latencies = Hdr_histogram.create ();
    pauses = Hdr_histogram.create ();
    pause_acc = 0.0;
    d_pause_mark = Array.make threads 0.0;
    requests = 0;
    pause_model_attached = false;
  }

(* Feed every collection's modeled STW pause into the histogram and
   the running total the latency attribution reads. The driver calls
   this after Gc_stats.reset (so boot collections are excluded) with
   Time_model.pause_ms partially applied to the run's domain count. *)
let attach_pause_recorder t ~pause_ms =
  if t.pause_model_attached then invalid_arg "Server.attach_pause_recorder: already attached";
  t.pause_model_attached <- true;
  let stats = Rt.stats t.rt in
  Rt.add_gc_hook t.rt (fun phase ->
      let log = stats.Kg_gc.Gc_stats.collection_log in
      if Vec.length log > 0 then begin
        let p, copied, scanned = Vec.get log (Vec.length log - 1) in
        ignore phase;
        let ms = pause_ms p ~copied ~scanned in
        Hdr_histogram.add t.pauses ms;
        t.pause_acc <- t.pause_acc +. ms
      end)

(* ------------------------------------------------------------------ *)
(* Generation (pure per-domain)                                        *)

let draw_scratch_size t rng =
  let mean_words = float_of_int t.desc.Descriptor.mean_small /. 8.0 in
  let p = 1.0 /. Float.max 2.0 mean_words in
  let words = 2 + Rng.geometric rng p in
  Int.min Kg_heap.Layout.max_small_object (Int.max 16 (words * 8))

let session_size t = Int.max 256 (t.desc.Descriptor.mean_small * 4)
let cache_obj_size t = Int.max 128 (t.desc.Descriptor.mean_small * 2)

let push_recent ds tgt =
  ds.d_recent.(ds.d_recent_cursor) <- tgt;
  ds.d_recent_cursor <- (ds.d_recent_cursor + 1) mod recent_size

(* The picks return [O.null] for "nothing found" and recurse through
   top-level functions, so a pick allocates nothing. A pending target
   counts as live: it is this epoch's allocation. *)

let rec g_pick_recent t ds now attempts =
  if attempts = 0 then O.null
  else begin
    let x = ds.d_recent.(Rng.int ds.d_rng recent_size) in
    if x < 0 || (x > 0 && O.is_live t.words x now) then x else g_pick_recent t ds now (attempts - 1)
  end

let live t now x = if x > 0 && not (O.is_live t.words x now) then O.null else x

let g_pick_session t ds now =
  live t now ds.d_sessions.(Rng.Zipf.draw ds.d_session_zipf ds.d_rng ~n:(Array.length ds.d_sessions))

let g_pick_cache t ds now =
  let tier = if Rng.bernoulli ds.d_rng 0.7 then ds.d_tier1 else ds.d_tier2 in
  let k = Rng.int ds.d_rng (Array.length tier.tgt) in
  if tier.expiry.(k) > ds.d_bytes then live t now tier.tgt.(k) else O.null

(* Mature write targets are the server's long-lived churn: session
   roots (Zipf — a few busy sessions dominate) and cache entries. *)
let g_pick_mature t ds now =
  let o = if Rng.bernoulli ds.d_rng 0.5 then g_pick_session t ds now else g_pick_cache t ds now in
  if not (O.is_null o) then o
  else begin
    let o = g_pick_session t ds now in
    if not (O.is_null o) then o else g_pick_recent t ds now 4
  end

(* A recent object (or pending target), else a mature one. *)
let g_pick_recent_first t ds now =
  let o = g_pick_recent t ds now 4 in
  if O.is_null o then g_pick_mature t ds now else o

let g_do_write t ds now =
  let src =
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.nursery_write_frac then g_pick_recent_first t ds now
    else begin
      let o = g_pick_mature t ds now in
      if O.is_null o then g_pick_recent t ds now 4 else o
    end
  in
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
  let tgt = if Rng.bernoulli ds.d_rng 0.6 then g_pick_recent t ds now 4 else g_pick_mature t ds now in
  if not (O.is_null tgt) then Epoch.push_read_burst ds.d_ops tgt ~words:n

let scratch_heat ds = function
  | Lifetime.Short -> O.Cold
  | Lifetime.Medium -> if Rng.bernoulli ds.d_rng 0.02 then O.Warm else O.Cold
  | Lifetime.Long | Lifetime.Immortal -> if Rng.bernoulli ds.d_rng 0.2 then O.Warm else O.Cold

(* Fill cache slot [key] of [tier] with a fresh object; returns its
   pending target. *)
let g_insert t ds tier key ~life ~expiry_ms ~heat =
  let size = cache_obj_size t in
  let tgt = Epoch.push_alloc ds.d_ops ~size ~heat ~life ~ref_fields:(Int.max 1 (size / 32)) in
  tier.tgt.(key) <- tgt;
  tier.expiry.(key) <- ds.d_bytes +. (expiry_ms *. t.bytes_per_ms);
  tgt

(* One request: session touch + churn, tiered cache probe, response
   scratch burst. Returns the bytes it allocated. *)
let g_request t ds now nursery_free =
  let cfg = t.cfg in
  let ops = ds.d_ops in
  let bytes = ref 0 in
  let arrival = ds.d_next_arrival in
  ds.d_next_arrival <- arrival +. Rng.exponential ds.d_rng t.interarrival;
  Epoch.push ops k_req_begin 0 0 0.0;
  (* session touch: refill dead/expired slots, churn live ones *)
  let si = Rng.Zipf.draw ds.d_session_zipf ds.d_rng ~n:(Array.length ds.d_sessions) in
  let slot = ds.d_sessions.(si) in
  let slot_live = slot < 0 || (slot > 0 && O.is_live t.words slot now) in
  let session =
    if (not slot_live) || Rng.bernoulli ds.d_rng cfg.session_churn then begin
      if slot_live then ds.d_sessions_churned <- ds.d_sessions_churned + 1;
      let heat = if Rng.bernoulli ds.d_rng 0.3 then O.Hot else O.Warm in
      let size = session_size t in
      bytes := !bytes + size;
      let s =
        Epoch.push_alloc ops ~size ~heat ~life:t.session_life ~ref_fields:(Int.max 1 (size / 32))
      in
      ds.d_sessions.(si) <- s;
      s
    end
    else slot
  in
  Epoch.push_write_prim ops session;
  (* tiered cache probe: a slot hits while it holds an unexpired entry *)
  let k1 = Rng.Zipf.draw ds.d_tier1_zipf ds.d_rng ~n:(Array.length ds.d_tier1.tgt) in
  let hit1 = ds.d_tier1.tgt.(k1) in
  if hit1 <> O.null && ds.d_tier1.expiry.(k1) > ds.d_bytes then begin
    ds.d_t1_hits <- ds.d_t1_hits + 1;
    Epoch.push_read_burst ops hit1 ~words:16
  end
  else begin
    let k2 = Rng.Zipf.draw ds.d_tier2_zipf ds.d_rng ~n:(Array.length ds.d_tier2.tgt) in
    let hit2 = ds.d_tier2.tgt.(k2) in
    if hit2 <> O.null && ds.d_tier2.expiry.(k2) > ds.d_bytes then begin
      ds.d_t2_hits <- ds.d_t2_hits + 1;
      Epoch.push_read_burst ops hit2 ~words:16;
      (* promote a fresh copy into tier 1 *)
      bytes := !bytes + cache_obj_size t;
      let promoted =
        g_insert t ds ds.d_tier1 k1 ~life:t.tier1_life ~expiry_ms:cfg.tier1_ttl_ms ~heat:O.Warm
      in
      Epoch.push_write_ref ops ~src:promoted ~tgt:hit2
    end
    else begin
      (* backend fill *)
      ds.d_backend_fills <- ds.d_backend_fills + 1;
      bytes := !bytes + cache_obj_size t;
      let filled =
        g_insert t ds ds.d_tier1 k1 ~life:t.tier1_life ~expiry_ms:cfg.tier1_ttl_ms ~heat:O.Warm
      in
      Epoch.push_write_ref ops ~src:session ~tgt:filled;
      if Rng.bernoulli ds.d_rng cfg.tier2_insert_p then begin
        bytes := !bytes + cache_obj_size t;
        ignore
          (g_insert t ds ds.d_tier2 k2 ~life:t.tier2_life ~expiry_ms:cfg.tier2_ttl_ms ~heat:O.Cold)
      end
    end
  end;
  (* response scratch burst from the Lifetime demographics, with the
     descriptor-paced mutation debt charged per object like the batch
     mutator's; the debts live in locals and are written back once *)
  let budget =
    (cfg.req_alloc_mean / 2)
    + int_of_float (Rng.exponential ds.d_rng (float_of_int cfg.req_alloc_mean /. 2.0))
  in
  let desc = t.desc in
  let write_debt = ref ds.d_write_debt in
  let read_debt = ref ds.d_read_debt in
  while !bytes < budget do
    let cls, life = Lifetime.draw t.life ds.d_rng ~nursery_remaining:nursery_free in
    let size = draw_scratch_size t ds.d_rng in
    let heat = scratch_heat ds cls in
    bytes := !bytes + size;
    let tgt = Epoch.push_alloc ops ~size ~heat ~life ~ref_fields:(Int.max 1 (size / 32)) in
    push_recent ds tgt;
    if Rng.bernoulli ds.d_rng 0.25 then Epoch.push_write_ref ops ~src:session ~tgt;
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
  ds.d_read_debt <- !read_debt;
  (* single-server queue: service demand is the bytes we just decided
     to allocate; queueing delay falls out of busy_until *)
  let service = float_of_int !bytes in
  let start = Float.max arrival ds.d_busy_until in
  ds.d_busy_until <- start +. service;
  ds.d_bytes <- ds.d_bytes +. service;
  let queue_ms = (ds.d_busy_until -. arrival) /. t.bytes_per_ms in
  Epoch.push ops k_req_end 0 0 queue_ms;
  !bytes

(* One epoch's op stream for domain [d]: requests until the epoch
   quantum is allocated. Touches only dstates.(d) and read-only
   state. *)
let generate t d (snap : Epoch.snapshot) =
  let ds = t.dstates.(d) in
  let nursery_free = float_of_int snap.nursery_free.(d) in
  Epoch.reset ds.d_ops;
  let bytes = ref 0 in
  while !bytes < epoch_quantum do
    bytes := !bytes + g_request t ds snap.now nursery_free
  done

(* ------------------------------------------------------------------ *)
(* Apply (coordinator only)                                            *)

let apply_op t allocs d i =
  let ops = t.dstates.(d).d_ops in
  let k = Epoch.kind ops i in
  if k = k_req_begin then t.d_pause_mark.(d) <- t.pause_acc
  else if k = k_req_end then begin
    Hdr_histogram.add t.latencies (Epoch.life ops i +. (t.pause_acc -. t.d_pause_mark.(d)));
    t.requests <- t.requests + 1
  end
  else ignore (Epoch.apply_op t.rt allocs.(d) d ops i)

(* Epoch barrier: resolve this epoch's pending targets in the recent
   rings, session tables and cache shards to the materialised
   objects. *)
let resolve_pending allocs (slots : int array) =
  for i = 0 to Array.length slots - 1 do
    if slots.(i) < 0 then slots.(i) <- Epoch.resolve allocs slots.(i)
  done

let epoch_barrier t (allocs : O.t Vec.t array) =
  Array.iteri
    (fun d ds ->
      resolve_pending allocs.(d) ds.d_recent;
      resolve_pending allocs.(d) ds.d_sessions;
      resolve_pending allocs.(d) ds.d_tier1.tgt;
      resolve_pending allocs.(d) ds.d_tier2.tgt)
    t.dstates

(* ------------------------------------------------------------------ *)
(* Boot image and the run loop                                         *)

let allocate_startup t =
  (* Immortal base (code, config, interned data): 40% of the live
     target, round-robined across domains like the batch mutator's
     startup so no domain starts privileged. *)
  let target = 0.4 *. float_of_int t.live_mb *. float_of_int Units.mib in
  let start = Rt.now t.rt in
  let k = ref 0 in
  while Rt.now t.rt -. start < target do
    let d = !k mod t.nthreads in
    incr k;
    let ds = t.dstates.(d) in
    let size = draw_scratch_size t ds.d_rng in
    let heat = if Rng.bernoulli ds.d_rng 0.05 then O.Warm else O.Cold in
    let o = Rt.alloc_boot t.rt ~size ~heat ~ref_fields:(max 1 (size / 32)) in
    push_recent ds o
  done

let run t ~alloc_bytes =
  Epoch.run ~rt:t.rt ~n:t.nthreads ~oracle:t.oracle ~sched_rng:t.sched_rng
    ~bufs:(Array.map (fun ds -> ds.d_ops) t.dstates)
    ~target:(Rt.now t.rt +. float_of_int alloc_bytes)
    ~generate:(generate t) ~apply:(apply_op t) ~barrier:(epoch_barrier t)
