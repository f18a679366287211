(* The request/response mutator: a server-shaped workload on top of
   the same generate-then-merge epoch protocol as Kg_workload.Mutator.

   Each mutator domain is one worker serving an open-loop stream of
   requests. Per domain and per epoch, generation is a pure function
   of the domain's private state (PRNG, arrival clock, session table,
   cache shard, recent ring, debts) plus the epoch-start snapshot;
   the op streams are interleaved by the schedule PRNG
   (Epoch.merge_schedule) and applied sequentially on the coordinator
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

type target = T_obj of O.t | T_pending of int

type op =
  | Op_alloc of { size : int; heat : O.heat; life : float; ref_fields : int }
  | Op_write_ref of { src : target; tgt : target }
  | Op_write_prim of target
  | Op_read_burst of { tgt : target; words : int }
  | Op_req_begin
  | Op_req_end of { queue_ms : float }

(* A cache entry: the cached object (possibly pending this epoch) and
   its expiry on the owning domain's byte clock. The object's death
   stamp enforces the same TTL on the global allocation clock, so the
   entry bookkeeping and the heap agree about eviction. *)
type entry = { mutable c_tgt : target option; mutable c_expiry : float }

type dstate = {
  d_rng : Rng.t;
  (* Zipf samplers: session picks (s = 1.2) and the two cache tiers'
     keys (s = 1.1), one each so every sampler keeps its cached n. *)
  d_session_zipf : Rng.Zipf.t;
  d_tier1_zipf : Rng.Zipf.t;
  d_tier2_zipf : Rng.Zipf.t;
  d_recent : target option array;
  mutable d_recent_cursor : int;
  mutable d_write_debt : float;
  mutable d_read_debt : float;
  (* open-loop queue simulation, all on the domain byte clock *)
  mutable d_bytes : float;  (* cumulative bytes this domain generated *)
  mutable d_next_arrival : float;
  mutable d_busy_until : float;
  d_sessions : target option array;
  d_tier1 : entry array;
  d_tier2 : entry array;
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
  let mk_entry () = { c_tgt = None; c_expiry = 0.0 } in
  let mk_dstate _ =
    {
      d_rng = Rng.split root;
      d_session_zipf = Rng.Zipf.create ~s:1.2;
      d_tier1_zipf = Rng.Zipf.create ~s:1.1;
      d_tier2_zipf = Rng.Zipf.create ~s:1.1;
      d_recent = Array.make recent_size None;
      d_recent_cursor = 0;
      d_write_debt = 0.0;
      d_read_debt = 0.0;
      d_bytes = 0.0;
      d_next_arrival = 0.0;
      d_busy_until = 0.0;
      d_sessions = Array.make (max 1 config.sessions) None;
      d_tier1 = Array.init (max 1 config.tier1_entries) (fun _ -> mk_entry ());
      d_tier2 = Array.init (max 1 config.tier2_entries) (fun _ -> mk_entry ());
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
  ds.d_recent.(ds.d_recent_cursor) <- Some tgt;
  ds.d_recent_cursor <- (ds.d_recent_cursor + 1) mod recent_size

let g_alloc ops ~pending ~size ~heat ~life ~ref_fields =
  Vec.push ops (Op_alloc { size; heat; life; ref_fields });
  let tgt = T_pending !pending in
  incr pending;
  tgt

let g_pick_recent t ds now =
  let rec go a =
    if a = 0 then None
    else
      match ds.d_recent.(Rng.int ds.d_rng recent_size) with
      | Some (T_obj o) when O.is_live t.words o now -> Some (T_obj o)
      | Some (T_pending i) -> Some (T_pending i)
      | _ -> go (a - 1)
  in
  go 4

(* Mature write targets are the server's long-lived churn: session
   roots (Zipf — a few busy sessions dominate) and cache entries. *)
let g_pick_mature t ds now =
  let live = function
    | Some (T_obj o) when not (O.is_live t.words o now) -> None
    | tgt -> tgt
  in
  let pick_session () =
    live ds.d_sessions.(Rng.Zipf.draw ds.d_session_zipf ds.d_rng ~n:(Array.length ds.d_sessions))
  in
  let pick_cache () =
    let tier = if Rng.bernoulli ds.d_rng 0.7 then ds.d_tier1 else ds.d_tier2 in
    let e = tier.(Rng.int ds.d_rng (Array.length tier)) in
    if e.c_expiry > ds.d_bytes then live e.c_tgt else None
  in
  match (if Rng.bernoulli ds.d_rng 0.5 then pick_session () else pick_cache ()) with
  | Some _ as r -> r
  | None -> (
    match pick_session () with Some _ as r -> r | None -> g_pick_recent t ds now)

let g_do_write t ds now ops =
  let src =
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.nursery_write_frac then
      match g_pick_recent t ds now with Some o -> Some o | None -> g_pick_mature t ds now
    else
      match g_pick_mature t ds now with Some o -> Some o | None -> g_pick_recent t ds now
  in
  match src with
  | None -> ()
  | Some src ->
    if Rng.bernoulli ds.d_rng t.desc.Descriptor.ref_write_frac then begin
      let tgt =
        if Rng.bernoulli ds.d_rng 0.5 then
          match g_pick_recent t ds now with Some o -> Some o | None -> g_pick_mature t ds now
        else g_pick_mature t ds now
      in
      match tgt with
      | Some tgt -> Vec.push ops (Op_write_ref { src; tgt })
      | None -> Vec.push ops (Op_write_prim src)
    end
    else Vec.push ops (Op_write_prim src)

let g_do_reads t ds now ops n =
  let target =
    if Rng.bernoulli ds.d_rng 0.6 then g_pick_recent t ds now else g_pick_mature t ds now
  in
  match target with
  | Some tgt -> Vec.push ops (Op_read_burst { tgt; words = n })
  | None -> ()

(* Descriptor-paced mutation debt, charged per allocated object like
   the batch mutator's mutate_for. *)
let g_mutate_debt t ds now ops size =
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

let scratch_heat ds = function
  | Lifetime.Short -> O.Cold
  | Lifetime.Medium -> if Rng.bernoulli ds.d_rng 0.02 then O.Warm else O.Cold
  | Lifetime.Long | Lifetime.Immortal -> if Rng.bernoulli ds.d_rng 0.2 then O.Warm else O.Cold

(* One request: session touch + churn, tiered cache probe, response
   scratch burst. Returns the bytes it allocated. *)
let g_request t ds snap ops pending =
  let now, nursery_free = snap in
  let cfg = t.cfg in
  let bytes = ref 0 in
  let alloc ~size ~heat ~life ~ref_fields =
    bytes := !bytes + size;
    g_alloc ops ~pending ~size ~heat ~life ~ref_fields
  in
  let arrival = ds.d_next_arrival in
  ds.d_next_arrival <- arrival +. Rng.exponential ds.d_rng t.interarrival;
  Vec.push ops Op_req_begin;
  (* session touch: refill dead/expired slots, churn live ones *)
  let si = Rng.Zipf.draw ds.d_session_zipf ds.d_rng ~n:(Array.length ds.d_sessions) in
  let slot_live =
    match ds.d_sessions.(si) with
    | Some (T_obj o) -> O.is_live t.words o now
    | Some (T_pending _) -> true
    | None -> false
  in
  let session =
    if (not slot_live) || Rng.bernoulli ds.d_rng cfg.session_churn then begin
      if slot_live then ds.d_sessions_churned <- ds.d_sessions_churned + 1;
      let heat = if Rng.bernoulli ds.d_rng 0.3 then O.Hot else O.Warm in
      let s =
        alloc ~size:(session_size t) ~heat ~life:t.session_life
          ~ref_fields:(Int.max 1 (session_size t / 32))
      in
      ds.d_sessions.(si) <- Some s;
      s
    end
    else Option.get ds.d_sessions.(si)
  in
  Vec.push ops (Op_write_prim session);
  (* tiered cache probe *)
  let probe tier key =
    let e = tier.(key) in
    match e.c_tgt with
    | Some tgt when e.c_expiry > ds.d_bytes -> Some tgt
    | _ -> None
  in
  let insert tier key ~life ~expiry_ms ~heat =
    let e = tier.(key) in
    let tgt =
      alloc ~size:(cache_obj_size t) ~heat ~life ~ref_fields:(Int.max 1 (cache_obj_size t / 32))
    in
    e.c_tgt <- Some tgt;
    e.c_expiry <- ds.d_bytes +. (expiry_ms *. t.bytes_per_ms);
    tgt
  in
  let k1 = Rng.Zipf.draw ds.d_tier1_zipf ds.d_rng ~n:(Array.length ds.d_tier1) in
  (match probe ds.d_tier1 k1 with
  | Some tgt ->
    ds.d_t1_hits <- ds.d_t1_hits + 1;
    Vec.push ops (Op_read_burst { tgt; words = 16 })
  | None -> (
    let k2 = Rng.Zipf.draw ds.d_tier2_zipf ds.d_rng ~n:(Array.length ds.d_tier2) in
    match probe ds.d_tier2 k2 with
    | Some tgt ->
      ds.d_t2_hits <- ds.d_t2_hits + 1;
      Vec.push ops (Op_read_burst { tgt; words = 16 });
      (* promote a fresh copy into tier 1 *)
      let promoted =
        insert ds.d_tier1 k1 ~life:t.tier1_life ~expiry_ms:t.cfg.tier1_ttl_ms ~heat:O.Warm
      in
      Vec.push ops (Op_write_ref { src = promoted; tgt })
    | None ->
      (* backend fill *)
      ds.d_backend_fills <- ds.d_backend_fills + 1;
      let filled =
        insert ds.d_tier1 k1 ~life:t.tier1_life ~expiry_ms:t.cfg.tier1_ttl_ms ~heat:O.Warm
      in
      Vec.push ops (Op_write_ref { src = session; tgt = filled });
      if Rng.bernoulli ds.d_rng cfg.tier2_insert_p then
        ignore
          (insert ds.d_tier2 k2 ~life:t.tier2_life ~expiry_ms:t.cfg.tier2_ttl_ms ~heat:O.Cold)));
  (* response scratch burst from the Lifetime demographics *)
  let budget =
    (cfg.req_alloc_mean / 2) + int_of_float (Rng.exponential ds.d_rng (float_of_int cfg.req_alloc_mean /. 2.0))
  in
  while !bytes < budget do
    let cls, life = Lifetime.draw t.life ds.d_rng ~nursery_remaining:nursery_free in
    let size = draw_scratch_size t ds.d_rng in
    let heat = scratch_heat ds cls in
    let tgt = alloc ~size ~heat ~life ~ref_fields:(Int.max 1 (size / 32)) in
    push_recent ds tgt;
    if Rng.bernoulli ds.d_rng 0.25 then Vec.push ops (Op_write_ref { src = session; tgt });
    g_mutate_debt t ds now ops size
  done;
  (* single-server queue: service demand is the bytes we just decided
     to allocate; queueing delay falls out of busy_until *)
  let service = float_of_int !bytes in
  let start = Float.max arrival ds.d_busy_until in
  ds.d_busy_until <- start +. service;
  ds.d_bytes <- ds.d_bytes +. service;
  let queue_ms = (ds.d_busy_until -. arrival) /. t.bytes_per_ms in
  Vec.push ops (Op_req_end { queue_ms });
  !bytes

(* One epoch's op stream for domain [d]: requests until the epoch
   quantum is allocated. Touches only dstates.(d) and read-only
   state. *)
let generate t d (snap_now, snap_free) =
  let ds = t.dstates.(d) in
  let ops = Vec.create () in
  let pending = ref 0 in
  let bytes = ref 0 in
  while !bytes < epoch_quantum do
    bytes := !bytes + g_request t ds (snap_now, float_of_int snap_free.(d)) ops pending
  done;
  ops

(* ------------------------------------------------------------------ *)
(* Apply (coordinator only)                                            *)

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
        Vec.push epoch_allocs.(d) o
      | Op_write_ref { src; tgt } ->
        Rt.write_ref ~domain:d t.rt ~src:(resolve d src) ~tgt:(resolve d tgt)
      | Op_write_prim tgt -> Rt.write_prim ~domain:d t.rt (resolve d tgt)
      | Op_read_burst { tgt; words } -> Rt.read_burst ~domain:d t.rt (resolve d tgt) words
      | Op_req_begin -> t.d_pause_mark.(d) <- t.pause_acc
      | Op_req_end { queue_ms } ->
        Hdr_histogram.add t.latencies (queue_ms +. (t.pause_acc -. t.d_pause_mark.(d)));
        t.requests <- t.requests + 1)
    merged

(* Epoch barrier: resolve this epoch's pending markers in the recent
   rings, session tables and cache shards to the materialised
   objects. *)
let resolve_slot epoch_allocs d = function
  | Some (T_pending p) -> Some (T_obj (Vec.get epoch_allocs.(d) p))
  | slot -> slot

let epoch_barrier t (epoch_allocs : O.t Vec.t array) =
  Array.iteri
    (fun d ds ->
      for i = 0 to recent_size - 1 do
        ds.d_recent.(i) <- resolve_slot epoch_allocs d ds.d_recent.(i)
      done;
      for i = 0 to Array.length ds.d_sessions - 1 do
        ds.d_sessions.(i) <- resolve_slot epoch_allocs d ds.d_sessions.(i)
      done;
      let resolve_tier tier =
        Array.iter (fun e -> e.c_tgt <- resolve_slot epoch_allocs d e.c_tgt) tier
      in
      resolve_tier ds.d_tier1;
      resolve_tier ds.d_tier2)
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
    push_recent ds (T_obj o)
  done

let run t ~alloc_bytes =
  let n = t.nthreads in
  let target = Rt.now t.rt +. float_of_int alloc_bytes in
  let streams : op Vec.t array = Array.init n (fun _ -> Vec.create ()) in
  let snap = ref (0.0, [||]) in
  let team = Epoch.spawn ~n ~oracle:(t.oracle || n = 1) (fun d -> streams.(d) <- generate t d !snap) in
  (try
     while Rt.now t.rt < target do
       snap := (Rt.now t.rt, Array.init n (fun d -> Rt.nursery_free ~domain:d t.rt));
       Epoch.round team;
       let merged = Epoch.merge_schedule t.sched_rng streams in
       let epoch_allocs = Array.init n (fun _ -> Vec.create ()) in
       apply_schedule t merged epoch_allocs;
       epoch_barrier t epoch_allocs
     done
   with e ->
     Epoch.finish team;
     raise e);
  Epoch.finish team
