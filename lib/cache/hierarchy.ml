type level_config = { size : int; ways : int; latency_ns : float }

let default_l1 = { size = 32 * 1024; ways = 8; latency_ns = 1.0 }
let default_l2 = { size = 256 * 1024; ways = 8; latency_ns = 2.0 }
let default_l3 = { size = 4 * 1024 * 1024; ways = 16; latency_ns = 7.5 }

(* Memory spills (L3 demand fetches and dirty-victim writebacks that
   fall out of the bottom of the hierarchy) are buffered in issue order
   and flushed to the controller's batch entry points. The buffer holds
   one homogeneous run at a time — appending an event of the other kind
   flushes first — so event order at the controller is exactly the
   per-access order, while long read or write storms (drain, capacity
   eviction sweeps, streaming inits) are serviced with the map bounds
   and device constants hoisted out of the loop. *)
let spill_cap = 256

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  levels : Cache.t array;
  ctrl : Controller.t;
  line_bits : int;
  mutable phase : int;
  (* Per-level visit counters; folded into hit_time_ns on demand so the
     L1-hit fast path performs no float arithmetic (see hit_time_ns). *)
  mutable visits1 : int;
  mutable visits2 : int;
  mutable visits3 : int;
  sp_addrs : int array;
  sp_tags : int array;
  mutable sp_len : int;
  mutable sp_write : bool;
  mutable drained : bool;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(l1 = default_l1) ?(l2 = default_l2) ?(l3 = default_l3) ~controller () =
  let line_size = Controller.line_size controller in
  let mk name (c : level_config) =
    Cache.create ~name ~size:c.size ~ways:c.ways ~line_size ~latency_ns:c.latency_ns
  in
  let c1 = mk "L1-D" l1 and c2 = mk "L2" l2 and c3 = mk "L3" l3 in
  {
    l1 = c1;
    l2 = c2;
    l3 = c3;
    levels = [| c1; c2; c3 |];
    ctrl = controller;
    line_bits = log2 line_size;
    phase = 0;
    visits1 = 0;
    visits2 = 0;
    visits3 = 0;
    sp_addrs = Array.make spill_cap 0;
    sp_tags = Array.make spill_cap 0;
    sp_len = 0;
    sp_write = false;
    drained = false;
  }

let controller t = t.ctrl
let set_phase t p = t.phase <- p
let phase t = t.phase

let flush_spills t =
  if t.sp_len > 0 then begin
    let len = t.sp_len in
    t.sp_len <- 0;
    if t.sp_write then Controller.line_write_run t.ctrl ~addrs:t.sp_addrs ~tags:t.sp_tags ~len
    else Controller.line_read_run t.ctrl ~addrs:t.sp_addrs ~len
  end

let[@inline] spill t ~write addr tag =
  if t.sp_len = spill_cap || t.sp_write <> write then flush_spills t;
  t.sp_write <- write;
  let i = t.sp_len in
  Array.unsafe_set t.sp_addrs i addr;
  Array.unsafe_set t.sp_tags i tag;
  t.sp_len <- i + 1

(* Install a dirty victim one level down, iteratively: a writeback
   carries a full line, so on miss the level fills without fetching
   from below and the chain continues with that level's own victim.
   [lvl] is the target level (1 = L2, 2 = L3, 3 = memory).
   Tail-recursive: compiles to a loop, allocates nothing. *)
let rec cascade t lvl addr tag =
  if lvl >= 3 then spill t ~write:true addr tag
  else begin
    let c = if lvl = 1 then t.l2 else t.l3 in
    if Cache.probe_fill c ~addr ~write:true ~tag = 2 then
      cascade t (lvl + 1) (Cache.last_wb_addr c) (Cache.last_wb_tag c)
  end

(* Demand access to one line: walk the levels with the fused
   probe/fill, then resolve the memory fetch and the dirty-victim
   cascades deepest-first. This is the old recursive demand/writeback
   walk unrolled; the controller event order (fetch read first, then
   the L3 victim, then the L2 victim's chain, then the L1 victim's
   chain) and every per-level state transition match it exactly —
   levels never read each other's state, so filling a level during the
   downward walk instead of on the way back up is unobservable. *)
let access_line t addr write tag =
  t.visits1 <- t.visits1 + 1;
  let rc1 = Cache.probe_fill t.l1 ~addr ~write ~tag in
  if rc1 <> 0 then begin
    (* Get the L2 and L3 set lines in flight before walking them: the
       metadata of the big levels lives in the host's outer caches and
       the demand sets are known from the address alone, so their miss
       latencies overlap the scans instead of serializing after them. *)
    Cache.prefetch_set t.l3 ~addr;
    Cache.prefetch_set t.l2 ~addr;
    let wb1_addr = Cache.last_wb_addr t.l1 and wb1_tag = Cache.last_wb_tag t.l1 in
    t.visits2 <- t.visits2 + 1;
    let rc2 = Cache.probe_fill t.l2 ~addr ~write:false ~tag in
    if rc2 <> 0 then begin
      let wb2_addr = Cache.last_wb_addr t.l2 and wb2_tag = Cache.last_wb_tag t.l2 in
      t.visits3 <- t.visits3 + 1;
      let rc3 = Cache.probe_fill t.l3 ~addr ~write:false ~tag in
      if rc3 <> 0 then begin
        spill t ~write:false addr 0;
        if rc3 = 2 then
          spill t ~write:true (Cache.last_wb_addr t.l3) (Cache.last_wb_tag t.l3)
      end;
      if rc2 = 2 then cascade t 2 wb2_addr wb2_tag
    end;
    if rc1 = 2 then cascade t 1 wb1_addr wb1_tag
  end

(* Accesses after [drain] would silently miss the final writeback
   flush, so they fail fast; call [reopen] first when a post-drain
   cold-cache measurement is the point. *)
let check_open t =
  if t.drained then
    invalid_arg "Kg_cache.Hierarchy: access after drain (use reopen to resume)"

(* One record's worth of line splitting, shared by the per-range entry
   point and the batch path. *)
let[@inline] split_lines t addr size write tag =
  if size > 0 then begin
    let first = addr lsr t.line_bits in
    let last = (addr + size - 1) lsr t.line_bits in
    for line = first to last do
      access_line t (line lsl t.line_bits) write tag
    done
  end

let access_range t ~addr ~size ~write =
  check_open t;
  split_lines t addr size write t.phase;
  flush_spills t

(* Batch entry point, with the same-line run coalescer: a maximal run
   of consecutive single-line records falling in one line is serviced
   as the first record's full demand access — after which the line is
   resident in L1 — plus one O(1) bulk update for the rest
   (Cache.bump_run). The fold is exactly the per-access loop's effect:
   each folded record would hit L1 (nothing between same-line records
   can evict the line), bump the LRU clock and stats, and a write would
   set dirty and overwrite the phase tag, leaving the last writer's.
   Any record touching a different line — including a set conflict that
   would evict the run's line — starts a new run, and multi-line
   records fall back to the split loop. *)
(* Fold records j.. of the batch while they stay single-line records on
   [first]; apply the accumulated run as one bulk update, and return
   the index of the first record not folded. Tail-recursive: the whole
   batch loop runs without allocating. *)
let rec fold_run t addrs sizes metas n lb first j count dirty ltag =
  let continues =
    j < n
    &&
    let a = Array.unsafe_get addrs j in
    let s = Array.unsafe_get sizes j in
    s > 0 && a lsr lb = first && (a + s - 1) lsr lb = first
  in
  if continues then begin
    let mj = Array.unsafe_get metas j in
    if mj land 1 = 1 then
      fold_run t addrs sizes metas n lb first (j + 1) (count + 1) true (mj asr 1)
    else fold_run t addrs sizes metas n lb first (j + 1) (count + 1) dirty ltag
  end
  else begin
    if count > 0 then begin
      t.visits1 <- t.visits1 + count;
      Cache.bump_run t.l1 ~addr:(first lsl lb) ~count ~dirty ~tag:ltag
    end;
    j
  end

let rec run_records t addrs sizes metas n lb i =
  if i < n then begin
    let addr = Array.unsafe_get addrs i in
    let size = Array.unsafe_get sizes i in
    let m = Array.unsafe_get metas i in
    if size <= 0 then run_records t addrs sizes metas n lb (i + 1)
    else begin
      let first = addr lsr lb in
      let last = (addr + size - 1) lsr lb in
      if first = last then begin
        access_line t (first lsl lb) (m land 1 = 1) (m asr 1);
        (* Only enter the coalescer if the next record actually
           continues on this line; the common non-coalescible record
           skips the fold_run call entirely. *)
        let j = i + 1 in
        let continues =
          j < n
          &&
          let a = Array.unsafe_get addrs j in
          let s = Array.unsafe_get sizes j in
          s > 0 && a lsr lb = first && (a + s - 1) lsr lb = first
        in
        if continues then
          let j = fold_run t addrs sizes metas n lb first j 0 false 0 in
          run_records t addrs sizes metas n lb j
        else run_records t addrs sizes metas n lb j
      end
      else begin
        split_lines t addr size (m land 1 = 1) (m asr 1);
        run_records t addrs sizes metas n lb (i + 1)
      end
    end
  end

let access_run t (b : Kg_mem.Port.batch) =
  check_open t;
  run_records t b.Kg_mem.Port.addrs b.Kg_mem.Port.sizes b.Kg_mem.Port.metas
    b.Kg_mem.Port.len t.line_bits 0;
  flush_spills t

(* Drain writeback order is deterministic: each level is invalidated in
   ascending way-index order (Cache.invalidate_all) and its victims
   cascade immediately, L1 first, then L2, then L3. *)
let drain t =
  if not t.drained then begin
    for lvl = 0 to 2 do
      let wbs = Cache.invalidate_all t.levels.(lvl) in
      List.iter
        (fun (wb : Cache.writeback) -> cascade t (lvl + 1) wb.Cache.wb_addr wb.Cache.wb_tag)
        wbs
    done;
    flush_spills t;
    t.drained <- true
  end

let drained t = t.drained
let reopen t = t.drained <- false

let level_stats t = Array.map Cache.stats t.levels

(* Folded from the visit counters: level latencies are accumulated as
   integer visit counts and multiplied out here. For latencies that are
   exact multiples of 0.5 (the defaults: 1.0 / 2.0 / 7.5 ns) every
   partial sum of the old one-float-add-per-visit accumulation is
   exactly representable, so this fold is bit-identical to it — the
   rendered figures depending on hit time stay byte-identical. *)
let hit_time_ns t =
  (float_of_int t.visits1 *. Cache.latency_ns t.l1)
  +. (float_of_int t.visits2 *. Cache.latency_ns t.l2)
  +. (float_of_int t.visits3 *. Cache.latency_ns t.l3)
