type writeback = { wb_addr : int; wb_tag : int }

type stats = { hits : int; misses : int; writebacks : int }

(* Per-way state is one meta word next to the tag, so the hot probe
   loop walks exactly two int arrays (tags + meta) per set instead of
   the former four (tags, dirty bytes, phase, lru):

     bit  0      dirty
     bits 1-16   phase tag of the last writer
     bits 17-62  LRU stamp (cache-wide use-counter value at last touch)

   The LRU clock is a single cache-wide counter, not per-set as it
   once was: stamps are only ever compared within one set, and
   restricting a strictly increasing global sequence to one set's
   touches still yields strictly increasing stamps, so the
   least-stamp victim choice is identical — while the hot path loses
   a whole per-set counter array (512 KB of simulator state for a
   4 MB cache). 46 stamp bits absorb ~7e13 touches before wrapping,
   far beyond any simulated workload. Phase tags are masked to 16
   bits; real tags are small ints (Kg_gc.Phase.count plus a few OS
   tags).

   Stamps beat the classic per-set recency list here on purpose: the
   min-stamp scan issues all its loads in parallel (two dense array
   walks the CPU can pipeline), where a linked list serializes victim
   lookup into head -> prev -> tags dependent misses on simulator
   metadata that lives in the host's outer cache levels. Measured on
   the random miss storm, the list was ~2x slower per probe. *)

let dirty_bit = 1
let tag_shift = 1
let tag_bits = 16
let tag_mask = (1 lsl tag_bits) - 1
let lru_shift = tag_shift + tag_bits

let[@inline] meta_lru m = m lsr lru_shift
let[@inline] meta_tag m = (m lsr tag_shift) land tag_mask
let[@inline] meta_is_dirty m = m land dirty_bit = dirty_bit

(* Meta for a freshly written / freshly read line at stamp [clk]. *)
let[@inline] meta_write clk tag = (clk lsl lru_shift) lor ((tag land tag_mask) lsl tag_shift) lor dirty_bit
let[@inline] meta_read clk = clk lsl lru_shift

(* Restamp, preserving dirty + tag bits. *)
let[@inline] meta_restamp m clk = (clk lsl lru_shift) lor (m land ((1 lsl lru_shift) - 1))

type t = {
  name : string;
  line_size : int;
  line_bits : int;
  sets : int;
  set_mask : int;
  ways : int;
  latency_ns : float;
  (* Way state, indexed by set * ways + way. tags.(i) = -1 means invalid;
     otherwise it holds the full block address (addr / line_size). *)
  tags : int array;
  meta : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  (* Out-parameters of the last probe_fill that evicted a dirty victim,
     so the fused hot path never allocates a [writeback option]. *)
  mutable pf_wb_addr : int;
  mutable pf_wb_tag : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~name ~size ~ways ~line_size ~latency_ns =
  if ways <= 0 || line_size <= 0 || size mod (ways * line_size) <> 0 then
    invalid_arg "Cache.create: size must be a multiple of ways * line_size";
  let sets = size / (ways * line_size) in
  if not (is_pow2 sets && is_pow2 line_size) then
    invalid_arg "Cache.create: sets and line_size must be powers of two";
  {
    name;
    line_size;
    line_bits = log2 line_size;
    sets;
    set_mask = sets - 1;
    ways;
    latency_ns;
    tags = Array.make (sets * ways) (-1);
    meta = Array.make (sets * ways) 0;
    clock = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    pf_wb_addr = 0;
    pf_wb_tag = 0;
  }

let name t = t.name
let line_size t = t.line_size
let latency_ns t = t.latency_ns

(* The single debug-mode bounds assertion guarding the unsafe scans:
   if [base] is in range, so is base + way for way < ways. Compiled
   out by -noassert (the release profile); the hot loops themselves
   perform no bounds checks. *)
let[@inline] check_base t base =
  assert (base >= 0 && base + t.ways <= Array.length t.tags)

let last_wb_addr t = t.pf_wb_addr
let last_wb_tag t = t.pf_wb_tag

(* Issue the loads for [addr]'s set so its tag and meta lines are in
   flight while the caller does other work. Simulator metadata for a
   large cache lives in the host's outer cache levels; the hierarchy
   kernel calls this for the levels it is about to walk so their miss
   latencies overlap instead of serializing (Sys.opaque_identity keeps
   the dead loads from being discarded). *)
let[@inline] prefetch_set t ~addr =
  let base = ((addr lsr t.line_bits) land t.set_mask) * t.ways in
  check_base t base;
  ignore (Sys.opaque_identity (Array.unsafe_get t.tags base));
  ignore (Sys.opaque_identity (Array.unsafe_get t.meta base));
  ignore (Sys.opaque_identity (Array.unsafe_get t.tags (base + t.ways - 1)));
  ignore (Sys.opaque_identity (Array.unsafe_get t.meta (base + t.ways - 1)))

(* Hit-only scan: way holding [block], or -1. First match wins, as the
   pre-rewrite probe loop did. Top-level and tail-recursive so it
   compiles to a register loop — no closure, no ref cells. *)
let rec scan_hit tags base ways block way =
  if way = ways then -1
  else if Array.unsafe_get tags (base + way) = block then way
  else scan_hit tags base ways block (way + 1)

(* Fused hit + victim scan. Returns [(hit_way + 1) lsl 8 lor victim]:
   bits 8+ are hit way + 1, 0 for a miss; bits 0-7 are the victim way
   (first invalid way if any, else the first way with the minimum LRU
   stamp — an invalid way scores -1, below any real stamp, which is
   >= 1 because every resident line has been touched at least once).
   A hit returns immediately — a block resides in at most one way, so
   the first match is the only one, and the victim is only consulted
   on a miss, so the partial victim in a hit's low bits is dead. The
   victim choice over a full scan is identical to the pre-kernel
   two-pass code: first invalid way, else least stamp, first wins. *)
let rec scan_set tags meta base ways block way victim best =
  if way = ways then victim
  else begin
    let i = base + way in
    let tg = Array.unsafe_get tags i in
    if tg = block then ((way + 1) lsl 8) lor victim
    else begin
      let l = if tg = -1 then -1 else meta_lru (Array.unsafe_get meta i) in
      if l < best then scan_set tags meta base ways block (way + 1) way l
      else scan_set tags meta base ways block (way + 1) victim best
    end
  end

(* Fused lookup + victim selection + fill: one scan over the set.
   Returns 0 on a hit; on a miss the line is filled in place and the
   result is 1 (clean or invalid victim) or 2 (dirty victim published
   in [last_wb_addr]/[last_wb_tag], counted in [writebacks]).
   Selecting the victim at lookup time is the same as selecting it
   after the caller's next-level fetch, as a separate probe and fill
   would: nothing the caller does in between can touch this cache.
   Never allocates. *)
let probe_fill t ~addr ~write ~tag =
  let block = addr lsr t.line_bits in
  let set = block land t.set_mask in
  let base = set * t.ways in
  check_base t base;
  let r = scan_set t.tags t.meta base t.ways block 0 0 max_int in
  let hit = (r lsr 8) - 1 in
  let clk = t.clock + 1 in
  t.clock <- clk;
  if hit >= 0 then begin
    t.hits <- t.hits + 1;
    let i = base + hit in
    let m = Array.unsafe_get t.meta i in
    Array.unsafe_set t.meta i
      (if write then meta_write clk tag else meta_restamp m clk);
    0
  end
  else begin
    t.misses <- t.misses + 1;
    let i = base + (r land 0xff) in
    let vtag = Array.unsafe_get t.tags i in
    let m = Array.unsafe_get t.meta i in
    let rc =
      if vtag >= 0 && meta_is_dirty m then begin
        t.writebacks <- t.writebacks + 1;
        t.pf_wb_addr <- vtag lsl t.line_bits;
        t.pf_wb_tag <- meta_tag m;
        2
      end
      else 1
    in
    Array.unsafe_set t.tags i block;
    Array.unsafe_set t.meta i (if write then meta_write clk tag else meta_read clk);
    rc
  end

(* Bulk LRU/stats update for the hierarchy's same-line run coalescer:
   apply the effect of [count] consecutive hits to a line that is known
   to be resident (the coalescer just accessed it). Per-access, each
   hit would advance the clock, restamp the way, count a hit, and (if
   a write) set dirty + phase; the fold is exact: the final stamp is
   the final clock value, dirty is set iff any access wrote, and the
   phase is the last writer's tag. *)
let bump_run t ~addr ~count ~dirty ~tag =
  let block = addr lsr t.line_bits in
  let set = block land t.set_mask in
  let base = set * t.ways in
  check_base t base;
  let hit = scan_hit t.tags base t.ways block 0 in
  if hit < 0 then invalid_arg "Cache.bump_run: line not resident";
  let clk = t.clock + count in
  t.clock <- clk;
  t.hits <- t.hits + count;
  let i = base + hit in
  let m = Array.unsafe_get t.meta i in
  Array.unsafe_set t.meta i
    (if dirty then meta_write clk tag else meta_restamp m clk)

(* Cold path, safe indexing. Writebacks are emitted in ascending way
   index order (set-major), by consing during a descending scan: the
   drain order is deterministic and documented, where the previous
   implementation consed ascending and so handed the caller a reversed
   list. *)
let invalidate_all t =
  let acc = ref [] in
  for idx = Array.length t.tags - 1 downto 0 do
    if t.tags.(idx) >= 0 && meta_is_dirty t.meta.(idx) then
      acc := { wb_addr = t.tags.(idx) lsl t.line_bits; wb_tag = meta_tag t.meta.(idx) } :: !acc;
    t.tags.(idx) <- -1;
    t.meta.(idx) <- 0
  done;
  !acc

let stats t = { hits = t.hits; misses = t.misses; writebacks = t.writebacks }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0
