(* Behaviour oracle for the fused cache kernel: the pre-kernel
   (PR 3-era) cache and hierarchy, kept verbatim as simple, obviously
   correct code — per-way state in four separate arrays, per-set LRU
   clocks, a recursive per-access demand/writeback walk, one float add
   per level visit, and one controller call per memory event.

   test_cache.ml drives random access streams through this and through
   Kg_cache.Hierarchy and asserts identical stats, writeback sequences
   and controller counters, which is what licenses every hot-path trick
   in the real kernel (fused probe_fill, global LRU clock, same-line
   run coalescing, spill batching, visit-counter latency folding).

   The single deliberate difference from the PR 3 source: invalidation
   emits writebacks in ascending way-index order, matching the order
   Cache.invalidate_all now documents (the old code consed ascending
   and so returned the list reversed). *)

module Cache = struct
  type writeback = { wb_addr : int; wb_tag : int }

  type t = {
    line_bits : int;
    set_mask : int;
    ways : int;
    latency_ns : float;
    tags : int array;
    dirty : Bytes.t;
    phase : int array;
    lru : int array; (* per-way last-use stamp *)
    clock : int array; (* per-set use counter *)
    mutable hits : int;
    mutable misses : int;
    mutable writebacks : int;
  }

  let log2 n =
    let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
    go 0 n

  let create ~size ~ways ~line_size ~latency_ns =
    let sets = size / (ways * line_size) in
    {
      line_bits = log2 line_size;
      set_mask = sets - 1;
      ways;
      latency_ns;
      tags = Array.make (sets * ways) (-1);
      dirty = Bytes.make (sets * ways) '\000';
      phase = Array.make (sets * ways) 0;
      lru = Array.make (sets * ways) 0;
      clock = Array.make sets 0;
      hits = 0;
      misses = 0;
      writebacks = 0;
    }

  let touch t set way =
    t.clock.(set) <- t.clock.(set) + 1;
    t.lru.((set * t.ways) + way) <- t.clock.(set)

  let probe t ~addr ~write ~tag =
    let block = addr lsr t.line_bits in
    let set = block land t.set_mask in
    let base = set * t.ways in
    let rec find way =
      if way = t.ways then -1
      else if t.tags.(base + way) = block then way
      else find (way + 1)
    in
    let way = find 0 in
    if way >= 0 then begin
      t.hits <- t.hits + 1;
      touch t set way;
      if write then begin
        Bytes.set t.dirty (base + way) '\001';
        t.phase.(base + way) <- tag
      end;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      false
    end

  let fill t ~addr ~write ~tag =
    let block = addr lsr t.line_bits in
    let set = block land t.set_mask in
    let base = set * t.ways in
    (* Victim: an invalid way if present, else least-recently used. *)
    let victim = ref 0 in
    let best = ref max_int in
    (try
       for way = 0 to t.ways - 1 do
         if t.tags.(base + way) = -1 then begin
           victim := way;
           raise Exit
         end;
         if t.lru.(base + way) < !best then begin
           best := t.lru.(base + way);
           victim := way
         end
       done
     with Exit -> ());
    let idx = base + !victim in
    let wb =
      if t.tags.(idx) >= 0 && Bytes.get t.dirty idx = '\001' then begin
        t.writebacks <- t.writebacks + 1;
        Some { wb_addr = t.tags.(idx) lsl t.line_bits; wb_tag = t.phase.(idx) }
      end
      else None
    in
    t.tags.(idx) <- block;
    Bytes.set t.dirty idx (if write then '\001' else '\000');
    t.phase.(idx) <- (if write then tag else 0);
    touch t set !victim;
    wb

  let invalidate_all t =
    let acc = ref [] in
    for idx = Array.length t.tags - 1 downto 0 do
      if t.tags.(idx) >= 0 && Bytes.get t.dirty idx = '\001' then
        acc := { wb_addr = t.tags.(idx) lsl t.line_bits; wb_tag = t.phase.(idx) } :: !acc;
      t.tags.(idx) <- -1;
      Bytes.set t.dirty idx '\000'
    done;
    !acc

  let stats t : Kg_cache.Cache.stats =
    { hits = t.hits; misses = t.misses; writebacks = t.writebacks }
end

type t = {
  levels : Cache.t array;
  ctrl : Kg_cache.Controller.t;
  line_size : int;
  mutable phase : int;
  mutable hit_time_ns : float;
  mutable drained : bool;
}

let create ?(l1 = Kg_cache.Hierarchy.default_l1) ?(l2 = Kg_cache.Hierarchy.default_l2)
    ?(l3 = Kg_cache.Hierarchy.default_l3) ~controller () =
  let line_size = Kg_cache.Controller.line_size controller in
  let mk (c : Kg_cache.Hierarchy.level_config) =
    Cache.create ~size:c.size ~ways:c.ways ~line_size ~latency_ns:c.latency_ns
  in
  {
    levels = [| mk l1; mk l2; mk l3 |];
    ctrl = controller;
    line_size;
    phase = 0;
    hit_time_ns = 0.0;
    drained = false;
  }

let set_phase t p = t.phase <- p

let nlevels = 3

(* Install a dirty victim one level down. A writeback carries a full
   line, so on miss we fill without fetching from below. *)
let rec writeback t lvl (wb : Cache.writeback) =
  if lvl >= nlevels then Kg_cache.Controller.line_write t.ctrl wb.Cache.wb_addr ~tag:wb.Cache.wb_tag
  else begin
    let c = t.levels.(lvl) in
    if not (Cache.probe c ~addr:wb.Cache.wb_addr ~write:true ~tag:wb.Cache.wb_tag) then
      match Cache.fill c ~addr:wb.Cache.wb_addr ~write:true ~tag:wb.Cache.wb_tag with
      | Some victim -> writeback t (lvl + 1) victim
      | None -> ()
  end

(* Demand access: on a miss, fetch the line from the next level (a read,
   regardless of the demand type) and then fill. *)
let rec demand t lvl addr write tag =
  if lvl >= nlevels then Kg_cache.Controller.line_read t.ctrl addr
  else begin
    let c = t.levels.(lvl) in
    t.hit_time_ns <- t.hit_time_ns +. c.Cache.latency_ns;
    if not (Cache.probe c ~addr ~write ~tag) then begin
      demand t (lvl + 1) addr false tag;
      match Cache.fill c ~addr ~write ~tag with
      | Some victim -> writeback t (lvl + 1) victim
      | None -> ()
    end
  end

let check_open t =
  if t.drained then invalid_arg "Reference_cache: access after drain"

let split_lines t addr size write tag =
  if size > 0 then begin
    let first = addr / t.line_size in
    let last = (addr + size - 1) / t.line_size in
    for line = first to last do
      let a = line * t.line_size in
      demand t 0 a write tag
    done
  end

let access_range t ~addr ~size ~write =
  check_open t;
  split_lines t addr size write t.phase

let access_run t (b : Kg_mem.Port.batch) =
  check_open t;
  for i = 0 to b.Kg_mem.Port.len - 1 do
    let m = b.Kg_mem.Port.metas.(i) in
    split_lines t b.Kg_mem.Port.addrs.(i) b.Kg_mem.Port.sizes.(i)
      (Kg_mem.Port.is_write m) (Kg_mem.Port.tag_of m)
  done

let drain t =
  if not t.drained then begin
    for lvl = 0 to nlevels - 1 do
      let wbs = Cache.invalidate_all t.levels.(lvl) in
      List.iter (fun wb -> writeback t (lvl + 1) wb) wbs
    done;
    t.drained <- true
  end

let reopen t = t.drained <- false
let level_stats t = Array.map Cache.stats t.levels
let hit_time_ns t = t.hit_time_ns
