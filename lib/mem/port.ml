(* Batched memory port.

   Producers (the GC runtime, heap copy/zeroing paths, the OS write
   partition) append flat access records — addr, size, write flag and
   phase tag packed into parallel int arrays — into a per-port ring
   buffer. When the buffer fills (or on an explicit [flush]) the whole
   batch is delivered to a sink pipeline in one call, so line splitting
   and per-access dispatch happen once per batch instead of once per
   access. Sinks are a concrete variant, not a record of closures: the
   flush loop for [Null] and [Counting] is fully monomorphic here, and
   [Cache_sim] carries a per-batch driver installed once at port
   creation (the cache simulator lives in a library above this one, so
   it plugs in through the driver record — still one indirect call per
   batch, never one per access). *)

type batch = {
  mutable len : int;
  addrs : int array;
  sizes : int array;
  metas : int array;  (* bit 0: write flag; bits 1+: phase tag *)
}

let meta ~write ~tag = (tag lsl 1) lor (if write then 1 else 0)
let is_write m = m land 1 = 1
let tag_of m = m asr 1

type counters = {
  mutable dram_read_bytes : int;
  mutable dram_write_bytes : int;
  mutable pcm_read_bytes : int;
  mutable pcm_write_bytes : int;
  pcm_write_bytes_by_phase : int array;
}

let fresh_counters ~phases =
  {
    dram_read_bytes = 0;
    dram_write_bytes = 0;
    pcm_read_bytes = 0;
    pcm_write_bytes = 0;
    pcm_write_bytes_by_phase = Array.make phases 0;
  }

type stats = {
  s_dram_read_bytes : int;
  s_dram_write_bytes : int;
  s_pcm_read_bytes : int;
  s_pcm_write_bytes : int;
  s_pcm_write_bytes_by_phase : int array;
}

let zero_stats ~phases =
  {
    s_dram_read_bytes = 0;
    s_dram_write_bytes = 0;
    s_pcm_read_bytes = 0;
    s_pcm_write_bytes = 0;
    s_pcm_write_bytes_by_phase = Array.make phases 0;
  }

let stats_of_counters c =
  {
    s_dram_read_bytes = c.dram_read_bytes;
    s_dram_write_bytes = c.dram_write_bytes;
    s_pcm_read_bytes = c.pcm_read_bytes;
    s_pcm_write_bytes = c.pcm_write_bytes;
    s_pcm_write_bytes_by_phase = Array.copy c.pcm_write_bytes_by_phase;
  }

type driver = {
  run : batch -> unit;
  drv_stats : unit -> stats;
}

type sink =
  | Null
  | Counting of Address_map.t * counters
  | Cache_sim of driver
  | Tee of sink * sink

(* The one counting implementation: raw per-device byte tallies with
   PCM writes attributed to the phase recorded at issue time. Both the
   standalone counting port (architecture-independent figures) and any
   [Tee]d metrics ride through here, so the two can never drift.

   Routing is the whole per-record cost, and this is where the batch
   interface beats per-access dispatch. The region bounds are hoisted
   out of the loop, and the loop body is branchless: device and write
   bits select a slot in a per-batch accumulator array and mask the
   size, so a random device/write mix causes no mispredicted branches
   (per-access dispatch stalls on exactly those). The accumulators
   fold into [c] once per delivery. Unmapped addresses contribute
   nothing; they are detected by count and re-walked through
   [Address_map.kind_of] for its error after the counted records are
   committed. *)
let count_batch map c (b : batch) =
  let dram_base, dram_limit = Address_map.dram_bounds map in
  let pcm_base, pcm_limit = Address_map.pcm_bounds map in
  (* Slots: 0 dram-read, 1 dram-write, 2 pcm-read, 3 pcm-write. *)
  let acc = [| 0; 0; 0; 0 |] in
  let by_phase = c.pcm_write_bytes_by_phase in
  let unmapped = ref 0 in
  for i = 0 to b.len - 1 do
    let addr = Array.unsafe_get b.addrs i in
    let size = Array.unsafe_get b.sizes i in
    let m = Array.unsafe_get b.metas i in
    let w = m land 1 in
    let d =
      Bool.to_int (addr >= dram_base) land Bool.to_int (addr < dram_limit)
    in
    let p = Bool.to_int (addr >= pcm_base) land Bool.to_int (addr < pcm_limit)
    in
    let mapped = d lor p in
    let slot = (p lsl 1) lor w in
    Array.unsafe_set acc slot (Array.unsafe_get acc slot + (size land -mapped));
    (* Phase attribution only applies to PCM writes: mask both the tag
       and the size so other records add 0 to slot 0. The tag access
       stays bounds-checked — an out-of-range phase tag must still
       raise, exactly as the per-access path did. *)
    let pw = p land w in
    let t = tag_of m land -pw in
    by_phase.(t) <- by_phase.(t) + (size land -pw);
    unmapped := !unmapped + (1 - mapped)
  done;
  c.dram_read_bytes <- c.dram_read_bytes + Array.unsafe_get acc 0;
  c.dram_write_bytes <- c.dram_write_bytes + Array.unsafe_get acc 1;
  c.pcm_read_bytes <- c.pcm_read_bytes + Array.unsafe_get acc 2;
  c.pcm_write_bytes <- c.pcm_write_bytes + Array.unsafe_get acc 3;
  if !unmapped > 0 then
    for i = 0 to b.len - 1 do
      ignore (Address_map.kind_of map (Array.unsafe_get b.addrs i))
    done

let rec deliver sink b =
  match sink with
  | Null -> ()
  | Counting (map, c) -> count_batch map c b
  | Cache_sim d -> d.run b
  | Tee (a, b') ->
    deliver a b;
    deliver b' b

(* A sequenced group ties n ports (one per mutator domain) to one
   shared buffer of n × capacity records in front of one sink. Records
   are only issued from the deterministic apply loop, one at a time,
   never concurrently, so every member appends straight into the
   shared buffer: it holds the records in issue order, and a flush
   delivers it as it stands. Each member counts its own appends since
   the last delivery and flushes the group when that count reaches
   [capacity] — exactly where a private buffer of that capacity would
   have filled — so the shared buffer never overflows. *)
type member = {
  counts : int array;  (* each member's appends since the last delivery *)
  slot : int;  (* this member's index into [counts] *)
  member_capacity : int;
}

type t = {
  batch : batch;  (* shared by every member of a group *)
  mutable sink : sink;
  mutable phase_tag : int;
  member : member option;  (* [None] for a standalone port *)
}

let default_capacity = 1024

let make_batch capacity =
  {
    len = 0;
    addrs = Array.make capacity 0;
    sizes = Array.make capacity 0;
    metas = Array.make capacity 0;
  }

let create ?(capacity = default_capacity) ~sink () =
  if capacity <= 0 then invalid_arg "Port.create: capacity must be positive";
  { batch = make_batch capacity; sink; phase_tag = 0; member = None }

let sink t = t.sink
let set_sink t s = t.sink <- s
let capacity t = Array.length t.batch.addrs

let sequenced_group ?(capacity = default_capacity) ~sink n =
  if n <= 0 || capacity <= 0 then
    invalid_arg "Port.sequenced_group: n and capacity must be positive";
  let batch = make_batch (n * capacity) and counts = Array.make n 0 in
  Array.init n (fun slot ->
      { batch; sink; phase_tag = 0; member = Some { counts; slot; member_capacity = capacity } })

let flush t =
  let b = t.batch in
  if b.len > 0 then begin
    deliver t.sink b;
    b.len <- 0;
    match t.member with
    | Some g -> Array.fill g.counts 0 (Array.length g.counts) 0
    | None -> ()
  end

let[@inline] append t ~addr ~size m =
  let b = t.batch in
  (match t.member with
  | None -> if b.len = Array.length b.addrs then flush t
  | Some g ->
    if g.counts.(g.slot) = g.member_capacity then flush t;
    g.counts.(g.slot) <- g.counts.(g.slot) + 1);
  let i = b.len in
  Array.unsafe_set b.addrs i addr;
  Array.unsafe_set b.sizes i size;
  Array.unsafe_set b.metas i m;
  b.len <- i + 1

let[@inline] read t ~addr ~size = append t ~addr ~size (t.phase_tag lsl 1)
let[@inline] write t ~addr ~size = append t ~addr ~size ((t.phase_tag lsl 1) lor 1)

let set_phase_tag t tag = t.phase_tag <- tag
let phase_tag t = t.phase_tag

let rec sink_stats ~phases = function
  | Null -> zero_stats ~phases
  | Counting (_, c) -> stats_of_counters c
  | Cache_sim d -> d.drv_stats ()
  | Tee (a, _) -> sink_stats ~phases a

let stats ?(phases = 8) t =
  flush t;
  sink_stats ~phases t.sink
