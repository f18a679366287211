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
  seqs : int array;  (* issue-order tags; only meaningful in groups *)
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

(* A sequenced group ties N ports (one per mutator domain) to one
   shared sink. Every append through a member port is stamped with the
   next value of the group-wide issue counter, and flushing ANY member
   merges the buffered records of ALL members by that stamp before a
   single delivery — so the sink observes one global total order no
   matter which member's buffer happened to fill first. The counter is
   a plain mutable int: records are only issued from the deterministic
   apply loop (one domain at a time), never concurrently. The merge
   writes into a scratch batch the group owns, grown only when a flush
   is larger than any before it. *)
type group = {
  mutable next_seq : int;
  mutable batches : batch array;  (* the members' buffers *)
  mutable scratch : batch;
  pos : int array;  (* per-member merge cursor *)
}

and t = {
  batch : batch;
  mutable sink : sink;
  mutable phase_tag : int;
  mutable group : group option;
}

let default_capacity = 1024

let make_batch capacity =
  {
    len = 0;
    addrs = Array.make capacity 0;
    sizes = Array.make capacity 0;
    metas = Array.make capacity 0;
    seqs = Array.make capacity 0;
  }

let create ?(capacity = default_capacity) ~sink () =
  if capacity <= 0 then invalid_arg "Port.create: capacity must be positive";
  {
    batch = make_batch capacity;
    sink;
    phase_tag = 0;
    group = None;
  }

let sink t = t.sink
let set_sink t s = t.sink <- s
let capacity t = Array.length t.batch.addrs

(* Merge member batches into [out] (which must hold them all) ordered
   by issue stamp, using [pos] as the per-batch cursor. Each member's
   buffer is already ascending in [seqs] (the group counter is
   monotonic), so this is a k-way merge of sorted runs. Stamps are
   unique, which makes the result a total order independent of the
   arrival order of the input batches — the property the QCheck suite
   pins down. *)
let merge_into out pos (batches : batch array) =
  let k = Array.length batches in
  let total = ref 0 in
  for j = 0 to k - 1 do
    pos.(j) <- 0;
    total := !total + batches.(j).len
  done;
  for i = 0 to !total - 1 do
    (* Pick the member whose next un-consumed record has the smallest
       stamp. k is the domain count (tiny), so a linear scan beats a
       heap here. *)
    let best = ref (-1) in
    let best_seq = ref max_int in
    for j = 0 to k - 1 do
      let b = batches.(j) in
      if pos.(j) < b.len && b.seqs.(pos.(j)) < !best_seq then begin
        best := j;
        best_seq := b.seqs.(pos.(j))
      end
    done;
    let b = batches.(!best) in
    let p = pos.(!best) in
    out.addrs.(i) <- b.addrs.(p);
    out.sizes.(i) <- b.sizes.(p);
    out.metas.(i) <- b.metas.(p);
    out.seqs.(i) <- b.seqs.(p);
    pos.(!best) <- p + 1
  done;
  out.len <- !total

let merge (batches : batch array) : batch =
  let total = Array.fold_left (fun a b -> a + b.len) 0 batches in
  let out = make_batch (max total 1) in
  merge_into out (Array.make (Array.length batches) 0) batches;
  out

let flush_group g sink =
  let total = Array.fold_left (fun a b -> a + b.len) 0 g.batches in
  if total > 0 then begin
    if Array.length g.scratch.addrs < total then g.scratch <- make_batch total;
    merge_into g.scratch g.pos g.batches;
    deliver sink g.scratch;
    Array.iter (fun b -> b.len <- 0) g.batches
  end

let flush t =
  match t.group with
  | Some g -> flush_group g t.sink
  | None ->
    let b = t.batch in
    if b.len > 0 then begin
      deliver t.sink b;
      b.len <- 0
    end

let sequenced_group ?(capacity = default_capacity) ~sink n =
  if n <= 0 then invalid_arg "Port.sequenced_group: n must be positive";
  let g = { next_seq = 0; batches = [||]; scratch = make_batch 1; pos = Array.make n 0 } in
  let members =
    Array.init n (fun _ ->
        let p = create ~capacity ~sink () in
        p.group <- Some g;
        p)
  in
  g.batches <- Array.map (fun p -> p.batch) members;
  members

let group_seq t =
  match t.group with None -> None | Some g -> Some g.next_seq

let[@inline] append t ~addr ~size m =
  let b = t.batch in
  if b.len = Array.length b.addrs then flush t;
  let i = b.len in
  Array.unsafe_set b.addrs i addr;
  Array.unsafe_set b.sizes i size;
  Array.unsafe_set b.metas i m;
  (match t.group with
  | None -> ()
  | Some g ->
    Array.unsafe_set b.seqs i g.next_seq;
    g.next_seq <- g.next_seq + 1);
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
