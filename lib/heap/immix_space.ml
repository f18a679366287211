open Kg_util
module O = Object_model

type block = {
  b_base : int;
  b_index : int;
  line_marks : Bytes.t;
  mutable marked_lines : int;
  mutable b_avail : bool;  (* constant-time "is on the allocation list" bit *)
}

type sweep_stats = {
  swept_objects : int;
  swept_bytes : int;
  free_blocks : int;
  recyclable_blocks : int;
  full_blocks : int;
  marked_lines : int;
}

type t = {
  id : int;
  name : string;
  words : O.store;
  arena : Arena.t;
  on_new_region : base:int -> unit;
  blocks : block Vec.t;
  mutable region_bases : int array;  (* sorted, for addr -> block lookup *)
  (* Allocation queue, recyclable then free, consumed head-first via
     [avail_head] (popped slots go stale rather than shifting — the Vec
     is rebuilt wholesale by [sweep]). Each block's [b_avail] bit
     mirrors queue membership so audits stay O(blocks). *)
  avail : block Vec.t;
  mutable avail_head : int;
  (* The one bump cursor, into the block currently being filled.
     Allocation runs only in sequential phases, so nothing here is
     locked. *)
  mutable cur : block option;
  mutable scan_line : int;  (* next line to consider in [cur] *)
  mutable cursor : int;
  mutable cursor_limit : int;
  objects : O.t Vec.t;
  mutable live_bytes : int;
  mutable allocs_since_sweep : int;
}

let blocks_per_region = Layout.mature_region / Layout.block

let create ~words ~id ~name ~arena ?(on_new_region = fun ~base:_ -> ()) () =
  {
    id;
    name;
    words;
    arena;
    on_new_region;
    blocks = Vec.create ();
    region_bases = [||];
    avail = Vec.create ();
    avail_head = 0;
    cur = None;
    scan_line = 0;
    cursor = 0;
    cursor_limit = 0;
    objects = Vec.create ();
    live_bytes = 0;
    allocs_since_sweep = 0;
  }

let id t = t.id
let name t = t.name
let kind t = Arena.kind t.arena
let objects t = t.objects
let live_bytes t = t.live_bytes
let footprint_bytes t = Array.length t.region_bases * Layout.mature_region
let region_count t = Array.length t.region_bases
let region_bases t = Array.copy t.region_bases
let meta_bytes_per_block = Layout.lines_per_block

let grow_region t =
  let base = Arena.reserve ~who:t.name t.arena Layout.mature_region in
  t.region_bases <- Array.append t.region_bases [| base |];
  Array.sort compare t.region_bases;
  for i = 0 to blocks_per_region - 1 do
    let b =
      {
        b_base = base + (i * Layout.block);
        b_index = Vec.length t.blocks;
        line_marks = Bytes.make Layout.lines_per_block '\000';
        marked_lines = 0;
        b_avail = true;
      }
    in
    Vec.push t.blocks b;
    Vec.push t.avail b
  done;
  t.on_new_region ~base

(* Next run of free lines in [b] starting at or after [from]. *)
let next_free_run b from =
  let n = Layout.lines_per_block in
  let rec find_start i = if i >= n then None else if Bytes.get b.line_marks i = '\000' then Some i else find_start (i + 1) in
  match find_start from with
  | None -> None
  | Some start ->
    let rec find_end i = if i >= n || Bytes.get b.line_marks i <> '\000' then i else find_end (i + 1) in
    Some (start, find_end start)

(* Take the next block off the allocation queue, growing the arena by
   a region if the queue is dry. *)
let rec take_avail t =
  if t.avail_head < Vec.length t.avail then begin
    let b = Vec.get t.avail t.avail_head in
    t.avail_head <- t.avail_head + 1;
    b.b_avail <- false;
    Some b
  end
  else if Arena.remaining t.arena >= Layout.mature_region then begin
    grow_region t;
    take_avail t
  end
  else None

let rec refill t =
  match t.cur with
  | Some b -> begin
    match next_free_run b t.scan_line with
    | Some (start, stop) ->
      t.cursor <- b.b_base + (start * Layout.line);
      t.cursor_limit <- b.b_base + (stop * Layout.line);
      t.scan_line <- stop + 1;
      true
    | None ->
      t.cur <- None;
      refill t
  end
  | None -> begin
    match take_avail t with
    | Some b ->
      t.cur <- Some b;
      t.scan_line <- 0;
      t.cursor <- 0;
      t.cursor_limit <- 0;
      refill t
    | None -> false
  end

let rec alloc_in t o osize =
  if t.cursor + osize <= t.cursor_limit then begin
    O.set_addr t.words o t.cursor;
    O.set_space t.words o t.id;
    t.cursor <- t.cursor + osize;
    t.live_bytes <- t.live_bytes + osize;
    t.allocs_since_sweep <- t.allocs_since_sweep + 1;
    Vec.push t.objects o;
    true
  end
  else if refill t then alloc_in t o osize
  else false

let alloc t o =
  let osize = O.size t.words o in
  if osize > Layout.max_small_object then invalid_arg "Immix_space.alloc: large object";
  alloc_in t o osize

let region_index_of_addr t addr =
  (* Binary search the region containing [addr]. *)
  let bases = t.region_bases in
  let lo = ref 0 and hi = ref (Array.length bases - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if addr < bases.(mid) then hi := mid - 1
    else if addr >= bases.(mid) + Layout.mature_region then lo := mid + 1
    else begin
      found := mid;
      lo := !hi + 1
    end
  done;
  if !found < 0 then invalid_arg "Immix_space: address not in space";
  !found

let region_base_of_addr t addr = t.region_bases.(region_index_of_addr t addr)

let block_of_addr t addr =
  let found = ref (region_index_of_addr t addr) in
  let base = t.region_bases.(!found) in
  (* Blocks were appended region by region; recover the block id from
     the region's position in allocation order. Regions are reserved
     from a bump arena, so allocation order equals address order. *)
  let region_block0 = !found * blocks_per_region in
  let b = Vec.get t.blocks (region_block0 + ((addr - base) / Layout.block)) in
  b

let remove_foreign t =
  let w = t.words in
  Vec.filter_in_place (fun o -> O.space w o = t.id) t.objects

let recyclable_free_lines t =
  Vec.fold
    (fun acc (b : block) ->
      if b.marked_lines > 0 && b.marked_lines < Layout.lines_per_block then
        acc + (Layout.lines_per_block - b.marked_lines)
      else acc)
    0 t.blocks

let fragmentation t =
  let partial_lines =
    Vec.fold
      (fun acc (b : block) ->
        if b.marked_lines > 0 && b.marked_lines < Layout.lines_per_block then
          acc + Layout.lines_per_block
        else acc)
      0 t.blocks
  in
  if partial_lines = 0 then 0.0
  else float_of_int (recyclable_free_lines t) /. float_of_int partial_lines

let defrag_candidates t ~max_bytes =
  (* Rank recyclable blocks emptiest-first (fewest marked lines), then
     take their residents until the budget is spent: moving the fewest
     objects frees the most blocks, as Immix does. *)
  let w = t.words in
  let sparse =
    Vec.fold
      (fun acc (b : block) ->
        if b.marked_lines > 0 && b.marked_lines < Layout.lines_per_block / 4 then b :: acc
        else acc)
      [] t.blocks
  in
  let sparse = List.sort (fun (a : block) b -> compare a.marked_lines b.marked_lines) sparse in
  let in_block (b : block) o =
    let oaddr = O.addr w o in
    oaddr >= b.b_base && oaddr < b.b_base + Layout.block
  in
  let budget = ref max_bytes in
  let picked = ref [] in
  List.iter
    (fun b ->
      if !budget > 0 then
        Vec.iter
          (fun o ->
            if in_block b o && !budget > 0 then begin
              picked := o :: !picked;
              budget := !budget - O.size w o
            end)
          t.objects)
    sparse;
  !picked

(* ------------------------------------------------------------------ *)
(* Self-audit (heap invariant auditor support)                         *)

let count_marked (b : block) =
  let c = ref 0 in
  for i = 0 to Layout.lines_per_block - 1 do
    if Bytes.get b.line_marks i <> '\000' then incr c
  done;
  !c

let lines_of w o (b : block) =
  let oaddr = O.addr w o and osize = O.size w o in
  ((oaddr - b.b_base) / Layout.line, (oaddr + osize - 1 - b.b_base) / Layout.line)

let audit t =
  let w = t.words in
  let errs = ref [] in
  let err fmt =
    Printf.ksprintf (fun m -> errs := Printf.sprintf "%s: %s" t.name m :: !errs) fmt
  in
  (* Population structure: ownership, residence inside a reserved
     region, block containment (objects may cross lines, not blocks),
     and occupancy accounting. *)
  let size_sum = ref 0 in
  Vec.iter
    (fun o ->
      let oaddr = O.addr w o and osize = O.size w o and osp = O.space w o in
      size_sum := !size_sum + osize;
      if osp <> t.id then
        err "object %d at %#x has space id %d, not %d" (O.id o) oaddr osp t.id;
      if oaddr < 0 then err "object %d is unallocated (addr %d)" (O.id o) oaddr
      else
        match block_of_addr t oaddr with
        | exception Invalid_argument _ ->
          err "object %d at %#x lies outside the space's regions" (O.id o) oaddr
        | b ->
          if oaddr + osize > b.b_base + Layout.block then
            err "object %d at %#x (%d B) crosses a block boundary" (O.id o) oaddr osize)
    t.objects;
  if !size_sum <> t.live_bytes then
    err "live_bytes %d disagrees with resident object bytes %d" t.live_bytes !size_sum;
  (* Block metadata: the cached marked-line count must match the marks. *)
  Vec.iter
    (fun (b : block) ->
      let c = count_marked b in
      if c <> b.marked_lines then
        err "block %d caches %d marked lines but %d marks are set" b.b_index b.marked_lines c)
    t.blocks;
  (* Immediately after a sweep (no allocation since), line marks must
     cover exactly the surviving objects, and every fully-unmarked
     block must be back on the allocation list — a live object on an
     unmarked line or an unrecycled empty block is a sweep bug. *)
  if t.allocs_since_sweep = 0 then begin
    let expected = Array.init (Vec.length t.blocks) (fun _ -> Bytes.make Layout.lines_per_block '\000') in
    Vec.iter
      (fun o ->
        if O.addr w o >= 0 then
          match block_of_addr t (O.addr w o) with
          | exception Invalid_argument _ -> ()
          | b ->
            let first, last = lines_of w o b in
            for l = first to min last (Layout.lines_per_block - 1) do
              Bytes.set expected.(b.b_index) l '\001'
            done)
      t.objects;
    Vec.iter
      (fun (b : block) ->
        for l = 0 to Layout.lines_per_block - 1 do
          let want = Bytes.get expected.(b.b_index) l <> '\000' in
          let got = Bytes.get b.line_marks l <> '\000' in
          if want && not got then
            err "block %d line %d holds a live object but is unmarked" b.b_index l
          else if got && not want then
            err "block %d line %d is marked but holds no live object" b.b_index l
        done;
        if b.marked_lines = 0 && not b.b_avail then
          err "fully-unmarked block %d was not returned to the free list" b.b_index)
      t.blocks
  end;
  List.rev !errs

(* Sweep, in the collector's "plan in parallel, apply in merged order"
   protocol. Phase A (parallel over population ranges) classifies each
   contiguous range into kept / dead lists and computes every kept
   object's line span, bucketed by the owning block's region group.
   Phase B (sequential) replays the per-range buffers in range order —
   exactly the order the pre-protocol sequential sweep visited the
   population, so the rebuilt vector, the [on_dead] retirement stream
   and the byte accounting are bit-identical at any width. Phase C
   (parallel over region groups) clears and re-applies the line maps:
   group [j] owns blocks with [region mod width = j], so writes are
   disjoint, and the final marks are a set union — independent of the
   order spans land. Phase D (sequential) walks blocks in index order
   to rebuild the allocation queue and emit [write_meta] records,
   unchanged from the sequential sweep. [Parfor.inline_ 1] therefore
   *is* the old sweep; any width with any runner produces the same
   observable state. *)
let sweep t ~now ?(write_meta = fun ~block_index:_ ~lines:_ -> ()) ?(on_dead = fun _ -> ())
    ?(par = Parfor.inline_ 1) () =
  let w = t.words in
  let width = Parfor.width par in
  let n = Vec.length t.objects in
  let kept = Array.init width (fun _ -> Vec.create ()) in
  let dead = Array.init width (fun _ -> Vec.create ()) in
  let kept_bytes = Array.make width 0 and dead_bytes = Array.make width 0 in
  (* [spans.(i).(j)]: packed [(block lsl 14) lor (first lsl 7) lor last]
     line spans planned by range [i] for region group [j] — written
     only by slice [i], read only by slice [j] of the next step. *)
  let spans = Array.init width (fun _ -> Array.init width (fun _ -> Vec.create ())) in
  Parfor.run par (fun i ->
      let lo, hi = Parfor.slice ~len:n ~width i in
      for k = lo to hi do
        let o = Vec.get t.objects k in
        if O.space w o = t.id then
          if O.is_live w o now then begin
            let oaddr = O.addr w o and osize = O.size w o in
            Vec.push kept.(i) o;
            kept_bytes.(i) <- kept_bytes.(i) + osize;
            let b = block_of_addr t oaddr in
            let first = (oaddr - b.b_base) / Layout.line in
            let last =
              min ((oaddr + osize - 1 - b.b_base) / Layout.line) (Layout.lines_per_block - 1)
            in
            let group = b.b_index / blocks_per_region mod width in
            Vec.push spans.(i).(group) ((b.b_index lsl 14) lor (first lsl 7) lor last)
          end
          else begin
            Vec.push dead.(i) o;
            dead_bytes.(i) <- dead_bytes.(i) + O.size w o
          end
      done);
  Vec.clear t.objects;
  let swept_objects = ref 0 and swept_bytes = ref 0 and live = ref 0 in
  for i = 0 to width - 1 do
    Vec.iter (fun o -> Vec.push t.objects o) kept.(i);
    live := !live + kept_bytes.(i);
    swept_objects := !swept_objects + Vec.length dead.(i);
    swept_bytes := !swept_bytes + dead_bytes.(i);
    Vec.iter on_dead dead.(i)
  done;
  t.live_bytes <- !live;
  Parfor.run par (fun j ->
      for bi = 0 to Vec.length t.blocks - 1 do
        if bi / blocks_per_region mod width = j then begin
          let b = Vec.get t.blocks bi in
          Bytes.fill b.line_marks 0 Layout.lines_per_block '\000';
          b.marked_lines <- 0
        end
      done;
      for i = 0 to width - 1 do
        Vec.iter
          (fun packed ->
            let b = Vec.get t.blocks (packed lsr 14) in
            let first = (packed lsr 7) land 0x7f and last = packed land 0x7f in
            for l = first to last do
              if Bytes.get b.line_marks l = '\000' then begin
                Bytes.set b.line_marks l '\001';
                b.marked_lines <- b.marked_lines + 1
              end
            done)
          spans.(i).(j)
      done);
  Vec.clear t.avail;
  t.avail_head <- 0;
  let free = ref [] in
  let nfree = ref 0 and nrec = ref 0 and nfull = ref 0 and marked = ref 0 in
  Vec.iter
    (fun (b : block) ->
      marked := !marked + b.marked_lines;
      if b.marked_lines = 0 then begin
        incr nfree;
        b.b_avail <- true;
        free := b :: !free
      end
      else if b.marked_lines < Layout.lines_per_block then begin
        incr nrec;
        b.b_avail <- true;
        Vec.push t.avail b;
        write_meta ~block_index:b.b_index ~lines:b.marked_lines
      end
      else begin
        incr nfull;
        b.b_avail <- false;
        write_meta ~block_index:b.b_index ~lines:b.marked_lines
      end)
    t.blocks;
  (* Allocation prefers partially filled blocks, then empty ones (§3). *)
  List.iter (fun b -> Vec.push t.avail b) (List.rev !free);
  t.cur <- None;
  t.cursor <- 0;
  t.cursor_limit <- 0;
  t.scan_line <- 0;
  t.allocs_since_sweep <- 0;
  {
    swept_objects = !swept_objects;
    swept_bytes = !swept_bytes;
    free_blocks = !nfree;
    recyclable_blocks = !nrec;
    full_blocks = !nfull;
    marked_lines = !marked;
  }
