open Kg_cache

let queues = 8
let promote_rank = 4
let demote_period = 5
let default_quantum_accesses = 500_000

type page = {
  vpage : int;
  mutable writes : int;
  mutable rank : int;
  mutable dram_frame : int;  (* -1 while resident in PCM *)
}

(* The page tables. [pages] and [dram_rev] are the policy's record:
   the promotion pass iterates [pages], so their insertion history
   decides which page gets which DRAM frame. [by_vpage] and [by_frame]
   mirror them as flat arrays, grown on demand, for the per-record
   lookups ([absent] marks no entry). *)
type t = {
  quantum_accesses : int;
  hier : Hierarchy.t;
  ctrl : Controller.t;
  pcm_base : int;
  dram_base : int;
  dram_frames : int;
  pcm_pages : int;
  pages : (int, page) Hashtbl.t;
  dram_rev : (int, page) Hashtbl.t;  (* dram frame index -> page *)
  mutable by_vpage : page array;
  mutable by_frame : page array;
  mutable scratch : Kg_mem.Port.batch;  (* a batch's records, translated *)
  mutable dram_cursor : int;  (* next-never-used frame *)
  mutable free_frames : int list;
  mutable accesses : int;
  mutable quantum : int;
  mutable dram_resident : int;
  mutable peak_dram : int;
  mutable to_dram : int;
  mutable to_pcm : int;
  mutable migration_pcm_lines : int;
  mutable migrating : bool;
}

let page_size = Kg_heap.Layout.page
let migration_tag = Kg_gc.Phase.to_tag Kg_gc.Phase.Migration
(* The empty slot of the flat tables; shared, so never written. *)
let absent = { vpage = -1; writes = 0; rank = 0; dram_frame = -1 }

let[@inline] lookup (a : page array) i =
  if i >= 0 && i < Array.length a then Array.unsafe_get a i else absent

let grown (a : page array) i =
  let b = Array.make (Int.max (i + 1) (2 * Array.length a)) absent in
  Array.blit a 0 b 0 (Array.length a);
  b

let create ?(quantum_accesses = default_quantum_accesses) ~hier ~virt_size () =
  let ctrl = Hierarchy.controller hier in
  let map = Controller.map ctrl in
  let t =
    {
      quantum_accesses;
      hier;
      ctrl;
      pcm_base = Kg_mem.Address_map.pcm_base map;
      dram_base = Kg_mem.Address_map.dram_base map;
      dram_frames = Kg_mem.Address_map.dram_size map / page_size;
      pcm_pages = Kg_mem.Address_map.pcm_size map / page_size;
      pages = Hashtbl.create 4096;
      dram_rev = Hashtbl.create 4096;
      by_vpage = [||];
      by_frame = [||];
      scratch = Kg_mem.Port.make_batch Kg_mem.Port.default_capacity;
      dram_cursor = 0;
      free_frames = [];
      accesses = 0;
      quantum = 0;
      dram_resident = 0;
      peak_dram = 0;
      to_dram = 0;
      to_pcm = 0;
      migration_pcm_lines = 0;
      migrating = false;
    }
  in
  if virt_size > Kg_mem.Address_map.pcm_size map then
    invalid_arg "Write_partition.create: virtual range exceeds PCM capacity";
  Controller.set_on_write ctrl (fun paddr ->
      (* Count writebacks per page, in whichever device the page lives.
         A migration's own copy traffic must not re-heat the page it is
         demoting, or pages bounce between the partitions forever. An
         unmapped address is not tracked: the controller rejects it
         right after this hook. *)
      if not t.migrating then begin
        let p =
          if paddr >= t.pcm_base then begin
            let vpage = (paddr - t.pcm_base) / page_size in
            let p = lookup t.by_vpage vpage in
            if p != absent || vpage >= t.pcm_pages then p
            else begin
              let p = { vpage; writes = 0; rank = 0; dram_frame = -1 } in
              Hashtbl.replace t.pages vpage p;
              if vpage >= Array.length t.by_vpage then t.by_vpage <- grown t.by_vpage vpage;
              t.by_vpage.(vpage) <- p;
              p
            end
          end
          else lookup t.by_frame ((paddr - t.dram_base) / page_size)
        in
        if p != absent then begin
          p.writes <- p.writes + 1;
          (* Queue n holds pages with 2^n writes. *)
          let rank = int_of_float (Float.log2 (float_of_int (Int.max 1 p.writes))) in
          p.rank <- Int.min (queues - 1) rank
        end
      end);
  t

let alloc_frame t =
  match t.free_frames with
  | f :: rest ->
    t.free_frames <- rest;
    Some f
  | [] ->
    if t.dram_cursor < t.dram_frames then begin
      let f = t.dram_cursor in
      t.dram_cursor <- f + 1;
      Some f
    end
    else None

(* Page copies are DMA at line granularity, bypassing the caches. *)
let copy_page t ~src ~dst =
  let lines = page_size / Controller.line_size t.ctrl in
  let ls = Controller.line_size t.ctrl in
  t.migrating <- true;
  for i = 0 to lines - 1 do
    Controller.line_read t.ctrl (src + (i * ls));
    Controller.line_write t.ctrl (dst + (i * ls)) ~tag:migration_tag
  done;
  t.migrating <- false

let migrate_to_dram t p =
  match alloc_frame t with
  | None -> ()
  | Some f ->
    copy_page t ~src:(t.pcm_base + (p.vpage * page_size)) ~dst:(t.dram_base + (f * page_size));
    p.dram_frame <- f;
    Hashtbl.replace t.dram_rev f p;
    if f >= Array.length t.by_frame then t.by_frame <- grown t.by_frame f;
    t.by_frame.(f) <- p;
    t.dram_resident <- t.dram_resident + 1;
    if t.dram_resident > t.peak_dram then t.peak_dram <- t.dram_resident;
    t.to_dram <- t.to_dram + 1

let migrate_to_pcm t p =
  let f = p.dram_frame in
  copy_page t ~src:(t.dram_base + (f * page_size)) ~dst:(t.pcm_base + (p.vpage * page_size));
  t.migration_pcm_lines <- t.migration_pcm_lines + (page_size / Controller.line_size t.ctrl);
  p.dram_frame <- -1;
  Hashtbl.remove t.dram_rev f;
  t.by_frame.(f) <- absent;
  t.free_frames <- f :: t.free_frames;
  t.dram_resident <- t.dram_resident - 1;
  t.to_pcm <- t.to_pcm + 1

let run_quantum t =
  t.quantum <- t.quantum + 1;
  (* Promotion pass: PCM pages in the top-ranked queues move to DRAM. *)
  Hashtbl.iter
    (fun _ p -> if p.dram_frame < 0 && p.rank >= promote_rank then migrate_to_dram t p)
    t.pages;
  if t.quantum mod demote_period = 0 then begin
    (* Demotion pass: every DRAM page drops one queue; pages falling
       below the promotion threshold return to PCM. *)
    let falling = ref [] in
    Hashtbl.iter
      (fun _ p ->
        p.rank <- Int.max 0 (p.rank - 1);
        p.writes <- p.writes / 2;
        if p.rank < promote_rank then falling := p :: !falling)
      t.dram_rev;
    List.iter (migrate_to_pcm t) !falling
  end

let[@inline] translate t vaddr =
  let p = lookup t.by_vpage (vaddr / page_size) in
  if p.dram_frame >= 0 then t.dram_base + (p.dram_frame * page_size) + (vaddr mod page_size)
  else t.pcm_base + vaddr

let tick t =
  t.accesses <- t.accesses + 1;
  if t.accesses >= t.quantum_accesses then begin
    t.accesses <- 0;
    run_quantum t
  end

(* Room in the scratch batch for [n] more records. *)
let reserve t n =
  let s = t.scratch in
  if s.len + n > Array.length s.addrs then begin
    let g = Kg_mem.Port.make_batch (Int.max (2 * Array.length s.addrs) (s.len + n)) in
    Array.blit s.addrs 0 g.addrs 0 s.len;
    Array.blit s.sizes 0 g.sizes 0 s.len;
    Array.blit s.metas 0 g.metas 0 s.len;
    g.len <- s.len;
    t.scratch <- g
  end

(* Records [i, stop) of [b] into the scratch batch, translated, each
   record split at page boundaries so every piece lands on its page's
   current frame. No frame moves between quanta, so translating a
   segment before accessing it maps every piece as the per-record
   order would. *)
let translate_segment t (b : Kg_mem.Port.batch) i stop =
  t.scratch.len <- 0;
  for j = i to stop - 1 do
    let size = Array.unsafe_get b.sizes j in
    reserve t ((size / page_size) + 2);
    let s = t.scratch in
    let m = Array.unsafe_get b.metas j in
    let vaddr = ref (Array.unsafe_get b.addrs j) and left = ref size in
    while !left > 0 do
      let n = Int.min !left (page_size - (!vaddr mod page_size)) in
      let k = s.len in
      Array.unsafe_set s.addrs k (translate t !vaddr);
      Array.unsafe_set s.sizes k n;
      Array.unsafe_set s.metas k m;
      s.len <- k + 1;
      vaddr := !vaddr + n;
      left := !left - n
    done
  done

(* The write-partition sink, on the batch kernel. Each record ticks the
   access quantum once, so promotion/demotion passes fire at the same
   record positions as with a per-access interface; the batch is cut
   into segments at those positions. A segment is translated, then
   handed to Hierarchy.access_run in one call, which also delivers its
   writebacks to the controller (and so to the page ranking) before
   the next pass reads the ranks. Records keep the write flag and phase
   tag they were issued with. *)
let port t =
  let module Port = Kg_mem.Port in
  let run (b : Port.batch) =
    let i = ref 0 in
    while !i < b.len do
      (* The segment's first record may fire the quantum; the records
         after it, up to the next firing, tick without one. *)
      tick t;
      let more = Int.max 0 (Int.min (b.len - !i - 1) (t.quantum_accesses - t.accesses - 1)) in
      t.accesses <- t.accesses + more;
      let stop = !i + 1 + more in
      translate_segment t b !i stop;
      if t.scratch.len > 0 then Hierarchy.access_run t.hier t.scratch;
      i := stop
    done
  in
  let drv_stats () = Kg_gc.Mem_iface.stats_of_controller t.ctrl in
  Port.create ~sink:(Port.Cache_sim { Port.run; drv_stats }) ()

let dram_pages t = t.dram_resident
let peak_dram_pages t = t.peak_dram
let migrations_to_dram t = t.to_dram
let migrations_to_pcm t = t.to_pcm
let migration_pcm_line_writes t = t.migration_pcm_lines
