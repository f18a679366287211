open Kg_cache

type config = {
  queues : int;
  promote_rank : int;
  quantum_accesses : int;
  demote_period : int;
}

let default_config =
  { queues = 8; promote_rank = 4; quantum_accesses = 500_000; demote_period = 5 }

type page = {
  vpage : int;
  mutable writes : int;
  mutable rank : int;
  mutable dram_frame : int;  (* -1 while resident in PCM *)
}

type t = {
  cfg : config;
  hier : Hierarchy.t;
  ctrl : Controller.t;
  pcm_base : int;
  dram_base : int;
  dram_frames : int;
  pages : (int, page) Hashtbl.t;
  dram_rev : (int, page) Hashtbl.t;  (* dram frame index -> page *)
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

let create ?(config = default_config) ~hier ~virt_size () =
  let ctrl = Hierarchy.controller hier in
  let map = Controller.map ctrl in
  let t =
    {
      cfg = config;
      hier;
      ctrl;
      pcm_base = Kg_mem.Address_map.pcm_base map;
      dram_base = Kg_mem.Address_map.dram_base map;
      dram_frames = Kg_mem.Address_map.dram_size map / page_size;
      pages = Hashtbl.create 4096;
      dram_rev = Hashtbl.create 4096;
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
         demoting, or pages bounce between the partitions forever. *)
      if t.migrating then ()
      else
      let page =
        if paddr >= t.pcm_base then begin
          let vpage = (paddr - t.pcm_base) / page_size in
          match Hashtbl.find_opt t.pages vpage with
          | Some p -> Some p
          | None ->
            let p = { vpage; writes = 0; rank = 0; dram_frame = -1 } in
            Hashtbl.replace t.pages vpage p;
            Some p
        end
        else Hashtbl.find_opt t.dram_rev ((paddr - t.dram_base) / page_size)
      in
      match page with
      | None -> ()
      | Some p ->
        p.writes <- p.writes + 1;
        (* Queue n holds pages with 2^n writes. *)
        let rank = int_of_float (Float.log2 (float_of_int (Int.max 1 p.writes))) in
        p.rank <- Int.min (t.cfg.queues - 1) rank);
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
    t.dram_resident <- t.dram_resident + 1;
    if t.dram_resident > t.peak_dram then t.peak_dram <- t.dram_resident;
    t.to_dram <- t.to_dram + 1

let migrate_to_pcm t p =
  let f = p.dram_frame in
  copy_page t ~src:(t.dram_base + (f * page_size)) ~dst:(t.pcm_base + (p.vpage * page_size));
  t.migration_pcm_lines <- t.migration_pcm_lines + (page_size / Controller.line_size t.ctrl);
  p.dram_frame <- -1;
  Hashtbl.remove t.dram_rev f;
  t.free_frames <- f :: t.free_frames;
  t.dram_resident <- t.dram_resident - 1;
  t.to_pcm <- t.to_pcm + 1

let run_quantum t =
  t.quantum <- t.quantum + 1;
  (* Promotion pass: PCM pages in the top-ranked queues move to DRAM. *)
  Hashtbl.iter
    (fun _ p -> if p.dram_frame < 0 && p.rank >= t.cfg.promote_rank then migrate_to_dram t p)
    t.pages;
  if t.quantum mod t.cfg.demote_period = 0 then begin
    (* Demotion pass: every DRAM page drops one queue; pages falling
       below the promotion threshold return to PCM. *)
    let falling = ref [] in
    Hashtbl.iter
      (fun _ p ->
        p.rank <- Int.max 0 (p.rank - 1);
        p.writes <- p.writes / 2;
        if p.rank < t.cfg.promote_rank then falling := p :: !falling)
      t.dram_rev;
    List.iter (migrate_to_pcm t) !falling
  end

let translate t vaddr =
  let vpage = vaddr / page_size in
  match Hashtbl.find_opt t.pages vpage with
  | Some p when p.dram_frame >= 0 -> t.dram_base + (p.dram_frame * page_size) + (vaddr mod page_size)
  | _ -> t.pcm_base + vaddr

let tick t =
  t.accesses <- t.accesses + 1;
  if t.accesses >= t.cfg.quantum_accesses then begin
    t.accesses <- 0;
    run_quantum t
  end

let chunked t vaddr size f =
  (* Translate per page so an access spanning a migration boundary
     hits each page's current frame. *)
  let rec go vaddr size =
    if size > 0 then begin
      let in_page = page_size - (vaddr mod page_size) in
      let n = Int.min size in_page in
      f (translate t vaddr) n;
      go (vaddr + n) (size - n)
    end
  in
  go vaddr size

(* The write-partition sink: each record ticks the access quantum (so
   promotion/demotion passes fire at the same access positions as with
   a per-access interface), translates through the page tables, and
   lands on the cache hierarchy under the phase tag it was issued
   with. *)
let port t =
  let module Port = Kg_mem.Port in
  let run (b : Port.batch) =
    for i = 0 to b.len - 1 do
      tick t;
      let m = Array.unsafe_get b.metas i in
      Hierarchy.set_phase t.hier (Port.tag_of m);
      let write = Port.is_write m in
      chunked t
        (Array.unsafe_get b.addrs i)
        (Array.unsafe_get b.sizes i)
        (fun p n -> Hierarchy.access_range t.hier ~addr:p ~size:n ~write)
    done
  in
  let drv_stats () = Kg_gc.Mem_iface.stats_of_controller t.ctrl in
  Port.create ~sink:(Port.Cache_sim { Port.run; drv_stats }) ()

let dram_pages t = t.dram_resident
let peak_dram_pages t = t.peak_dram
let migrations_to_dram t = t.to_dram
let migrations_to_pcm t = t.to_pcm
let migration_pcm_line_writes t = t.migration_pcm_lines
