open Kg_mem
open Kg_cache

type system = Dram_only | Pcm_only | Hybrid

let system_name = function
  | Dram_only -> "DRAM-only"
  | Pcm_only -> "PCM-only"
  | Hybrid -> "Hybrid"

type t = {
  system : system;
  map : Address_map.t;
  ctrl : Controller.t;
  hier : Hierarchy.t;
  wear : Wear.t option;
}

let dram_gb = 32
let pcm_gb = 32
let hybrid_dram_gb = 1

let gib = Kg_util.Units.gib

let map_of = function
  | Dram_only -> Address_map.dram_only ~size:(dram_gb * gib) ()
  | Pcm_only -> Address_map.pcm_only ~size:(pcm_gb * gib) ()
  | Hybrid -> Address_map.hybrid ~dram_size:(hybrid_dram_gb * gib) ~pcm_size:(pcm_gb * gib) ()

let build system =
  let map = map_of system in
  let has_pcm = Address_map.pcm_size map > 0 in
  let wear =
    if has_pcm then Some (Wear.create ~size:(Address_map.pcm_size map) ()) else None
  in
  let ctrl = Controller.create ?wear ~map ~line_size:64 () in
  let hier = Hierarchy.create ~controller:ctrl () in
  { system; map; ctrl; hier; wear }

let port t = Kg_gc.Mem_iface.of_hierarchy t.hier

let pcm_write_bytes t = Controller.bytes_written t.ctrl Device.Pcm
let dram_write_bytes t = Controller.bytes_written t.ctrl Device.Dram
let drain t = Hierarchy.drain t.hier
