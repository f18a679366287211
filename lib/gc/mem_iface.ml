module Port = Kg_mem.Port

type t = Port.t

type counters = Port.counters = {
  mutable dram_read_bytes : int;
  mutable dram_write_bytes : int;
  mutable pcm_read_bytes : int;
  mutable pcm_write_bytes : int;
  pcm_write_bytes_by_phase : int array;
}

type stats = Port.stats = {
  s_dram_read_bytes : int;
  s_dram_write_bytes : int;
  s_pcm_read_bytes : int;
  s_pcm_write_bytes : int;
  s_pcm_write_bytes_by_phase : int array;
}

(* Eta-expanded (not value aliases) so call sites compile to direct
   known-arity calls that inline the port append, instead of a
   dynamic [caml_apply] through a closure value. *)
let[@inline] read t ~addr ~size = Port.read t ~addr ~size
let[@inline] write t ~addr ~size = Port.write t ~addr ~size
let flush t = Port.flush t
let set_phase t p = Port.set_phase_tag t (Phase.to_tag p)
let phase t = Phase.of_tag (Port.phase_tag t)
let stats t = Port.stats ~phases:Phase.count t

(* Controller line counts, folded into the port's byte-denominated
   stats record: one line written = line_size bytes. *)
let stats_of_controller ctrl =
  let open Kg_cache in
  let ls = Controller.line_size ctrl in
  let by_tag = Controller.writes_by_tag ctrl Kg_mem.Device.Pcm in
  {
    s_dram_read_bytes = Controller.bytes_read ctrl Kg_mem.Device.Dram;
    s_dram_write_bytes = Controller.bytes_written ctrl Kg_mem.Device.Dram;
    s_pcm_read_bytes = Controller.bytes_read ctrl Kg_mem.Device.Pcm;
    s_pcm_write_bytes = Controller.bytes_written ctrl Kg_mem.Device.Pcm;
    s_pcm_write_bytes_by_phase =
      Array.map (fun w -> w * ls) (Array.sub by_tag 0 Phase.count);
  }

let hierarchy_driver h =
  {
    Port.run = (fun b -> Kg_cache.Hierarchy.access_run h b);
    drv_stats = (fun () -> stats_of_controller (Kg_cache.Hierarchy.controller h));
  }

let of_hierarchy h = Port.create ~sink:(Port.Cache_sim (hierarchy_driver h)) ()

let counting ~map =
  let c = Port.fresh_counters ~phases:Phase.count in
  (Port.create ~sink:(Port.Counting (map, c)) (), c)

let null () = Port.create ~sink:Port.Null ()
