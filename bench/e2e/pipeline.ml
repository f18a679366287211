(* The run pipeline of [Kg_sim.Run.run], rebuilt from public functions
   so the traced run can time each layer at its boundary, plus the
   output checks every workload applies to its runs. *)

open Kg_sim
module Port = Kg_mem.Port
module Mem_iface = Kg_gc.Mem_iface
module Runtime = Kg_gc.Runtime
module Gc_stats = Kg_gc.Gc_stats

(* Run.run's derived configuration: the live target shrinks with
   [heap_scale] but never below 16 MB, and the heap is twice it. *)
let live_mb ~heap_scale bench = max 16 (Kg_workload.Descriptor.live_mb bench / max 1 heap_scale)

let config ~heap_scale (spec : Run.spec) bench =
  Kg_gc.Gc_config.make ~nursery_mb:spec.nursery_mb ?observer_mb:spec.observer_mb
    ~write_threshold:spec.write_threshold ?pcm_write_trigger_mb:spec.pcm_write_trigger_mb
    ~heap_mb:(2 * live_mb ~heap_scale bench)
    spec.collector

type t = {
  machine : Machine.t option;
  wp : Kg_os.Write_partition.t option;
  port : Mem_iface.t;
  rt : Runtime.t;
  machine_ns : int;  (** memory system: caches, controller, wear, WP, port *)
  runtime_ns : int;  (** Runtime.create *)
}

(* [wrap] replaces the port's sink before the runtime exists, because
   the per-domain ports of a multi-domain runtime copy the sink when
   they are created. WP runs address the heap through WP's virtual
   map, exactly as Run.run does. *)
let assemble ?(wrap = Fun.id) ~mode ~seed ~heap_scale ~threads ~parallel_gc (spec : Run.spec)
    bench =
  let t0 = Stats.now_ns () in
  let machine, wp, map, port =
    match (mode, spec.wp) with
    | Run.Simulate, false ->
      let m = Machine.build spec.system in
      (Some m, None, m.Machine.map, Machine.port m)
    | Run.Simulate, true ->
      let m = Machine.build Machine.Hybrid in
      let virt_size = Kg_mem.Address_map.pcm_size m.Machine.map in
      let w = Kg_os.Write_partition.create ~hier:m.Machine.hier ~virt_size () in
      ( Some m,
        Some w,
        Kg_mem.Address_map.pcm_only ~size:virt_size (),
        Kg_os.Write_partition.port w )
    | Run.Count, _ ->
      let map = Machine.map_of spec.system in
      (None, None, map, fst (Mem_iface.counting ~map))
  in
  Port.set_sink port (wrap (Port.sink port));
  let t1 = Stats.now_ns () in
  let rt =
    Runtime.create ~domains:threads ~parallel_gc ~config:(config ~heap_scale spec bench)
      ~mem:port ~map ~seed ()
  in
  { machine; wp; port; rt; machine_ns = t1 - t0; runtime_ns = Stats.now_ns () - t1 }

let mutator p ~heap_scale ~threads ~seed bench =
  Kg_workload.Mutator.create ~live_mb:(live_mb ~heap_scale bench) ~threads bench ~rt:p.rt
    ~seed:(seed + 1)

(* Run.run's epilogue: deliver buffered records, then drain the caches
   so every writeback reaches the devices. Returns the drain time. *)
let finish p =
  Mem_iface.flush p.port;
  let t0 = Stats.now_ns () in
  Option.iter Machine.drain p.machine;
  Stats.now_ns () - t0

(* A sink that forwards each batch to [sink] and reports the batch's
   start and stop times; its stats are [sink]'s. *)
let timed_sink on_batch sink =
  let drv_stats =
    match sink with
    | Port.Counting (_, c) -> fun () -> Port.stats_of_counters c
    | Port.Cache_sim d -> d.Port.drv_stats
    | Port.Null | Port.Tee _ -> invalid_arg "Pipeline.timed_sink: unexpected sink"
  in
  Port.Cache_sim
    {
      Port.run =
        (fun b ->
          let t0 = Stats.now_ns () in
          Port.deliver sink b;
          on_batch b.Port.len t0 (Stats.now_ns ()));
      drv_stats;
    }

(* ------------------------------------------------------------------ *)
(* Output checks *)

(* Device traffic as a run result reports it. *)
let traffic_equal (r : Run.result) (s : Mem_iface.stats) =
  let f = float_of_int in
  r.mem_pcm_write_bytes = f s.s_pcm_write_bytes
  && r.mem_dram_write_bytes = f s.s_dram_write_bytes
  && r.mem_pcm_read_bytes = f s.s_pcm_read_bytes
  && r.mem_dram_read_bytes = f s.s_dram_read_bytes
  && r.pcm_writes_by_phase = Array.map f s.s_pcm_write_bytes_by_phase

(* Two runs that must agree on every counter and every traffic byte
   (modeled time may differ, e.g. a team collector against its oracle). *)
let same_work (a : Run.result) (b : Run.result) =
  Gc_stats.equal a.stats b.stats
  && a.mem_pcm_write_bytes = b.mem_pcm_write_bytes
  && a.mem_dram_write_bytes = b.mem_dram_write_bytes
  && a.mem_pcm_read_bytes = b.mem_pcm_read_bytes
  && a.mem_dram_read_bytes = b.mem_dram_read_bytes
  && a.pcm_writes_by_phase = b.pcm_writes_by_phase

(* The output digest pinned for seed 11: every Gc_stats counter and
   log, the port traffic and the modeled time parts, floats printed as
   exact hex. Written here, not taken from the store codec, so a
   change of the store format cannot move it. Without [time_parts],
   it identifies the work alone, which a team run and its oracle share. *)
let digest ?(time_parts = true) (r : Run.result) =
  let b = Buffer.create 4096 in
  let i n = Printf.bprintf b "%d;" n and h x = Printf.bprintf b "%h;" x in
  let s = r.stats in
  List.iter i
    [
      s.app_writes_nursery; s.app_writes_observer; s.app_writes_mature; s.app_write_bytes_dram;
      s.app_write_bytes_pcm; s.ref_writes; s.prim_writes; s.reads; s.gen_remset_inserts;
      s.obs_remset_inserts; s.monitor_header_writes; s.barrier_fast_paths; s.nursery_gcs;
      s.observer_gcs; s.major_gcs; s.copied_bytes_nursery; s.copied_bytes_observer;
      s.copied_bytes_major; s.remset_slot_updates; s.mark_header_writes; s.mark_table_writes;
      s.scanned_objects; s.nursery_alloc_bytes; s.nursery_survived_bytes; s.observer_in_bytes;
      s.observer_survived_bytes; s.observer_to_dram_bytes; s.observer_to_pcm_bytes;
      s.large_allocs; s.large_allocs_in_nursery; s.mature_moves_to_dram; s.mature_moves_to_pcm;
      s.los_moves_to_dram; r.alloc_bytes;
    ];
  Kg_util.Vec.iter i s.retired_mature_writes;
  Kg_util.Vec.iter
    (fun (p, c, n) -> i (Kg_gc.Phase.to_tag p); i c; i n)
    s.collection_log;
  List.iter h
    [
      r.mem_pcm_write_bytes; r.mem_dram_write_bytes; r.mem_pcm_read_bytes; r.mem_dram_read_bytes;
      r.migration_pcm_bytes;
    ];
  Array.iter h r.pcm_writes_by_phase;
  (if time_parts then
     let p = r.time_parts in
     List.iter h
       [
         p.Time_model.app_ns; p.gc_ns; p.remset_ns; p.monitor_ns; p.mem_base_ns; p.mem_pcm_extra_ns;
       ]);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Host facts *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> acc in
    let ls = go [] in
    close_in ic;
    List.rev ls

let field_after_colon prefix lines =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        match String.index_opt l ':' with
        | Some i -> Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | None -> None
      else None)
    lines

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match field_after_colon "VmHWM" (read_lines "/proc/self/status") with
  | Some v -> (
    match String.split_on_char ' ' v with
    | kb :: _ -> float_of_string kb /. 1024.0
    | [] -> failwith "peak_rss_mb: empty VmHWM")
  | None -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"

(* Lower the peak resident set to the current one, so a later
   [peak_rss_mb] reads the peak since this call. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  output_string oc "5";
  close_out oc

let host () =
  Json.Obj
    [
      ( "cpu",
        Json.Str
          (Option.value ~default:"unknown"
             (field_after_colon "model name" (read_lines "/proc/cpuinfo"))) );
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ]
