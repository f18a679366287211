open Kg_gc

type parts = {
  app_ns : float;
  gc_ns : float;
  remset_ns : float;
  monitor_ns : float;
  mem_base_ns : float;
  mem_pcm_extra_ns : float;
}

let total_ns p =
  p.app_ns +. p.gc_ns +. p.remset_ns +. p.monitor_ns +. p.mem_base_ns +. p.mem_pcm_extra_ns

let cpu_parts ?(domains = 1) ?(parallel_gc = false) ?(intensity = 1.0) (st : Gc_stats.t)
    ~alloc_bytes =
  let f = float_of_int in
  let access_events = st.reads + st.ref_writes + st.prim_writes in
  let copied = st.copied_bytes_nursery + st.copied_bytes_observer + st.copied_bytes_major in
  let collections = st.nursery_gcs + st.observer_gcs + st.major_gcs in
  let app_ns =
    (f alloc_bytes *. Costs.t_alloc_per_byte_ns *. intensity)
    +. (f access_events *. Costs.t_access_ns *. intensity)
    +. (f (st.ref_writes + st.prim_writes) *. Costs.t_barrier_fast_ns)
  in
  let gc_work_ns =
    (f copied *. Costs.t_copy_per_byte_ns)
    +. (f (st.scanned_objects + st.remset_slot_updates) *. Costs.t_scan_per_object_ns)
  in
  let remset_ns =
    f (st.gen_remset_inserts + st.obs_remset_inserts) *. Costs.t_remset_insert_ns
  in
  let monitor_ns = f st.monitor_header_writes *. Costs.t_monitor_ns in
  (* Mutator-side work (allocation, accesses, barrier fast paths,
     remset buffering, write monitoring) runs on [domains] cores in
     parallel. Collections are stop-the-world: sequential by default,
     but with [parallel_gc] the copy/scan work spreads over the same
     [domains] cores inside the pause, at the price of a per-collection
     fork/join-and-merge synchronisation term. *)
  let d = f (max 1 domains) in
  let gc_ns =
    if parallel_gc && domains > 1 then
      (gc_work_ns /. d) +. (f collections *. (Costs.t_gc_fixed_ns +. Costs.t_gc_sync_ns))
    else gc_work_ns +. (f collections *. Costs.t_gc_fixed_ns)
  in
  {
    app_ns = app_ns /. d;
    gc_ns;
    remset_ns = remset_ns /. d;
    monitor_ns = monitor_ns /. d;
    mem_base_ns = 0.0;
    mem_pcm_extra_ns = 0.0;
  }

let with_machine p (m : Machine.t) =
  let open Kg_cache in
  let open Kg_mem in
  let f = float_of_int in
  let dram = Device.dram and pcm = Device.pcm in
  let reads k = f (Controller.reads m.Machine.ctrl k) in
  let writes k = f (Controller.writes m.Machine.ctrl k) in
  (* Base: every memory access at DRAM speed, plus cache lookup time.
     Loads stall; stores are posted through the write queue. *)
  let base =
    (Hierarchy.hit_time_ns m.Machine.hier *. Costs.mem_read_overlap)
    +. (reads Device.Dram +. reads Device.Pcm)
       *. dram.Device.read_latency_ns *. Costs.mem_read_overlap
    +. (writes Device.Dram +. writes Device.Pcm)
       *. dram.Device.write_latency_ns *. Costs.mem_write_overlap
  in
  (* Extra: the latency PCM adds over DRAM on its accesses. *)
  let extra =
    (reads Device.Pcm
    *. (pcm.Device.read_latency_ns -. dram.Device.read_latency_ns)
    *. Costs.mem_read_overlap)
    +. writes Device.Pcm
       *. (pcm.Device.write_latency_ns -. dram.Device.write_latency_ns)
       *. Costs.mem_write_overlap
  in
  { p with mem_base_ns = base; mem_pcm_extra_ns = extra }

let seconds p = total_ns p *. 1e-9

let pause_ms ?(domains = 1) ?(parallel_gc = false) ~copied ~scanned () =
  let work =
    (float_of_int copied *. Costs.t_copy_per_byte_ns)
    +. (float_of_int scanned *. Costs.t_scan_per_object_ns)
  in
  (if parallel_gc && domains > 1 then
     Costs.t_gc_fixed_ns +. Costs.t_gc_sync_ns +. (work /. float_of_int domains)
   else Costs.t_gc_fixed_ns +. work)
  *. 1e-6
