(** Execution-time reconstruction.

    CPU-side time comes from the runtime's event counters (allocation
    volume, access events, copied bytes, barrier activity); memory-side
    time comes from the simulated hierarchy and controller, scaled by
    the memory-level-parallelism overlap factor. In counting mode
    (architecture-independent runs, the paper's real-hardware
    experiments) there is no device time and all latencies are
    effectively uniform, so only the CPU part is meaningful — exactly
    like measuring on a DRAM machine (§6.2). *)

type parts = {
  app_ns : float;  (** mutator: allocation, zeroing, access events *)
  gc_ns : float;  (** collection work: copies, scans, pauses *)
  remset_ns : float;  (** remembered-set barrier slow paths *)
  monitor_ns : float;  (** write-word monitoring slow paths *)
  mem_base_ns : float;  (** stall time if every access cost DRAM latency *)
  mem_pcm_extra_ns : float;  (** additional stalls from PCM's longer latencies *)
}

val total_ns : parts -> float

val cpu_parts :
  ?domains:int ->
  ?parallel_gc:bool ->
  ?intensity:float ->
  Kg_gc.Gc_stats.t ->
  alloc_bytes:int ->
  parts
(** The CPU-side components; memory fields are zero. [intensity]
    scales the application-compute term (benchmarks differ widely in
    work per heap access; the workload descriptor carries the
    calibrated value). [domains] (default 1) divides the mutator-side
    terms — allocation, access, barrier and monitor fast paths run on
    that many cores in parallel — while stop-the-world collection time
    stays sequential by default (Amdahl-style scaling for the simulated
    multicore mutators). [parallel_gc] (default [false]) additionally
    spreads the collection copy/scan work over the same [domains] cores
    inside each pause, charging {!Costs.t_gc_sync_ns} of fork/join and
    merge overhead per collection. *)

val with_machine : parts -> Machine.t -> parts
(** Add memory stall time from the machine's counters. *)

val seconds : parts -> float

val pause_ms :
  ?domains:int -> ?parallel_gc:bool -> copied:int -> scanned:int -> unit -> float
(** Stop-the-world pause estimate for one collection from its work
    terms (used to check the paper's pause ordering: nursery <
    observer < full-heap, §4.2.1). With [parallel_gc] and multiple
    [domains] the work terms divide across the modeled collector
    threads and the sync term is added, shrinking the pause itself. *)
