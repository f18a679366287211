(* Tests for the simulated multicore mutators.

   The epoch protocol promises that a run with N mutator domains is a
   pure function of (seed, schedule_seed, N): per-domain op streams
   that a schedule-seeded merge applies deterministically. Repeats
   must agree on every statistic, write count and byte of device
   traffic; the schedule seed must matter; and the protocol must cost
   no more host allocation per simulated byte than the sequential
   loop. *)

open Kg_sim
module GS = Kg_gc.Gc_stats

let check_bool = Alcotest.(check bool)

(* Everything a run exposes that could diverge: collection counts,
   allocation and write demographics, remset activity, and the
   memory-level traffic. *)
let fingerprint (r : Run.result) =
  let st = r.Run.stats in
  ( ( st.GS.nursery_gcs,
      st.GS.observer_gcs,
      st.GS.major_gcs,
      st.GS.nursery_alloc_bytes,
      st.GS.large_allocs ),
    ( st.GS.ref_writes,
      st.GS.prim_writes,
      st.GS.reads,
      st.GS.gen_remset_inserts,
      st.GS.obs_remset_inserts ),
    ( st.GS.app_write_bytes_pcm,
      st.GS.app_write_bytes_dram,
      st.GS.copied_bytes_nursery,
      st.GS.monitor_header_writes,
      st.GS.barrier_fast_paths ),
    ( r.Run.mem_pcm_write_bytes,
      r.Run.mem_dram_write_bytes,
      r.Run.mem_pcm_read_bytes,
      r.Run.mem_dram_read_bytes ) )

let quick ?(schedule_seed = 0) threads =
  fingerprint
    (Run.run ~seed:11 ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads ~schedule_seed ~mode:Run.Count
       Run.pcm_only (Kg_workload.Descriptor.find "xalan"))

(* Determinism stress: domains in {1, 2, 4}, three repeats each,
   every repeat byte-identical for its domain count. *)
let test_repeat_determinism () =
  List.iter
    (fun threads ->
      let a = quick threads and b = quick threads and c = quick threads in
      check_bool (Printf.sprintf "%d domains reproducible" threads) true
        (a = b && b = c))
    [ 1; 2; 4 ]

(* The schedule seed is a real degree of freedom: different merges
   must (for this workload) produce different interleavings, visible
   in the remset insert counts — while each stays reproducible. *)
let test_schedule_seed_varies () =
  let a = quick ~schedule_seed:0 2
  and b = quick ~schedule_seed:1 2
  and a' = quick ~schedule_seed:0 2 in
  check_bool "seed 0 reproducible" true (a = a');
  check_bool "different schedules differ" true (a <> b)

(* Host-allocation guard: an epoch allocates nothing per op, so the
   2-domain protocol costs about the same minor-heap words per
   simulated byte as the 1-domain loop. A run spawns no domain in
   Count mode, so [Gc.minor_words] sees every word it allocates. *)
let minor_words_per_byte threads =
  let bench = Kg_workload.Descriptor.find "xalan" in
  let before = Gc.minor_words () in
  let r =
    Run.run ~seed:11 ~scale:1 ~heap_scale:8 ~cap_mb:12 ~threads ~mode:Run.Count
      Run.kg_w bench
  in
  (Gc.minor_words () -. before) /. float_of_int r.Run.alloc_bytes

(* The one-domain run also has an absolute budget, in the dev profile
   the tests build in: the generator's boxed floats come to about 2.4
   words per byte, and an op that allocated (a buffered op, a boxed
   debt, a [Some] per runtime call) would push the run past 2.7. *)
let one_domain_budget = 2.7

let test_epoch_allocation_guard () =
  let one = minor_words_per_byte 1 and two = minor_words_per_byte 2 in
  if one > one_domain_budget then
    Alcotest.failf "1 domain allocates %.3f minor words per byte (budget %.1f)" one
      one_domain_budget;
  if two > 1.5 *. one then
    Alcotest.failf "2 domains allocate %.3f minor words per byte, 1 domain %.3f (limit 1.5x)" two
      one

(* Hot-path host-allocation budgets, in the dev profile the tests
   build in: minor words per barrier call, per cache-sim record, per
   WP record and per Sink_pipe record. Each case runs its pass once to
   warm up (buffers and tables reach their working size), then
   measures an identical second pass; an empty pass measured the same
   way removes the probe's own boxed floats. *)
let words_per_op ~ops ?(between = ignore) pass =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let probe = words ignore in
  pass ();
  between ();
  (words pass -. probe) /. float_of_int ops

let mib = Kg_util.Units.mib

let test_hot_path_budgets () =
  let module Rt = Kg_gc.Runtime in
  let module O = Kg_heap.Object_model in
  let budget name limit words =
    if words > limit then
      Alcotest.failf "%s allocates %.5f minor words per op (budget %g)" name words limit
  in
  (* The barriers, on a KG-W runtime over a Null port. The remsets are
     emptied between the passes, as a collection would, so the measured
     pass records into buffers of their working size. *)
  let rt =
    let map = Kg_mem.Address_map.hybrid ~dram_size:(64 * mib) ~pcm_size:(256 * mib) () in
    let config = Kg_gc.Gc_config.make ~heap_mb:64 Kg_gc.Gc_config.kg_w_default in
    Rt.create ~config ~mem:(Kg_gc.Mem_iface.null ()) ~map ~seed:1 ()
  in
  let old_a = Rt.alloc_boot rt ~size:256 ~heat:O.Cold ~ref_fields:4 in
  let old_b = Rt.alloc_boot rt ~size:256 ~heat:O.Cold ~ref_fields:4 in
  let young = Rt.alloc rt ~size:64 ~heat:O.Cold ~death:infinity ~ref_fields:2 in
  let clear_remsets () =
    Kg_gc.Remset.clear (Rt.gen_remset rt);
    Option.iter Kg_gc.Remset.clear (Rt.obs_remset rt)
  in
  let calls = 10_000 in
  let per_call name f =
    let pass () =
      for _ = 1 to calls do
        f ()
      done
    in
    budget name 0.0 (words_per_op ~ops:calls ~between:clear_remsets pass)
  in
  per_call "write_prim" (fun () -> Rt.write_prim rt old_a);
  per_call "write_ref old-to-old" (fun () -> Rt.write_ref rt ~src:old_a ~tgt:old_b);
  per_call "write_ref old-to-young" (fun () -> Rt.write_ref rt ~src:old_a ~tgt:young);
  per_call "read_burst" (fun () -> Rt.read_burst rt old_a 4);
  (* The sinks, fed one fixed record stream through a port: addresses
     over both devices of a small hybrid machine (and inside WP's
     16 MiB virtual range), sizes from a word to past a line, one
     record in three a write. *)
  let records = 200_000 in
  let rng = Random.State.make [| 11 |] in
  let addrs = Array.init records (fun _ -> Random.State.int rng ((16 * mib) - 512)) in
  let sizes = Array.init records (fun _ -> 8 * (1 + Random.State.int rng 40)) in
  let writes = Array.init records (fun _ -> Random.State.int rng 3 = 0) in
  let stream port () =
    for i = 0 to records - 1 do
      if writes.(i) then Kg_mem.Port.write port ~addr:addrs.(i) ~size:sizes.(i)
      else Kg_mem.Port.read port ~addr:addrs.(i) ~size:sizes.(i)
    done;
    Kg_mem.Port.flush port
  in
  let hierarchy () =
    let map = Kg_mem.Address_map.hybrid ~dram_size:mib ~pcm_size:(16 * mib) () in
    let wear = Kg_mem.Wear.create ~size:(16 * mib) () in
    Kg_cache.Hierarchy.create ~controller:(Kg_cache.Controller.create ~wear ~map ~line_size:64 ()) ()
  in
  let per_record name limit port = budget name limit (words_per_op ~ops:records (stream port)) in
  per_record "cache-sim sink" 0.0 (Kg_gc.Mem_iface.of_hierarchy (hierarchy ()));
  (* A fifth of the default OS quantum, so each pass also pays two
     quanta's ranking and migration. *)
  let wp =
    Kg_os.Write_partition.create ~quantum_accesses:100_000 ~hier:(hierarchy ()) ~virt_size:(16 * mib)
      ()
  in
  per_record "write partitioning" 0.01 (Kg_os.Write_partition.port wp);
  let pipe = Kg_mem.Sink_pipe.create (Kg_gc.Mem_iface.hierarchy_driver (hierarchy ())) in
  Fun.protect
    ~finally:(fun () -> Kg_mem.Sink_pipe.close pipe)
    (fun () ->
      per_record "Sink_pipe" 0.01
        (Kg_mem.Port.create ~sink:(Kg_mem.Port.Cache_sim (Kg_mem.Sink_pipe.driver pipe)) ()))

let () =
  Alcotest.run "kg_parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "repeat stress 1/2/4" `Quick test_repeat_determinism;
          Alcotest.test_case "schedule seed varies" `Quick test_schedule_seed_varies;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "2-domain epoch minor words" `Quick test_epoch_allocation_guard;
          Alcotest.test_case "hot-path budgets" `Quick test_hot_path_budgets;
        ] );
    ]
