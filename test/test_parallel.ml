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

let () =
  Alcotest.run "kg_parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "repeat stress 1/2/4" `Quick test_repeat_determinism;
          Alcotest.test_case "schedule seed varies" `Quick test_schedule_seed_varies;
        ] );
      ( "allocation",
        [ Alcotest.test_case "2-domain epoch minor words" `Quick test_epoch_allocation_guard ] );
    ]
