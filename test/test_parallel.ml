(* Differential tests for the simulated multicore mutators.

   The epoch protocol promises that a run with N mutator domains is a
   pure function of (seed, schedule_seed, N): real [Domain]s generate
   op streams that a schedule-seeded merge applies deterministically.
   The headline check is the single-domain interleaved oracle — the
   identical protocol with generation run inline — which must match
   the parallel path bit for bit on every statistic, write count, and
   (through the order-sensitive cache hierarchy) every byte of device
   traffic. *)

open Kg_sim
module GS = Kg_gc.Gc_stats

let check_bool = Alcotest.(check bool)

(* Everything a run exposes that could diverge: collection counts,
   allocation and write demographics, remset activity, and the
   memory-level traffic (order-sensitive under Simulate). *)
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

let quick ?(seed = 11) ?(schedule_seed = 0) ?(oracle = false) ?(mode = Run.Count)
    ?(spec = Run.pcm_only) ?(bench = "xalan") threads =
  fingerprint
    (Run.run ~seed ~scale:512 ~heap_scale:8 ~cap_mb:8 ~threads ~schedule_seed ~oracle
       ~mode spec (Kg_workload.Descriptor.find bench))

(* The headline differential: for any domain count, seed and schedule
   seed, the Domain-parallel path and the inline oracle agree on every
   statistic and write count. *)
let parallel_matches_oracle_qcheck =
  QCheck.Test.make ~name:"parallel path is bit-identical to the interleaved oracle"
    ~count:6
    QCheck.(triple (int_range 2 4) (int_bound 1000) (int_bound 1000))
    (fun (threads, seed, schedule_seed) ->
      quick ~seed ~schedule_seed ~oracle:false threads
      = quick ~seed ~schedule_seed ~oracle:true threads)

(* Under full simulation the cache hierarchy makes device traffic a
   function of the exact merged access order, so agreement here pins
   the merged flush order, not just the totals. *)
let test_parallel_oracle_simulate () =
  List.iter
    (fun threads ->
      check_bool
        (Printf.sprintf "simulate, %d domains" threads)
        true
        (quick ~mode:Run.Simulate ~oracle:false threads
        = quick ~mode:Run.Simulate ~oracle:true threads))
    [ 2; 4 ]

(* KG-W exercises the observer space, both remsets and the write-word
   monitor across domains. *)
let test_parallel_oracle_kgw () =
  check_bool "kg-w, 2 domains" true
    (quick ~spec:Run.kg_w ~oracle:false 2 = quick ~spec:Run.kg_w ~oracle:true 2)

(* Satellite 3: determinism stress — domains in {1, 2, 4}, three
   repeats each, every repeat byte-identical for its domain count. *)
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

(* A generator that raises on a worker domain: the round must end in
   that exception on the coordinator (not wait forever for a worker
   that never reports done), the worker must stay parked and usable,
   and finish must join it. *)
exception Generator_failed of int

let test_round_reraises_worker_exception () =
  let failing = Atomic.make true and rounds = Atomic.make 0 in
  let team =
    Kg_workload.Epoch.spawn ~n:2 ~oracle:false (fun d ->
        if d = 1 && Atomic.get failing then raise (Generator_failed d);
        Atomic.incr rounds)
  in
  Fun.protect ~finally:(fun () -> Kg_workload.Epoch.finish team) (fun () ->
      (match Kg_workload.Epoch.round team with
      | () -> Alcotest.fail "round returned normally"
      | exception Generator_failed d -> Alcotest.(check int) "raised by domain 1" 1 d);
      Alcotest.(check int) "domain 0 still generated" 1 (Atomic.get rounds);
      Atomic.set failing false;
      Kg_workload.Epoch.round team;
      Alcotest.(check int) "both domains generate next round" 3 (Atomic.get rounds))

(* Host-allocation guard: an epoch allocates nothing per op, so the
   2-domain protocol costs about the same minor-heap words per
   simulated byte as the 1-domain loop. Oracle mode spawns no Domain,
   so [Gc.minor_words] sees every word the run allocates. *)
let minor_words_per_byte threads =
  let bench = Kg_workload.Descriptor.find "xalan" in
  let before = Gc.minor_words () in
  let r =
    Run.run ~seed:11 ~scale:1 ~heap_scale:8 ~cap_mb:12 ~threads ~oracle:true ~mode:Run.Count
      Run.kg_w bench
  in
  (Gc.minor_words () -. before) /. float_of_int r.Run.alloc_bytes

let test_epoch_allocation_guard () =
  let one = minor_words_per_byte 1 and two = minor_words_per_byte 2 in
  if two > 1.5 *. one then
    Alcotest.failf "2 domains allocate %.3f minor words per byte, 1 domain %.3f (limit 1.5x)" two
      one

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kg_parallel"
    [
      ( "differential",
        [
          q parallel_matches_oracle_qcheck;
          Alcotest.test_case "simulate mode order" `Quick test_parallel_oracle_simulate;
          Alcotest.test_case "kg-w observer + monitor" `Quick test_parallel_oracle_kgw;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "repeat stress 1/2/4" `Quick test_repeat_determinism;
          Alcotest.test_case "schedule seed varies" `Quick test_schedule_seed_varies;
        ] );
      ( "allocation",
        [ Alcotest.test_case "2-domain epoch minor words" `Quick test_epoch_allocation_guard ] );
      ( "failure",
        [
          Alcotest.test_case "worker exception re-raised" `Quick
            test_round_reraises_worker_exception;
        ] );
    ]
