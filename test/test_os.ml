open Kg_os
module WP = Write_partition
module H = Kg_cache.Hierarchy
module Mem = Kg_gc.Mem_iface

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let page = Kg_heap.Layout.page
let mib = Kg_util.Units.mib

(* A small hybrid machine with a WP engine whose quantum fires after
   very few accesses, so tests can step the policy deterministically. *)
let mk ?(quantum = 50) () =
  let map = Kg_mem.Address_map.hybrid ~dram_size:mib ~pcm_size:(16 * mib) () in
  let ctrl = Kg_cache.Controller.create ~map ~line_size:64 () in
  let hier = H.create ~controller:ctrl () in
  let wp = WP.create ~quantum_accesses:quantum ~hier ~virt_size:(8 * mib) () in
  (wp, WP.port wp, ctrl, hier)

(* A demand write immediately flushed through the port and drained out
   of the caches, so the memory controller observes one writeback per
   call (the signal WP ranks pages by). Drain is sticky; reopen lets
   demand traffic resume. *)
let write_through mem hier vaddr =
  Mem.write mem ~addr:vaddr ~size:8;
  Mem.flush mem;
  H.drain hier;
  H.reopen hier

(* Make one page hot enough to reach the promotion queues (rank 4 needs
   2^4 = 16 observed writes) and spin enough accesses for quanta. *)
let heat_page mem hier vaddr =
  for _ = 1 to 40 do
    write_through mem hier vaddr
  done;
  for _ = 1 to 200 do
    Mem.read mem ~addr:(7 * mib) ~size:8
  done;
  Mem.flush mem

let test_wp_fresh_pages_in_pcm () =
  let _, mem, ctrl, _ = mk () in
  Mem.read mem ~addr:0 ~size:8;
  Mem.read mem ~addr:(4 * mib) ~size:8;
  Mem.flush mem;
  check_int "both reads from pcm" 2 (Kg_cache.Controller.reads ctrl Kg_mem.Device.Pcm)

let test_wp_hot_page_promotes () =
  let wp, mem, _, hier = mk () in
  heat_page mem hier 0;
  check_int "page resident in DRAM" 1 (WP.dram_pages wp);
  check_int "one migration" 1 (WP.migrations_to_dram wp)

let test_wp_cold_pages_stay () =
  let wp, mem, _, hier = mk () in
  (* a handful of writes never reaches rank 4 *)
  for _ = 1 to 5 do
    write_through mem hier 0
  done;
  for _ = 1 to 200 do
    Mem.read mem ~addr:(7 * mib) ~size:8
  done;
  Mem.flush mem;
  check_int "no promotion" 0 (WP.dram_pages wp)

let test_wp_translation_changes_after_promotion () =
  let wp, mem, ctrl, hier = mk () in
  heat_page mem hier 0;
  check_int "promoted" 1 (WP.dram_pages wp);
  (* demand traffic on the hot page now lands in DRAM *)
  let dram_before = Kg_cache.Controller.reads ctrl Kg_mem.Device.Dram in
  Mem.read mem ~addr:128 ~size:8;
  Mem.flush mem;
  check_bool "reads hit the DRAM frame" true
    (Kg_cache.Controller.reads ctrl Kg_mem.Device.Dram > dram_before)

let test_wp_migration_traffic_tagged () =
  let wp, mem, ctrl, hier = mk () in
  heat_page mem hier 0;
  let tags = Kg_cache.Controller.writes_by_tag ctrl Kg_mem.Device.Dram in
  let mig_tag = Kg_gc.Phase.to_tag Kg_gc.Phase.Migration in
  check_int "page copy writes tagged as migration" (WP.migrations_to_dram wp * (page / 64))
    tags.(mig_tag)

let test_wp_demotion_returns_pages () =
  let wp, mem, _, hier = mk () in
  heat_page mem hier 0;
  check_int "promoted first" 1 (WP.migrations_to_dram wp);
  (* idle traffic elsewhere: ranks decay every 5th quantum until the
     page falls below the threshold and migrates back *)
  for _ = 1 to 3000 do
    Mem.read mem ~addr:(7 * mib) ~size:8
  done;
  Mem.flush mem;
  check_int "demoted back to PCM" 1 (WP.migrations_to_pcm wp);
  check_int "pcm migration lines counted" (page / 64) (WP.migration_pcm_line_writes wp);
  check_int "dram empty again" 0 (WP.dram_pages wp)

let test_wp_peak_tracking () =
  let wp, mem, _, hier = mk () in
  heat_page mem hier 0;
  heat_page mem hier (2 * mib);
  for _ = 1 to 3000 do
    Mem.read mem ~addr:(7 * mib) ~size:8
  done;
  Mem.flush mem;
  check_int "peak saw both" 2 (WP.peak_dram_pages wp);
  check_bool "current below peak" true (WP.dram_pages wp < WP.peak_dram_pages wp)

let test_wp_dram_writes_keep_page_hot () =
  let wp, mem, _, hier = mk () in
  heat_page mem hier 0;
  (* keep writing the page while it is in DRAM: demotions decay its
     rank but continued writes re-promote it, so it must still be in
     DRAM after moderate idling *)
  for _ = 1 to 20 do
    for _ = 1 to 30 do
      write_through mem hier 0
    done;
    for _ = 1 to 60 do
      Mem.read mem ~addr:(7 * mib) ~size:8
    done;
    Mem.flush mem
  done;
  check_int "hot page pinned in DRAM" 1 (WP.dram_pages wp)

let test_wp_default_config () =
  check_int "8 queues" 8 WP.queues;
  check_int "promote rank 4" 4 WP.promote_rank;
  check_int "demote every 5 quanta" 5 WP.demote_period;
  check_int "500,000 accesses per quantum" 500_000 WP.default_quantum_accesses

let test_wp_virt_size_validation () =
  let map = Kg_mem.Address_map.hybrid ~dram_size:mib ~pcm_size:(2 * mib) () in
  let ctrl = Kg_cache.Controller.create ~map ~line_size:64 () in
  let hier = H.create ~controller:ctrl () in
  Alcotest.check_raises "too big"
    (Invalid_argument "Write_partition.create: virtual range exceeds PCM capacity") (fun () ->
      ignore (WP.create ~hier ~virt_size:(4 * mib) ()))

(* ------------------------------------------------------------------ *)
(* The batch kernel and the sink pipe, differentially                 *)

module Port = Kg_mem.Port
module Ctrl = Kg_cache.Controller

(* Everything a run reads off a memory system after its final flush. *)
let observe (hier, wp) =
  let ctrl = H.controller hier in
  let dev k = (Ctrl.reads ctrl k, Ctrl.writes ctrl k, Ctrl.writes_by_tag ctrl k) in
  let bits = Int64.bits_of_float in
  ( (dev Kg_mem.Device.Dram, dev Kg_mem.Device.Pcm),
    (bits (Ctrl.access_energy_j ctrl), bits (H.hit_time_ns hier)),
    H.level_stats hier,
    Option.map
      (fun w ->
        ( WP.migrations_to_dram w,
          WP.migrations_to_pcm w,
          WP.migration_pcm_line_writes w,
          WP.peak_dram_pages w,
          WP.dram_pages w ))
      wp )

(* A hybrid machine and a driver over it: the plain hierarchy, or WP
   with a quantum short enough to fire many times per stream. The
   caches are tiny, so short streams already write back, heat pages
   and migrate them. *)
let machine ~wp =
  let map = Kg_mem.Address_map.hybrid ~dram_size:mib ~pcm_size:(16 * mib) () in
  let ctrl = Ctrl.create ~map ~line_size:64 () in
  let level size ways latency_ns = { H.size; ways; latency_ns } in
  let hier =
    H.create ~l1:(level 1024 2 1.0) ~l2:(level 4096 4 2.0) ~l3:(level 16384 4 7.5) ~controller:ctrl
      ()
  in
  if wp then begin
    let w = WP.create ~quantum_accesses:3000 ~hier ~virt_size:(8 * mib) () in
    match Port.sink (WP.port w) with
    | Port.Cache_sim d -> ((hier, Some w), d)
    | _ -> assert false
  end
  else ((hier, None), Mem.hierarchy_driver hier)

(* Random records over a few hot pages and a wider cold range, sizes
   from one byte to past a page, so lines coalesce, pages cross and
   pages heat up. *)
let random_batch rng n =
  let b = Port.make_batch (max 1 n) in
  for i = 0 to n - 1 do
    let hot = Random.State.int rng 4 > 0 in
    let addr =
      if hot then Random.State.int rng 8 * page + Random.State.int rng page
      else Random.State.int rng (7 * mib)
    in
    let size =
      match Random.State.int rng 8 with
      | 0 -> 1 + Random.State.int rng (2 * page)
      | 1 -> 0
      | _ -> 8 * (1 + Random.State.int rng 8)
    in
    b.Port.addrs.(i) <- addr;
    b.Port.sizes.(i) <- size;
    b.Port.metas.(i) <- Port.meta ~write:(Random.State.bool rng) ~tag:(Random.State.int rng 8)
  done;
  b.Port.len <- n;
  b

(* The same stream of batches (lengths 0 to 3 slots, random sync
   points) through a pipe and straight into the driver: identical
   counters, bit-equal time and energy, identical cache and WP state,
   at every sync point and after the final drain. *)
let pipe_matches_inline_qcheck =
  QCheck.Test.make ~name:"pipe == inline driver (hierarchy and WP)" ~count:12
    QCheck.(triple bool small_nat (int_range 1 6))
    (fun (wp, seed, nbatches) ->
      let rng = Random.State.make [| seed |] in
      let batches =
        List.init nbatches (fun _ ->
            let n = Random.State.int rng (3 * Kg_mem.Sink_pipe.slot_records + 1) in
            (random_batch rng n, Random.State.int rng 3 = 0))
      in
      let direct, d = machine ~wp in
      let piped, inner = machine ~wp in
      let p = Kg_mem.Sink_pipe.create inner in
      let pd = Kg_mem.Sink_pipe.driver p in
      let same () = pd.Port.drv_stats () = d.Port.drv_stats () && observe piped = observe direct in
      let ok = ref true in
      List.iter
        (fun (b, sync) ->
          d.Port.run b;
          pd.Port.run b;
          if sync then ok := !ok && same ())
        batches;
      Kg_mem.Sink_pipe.close p;
      let ok = !ok && same () in
      H.drain (fst direct);
      H.drain (fst piped);
      ok && observe piped = observe direct)

(* WP cuts a batch at quantum firings: one batch, or the same records
   one per batch, give the same machine. *)
let wp_batch_split_qcheck =
  QCheck.Test.make ~name:"WP: batch boundaries do not matter" ~count:20
    QCheck.(pair small_nat (int_range 1 20_000))
    (fun (seed, n) ->
      let b = random_batch (Random.State.make [| seed |]) n in
      let whole, d1 = machine ~wp:true in
      let single, d2 = machine ~wp:true in
      d1.Port.run b;
      let one = Port.make_batch 1 in
      for i = 0 to n - 1 do
        one.Port.addrs.(0) <- b.Port.addrs.(i);
        one.Port.sizes.(0) <- b.Port.sizes.(i);
        one.Port.metas.(0) <- b.Port.metas.(i);
        one.Port.len <- 1;
        d2.Port.run one
      done;
      H.drain (fst whole);
      H.drain (fst single);
      observe whole = observe single)

(* The random streams above exercise the policy, not just the caches. *)
let test_wp_random_stream_migrates () =
  let (_, w), d = machine ~wp:true in
  d.Port.run (random_batch (Random.State.make [| 1 |]) 20_000);
  let w = Option.get w in
  check_bool "pages promoted" true (WP.migrations_to_dram w > 0);
  check_bool "pages demoted" true (WP.migrations_to_pcm w > 0)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kg_os"
    [
      ( "write_partition",
        [
          Alcotest.test_case "fresh pages in PCM" `Quick test_wp_fresh_pages_in_pcm;
          Alcotest.test_case "hot page promotes" `Quick test_wp_hot_page_promotes;
          Alcotest.test_case "cold pages stay" `Quick test_wp_cold_pages_stay;
          Alcotest.test_case "translation changes" `Quick test_wp_translation_changes_after_promotion;
          Alcotest.test_case "migration traffic tagged" `Quick test_wp_migration_traffic_tagged;
          Alcotest.test_case "demotion returns pages" `Quick test_wp_demotion_returns_pages;
          Alcotest.test_case "peak tracking" `Quick test_wp_peak_tracking;
          Alcotest.test_case "dram writes keep page hot" `Quick test_wp_dram_writes_keep_page_hot;
          Alcotest.test_case "default config" `Quick test_wp_default_config;
          Alcotest.test_case "virt size validation" `Quick test_wp_virt_size_validation;
          Alcotest.test_case "random stream migrates" `Quick test_wp_random_stream_migrates;
          q wp_batch_split_qcheck;
        ] );
      ("sink pipe", [ q pipe_matches_inline_qcheck ]);
    ]
