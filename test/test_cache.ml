open Kg_cache

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small_cache () = Cache.create ~name:"t" ~size:(4 * 64 * 2) ~ways:2 ~line_size:64 ~latency_ns:1.0
(* 4 sets x 2 ways x 64 B *)

(* ------------------------------------------------------------------ *)
(* Single cache                                                        *)

(* [Cache.probe_fill] returns 0 on a hit, 1 on a miss with a clean or
   invalid victim, 2 on a miss that evicts a dirty victim. *)

let test_cache_miss_then_hit () =
  let c = small_cache () in
  check_int "first touch misses" 1 (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  check_int "then hits" 0 (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  check_int "same line hits" 0 (Cache.probe_fill c ~addr:63 ~write:false ~tag:0);
  check_int "next line misses" 1 (Cache.probe_fill c ~addr:64 ~write:false ~tag:0)

let test_cache_clean_eviction_silent () =
  let c = small_cache () in
  (* three blocks mapping to set 0 in a 2-way set: 0, 4*64, 8*64 *)
  ignore (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  ignore (Cache.probe_fill c ~addr:(4 * 64) ~write:false ~tag:0);
  check_int "clean victim: no writeback" 1 (Cache.probe_fill c ~addr:(8 * 64) ~write:false ~tag:0);
  check_int "none counted" 0 (Cache.stats c).Cache.writebacks

let test_cache_dirty_eviction_carries_tag () =
  let c = small_cache () in
  ignore (Cache.probe_fill c ~addr:0 ~write:true ~tag:3);
  ignore (Cache.probe_fill c ~addr:(4 * 64) ~write:false ~tag:0);
  check_int "dirty writeback" 2 (Cache.probe_fill c ~addr:(8 * 64) ~write:false ~tag:0);
  check_int "victim address" 0 (Cache.last_wb_addr c);
  check_int "writer tag preserved" 3 (Cache.last_wb_tag c)

let test_cache_lru_order () =
  let c = small_cache () in
  ignore (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  ignore (Cache.probe_fill c ~addr:(4 * 64) ~write:false ~tag:0);
  (* touch block 0 so block 4*64 becomes LRU *)
  ignore (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  ignore (Cache.probe_fill c ~addr:(8 * 64) ~write:false ~tag:0);
  check_int "recently used stays" 0 (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  check_int "LRU evicted" 1 (Cache.probe_fill c ~addr:(4 * 64) ~write:false ~tag:0)

let test_cache_write_hit_sets_dirty () =
  let c = small_cache () in
  ignore (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  check_int "write hit" 0 (Cache.probe_fill c ~addr:0 ~write:true ~tag:2);
  ignore (Cache.probe_fill c ~addr:(4 * 64) ~write:false ~tag:0);
  check_int "expected writeback" 2 (Cache.probe_fill c ~addr:(8 * 64) ~write:false ~tag:0);
  check_int "dirtied by the hit" 2 (Cache.last_wb_tag c)

let test_cache_invalidate_all () =
  let c = small_cache () in
  ignore (Cache.probe_fill c ~addr:0 ~write:true ~tag:1);
  ignore (Cache.probe_fill c ~addr:128 ~write:false ~tag:0);
  ignore (Cache.probe_fill c ~addr:256 ~write:true ~tag:2);
  let wbs = Cache.invalidate_all c in
  check_int "two dirty lines" 2 (List.length wbs);
  check_int "all invalid now" 1 (Cache.probe_fill c ~addr:0 ~write:false ~tag:0)

let test_cache_stats () =
  let c = small_cache () in
  ignore (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  ignore (Cache.probe_fill c ~addr:0 ~write:false ~tag:0);
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  Cache.reset_stats c;
  check_int "reset" 0 (Cache.stats c).Cache.hits

let test_cache_create_validation () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Cache.create: sets and line_size must be powers of two") (fun () ->
      ignore (Cache.create ~name:"x" ~size:(3 * 64 * 2) ~ways:2 ~line_size:64 ~latency_ns:1.0))

(* ------------------------------------------------------------------ *)
(* Controller                                                          *)

let hybrid_ctrl () =
  let map = Kg_mem.Address_map.hybrid ~dram_size:4096 ~pcm_size:8192 () in
  Controller.create ~map ~line_size:64 ()

let test_controller_routing () =
  let c = hybrid_ctrl () in
  Controller.line_read c 0;
  Controller.line_write c 0 ~tag:0;
  Controller.line_write c 4096 ~tag:1;
  check_int "dram reads" 1 (Controller.reads c Kg_mem.Device.Dram);
  check_int "dram writes" 1 (Controller.writes c Kg_mem.Device.Dram);
  check_int "pcm writes" 1 (Controller.writes c Kg_mem.Device.Pcm);
  check_int "pcm bytes" 64 (Controller.bytes_written c Kg_mem.Device.Pcm)

let test_controller_tags () =
  let c = hybrid_ctrl () in
  Controller.line_write c 4096 ~tag:2;
  Controller.line_write c 4160 ~tag:2;
  Controller.line_write c 4224 ~tag:3;
  let tags = Controller.writes_by_tag c Kg_mem.Device.Pcm in
  check_int "tag 2" 2 tags.(2);
  check_int "tag 3" 1 tags.(3)

let test_controller_wear_feed () =
  let map = Kg_mem.Address_map.hybrid ~dram_size:4096 ~pcm_size:8192 () in
  let wear = Kg_mem.Wear.create ~size:8192 () in
  let c = Controller.create ~map ~wear ~line_size:64 () in
  Controller.line_write c 4096 ~tag:0;
  Controller.line_write c 0 ~tag:0;
  (* dram: not counted *)
  check_int "wear sees pcm writes only" 1 (Kg_mem.Wear.total_writes wear)

let test_controller_time_energy () =
  let c = hybrid_ctrl () in
  Controller.line_read c 4096;
  (* pcm read: 180 ns *)
  check_bool "time accumulates" true (Float.abs (Controller.access_time_ns c -. 180.0) < 1e-9);
  check_bool "energy accumulates" true (Controller.access_energy_j c > 0.0);
  Controller.reset c;
  check_bool "reset" true (Controller.access_time_ns c = 0.0)

let test_controller_on_write_hook () =
  let map = Kg_mem.Address_map.hybrid ~dram_size:4096 ~pcm_size:8192 () in
  let seen = ref [] in
  let c = Controller.create ~map ~line_size:64 () in
  Controller.set_on_write c (fun a -> seen := a :: !seen);
  Controller.line_write c 4096 ~tag:0;
  Controller.line_write c 128 ~tag:0;
  Alcotest.(check (list int)) "hook sees all writes" [ 128; 4096 ] !seen

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)

let tiny_hier () =
  let map = Kg_mem.Address_map.hybrid ~dram_size:65536 ~pcm_size:65536 () in
  let ctrl = Controller.create ~map ~line_size:64 () in
  let l1 = { Hierarchy.size = 512; ways = 2; latency_ns = 1.0 } in
  let l2 = { Hierarchy.size = 1024; ways = 2; latency_ns = 2.0 } in
  let l3 = { Hierarchy.size = 2048; ways = 2; latency_ns = 3.0 } in
  (Hierarchy.create ~l1 ~l2 ~l3 ~controller:ctrl (), ctrl)

let test_hierarchy_read_miss_reaches_memory () =
  let h, ctrl = tiny_hier () in
  Hierarchy.read h 0;
  check_int "memory read" 1 (Controller.reads ctrl Kg_mem.Device.Dram);
  Hierarchy.read h 0;
  check_int "second read cached" 1 (Controller.reads ctrl Kg_mem.Device.Dram)

let test_hierarchy_dirty_line_drains () =
  let h, ctrl = tiny_hier () in
  Hierarchy.set_phase h 3;
  Hierarchy.write h 65536;
  (* pcm side *)
  check_int "no writeback yet" 0 (Controller.writes ctrl Kg_mem.Device.Pcm);
  Hierarchy.drain h;
  check_int "drained to pcm" 1 (Controller.writes ctrl Kg_mem.Device.Pcm);
  let tags = Controller.writes_by_tag ctrl Kg_mem.Device.Pcm in
  check_int "phase tag survives hierarchy" 1 tags.(3)

let test_hierarchy_caches_absorb_rewrites () =
  let h, ctrl = tiny_hier () in
  for _ = 1 to 1000 do
    Hierarchy.write h 65536
  done;
  Hierarchy.drain h;
  check_int "1000 writes, one writeback" 1 (Controller.writes ctrl Kg_mem.Device.Pcm)

let test_hierarchy_access_range_spans_lines () =
  let h, _ = tiny_hier () in
  Hierarchy.access_range h ~addr:32 ~size:90 ~write:false;
  (* [32,122) touches the lines at 0 and 64 *)
  check_int "two line accesses" 2 (Hierarchy.accesses h);
  Hierarchy.access_range h ~addr:0 ~size:257 ~write:false;
  (* [0,257) touches lines 0,64,128,192,256 *)
  check_int "five more" 7 (Hierarchy.accesses h)

let test_hierarchy_capacity_eviction_to_memory () =
  let h, ctrl = tiny_hier () in
  (* dirty far more lines than total cache capacity (56 lines) *)
  for i = 0 to 299 do
    Hierarchy.write h (65536 + (i * 64))
  done;
  check_bool "capacity evictions reach pcm" true (Controller.writes ctrl Kg_mem.Device.Pcm > 100)

let test_hierarchy_stats_levels () =
  let h, _ = tiny_hier () in
  Hierarchy.read h 0;
  Hierarchy.read h 0;
  let s = Hierarchy.level_stats h in
  check_int "3 levels" 3 (Array.length s);
  check_int "l1 hit on re-read" 1 s.(0).Cache.hits;
  check_bool "hit time accumulates" true (Hierarchy.hit_time_ns h > 0.0)

let test_hierarchy_drain_fail_fast () =
  let h, ctrl = tiny_hier () in
  Hierarchy.write h 65536;
  Hierarchy.drain h;
  let wb = Controller.writes ctrl Kg_mem.Device.Pcm in
  Hierarchy.drain h;
  check_int "double drain adds no writebacks" wb (Controller.writes ctrl Kg_mem.Device.Pcm);
  check_bool "drained flag set" true (Hierarchy.drained h);
  Alcotest.check_raises "post-drain access fails fast"
    (Invalid_argument "Kg_cache.Hierarchy: access after drain (use reopen to resume)")
    (fun () -> Hierarchy.read h 0);
  Hierarchy.reopen h;
  check_bool "reopen clears the flag" false (Hierarchy.drained h);
  Hierarchy.read h 0;
  check_bool "demand traffic resumes" true (Hierarchy.accesses h >= 2)

(* The tentpole equivalence: delivering a stream as access_run batches
   must be indistinguishable from the per-access read/write loop —
   same per-level cache stats, same controller traffic per device and
   tag, same access count and hit time. A deliberately tiny port
   capacity forces mid-stream flushes so batch boundaries land at
   arbitrary positions. *)
let batch_equivalence_qcheck =
  QCheck.Test.make ~name:"hierarchy: access_run batch == per-access loop" ~count:60
    QCheck.(
      pair (int_bound 2)
        (small_list (quad bool (int_bound 120_000) (int_range 1 300) (int_bound 6))))
    (fun (map_idx, ops) ->
      let mk_map () =
        match map_idx with
        | 0 -> Kg_mem.Address_map.hybrid ~dram_size:65536 ~pcm_size:65536 ()
        | 1 -> Kg_mem.Address_map.dram_only ~size:(2 * 65536) ()
        | _ -> Kg_mem.Address_map.pcm_only ~size:(2 * 65536) ()
      in
      let mk_hier map =
        let ctrl = Controller.create ~map ~line_size:64 () in
        let l1 = { Hierarchy.size = 512; ways = 2; latency_ns = 1.0 } in
        let l2 = { Hierarchy.size = 1024; ways = 2; latency_ns = 2.0 } in
        let l3 = { Hierarchy.size = 2048; ways = 2; latency_ns = 3.0 } in
        (Hierarchy.create ~l1 ~l2 ~l3 ~controller:ctrl (), ctrl)
      in
      let h1, c1 = mk_hier (mk_map ()) in
      List.iter
        (fun (write, addr, size, tag) ->
          Hierarchy.set_phase h1 tag;
          Hierarchy.access_range h1 ~addr ~size ~write)
        ops;
      let h2, c2 = mk_hier (mk_map ()) in
      let port =
        Kg_mem.Port.create ~capacity:7
          ~sink:
            (Kg_mem.Port.Cache_sim
               {
                 Kg_mem.Port.run = (fun b -> Hierarchy.access_run h2 b);
                 drv_stats = (fun () -> Kg_mem.Port.zero_stats ~phases:8);
               })
          ()
      in
      List.iter
        (fun (write, addr, size, tag) ->
          Kg_mem.Port.set_phase_tag port tag;
          if write then Kg_mem.Port.write port ~addr ~size
          else Kg_mem.Port.read port ~addr ~size)
        ops;
      Kg_mem.Port.flush port;
      Hierarchy.drain h1;
      Hierarchy.drain h2;
      let dev_eq d =
        Controller.reads c1 d = Controller.reads c2 d
        && Controller.writes c1 d = Controller.writes c2 d
        && Controller.writes_by_tag c1 d = Controller.writes_by_tag c2 d
      in
      Hierarchy.accesses h1 = Hierarchy.accesses h2
      && Hierarchy.hit_time_ns h1 = Hierarchy.hit_time_ns h2
      && Array.for_all2
           (fun (a : Cache.stats) (b : Cache.stats) ->
             a.Cache.hits = b.Cache.hits && a.Cache.misses = b.Cache.misses
             && a.Cache.writebacks = b.Cache.writebacks)
           (Hierarchy.level_stats h1) (Hierarchy.level_stats h2)
      && dev_eq Kg_mem.Device.Dram && dev_eq Kg_mem.Device.Pcm)

(* ------------------------------------------------------------------ *)
(* Satellite: deterministic drain order.                               *)

let test_invalidate_all_ascending () =
  let c = small_cache () in
  (* set-major way order: set0 way0, set0 way1, set1 way0, set3 way0 *)
  ignore (Cache.probe_fill c ~addr:0 ~write:true ~tag:1);
  ignore (Cache.probe_fill c ~addr:(4 * 64) ~write:true ~tag:2);
  ignore (Cache.probe_fill c ~addr:64 ~write:true ~tag:3);
  ignore (Cache.probe_fill c ~addr:(3 * 64) ~write:true ~tag:4);
  let wbs = Cache.invalidate_all c in
  Alcotest.(check (list int))
    "writebacks in ascending way-index order" [ 0; 256; 64; 192 ]
    (List.map (fun wb -> wb.Cache.wb_addr) wbs)

(* ------------------------------------------------------------------ *)
(* Satellite: same-line run coalescer edge cases. Batches are built by
   hand so record boundaries are exactly what the coalescer sees.     *)

let batch_of records =
  let n = List.length records in
  let b =
    {
      Kg_mem.Port.len = n;
      addrs = Array.make n 0;
      sizes = Array.make n 0;
      metas = Array.make n 0;
      seqs = Array.make n 0;
    }
  in
  List.iteri
    (fun i (addr, size, write, tag) ->
      b.Kg_mem.Port.addrs.(i) <- addr;
      b.Kg_mem.Port.sizes.(i) <- size;
      b.Kg_mem.Port.metas.(i) <- Kg_mem.Port.meta ~write ~tag)
    records;
  b

let test_coalescer_write_upgrade () =
  (* A read then a write to one resident line: the folded write must
     still dirty the line, so the drained writeback carries its tag. *)
  let h, ctrl = tiny_hier () in
  Hierarchy.access_run h (batch_of [ (65536, 8, false, 0); (65540, 8, true, 5) ]);
  let l1 = (Hierarchy.level_stats h).(0) in
  check_int "one demand miss" 1 l1.Cache.misses;
  check_int "folded record counts as a hit" 1 l1.Cache.hits;
  check_int "both records counted" 2 (Hierarchy.accesses h);
  Hierarchy.drain h;
  check_int "write-after-read still drains dirty" 1 (Controller.writes ctrl Kg_mem.Device.Pcm);
  check_int "writeback carries the writer's tag" 1
    (Controller.writes_by_tag ctrl Kg_mem.Device.Pcm).(5)

let test_coalescer_last_writer_tag () =
  (* Two writes folded into one run: the line's phase tag must end up
     as the last writer's, exactly as per-access writes would leave it. *)
  let h, ctrl = tiny_hier () in
  Hierarchy.access_run h (batch_of [ (65536, 8, true, 2); (65544, 8, true, 6) ]);
  Hierarchy.drain h;
  let tags = Controller.writes_by_tag ctrl Kg_mem.Device.Pcm in
  check_int "first writer's tag overwritten" 0 tags.(2);
  check_int "last writer's tag wins" 1 tags.(6)

let test_coalescer_set_conflict_breaks_run () =
  (* a / b / a with a and b conflicting in a 1-way L1: the middle
     record evicts a, so the third access must be a fresh miss, not a
     coalesced hit. *)
  let map = Kg_mem.Address_map.hybrid ~dram_size:65536 ~pcm_size:65536 () in
  let ctrl = Controller.create ~map ~line_size:64 () in
  let l1 = { Hierarchy.size = 128; ways = 1; latency_ns = 1.0 } in
  let l2 = { Hierarchy.size = 256; ways = 1; latency_ns = 2.0 } in
  let l3 = { Hierarchy.size = 512; ways = 1; latency_ns = 3.0 } in
  let h = Hierarchy.create ~l1 ~l2 ~l3 ~controller:ctrl () in
  Hierarchy.access_run h (batch_of [ (0, 8, false, 0); (128, 8, false, 0); (0, 8, false, 0) ]);
  let s1 = (Hierarchy.level_stats h).(0) in
  check_int "all three accesses miss L1" 3 s1.Cache.misses;
  check_int "no false coalescing across the conflict" 0 s1.Cache.hits

(* ------------------------------------------------------------------ *)
(* Satellite: differential oracle. Random streams through the fused
   kernel (via a small-capacity port, so batch boundaries, spill
   flushes and coalescer runs land arbitrarily) and through
   Reference_cache, the pre-kernel implementation kept as simple,
   obviously correct code. Everything observable must match exactly:
   per-level stats, access counts, hit time, per-device controller
   counters, the byte-for-byte order of memory writebacks, and the
   float time/energy accumulators (the kernel's batching claims
   bit-identical accumulation order). *)

let differential_qcheck =
  QCheck.Test.make ~name:"hierarchy: fused kernel == reference oracle" ~count:80
    QCheck.(
      small_list
        (pair (int_bound 19) (quad bool (int_bound 120_000) (int_range 0 300) (int_bound 6))))
    (fun ops ->
      let mk_map () = Kg_mem.Address_map.hybrid ~dram_size:65536 ~pcm_size:65536 () in
      let l1 = { Hierarchy.size = 512; ways = 2; latency_ns = 1.0 } in
      let l2 = { Hierarchy.size = 1024; ways = 2; latency_ns = 2.0 } in
      let l3 = { Hierarchy.size = 2048; ways = 2; latency_ns = 3.0 } in
      (* reference side: per-access closures, one controller call per
         memory event *)
      let wb1 = ref [] in
      let c1 = Controller.create ~map:(mk_map ()) ~line_size:64 () in
      Controller.set_on_write c1 (fun a -> wb1 := a :: !wb1);
      let r = Reference_cache.create ~l1 ~l2 ~l3 ~controller:c1 () in
      List.iter
        (fun (kind, (write, addr, size, tag)) ->
          if kind = 0 then begin
            Reference_cache.drain r;
            Reference_cache.reopen r
          end
          else begin
            Reference_cache.set_phase r tag;
            Reference_cache.access_range r ~addr ~size ~write
          end)
        ops;
      Reference_cache.drain r;
      (* kernel side: batched port into the fused hierarchy *)
      let wb2 = ref [] in
      let c2 = Controller.create ~map:(mk_map ()) ~line_size:64 () in
      Controller.set_on_write c2 (fun a -> wb2 := a :: !wb2);
      let h = Hierarchy.create ~l1 ~l2 ~l3 ~controller:c2 () in
      let port =
        Kg_mem.Port.create ~capacity:5
          ~sink:
            (Kg_mem.Port.Cache_sim
               {
                 Kg_mem.Port.run = (fun b -> Hierarchy.access_run h b);
                 drv_stats = (fun () -> Kg_mem.Port.zero_stats ~phases:8);
               })
          ()
      in
      List.iter
        (fun (kind, (write, addr, size, tag)) ->
          if kind = 0 then begin
            Kg_mem.Port.flush port;
            Hierarchy.drain h;
            Hierarchy.reopen h
          end
          else begin
            Kg_mem.Port.set_phase_tag port tag;
            if write then Kg_mem.Port.write port ~addr ~size
            else Kg_mem.Port.read port ~addr ~size
          end)
        ops;
      Kg_mem.Port.flush port;
      Hierarchy.drain h;
      let dev_eq d =
        Controller.reads c1 d = Controller.reads c2 d
        && Controller.writes c1 d = Controller.writes c2 d
        && Controller.writes_by_tag c1 d = Controller.writes_by_tag c2 d
        && Controller.bytes_read c1 d = Controller.bytes_read c2 d
        && Controller.bytes_written c1 d = Controller.bytes_written c2 d
      in
      Reference_cache.accesses r = Hierarchy.accesses h
      && Reference_cache.hit_time_ns r = Hierarchy.hit_time_ns h
      && Array.for_all2
           (fun (a : Cache.stats) (b : Cache.stats) ->
             a.Cache.hits = b.Cache.hits && a.Cache.misses = b.Cache.misses
             && a.Cache.writebacks = b.Cache.writebacks)
           (Reference_cache.level_stats r) (Hierarchy.level_stats h)
      && dev_eq Kg_mem.Device.Dram && dev_eq Kg_mem.Device.Pcm
      && !wb1 = !wb2
      && Controller.access_time_ns c1 = Controller.access_time_ns c2
      && Controller.access_energy_j c1 = Controller.access_energy_j c2)

let hierarchy_conservation_qcheck =
  QCheck.Test.make ~name:"hierarchy: writebacks bounded, drain idempotent" ~count:50
    QCheck.(small_list (pair bool (int_bound 100_000)))
    (fun ops ->
      let h, ctrl = tiny_hier () in
      let writes = ref 0 in
      List.iter
        (fun (is_write, addr) ->
          if is_write then begin
            incr writes;
            Hierarchy.write h addr
          end
          else Hierarchy.read h addr)
        ops;
      Hierarchy.drain h;
      let wb =
        Controller.writes ctrl Kg_mem.Device.Dram + Controller.writes ctrl Kg_mem.Device.Pcm
      in
      let before = wb in
      Hierarchy.drain h;
      let after =
        Controller.writes ctrl Kg_mem.Device.Dram + Controller.writes ctrl Kg_mem.Device.Pcm
      in
      (* a line writeback needs at least one demand write, and a second
         drain with no traffic in between finds nothing dirty *)
      wb <= !writes && after = before)

let () =
  Alcotest.run "kg_cache"
    [
      ( "cache",
        [
          Alcotest.test_case "miss then hit" `Quick test_cache_miss_then_hit;
          Alcotest.test_case "clean eviction silent" `Quick test_cache_clean_eviction_silent;
          Alcotest.test_case "dirty eviction carries tag" `Quick test_cache_dirty_eviction_carries_tag;
          Alcotest.test_case "lru order" `Quick test_cache_lru_order;
          Alcotest.test_case "write hit dirties" `Quick test_cache_write_hit_sets_dirty;
          Alcotest.test_case "invalidate all" `Quick test_cache_invalidate_all;
          Alcotest.test_case "drain order ascending" `Quick test_invalidate_all_ascending;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "creation validation" `Quick test_cache_create_validation;
        ] );
      ( "controller",
        [
          Alcotest.test_case "routing" `Quick test_controller_routing;
          Alcotest.test_case "per-tag writes" `Quick test_controller_tags;
          Alcotest.test_case "wear feed" `Quick test_controller_wear_feed;
          Alcotest.test_case "time and energy" `Quick test_controller_time_energy;
          Alcotest.test_case "on_write hook" `Quick test_controller_on_write_hook;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "read miss reaches memory" `Quick test_hierarchy_read_miss_reaches_memory;
          Alcotest.test_case "dirty line drains" `Quick test_hierarchy_dirty_line_drains;
          Alcotest.test_case "caches absorb rewrites" `Quick test_hierarchy_caches_absorb_rewrites;
          Alcotest.test_case "access_range spans lines" `Quick test_hierarchy_access_range_spans_lines;
          Alcotest.test_case "capacity evictions" `Quick test_hierarchy_capacity_eviction_to_memory;
          Alcotest.test_case "level stats" `Quick test_hierarchy_stats_levels;
          Alcotest.test_case "drain fail-fast and reopen" `Quick test_hierarchy_drain_fail_fast;
          Alcotest.test_case "coalescer: write upgrades read run" `Quick test_coalescer_write_upgrade;
          Alcotest.test_case "coalescer: last writer's tag wins" `Quick test_coalescer_last_writer_tag;
          Alcotest.test_case "coalescer: set conflict breaks run" `Quick
            test_coalescer_set_conflict_breaks_run;
          QCheck_alcotest.to_alcotest batch_equivalence_qcheck;
          QCheck_alcotest.to_alcotest differential_qcheck;
          QCheck_alcotest.to_alcotest hierarchy_conservation_qcheck;
        ] );
    ]
