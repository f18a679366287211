open Kg_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let gib = Kg_util.Units.gib

(* ------------------------------------------------------------------ *)
(* Device                                                              *)

let test_device_params () =
  check_float "dram read" 45.0 Device.dram.Device.read_latency_ns;
  check_float "pcm read 4x dram" 180.0 Device.pcm.Device.read_latency_ns;
  check_float "pcm write 450" 450.0 Device.pcm.Device.write_latency_ns;
  check_float "endurance" 30e6 Device.pcm.Device.endurance;
  check_bool "dram endurance infinite" true (Device.dram.Device.endurance = infinity)

let test_device_energy () =
  (* 3 W for 450 ns = 1350 nJ per line write *)
  check_bool "pcm write energy" true
    (Float.abs (Device.write_energy_j Device.pcm -. 1.35e-6) < 1e-9);
  check_bool "pcm write costlier than dram" true
    (Device.write_energy_j Device.pcm > 10.0 *. Device.write_energy_j Device.dram)

let test_device_endurance_sweep () =
  Alcotest.(check string) "kind name" "PCM" (Device.kind_to_string Device.pcm.Device.kind)

(* ------------------------------------------------------------------ *)
(* Address map                                                         *)

let test_map_dram_only () =
  let m = Address_map.dram_only () in
  check_int "32 GB" (32 * gib) (Address_map.total_size m);
  check_int "no pcm" 0 (Address_map.pcm_size m);
  check_bool "kind" true (Address_map.kind_of m 0 = Device.Dram)

let test_map_hybrid_boundaries () =
  let m = Address_map.hybrid () in
  check_int "dram base" 0 (Address_map.dram_base m);
  check_int "pcm base" gib (Address_map.pcm_base m);
  check_bool "last dram byte" true (Address_map.kind_of m (gib - 1) = Device.Dram);
  check_bool "first pcm byte" true (Address_map.kind_of m gib = Device.Pcm);
  check_bool "last pcm byte" true (Address_map.kind_of m ((33 * gib) - 1) = Device.Pcm)

let test_map_unmapped () =
  let m = Address_map.pcm_only ~size:4096 () in
  Alcotest.check_raises "unmapped" (Invalid_argument "Address_map.kind_of: address 0x1000 unmapped")
    (fun () -> ignore (Address_map.kind_of m 4096))

let test_map_missing_region () =
  let m = Address_map.pcm_only () in
  Alcotest.check_raises "no dram" (Invalid_argument "Address_map.dram_base: map has no such region")
    (fun () -> ignore (Address_map.dram_base m))

(* ------------------------------------------------------------------ *)
(* Wear-leveling                                                       *)

let test_wear_counts () =
  let w = Wear.create ~size:(1024 * 1024) () in
  for _ = 1 to 100 do
    Wear.record_write w 0
  done;
  check_int "writes" 100 (Wear.total_writes w);
  check_int "bytes" (100 * 256) (Wear.bytes_written w)

let test_wear_remapping_moves () =
  let w = Wear.create ~size:(64 * 1024) ~gap_interval:4 () in
  let before = Wear.line_of_offset w 0 in
  for _ = 1 to 8 * 1024 do
    Wear.record_write w 0
  done;
  check_bool "mapping moved" true (Wear.line_of_offset w 0 <> before || Wear.rotations w > 0)

let test_wear_spreads_hot_line () =
  (* A single hot logical line must wear many physical lines. *)
  let w = Wear.create ~size:(64 * 1024) ~gap_interval:4 () in
  let n = 200_000 in
  for _ = 1 to n do
    Wear.record_write w 256
  done;
  check_bool "max physical line below total" true (Wear.max_line_writes w < n / 8);
  check_bool "spread across lines" true (Wear.write_distribution_cov w < 1.0)

let test_wear_invalid () =
  Alcotest.check_raises "bad size"
    (Invalid_argument "Wear.create: size must be a positive multiple of line_size") (fun () ->
      ignore (Wear.create ~size:100 ()));
  let w = Wear.create ~size:4096 () in
  Alcotest.check_raises "offset range" (Invalid_argument "Wear.line_of_offset: offset out of range")
    (fun () -> ignore (Wear.line_of_offset w 4096))

(* ------------------------------------------------------------------ *)
(* Lifetime                                                            *)

let test_lifetime_formula () =
  (* 32 GB at 30M endurance and 7.3 GB/s wears out in ~3.9 years *)
  let y =
    Lifetime.years
      ~size_bytes:(float_of_int (32 * gib))
      ~endurance:30e6
      ~write_rate_bytes_per_s:(7.3 *. float_of_int gib)
  in
  check_bool "about 4 years" true (Float.abs (y -. 3.92) < 0.05)

let test_lifetime_linear_in_endurance () =
  let y e = Lifetime.years ~size_bytes:1e9 ~endurance:e ~write_rate_bytes_per_s:1e9 in
  check_bool "linear" true (Float.abs ((y 100e6 /. y 10e6) -. 10.0) < 1e-6)

let test_lifetime_zero_rate () =
  check_bool "infinite" true
    (Lifetime.years ~size_bytes:1e9 ~endurance:1e6 ~write_rate_bytes_per_s:0.0 = infinity)

let test_lifetime_helpers () =
  check_float "rate" 2.0 (Lifetime.write_rate ~bytes_written:10.0 ~elapsed_s:5.0);
  check_float "relative" 4.0 (Lifetime.relative ~baseline_rate:8.0 ~rate:2.0)

(* ------------------------------------------------------------------ *)
(* Port                                                                *)

let port_map () = Address_map.hybrid ~dram_size:4096 ~pcm_size:8192 ()

let counting_port ?capacity () =
  let c = Port.fresh_counters ~phases:8 in
  (Port.create ?capacity ~sink:(Port.Counting (port_map (), c)) (), c)

let test_port_meta_packing () =
  for tag = 0 to 7 do
    let w = Port.meta ~write:true ~tag and r = Port.meta ~write:false ~tag in
    check_bool "write bit set" true (Port.is_write w);
    check_bool "read bit clear" false (Port.is_write r);
    check_int "tag survives write" tag (Port.tag_of w);
    check_int "tag survives read" tag (Port.tag_of r)
  done

let test_port_counting_sink () =
  let p, c = counting_port () in
  Port.write p ~addr:0 ~size:10;
  Port.read p ~addr:100 ~size:3;
  Port.set_phase_tag p 2;
  Port.write p ~addr:4096 ~size:7;
  Port.read p ~addr:5000 ~size:5;
  check_int "nothing delivered before flush" 0 c.Port.dram_write_bytes;
  Port.flush p;
  check_int "dram writes" 10 c.Port.dram_write_bytes;
  check_int "dram reads" 3 c.Port.dram_read_bytes;
  check_int "pcm writes" 7 c.Port.pcm_write_bytes;
  check_int "pcm reads" 5 c.Port.pcm_read_bytes;
  check_int "phase attribution" 7 c.Port.pcm_write_bytes_by_phase.(2);
  let s = Port.stats p in
  check_int "stats mirror counters" 7 s.Port.s_pcm_write_bytes

let test_port_flush_on_full () =
  let p, c = counting_port ~capacity:4 () in
  for _ = 1 to 10 do
    Port.write p ~addr:0 ~size:1
  done;
  (* two full batches auto-flushed, two records still buffered *)
  check_int "auto-flush on capacity" 8 c.Port.dram_write_bytes;
  Port.flush p;
  check_int "explicit flush drains the rest" 10 c.Port.dram_write_bytes;
  Port.flush p;
  check_int "empty flush is a no-op" 10 c.Port.dram_write_bytes

let test_port_phase_travels_with_record () =
  (* phase changes between buffered appends must not retag earlier
     records: attribution is fixed at issue time, not flush time *)
  let p, c = counting_port () in
  Port.set_phase_tag p 1;
  Port.write p ~addr:4096 ~size:11;
  Port.set_phase_tag p 3;
  Port.write p ~addr:4096 ~size:13;
  Port.flush p;
  check_int "first record keeps tag 1" 11 c.Port.pcm_write_bytes_by_phase.(1);
  check_int "second record keeps tag 3" 13 c.Port.pcm_write_bytes_by_phase.(3)

let test_port_tee_counts_once_per_arm () =
  (* both Tee arms and the standalone counting port ride through the
     single count_batch implementation, so all three tallies agree *)
  let map = port_map () in
  let c1 = Port.fresh_counters ~phases:8 and c2 = Port.fresh_counters ~phases:8 in
  let tee =
    Port.create ~sink:(Port.Tee (Port.Counting (map, c1), Port.Counting (map, c2))) ()
  in
  let solo, c3 = counting_port () in
  let drive p =
    Port.set_phase_tag p 0;
    Port.write p ~addr:0 ~size:9;
    Port.set_phase_tag p 4;
    Port.write p ~addr:6000 ~size:21;
    Port.read p ~addr:2000 ~size:5;
    Port.flush p
  in
  drive tee;
  drive solo;
  List.iter
    (fun c ->
      check_int "dram writes agree" 9 c.Port.dram_write_bytes;
      check_int "pcm writes agree" 21 c.Port.pcm_write_bytes;
      check_int "dram reads agree" 5 c.Port.dram_read_bytes;
      check_int "phase agrees" 21 c.Port.pcm_write_bytes_by_phase.(4))
    [ c1; c2; c3 ]

let test_port_create_validation () =
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Port.create: capacity must be positive") (fun () ->
      ignore (Port.create ~capacity:0 ~sink:Port.Null ()))

let test_port_sequenced_group_delivery () =
  let c = Port.fresh_counters ~phases:8 in
  let g = Port.sequenced_group ~capacity:64 ~sink:(Port.Counting (port_map (), c)) 3 in
  Port.write g.(0) ~addr:0 ~size:1;
  Port.write g.(2) ~addr:4096 ~size:2;
  Port.write g.(1) ~addr:0 ~size:4;
  Port.write g.(2) ~addr:4096 ~size:8;
  check_int "no delivery before flush" 0 c.Port.dram_write_bytes;
  (* flushing any member drains every member's buffer in stamp order *)
  Port.flush g.(1);
  check_int "dram bytes from members 0 and 1" 5 c.Port.dram_write_bytes;
  check_int "pcm bytes from member 2" 10 c.Port.pcm_write_bytes;
  check_bool "group stamp advanced past all records" true (Port.group_seq g.(0) = Some 4);
  Port.flush g.(0);
  check_int "group flush is idempotent" 5 c.Port.dram_write_bytes

(* Satellite 1: merging K per-domain buffers by issue-order stamp is a
   total order independent of the order the buffers are presented in. *)
let port_group_merge_qcheck =
  QCheck.Test.make ~name:"group merge is a permutation-stable total order" ~count:200
    QCheck.(pair (int_range 1 6) (small_list (int_range 0 96)))
    (fun (k, picks) ->
      (* Assign each global issue index to a member, then build the
         per-member buffers exactly as interleaved appends would. *)
      let by_member = Array.make k [] in
      List.iteri
        (fun seq pick ->
          let d = pick mod k in
          by_member.(d) <- seq :: by_member.(d))
        picks;
      let batch_of rev_seqs =
        let seqs = List.rev rev_seqs in
        let n = List.length seqs in
        let cap = max 1 n in
        let b =
          {
            Port.len = n;
            addrs = Array.make cap 0;
            sizes = Array.make cap 1;
            metas = Array.make cap 0;
            seqs = Array.make cap 0;
          }
        in
        List.iteri
          (fun i s ->
            b.Port.addrs.(i) <- 1000 + s;
            b.Port.seqs.(i) <- s)
          seqs;
        b
      in
      let batches = Array.map batch_of by_member in
      let order (b : Port.batch) = Array.to_list (Array.sub b.Port.addrs 0 b.Port.len) in
      let m1 = order (Port.merge batches) in
      let rotated = Array.init k (fun i -> batches.((i + 1) mod k)) in
      let m2 = order (Port.merge rotated) in
      let reversed = Array.init k (fun i -> batches.(k - 1 - i)) in
      let m3 = order (Port.merge reversed) in
      List.length m1 = List.length picks
      && m1 = m2 && m1 = m3
      && m1 = List.sort compare m1)

let wear_uniformity_qcheck =
  QCheck.Test.make ~name:"wear-leveling spreads any skewed stream" ~count:20
    QCheck.(small_list small_nat)
    (fun offsets ->
      let w = Wear.create ~size:(32 * 1024) ~gap_interval:2 () in
      let offsets = if offsets = [] then [ 0 ] else offsets in
      List.iter
        (fun o ->
          let off = o * 256 mod (32 * 1024) in
          for _ = 1 to 2000 do
            Wear.record_write w off
          done)
        offsets;
      (* no physical line absorbs more than half of all writes *)
      Wear.max_line_writes w * 2 < Wear.total_writes w)

(* ------------------------------------------------------------------ *)
(* Sink pipe                                                           *)

module Budget = Kg_util.Domain_budget

(* A driver that logs the addresses of every record it runs, in order. *)
let logging_driver () =
  let log = Kg_util.Vec.create () in
  let run (b : Port.batch) =
    for i = 0 to b.Port.len - 1 do
      Kg_util.Vec.push log b.Port.addrs.(i)
    done
  in
  (log, { Port.run; drv_stats = (fun () -> Port.zero_stats ~phases:8) })

let batch_of_range lo n =
  let b = Port.make_batch (max 1 n) in
  for i = 0 to n - 1 do
    b.Port.addrs.(i) <- lo + i;
    b.Port.sizes.(i) <- 1
  done;
  b.Port.len <- n;
  b

(* Any stream of batches — empty ones, ones larger than a slot — comes
   out of the consumer whole and in order, including across the syncs
   a stats read forces. *)
let pipe_order_qcheck =
  QCheck.Test.make ~name:"pipe delivers every record in order" ~count:40
    QCheck.(small_list (pair (int_range 0 (3 * Sink_pipe.slot_records)) bool))
    (fun batches ->
      let log, inner = logging_driver () in
      let p = Sink_pipe.create inner in
      let d = Sink_pipe.driver p in
      let next = ref 0 and synced = ref true in
      List.iter
        (fun (n, sync) ->
          d.Port.run (batch_of_range !next n);
          next := !next + n;
          if sync then begin
            ignore (d.Port.drv_stats ());
            synced := !synced && Kg_util.Vec.length log = !next
          end)
        batches;
      Sink_pipe.close p;
      !synced && Kg_util.Vec.to_array log = Array.init !next Fun.id)

exception Slot_failed of int

(* A driver that raises on its [n]th slot, on the consumer domain. *)
let failing_driver n =
  let seen = ref 0 in
  let run (_ : Port.batch) =
    incr seen;
    if !seen = n then raise (Slot_failed __LINE__)
  in
  { Port.run; drv_stats = (fun () -> Port.zero_stats ~phases:8) }

let fill_slots d k =
  for _ = 1 to k do
    d.Port.run (batch_of_range 0 Sink_pipe.slot_records)
  done

let test_pipe_consumer_failure () =
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace was) @@ fun () ->
  let before = Budget.claimed () in
  let p = Sink_pipe.create (failing_driver 3) in
  let d = Sink_pipe.driver p in
  (* The producer may run ahead by a ring's worth before it notices. *)
  (match fill_slots d (3 + Sink_pipe.slots + 2) with
  | () -> Alcotest.fail "the producer never saw the consumer's exception"
  | exception Slot_failed line -> (
    let bt = Printexc.get_raw_backtrace () in
    match Printexc.backtrace_slots bt with
    | None -> Alcotest.fail "no backtrace"
    | Some slots -> (
      match Printexc.Slot.location slots.(0) with
      | None -> Alcotest.fail "no location for the raise"
      | Some loc ->
        check_int "backtrace starts at the consumer's raise" line loc.Printexc.line_number)));
  (* Reported once: closing joins the consumer and raises nothing more. *)
  Sink_pipe.close p;
  check_int "budget back to its earlier value" before (Budget.claimed ());
  (* A failure still unreported when the pipe closes surfaces there. *)
  let p = Sink_pipe.create (failing_driver 1) in
  fill_slots (Sink_pipe.driver p) 1;
  (match Sink_pipe.close p with
  | () -> Alcotest.fail "close did not re-raise the consumer's exception"
  | exception Slot_failed _ -> ());
  check_int "budget back after close" before (Budget.claimed ());
  Alcotest.check_raises "delivery after close"
    (Invalid_argument "Sink_pipe: delivery to a closed pipe") (fun () ->
      (Sink_pipe.driver p).Port.run (batch_of_range 0 1))

(* Create/close cycles, some ending in a consumer failure: no claim and
   no domain leaks (OCaml 5.1 refuses a 129th live domain). *)
let test_pipe_cycles () =
  let before = Budget.claimed () in
  for i = 1 to 200 do
    let failing = i mod 3 = 0 in
    let p = Sink_pipe.create (if failing then failing_driver 1 else snd (logging_driver ())) in
    let d = Sink_pipe.driver p in
    match
      fill_slots d (if failing then 1 else i mod 2);
      d.Port.run (batch_of_range 0 (i mod 5));
      Sink_pipe.close p
    with
    | () -> check_bool "only failing drivers raise" false failing
    | exception Slot_failed _ ->
      check_bool "only failing drivers raise" true failing;
      Sink_pipe.close p
  done;
  check_int "claims back to their earlier value" before (Budget.claimed ());
  check_int "a new domain still spawns" 42 (Domain.join (Domain.spawn (fun () -> 42)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kg_mem"
    [
      ( "device",
        [
          Alcotest.test_case "table 2 parameters" `Quick test_device_params;
          Alcotest.test_case "energy per line" `Quick test_device_energy;
          Alcotest.test_case "endurance sweep" `Quick test_device_endurance_sweep;
        ] );
      ( "address_map",
        [
          Alcotest.test_case "dram only" `Quick test_map_dram_only;
          Alcotest.test_case "hybrid boundaries" `Quick test_map_hybrid_boundaries;
          Alcotest.test_case "unmapped address" `Quick test_map_unmapped;
          Alcotest.test_case "missing region" `Quick test_map_missing_region;
        ] );
      ( "wear",
        [
          Alcotest.test_case "counts" `Quick test_wear_counts;
          Alcotest.test_case "remapping moves" `Quick test_wear_remapping_moves;
          Alcotest.test_case "spreads hot line" `Quick test_wear_spreads_hot_line;
          Alcotest.test_case "invalid input" `Quick test_wear_invalid;
          q wear_uniformity_qcheck;
        ] );
      ( "port",
        [
          Alcotest.test_case "meta packing" `Quick test_port_meta_packing;
          Alcotest.test_case "counting sink" `Quick test_port_counting_sink;
          Alcotest.test_case "flush on full" `Quick test_port_flush_on_full;
          Alcotest.test_case "phase travels with record" `Quick test_port_phase_travels_with_record;
          Alcotest.test_case "tee shares counting" `Quick test_port_tee_counts_once_per_arm;
          Alcotest.test_case "creation validation" `Quick test_port_create_validation;
          Alcotest.test_case "sequenced group delivery" `Quick
            test_port_sequenced_group_delivery;
          q port_group_merge_qcheck;
        ] );
      ( "sink pipe",
        [
          q pipe_order_qcheck;
          Alcotest.test_case "consumer failure re-raised" `Quick test_pipe_consumer_failure;
          Alcotest.test_case "200 create/close cycles" `Quick test_pipe_cycles;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "equation 1" `Quick test_lifetime_formula;
          Alcotest.test_case "linear in endurance" `Quick test_lifetime_linear_in_endurance;
          Alcotest.test_case "zero rate" `Quick test_lifetime_zero_rate;
          Alcotest.test_case "helpers" `Quick test_lifetime_helpers;
        ] );
    ]
