open Kg_heap
module O = Object_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let mib = Kg_util.Units.mib

let fresh_arena ?(size = 256 * mib) ?(kind = Kg_mem.Device.Pcm) () =
  Arena.create ~kind ~base:(4 * mib) ~size

let fresh_words () = O.create ()

(* Indices are minted in call order, so a test that cares about ids
   simply allocates in id order (ids start at 1). *)
let obj w ?(size = 64) ?(heat = O.Cold) ?(death = infinity) () =
  O.make w ~size ~heat ~death ~ref_fields:2

(* ------------------------------------------------------------------ *)
(* Layout and object model                                             *)

let test_layout_constants () =
  check_int "line matches PCM line" 256 Layout.line;
  check_int "block" (32 * 1024) Layout.block;
  check_int "lines per block" 128 Layout.lines_per_block;
  check_int "max small" (8 * 1024) Layout.max_small_object;
  check_int "mdo table" (262 * 1024) Layout.mark_table_bytes_per_region

let test_layout_align () =
  check_int "align_up" 16 (Layout.align_up 9 8);
  check_int "align id" 16 (Layout.align_up 16 8);
  check_int "object min" Layout.min_object (Layout.align_object_size 1);
  check_int "object align" 24 (Layout.align_object_size 17)

let test_object_predicates () =
  let w = fresh_words () in
  let small = obj w ~size:16 () in
  let big = obj w ~size:(9 * 1024) () in
  check_bool "small16" true (O.is_small16 w small);
  check_bool "not small16" false (O.is_small16 w (obj w ~size:24 ()));
  check_bool "large" true (O.is_large w big);
  check_bool "not large" false (O.is_large w (obj w ~size:(8 * 1024) ()))

let test_object_liveness () =
  let w = fresh_words () in
  let o = O.make w ~size:64 ~heat:O.Cold ~death:100.0 ~ref_fields:1 in
  check_bool "live before" true (O.is_live w o 99.0);
  check_bool "dead at" false (O.is_live w o 100.0);
  check_bool "immortal" true (O.is_live w (obj w ()) 1e18)

let test_object_ids_dense () =
  let w = fresh_words () in
  check_int "first id" 1 (O.id (obj w ()));
  check_int "second id" 2 (O.id (obj w ()));
  check_bool "null below ids" true (O.is_null O.null && not (O.is_null 1))

let test_object_field_addr () =
  let w = fresh_words () in
  let o = obj w ~size:64 () in
  O.set_addr w o 1000;
  let slots = O.field_slots w o in
  check_int "slots for 64 B" 7 slots;
  for i = 0 to slots - 1 do
    let a = O.field_addr w o i in
    check_bool "within payload" true (a >= 1000 + Layout.header_bytes && a < 1064)
  done;
  check_int "end addr" 1064 (O.end_addr w o)

(* Out-of-range field indices used to wrap silently ([i mod slots]);
   they now trip the debug bounds assert (stripped by -noassert in
   release). Callers that want wrap semantics reduce modulo
   [field_slots] themselves. *)
let test_object_field_addr_bounds () =
  let w = fresh_words () in
  let o = obj w ~size:64 () in
  O.set_addr w o 1000;
  (match O.field_addr w o (O.field_slots w o) with
  | _ -> Alcotest.fail "out-of-range field index must not yield an address"
  | exception Assert_failure _ -> ());
  match O.field_addr w o (-1) with
  | _ -> Alcotest.fail "negative field index must not yield an address"
  | exception Assert_failure _ -> ()

let test_object_size_validation () =
  let w = fresh_words () in
  Alcotest.check_raises "too small" (Invalid_argument "Object_model.make: size below minimum")
    (fun () -> ignore (O.make w ~size:4 ~heat:O.Cold ~death:0.0 ~ref_fields:0))

(* The packed tables start at a small capacity and double; metadata
   must survive growth bit-for-bit. *)
let test_heap_words_growth () =
  let w = O.create ~capacity:8 () in
  let n = 10_000 in
  let objs =
    Array.init n (fun i ->
        O.make w ~size:(16 + (8 * (i mod 100))) ~heat:(if i mod 7 = 0 then O.Hot else O.Cold)
          ~death:(if i mod 3 = 0 then infinity else float_of_int i)
          ~ref_fields:(i mod 50))
  in
  Array.iteri
    (fun i o ->
      O.set_addr w o (i * 8);
      O.set_writes w o i)
    objs;
  Array.iteri
    (fun i o ->
      if O.size w o <> 16 + (8 * (i mod 100)) then Alcotest.fail "size lost in growth";
      if O.ref_fields w o <> i mod 50 then Alcotest.fail "ref_fields lost in growth";
      if O.addr w o <> i * 8 then Alcotest.fail "addr lost in growth";
      if O.writes w o <> i then Alcotest.fail "writes lost in growth";
      let want = if i mod 3 = 0 then infinity else float_of_int i in
      if O.death w o <> want then Alcotest.fail "death lost in growth")
    objs

(* The packed counter fields saturate rather than overflow: the caps
   are what a saturating incrementer (runtime barrier / copy path)
   clamps to, and the setters accept exactly up to them. *)
let test_heap_words_counter_saturation () =
  let w = fresh_words () in
  let o = obj w () in
  O.set_age w o O.max_age;
  O.set_age w o (min (O.age w o + 1) O.max_age);
  Alcotest.(check int) "age saturates" O.max_age (O.age w o);
  O.set_epoch_writes w o O.max_epoch_writes;
  O.set_epoch_writes w o (min (O.epoch_writes w o + 1) O.max_epoch_writes);
  Alcotest.(check int) "epoch_writes saturates" O.max_epoch_writes (O.epoch_writes w o);
  O.set_writes w o O.max_writes;
  O.set_writes w o (min (O.writes w o + 1) O.max_writes);
  Alcotest.(check int) "writes saturates" O.max_writes (O.writes w o);
  (* the three fields share one word: saturating one must not bleed *)
  Alcotest.(check int) "age intact" O.max_age (O.age w o);
  Alcotest.(check int) "epoch intact" O.max_epoch_writes (O.epoch_writes w o);
  match O.set_epoch_writes w o (O.max_epoch_writes + 1) with
  | () -> Alcotest.fail "expected assert on out-of-range epoch_writes"
  | exception Assert_failure _ -> ()

(* ------------------------------------------------------------------ *)
(* Differential oracle: flat words vs the pre-refactor record model    *)

type diff_op =
  | D_alloc of { size : int; heat : O.heat; death : float; ref_fields : int }
  | D_set_addr of int * int
  | D_set_space of int * int
  | D_set_written of int * bool
  | D_set_marked of int * bool
  | D_set_age of int * int
  | D_set_writes of int * int
  | D_set_epoch_writes of int * int

let diff_op_gen =
  let open QCheck.Gen in
  let death =
    frequency
      [ (1, return infinity); (3, map (fun f -> Float.abs f *. 1e6) float); (1, float_range 0.0 1.0) ]
  in
  let alloc =
    int_range Layout.min_object (256 * 1024) >>= fun size ->
    oneofl [ O.Cold; O.Warm; O.Hot ] >>= fun heat ->
    death >>= fun death ->
    int_range 0 4096 >>= fun ref_fields -> return (D_alloc { size; heat; death; ref_fields })
  in
  let target = int_range 0 63 in
  frequency
    [
      (4, alloc);
      (2, map2 (fun i v -> D_set_addr (i, v)) target (int_range 0 (1 lsl 40)));
      (1, map2 (fun i v -> D_set_space (i, v)) target (int_range (-1) 6));
      (1, map2 (fun i v -> D_set_written (i, v)) target bool);
      (1, map2 (fun i v -> D_set_marked (i, v)) target bool);
      (1, map2 (fun i v -> D_set_age (i, v)) target (int_range 0 100));
      (1, map2 (fun i v -> D_set_writes (i, v)) target (int_range 0 ((1 lsl 30) - 1)));
      (1, map2 (fun i v -> D_set_epoch_writes (i, v)) target (int_range 0 1000));
    ]

let heap_words_differential_qcheck =
  QCheck.Test.make ~name:"flat words match the record-heap oracle" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) diff_op_gen))
    (fun ops ->
      let w = O.create ~capacity:4 () in
      let refs : Reference_heap.t Kg_util.Vec.t = Kg_util.Vec.create () in
      let flats : O.t Kg_util.Vec.t = Kg_util.Vec.create () in
      let pick i = i mod max 1 (Kg_util.Vec.length refs) in
      List.iter
        (fun op ->
          match op with
          | D_alloc { size; heat; death; ref_fields } ->
            let id = Kg_util.Vec.length refs + 1 in
            Kg_util.Vec.push refs (Reference_heap.make ~id ~size ~heat ~death ~ref_fields);
            Kg_util.Vec.push flats (O.make w ~size ~heat ~death ~ref_fields)
          | _ when Kg_util.Vec.is_empty refs -> ()
          | D_set_addr (i, v) ->
            (Kg_util.Vec.get refs (pick i)).Reference_heap.addr <- v;
            O.set_addr w (Kg_util.Vec.get flats (pick i)) v
          | D_set_space (i, v) ->
            (Kg_util.Vec.get refs (pick i)).Reference_heap.space <- v;
            O.set_space w (Kg_util.Vec.get flats (pick i)) v
          | D_set_written (i, v) ->
            (Kg_util.Vec.get refs (pick i)).Reference_heap.written <- v;
            O.set_written w (Kg_util.Vec.get flats (pick i)) v
          | D_set_marked (i, v) ->
            (Kg_util.Vec.get refs (pick i)).Reference_heap.marked <- v;
            O.set_marked w (Kg_util.Vec.get flats (pick i)) v
          | D_set_age (i, v) ->
            (Kg_util.Vec.get refs (pick i)).Reference_heap.age <- v;
            O.set_age w (Kg_util.Vec.get flats (pick i)) v
          | D_set_writes (i, v) ->
            (Kg_util.Vec.get refs (pick i)).Reference_heap.writes <- v;
            O.set_writes w (Kg_util.Vec.get flats (pick i)) v
          | D_set_epoch_writes (i, v) ->
            (Kg_util.Vec.get refs (pick i)).Reference_heap.epoch_writes <- v;
            O.set_epoch_writes w (Kg_util.Vec.get flats (pick i)) v)
        ops;
      let ok = ref true in
      for i = 0 to Kg_util.Vec.length refs - 1 do
        let r = Kg_util.Vec.get refs i and o = Kg_util.Vec.get flats i in
        ok :=
          !ok
          && O.id o = r.Reference_heap.id
          && O.size w o = r.Reference_heap.size
          && O.heat w o = r.Reference_heap.heat
          && O.death w o = r.Reference_heap.death
          && O.ref_fields w o = r.Reference_heap.ref_fields
          && O.addr w o = r.Reference_heap.addr
          && O.space w o = r.Reference_heap.space
          && O.written w o = r.Reference_heap.written
          && O.marked w o = r.Reference_heap.marked
          && O.age w o = r.Reference_heap.age
          && O.writes w o = r.Reference_heap.writes
          && O.epoch_writes w o = r.Reference_heap.epoch_writes
          && O.is_live w o 1e5 = Reference_heap.is_live r 1e5
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Arena                                                               *)

let test_arena_reserve () =
  let a = fresh_arena ~size:(64 * 1024) () in
  let r1 = Arena.reserve a 100 in
  let r2 = Arena.reserve a 100 in
  check_int "page aligned spacing" Layout.page (r2 - r1);
  check_int "reserved" (2 * Layout.page) (Arena.reserved_bytes a);
  check_bool "remaining" true (Arena.remaining a = (64 * 1024) - (2 * Layout.page))

let test_arena_exhaustion () =
  let a = fresh_arena ~size:Layout.page () in
  ignore (Arena.reserve a 1);
  Alcotest.check_raises "exhausted"
    (Failure
       "Arena.reserve: PCM arena exhausted (? requested 4096, 0 left; 4096 reserved of 4096 limit)")
    (fun () -> ignore (Arena.reserve a 1))

(* Spaces tag their reservations, so an exhaustion report names the
   space that asked. *)
let test_arena_exhaustion_names_space () =
  let a = fresh_arena ~size:Layout.page () in
  Alcotest.check_raises "who tag"
    (Failure
       "Arena.reserve: PCM arena exhausted (nurse requested 8192, 4096 left; 0 reserved of 4096 limit)")
    (fun () ->
      ignore
        (Bump_space.create ~words:(fresh_words ()) ~id:0 ~name:"nurse" ~arena:a
           ~size:(2 * Layout.page)))

(* ------------------------------------------------------------------ *)
(* Bump space                                                          *)

let mk_bump ?(arena = fresh_arena ()) ?(size = mib) w () =
  Bump_space.create ~words:w ~id:0 ~name:"n" ~arena ~size

let test_bump_contiguous () =
  let w = fresh_words () in
  let sp = mk_bump w () in
  let o1 = obj w ~size:64 () and o2 = obj w ~size:32 () in
  check_bool "alloc" true (Bump_space.alloc sp o1);
  check_bool "alloc" true (Bump_space.alloc sp o2);
  check_int "contiguous" (O.addr w o1 + 64) (O.addr w o2);
  check_int "space id set" 0 (O.space w o2);
  check_int "used" 96 (Bump_space.used_bytes sp);
  check_int "population" 2 (Kg_util.Vec.length (Bump_space.objects sp))

let test_bump_full_and_reset () =
  let w = fresh_words () in
  let sp = mk_bump ~size:128 w () in
  check_bool "fits" true (Bump_space.alloc sp (obj w ~size:128 ()));
  check_bool "full" false (Bump_space.alloc sp (obj w ~size:8 ()));
  Bump_space.reset sp;
  check_bool "empty after reset" true (Bump_space.is_empty sp);
  check_bool "reusable" true (Bump_space.alloc sp (obj w ~size:8 ()))

let test_bump_live_bytes () =
  let w = fresh_words () in
  let sp = mk_bump w () in
  ignore (Bump_space.alloc sp (obj w ~size:64 ~death:50.0 ()));
  ignore (Bump_space.alloc sp (obj w ~size:32 ~death:200.0 ()));
  check_int "live at 100" 32 (Bump_space.live_bytes sp ~now:100.0)

(* ------------------------------------------------------------------ *)
(* Immix space                                                         *)

let mk_immix ?(arena = fresh_arena ()) w () =
  Immix_space.create ~words:w ~id:3 ~name:"mature" ~arena ()

let test_immix_alloc_in_blocks () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  let o1 = obj w ~size:100 () in
  check_bool "alloc" true (Immix_space.alloc sp o1);
  check_bool "addr assigned" true (O.addr w o1 > 0);
  check_int "space" 3 (O.space w o1);
  check_int "one region" 1 (Immix_space.region_count sp);
  check_int "footprint" Layout.mature_region (Immix_space.footprint_bytes sp)

let test_immix_objects_never_cross_blocks () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  for i = 1 to 5000 do
    let o = obj w ~size:(16 + (8 * (i mod 900))) () in
    check_bool "alloc ok" true (Immix_space.alloc sp o);
    let block_of a = a / Layout.block in
    check_int "within one block" (block_of (O.addr w o)) (block_of (O.end_addr w o - 1))
  done

let test_immix_rejects_large () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  Alcotest.check_raises "large rejected" (Invalid_argument "Immix_space.alloc: large object")
    (fun () -> ignore (Immix_space.alloc sp (obj w ~size:(16 * 1024) ())))

let test_immix_sweep_reclaims () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  for i = 1 to 100 do
    ignore
      (Immix_space.alloc sp (obj w ~size:256 ~death:(if i mod 2 = 0 then 10.0 else infinity) ()))
  done;
  let dead = ref 0 in
  let stats = Immix_space.sweep sp ~now:20.0 ~on_dead:(fun _ -> incr dead) () in
  check_int "dead objects" 50 stats.Immix_space.swept_objects;
  check_int "on_dead callback" 50 !dead;
  check_int "survivors" 50 (Kg_util.Vec.length (Immix_space.objects sp));
  check_int "live bytes" (50 * 256) (Immix_space.live_bytes sp)

let test_immix_recycles_lines () =
  let w = fresh_words () in
  let arena = fresh_arena ~size:(2 * Layout.mature_region) () in
  let sp = mk_immix ~arena w () in
  (* fill one region with short-lived objects, sweep, then refill: the
     space must reuse the freed lines instead of growing *)
  let per_region = Layout.mature_region / 256 in
  for _ = 1 to per_region do
    ignore (Immix_space.alloc sp (obj w ~size:256 ~death:10.0 ()))
  done;
  check_int "one region so far" 1 (Immix_space.region_count sp);
  ignore (Immix_space.sweep sp ~now:20.0 ());
  for _ = 1 to per_region do
    ignore (Immix_space.alloc sp (obj w ~size:256 ()))
  done;
  check_int "no growth after sweep" 1 (Immix_space.region_count sp)

let test_immix_sweep_stats_classify () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  (* one immortal object pins one block's lines *)
  ignore (Immix_space.alloc sp (obj w ~size:256 ()));
  let stats = Immix_space.sweep sp ~now:0.0 () in
  check_int "one recyclable" 1 stats.Immix_space.recyclable_blocks;
  check_int "rest free" (Layout.mature_region / Layout.block - 1) stats.Immix_space.free_blocks;
  check_int "one line marked" 1 stats.Immix_space.marked_lines

let test_immix_write_meta_callback () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  ignore (Immix_space.alloc sp (obj w ~size:600 ()));
  let lines_seen = ref 0 in
  ignore
    (Immix_space.sweep sp ~now:0.0 ~write_meta:(fun ~block_index:_ ~lines -> lines_seen := lines) ());
  (* 600 bytes starting at a line boundary -> 3 lines *)
  check_int "marked lines reported" 3 !lines_seen

(* One sweep over a 40,000-object population spanning several
   regions: a third immortal, the rest dying at staggered stamps. The
   stats must count exactly the dead, [on_dead] must see each of them
   once in population order, the survivors must keep their order, and
   the rebuilt space must audit clean and still allocate. *)
let test_immix_sweep_40k () =
  let w = fresh_words () in
  let sp = mk_immix ~arena:(fresh_arena ~size:(8 * Layout.mature_region) ()) w () in
  for i = 1 to 40_000 do
    let death = if i mod 3 = 0 then infinity else float_of_int (i mod 11) in
    ignore (Immix_space.alloc sp (obj w ~size:(16 + (8 * (i mod 120))) ~death ()))
  done;
  let before = Array.to_list (Kg_util.Vec.to_array (Immix_space.objects sp)) in
  let live o = O.is_live w o 5.5 in
  let dead_expected = List.filter (fun o -> not (live o)) before in
  let deads = ref [] and metas = ref 0 in
  let stats =
    Immix_space.sweep sp ~now:5.5
      ~write_meta:(fun ~block_index:_ ~lines:_ -> incr metas)
      ~on_dead:(fun o -> deads := o :: !deads)
      ()
  in
  check_int "swept objects" (List.length dead_expected) stats.Immix_space.swept_objects;
  check_int "swept bytes"
    (List.fold_left (fun a o -> a + O.size w o) 0 dead_expected)
    stats.Immix_space.swept_bytes;
  check_bool "on_dead in population order" true (List.rev !deads = dead_expected);
  check_bool "survivors keep their order" true
    (Array.to_list (Kg_util.Vec.to_array (Immix_space.objects sp)) = List.filter live before);
  check_int "write_meta once per block with marked lines"
    (stats.Immix_space.recyclable_blocks + stats.Immix_space.full_blocks)
    !metas;
  Alcotest.(check (list string)) "audit clean" [] (Immix_space.audit sp);
  check_bool "allocates after the sweep" true (Immix_space.alloc sp (obj w ~size:64 ()))

let test_immix_region_lookup () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  let o = obj w ~size:64 () in
  ignore (Immix_space.alloc sp o);
  let base = Immix_space.region_base_of_addr sp (O.addr w o) in
  check_bool "addr within region" true
    (O.addr w o >= base && O.addr w o < base + Layout.mature_region);
  check_bool "region registered" true (Array.mem base (Immix_space.region_bases sp))

let test_immix_remove_foreign () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  let o = obj w ~size:64 () in
  ignore (Immix_space.alloc sp o);
  O.set_space w o 2;
  (* simulated move to another space *)
  Immix_space.remove_foreign sp;
  check_int "foreign removed" 0 (Kg_util.Vec.length (Immix_space.objects sp))

let test_immix_fragmentation () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  (* objects spaced so each pins one line of its block, then die in
     alternation: half-empty recyclable blocks result *)
  for i = 1 to 512 do
    ignore
      (Immix_space.alloc sp (obj w ~size:256 ~death:(if i mod 2 = 0 then 10.0 else infinity) ()))
  done;
  check_float "no recyclable blocks yet" 0.0 (Immix_space.fragmentation sp);
  ignore (Immix_space.sweep sp ~now:20.0 ());
  check_bool "fragmentation appears" true (Immix_space.fragmentation sp >= 0.45)

let test_immix_defrag_candidates () =
  let w = fresh_words () in
  let sp = mk_immix w () in
  (* one survivor per block: blocks are maximally sparse *)
  for _ = 1 to 16 do
    ignore (Immix_space.alloc sp (obj w ~size:256 ()));
    for _ = 1 to 127 do
      ignore (Immix_space.alloc sp (obj w ~size:256 ~death:1.0 ()))
    done
  done;
  ignore (Immix_space.sweep sp ~now:5.0 ());
  let victims = Immix_space.defrag_candidates sp ~max_bytes:(4 * 256) in
  check_int "budget-bounded victims" 4 (List.length victims);
  List.iter (fun o -> check_bool "victims live" true (O.is_live w o 5.0)) victims

(* No two live objects may overlap, across arbitrary alloc/sweep
   interleavings: the load-bearing allocator invariant. *)
let immix_no_overlap_qcheck =
  QCheck.Test.make ~name:"immix: live objects never overlap" ~count:30
    QCheck.(pair (small_list (int_range 16 4096)) (small_list (int_range 16 4096)))
    (fun (sizes1, sizes2) ->
      let w = fresh_words () in
      let sp = mk_immix w () in
      let now = ref 0.0 in
      let alloc_batch sizes =
        List.iteri
          (fun i s ->
            let death = if i mod 3 = 0 then !now +. 1.0 else infinity in
            ignore
              (Immix_space.alloc sp
                 (O.make w ~size:(Layout.align_object_size s) ~heat:O.Cold ~death ~ref_fields:1)))
          sizes
      in
      alloc_batch sizes1;
      now := !now +. 10.0;
      ignore (Immix_space.sweep sp ~now:!now ());
      alloc_batch sizes2;
      let objs =
        Kg_util.Vec.to_array (Immix_space.objects sp)
        |> Array.to_list
        |> List.filter (fun o -> O.is_live w o !now)
      in
      let sorted = List.sort (fun a b -> compare (O.addr w a) (O.addr w b)) objs in
      let rec no_overlap = function
        | a :: b :: rest -> O.end_addr w a <= O.addr w b && no_overlap (b :: rest)
        | _ -> true
      in
      no_overlap sorted)

(* ------------------------------------------------------------------ *)
(* Large object space                                                  *)

let mk_los ?(arena = fresh_arena ()) ?(id = 5) ?(name = "los") w () =
  Los.create ~words:w ~id ~name ~arena

let test_los_alloc_and_iter () =
  let w = fresh_words () in
  let los = mk_los w () in
  let o = obj w ~size:(16 * 1024) () in
  check_bool "alloc" true (Los.alloc los o);
  check_int "count" 1 (Los.object_count los);
  check_int "live bytes" (16 * 1024) (Los.live_bytes los);
  let seen = ref 0 in
  Los.iter los (fun _ -> incr seen);
  check_int "iter" 1 !seen

let test_los_collect_keep_and_evict () =
  let w = fresh_words () in
  let los = mk_los w () in
  let keepme = obj w ~size:(16 * 1024) () in
  let evictme = obj w ~size:(16 * 1024) () in
  let dead = obj w ~size:(16 * 1024) ~death:5.0 () in
  List.iter (fun o -> ignore (Los.alloc los o)) [ keepme; evictme; dead ];
  O.set_written w evictme true;
  let deaths = ref 0 in
  let evicted =
    Los.collect los ~now:10.0
      ~keep:(fun o -> not (O.written w o))
      ~on_dead:(fun _ -> incr deaths)
      ()
  in
  check_int "one evicted" 1 (List.length evicted);
  check_int "evicted is written one" (O.id evictme) (O.id (List.hd evicted));
  check_int "one died" 1 !deaths;
  check_int "one kept" 1 (Los.object_count los)

let test_los_adopt () =
  let w = fresh_words () in
  let a = mk_los ~name:"a" w () in
  let b = mk_los ~arena:(fresh_arena ~kind:Kg_mem.Device.Dram ()) ~id:4 ~name:"b" w () in
  let o = obj w ~size:(12 * 1024) () in
  ignore (Los.alloc a o);
  let evicted = Los.collect a ~now:0.0 ~keep:(fun _ -> false) () in
  List.iter (Los.adopt b) evicted;
  check_int "moved" 1 (Los.object_count b);
  check_int "source emptied" 0 (Los.object_count a);
  check_int "new space id" 4 (O.space w o)

let test_los_allocation_rate_counter () =
  let w = fresh_words () in
  let los = mk_los w () in
  ignore (Los.alloc los (obj w ~size:(16 * 1024) ()));
  ignore (Los.alloc los (obj w ~size:(16 * 1024) ~death:0.0 ()));
  ignore (Los.collect los ~now:1.0 ~keep:(fun _ -> true) ());
  (* cumulative allocation is unaffected by collection *)
  check_int "total allocated" (32 * 1024) (Los.allocated_bytes_total los)

(* An allocation that lands exactly on the arena limit succeeds; the
   next one reports full (false) without raising. *)
let test_los_alloc_exactly_at_limit () =
  let w = fresh_words () in
  let los = mk_los ~arena:(fresh_arena ~size:(16 * 1024) ()) w () in
  check_bool "exact fit" true (Los.alloc los (obj w ~size:(16 * 1024) ()));
  check_int "arena consumed" 0 (Los.live_bytes los - (16 * 1024));
  check_bool "next refused" false (Los.alloc los (obj w ~size:(16 * 1024) ()))

let test_los_collect_zero_survivors () =
  let w = fresh_words () in
  let los = mk_los w () in
  for _ = 1 to 3 do
    ignore (Los.alloc los (obj w ~size:(16 * 1024) ~death:5.0 ()))
  done;
  let deaths = ref 0 in
  let evicted = Los.collect los ~now:10.0 ~keep:(fun _ -> true) ~on_dead:(fun _ -> incr deaths) () in
  check_int "nothing evicted" 0 (List.length evicted);
  check_int "all died" 3 !deaths;
  check_int "empty" 0 (Los.object_count los);
  check_int "no live bytes" 0 (Los.live_bytes los);
  (* the treadmill is reusable after a wipe-out *)
  check_bool "alloc after collapse" true (Los.alloc los (obj w ~size:(16 * 1024) ()))

(* ------------------------------------------------------------------ *)
(* Free-list mark-sweep space                                          *)

let mk_freelist ?(arena = fresh_arena ()) w () =
  Freelist_space.create ~words:w ~id:3 ~name:"fl" ~arena

let test_freelist_size_classes () =
  let cls = Freelist_space.size_classes in
  check_int "smallest" 16 cls.(0);
  check_int "largest = small-object limit" Layout.max_small_object cls.(Array.length cls - 1);
  Array.iteri (fun i c -> if i > 0 then check_bool "ascending" true (c > cls.(i - 1))) cls

let test_freelist_alloc_rounds_up () =
  let w = fresh_words () in
  let sp = mk_freelist w () in
  let o = obj w ~size:48 () in
  check_bool "alloc" true (Freelist_space.alloc sp o);
  check_int "live is object size" 48 (Freelist_space.live_bytes sp);
  check_int "cell is class size" 48 (Freelist_space.cell_bytes sp);
  let o2 = obj w ~size:50 () in
  ignore (Freelist_space.alloc sp o2);
  (* 50 rounds to the 56-byte class *)
  check_int "rounded cell" (48 + 56) (Freelist_space.cell_bytes sp)

let test_freelist_same_class_adjacent () =
  let w = fresh_words () in
  let sp = mk_freelist w () in
  let a = obj w ~size:64 () and b = obj w ~size:64 () in
  ignore (Freelist_space.alloc sp a);
  ignore (Freelist_space.alloc sp b);
  check_int "consecutive cells" 64 (O.addr w b - O.addr w a)

let test_freelist_sweep_reuses_cells () =
  let w = fresh_words () in
  let sp = mk_freelist w () in
  let doomed = obj w ~size:64 ~death:5.0 () in
  ignore (Freelist_space.alloc sp doomed);
  let dead_addr = O.addr w doomed in
  let reclaimed = Freelist_space.sweep sp ~now:10.0 () in
  check_int "reclaimed bytes" 64 reclaimed;
  check_int "population empty" 0 (Kg_util.Vec.length (Freelist_space.objects sp));
  let fresh = obj w ~size:64 () in
  ignore (Freelist_space.alloc sp fresh);
  check_int "cell reused (LIFO)" dead_addr (O.addr w fresh)

let test_freelist_no_moving () =
  let w = fresh_words () in
  let sp = mk_freelist w () in
  let o = obj w ~size:128 () in
  ignore (Freelist_space.alloc sp o);
  let addr = O.addr w o in
  ignore (Freelist_space.sweep sp ~now:10.0 ());
  check_int "objects never move" addr (O.addr w o)

let test_freelist_rejects_large () =
  let w = fresh_words () in
  let sp = mk_freelist w () in
  Alcotest.check_raises "large rejected"
    (Invalid_argument "Freelist_space.alloc: large object") (fun () ->
      ignore (Freelist_space.alloc sp (obj w ~size:(16 * 1024) ())))

(* One block's worth of cells allocates to the brim; the first alloc
   past the limit reports full instead of raising. *)
let test_freelist_alloc_exactly_at_limit () =
  let w = fresh_words () in
  let sp = mk_freelist ~arena:(fresh_arena ~size:Layout.block ()) w () in
  let per_block = Layout.block / 64 in
  for _ = 1 to per_block do
    check_bool "fills the block" true (Freelist_space.alloc sp (obj w ~size:64 ()))
  done;
  check_int "no free cells left" 0 (Freelist_space.free_cells sp);
  check_bool "next refused" false (Freelist_space.alloc sp (obj w ~size:64 ()));
  check_int "footprint is one block" Layout.block (Freelist_space.footprint_bytes sp)

let test_freelist_sweep_zero_survivors () =
  let w = fresh_words () in
  let sp = mk_freelist w () in
  for _ = 1 to 10 do
    ignore (Freelist_space.alloc sp (obj w ~size:64 ~death:5.0 ()))
  done;
  let free_before = Freelist_space.free_cells sp in
  check_int "everything reclaimed" (10 * 64) (Freelist_space.sweep sp ~now:10.0 ());
  check_int "population empty" 0 (Kg_util.Vec.length (Freelist_space.objects sp));
  check_int "no live bytes" 0 (Freelist_space.live_bytes sp);
  check_int "no cell bytes" 0 (Freelist_space.cell_bytes sp);
  check_int "cells all free again" (free_before + 10) (Freelist_space.free_cells sp)

(* The packed per-object class side table (which replaced a Hashtbl)
   must keep serving classes through its doubling growth and across
   sweep reclaim/reuse cycles: a swept object's cell goes back to the
   class it was allocated from even when its recorded size would round
   to the same class, and ids far past the initial table size work. *)
let test_freelist_class_table_growth () =
  let w = fresh_words () in
  let sp = mk_freelist w () in
  (* push the id space well past the table's initial 1024 slots *)
  for _ = 1 to 3000 do
    ignore (obj w ~size:16 ())
  done;
  let doomed = obj w ~size:50 ~death:5.0 () in
  (* 50 rounds up to the 56-byte class *)
  ignore (Freelist_space.alloc sp doomed);
  check_int "reclaims the rounded cell" 50 (Freelist_space.sweep sp ~now:10.0 ());
  check_int "cell bytes back to zero" 0 (Freelist_space.cell_bytes sp);
  let fresh = obj w ~size:56 () in
  ignore (Freelist_space.alloc sp fresh);
  check_int "56-byte cell reused (same class)" (O.addr w doomed) (O.addr w fresh)

let freelist_no_overlap_qcheck =
  QCheck.Test.make ~name:"freelist: live cells never overlap" ~count:30
    QCheck.(small_list (int_range 16 8192))
    (fun sizes ->
      let w = fresh_words () in
      let sp = mk_freelist w () in
      List.iteri
        (fun i s ->
          let death = if i mod 2 = 0 then 5.0 else infinity in
          ignore
            (Freelist_space.alloc sp
               (O.make w ~size:(Layout.align_object_size s) ~heat:O.Cold ~death ~ref_fields:1)))
        sizes;
      ignore (Freelist_space.sweep sp ~now:10.0 ());
      List.iter
        (fun s ->
          ignore
            (Freelist_space.alloc sp
               (O.make w ~size:(Layout.align_object_size s) ~heat:O.Cold ~death:infinity
                  ~ref_fields:1)))
        sizes;
      let objs = Kg_util.Vec.to_array (Freelist_space.objects sp) in
      let sorted =
        Array.to_list objs |> List.sort (fun a b -> compare (O.addr w a) (O.addr w b))
      in
      let rec ok = function
        | a :: b :: rest -> O.end_addr w a <= O.addr w b && ok (b :: rest)
        | _ -> true
      in
      ok sorted)

(* ------------------------------------------------------------------ *)
(* Meta space                                                          *)

let test_meta_accounting () =
  let m = Meta_space.create ~id:6 ~name:"meta" ~arena:(fresh_arena ()) in
  let a1 = Meta_space.alloc_table m 1000 in
  let a2 = Meta_space.alloc_table m 1000 in
  check_bool "distinct" true (a1 <> a2);
  check_int "usage" 2000 (Meta_space.usage_bytes m);
  Meta_space.free_table m 1000;
  check_int "freed" 1000 (Meta_space.usage_bytes m);
  check_int "high water" 2000 (Meta_space.high_water_bytes m)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "kg_heap"
    [
      ( "layout+object",
        [
          Alcotest.test_case "constants" `Quick test_layout_constants;
          Alcotest.test_case "alignment" `Quick test_layout_align;
          Alcotest.test_case "predicates" `Quick test_object_predicates;
          Alcotest.test_case "liveness" `Quick test_object_liveness;
          Alcotest.test_case "dense ids" `Quick test_object_ids_dense;
          Alcotest.test_case "field addresses" `Quick test_object_field_addr;
          Alcotest.test_case "field address bounds" `Quick test_object_field_addr_bounds;
          Alcotest.test_case "size validation" `Quick test_object_size_validation;
          Alcotest.test_case "table growth" `Quick test_heap_words_growth;
          Alcotest.test_case "counter saturation" `Quick test_heap_words_counter_saturation;
          q heap_words_differential_qcheck;
        ] );
      ( "arena",
        [
          Alcotest.test_case "reserve" `Quick test_arena_reserve;
          Alcotest.test_case "exhaustion" `Quick test_arena_exhaustion;
          Alcotest.test_case "exhaustion names space" `Quick test_arena_exhaustion_names_space;
        ] );
      ( "bump_space",
        [
          Alcotest.test_case "contiguous" `Quick test_bump_contiguous;
          Alcotest.test_case "full and reset" `Quick test_bump_full_and_reset;
          Alcotest.test_case "live bytes" `Quick test_bump_live_bytes;
        ] );
      ( "immix",
        [
          Alcotest.test_case "alloc in blocks" `Quick test_immix_alloc_in_blocks;
          Alcotest.test_case "no block crossing" `Quick test_immix_objects_never_cross_blocks;
          Alcotest.test_case "rejects large" `Quick test_immix_rejects_large;
          Alcotest.test_case "sweep reclaims" `Quick test_immix_sweep_reclaims;
          Alcotest.test_case "recycles lines" `Quick test_immix_recycles_lines;
          Alcotest.test_case "sweep classifies blocks" `Quick test_immix_sweep_stats_classify;
          Alcotest.test_case "write_meta callback" `Quick test_immix_write_meta_callback;
          Alcotest.test_case "40k-object sweep" `Quick test_immix_sweep_40k;
          Alcotest.test_case "region lookup" `Quick test_immix_region_lookup;
          Alcotest.test_case "remove foreign" `Quick test_immix_remove_foreign;
          Alcotest.test_case "fragmentation" `Quick test_immix_fragmentation;
          Alcotest.test_case "defrag candidates" `Quick test_immix_defrag_candidates;
          q immix_no_overlap_qcheck;
        ] );
      ( "los",
        [
          Alcotest.test_case "alloc and iter" `Quick test_los_alloc_and_iter;
          Alcotest.test_case "collect keep/evict" `Quick test_los_collect_keep_and_evict;
          Alcotest.test_case "adopt" `Quick test_los_adopt;
          Alcotest.test_case "allocation counter" `Quick test_los_allocation_rate_counter;
          Alcotest.test_case "alloc exactly at limit" `Quick test_los_alloc_exactly_at_limit;
          Alcotest.test_case "collect zero survivors" `Quick test_los_collect_zero_survivors;
        ] );
      ( "freelist",
        [
          Alcotest.test_case "size classes" `Quick test_freelist_size_classes;
          Alcotest.test_case "rounds up" `Quick test_freelist_alloc_rounds_up;
          Alcotest.test_case "same class adjacent" `Quick test_freelist_same_class_adjacent;
          Alcotest.test_case "sweep reuses cells" `Quick test_freelist_sweep_reuses_cells;
          Alcotest.test_case "non-moving" `Quick test_freelist_no_moving;
          Alcotest.test_case "rejects large" `Quick test_freelist_rejects_large;
          Alcotest.test_case "alloc exactly at limit" `Quick test_freelist_alloc_exactly_at_limit;
          Alcotest.test_case "sweep zero survivors" `Quick test_freelist_sweep_zero_survivors;
          Alcotest.test_case "class side table growth" `Quick
            test_freelist_class_table_growth;
          q freelist_no_overlap_qcheck;
        ] );
      ("meta", [ Alcotest.test_case "accounting" `Quick test_meta_accounting ]);
    ]
