(* The record-based object model this repo used before the flat-word
   heap (PR 6), kept verbatim as a differential oracle: the QCheck
   test in test_heap drives it and Object_model through identical
   operation sequences and demands bit-identical observations.

   [death] is an IEEE double here exactly as it was in the record
   field; Object_model stores it in a float64 table, so round-trips are
   exact and [is_live] comparisons agree bit-for-bit (including
   [infinity] for immortal objects). *)

type heat = Kg_heap.Object_model.heat = Cold | Warm | Hot

type t = {
  id : int;
  size : int;
  heat : heat;
  death : float;
  ref_fields : int;
  mutable addr : int;
  mutable space : int;
  mutable written : bool;
  mutable marked : bool;
  mutable age : int;
  mutable writes : int;
  mutable epoch_writes : int;
}

let make ~id ~size ~heat ~death ~ref_fields =
  if size < Kg_heap.Layout.min_object then
    invalid_arg "Reference_heap.make: size below minimum";
  {
    id;
    size;
    heat;
    death;
    ref_fields;
    addr = -1;
    space = -1;
    written = false;
    marked = false;
    age = 0;
    writes = 0;
    epoch_writes = 0;
  }

let is_live o now = o.death > now
