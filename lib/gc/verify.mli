(** Heap invariant auditor.

    Verifies, typically at the end of every collection phase (via
    {!attach}) and once more at the end of a run, that the runtime's
    heap is structurally sound and its statistics obey their
    conservation laws:

    - {b space-id / placement / unique-residence}: every resident
      object carries the id of the space holding it, lies (entirely) on
      the device the address map backs that space with, and resides in
      exactly one space;
    - {b bump-contiguity}: nursery and observer residents tile the
      space contiguously from its base up to the bump cursor;
    - {b immix}: line/block metadata agrees with the resident
      population ({!Kg_heap.Immix_space.audit});
    - {b no-overlap}: the live objects of each Immix space occupy
      disjoint extents;
    - {b los-occupancy}: treadmill byte/object accounting matches the
      population;
    - {b config-placement}: on hybrid systems, each space sits on the
      device Figure 3 prescribes for the collector configuration;
    - {b remset}: remembered sets are empty after the collections that
      consume them, retain no entries targeting live nursery objects
      after a nursery collection, and lifetime insert counts are
      consistent with the statistics;
    - {b write-/copy-conservation, demographics}: counter identities
      such as writes-by-space summing to total writes, write bytes
      equalling a word per write, and copied volumes matching survivor
      volumes;
    - {b traffic-conservation}: per-phase device write tallies sum to
      the totals and dominate the barrier's byte counts (when the
      {!Mem_iface.counting} counters are supplied).

    The statistics checks assume {!Gc_stats.reset} is only ever called
    while the young spaces are empty (as the experiment driver does,
    right after boot-image construction). *)

type violation = {
  phase : Phase.t;  (** collection phase after which the audit ran *)
  invariant : string;  (** short invariant tag, e.g. ["bump-contiguity"] *)
  detail : string;
}

val to_string : violation -> string

val audit :
  ?counters:Mem_iface.counters -> ?phase:Phase.t -> Runtime.t -> violation list
(** Run every check once against the current heap. [phase] (default
    [Application]) selects the phase-dependent remembered-set checks
    and tags the violations. *)

val attach : ?counters:Mem_iface.counters -> Runtime.t -> violation Kg_util.Vec.t
(** Chain an auditing hook onto the runtime ({!Runtime.add_gc_hook});
    every collection phase end runs {!audit} and accumulates the
    violations into the returned vector. *)

val live_census : Runtime.t -> int * int
(** Oracle-live (count, bytes) across all object spaces including the
    treadmills — the collector-independent heap state the differential
    tests compare across configurations. *)
