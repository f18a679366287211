(** Deterministic execution traces.

    A trace records every runtime-API interaction of a run — allocation
    (with the object id the runtime assigned, its size, heat class,
    oracle death stamp and reference-field count), reference and
    primitive stores, reads, and externally forced major collections —
    plus the two orchestration markers the experiment driver emits
    (statistics reset after boot-image construction, end-of-run
    retirement flush).

    Because the runtime consumes its PRNG only in response to these
    calls, replaying a trace through a fresh runtime built with the same
    configuration, address map and seed reproduces the original run
    bit-identically (see {!Replay}); any auditor violation therefore
    comes with a minimized, re-runnable reproduction.

    The on-disk format is one JSON object per line, e.g.
    [{"ev":"alloc","id":3,"size":64,"heat":0,"death":"0x1.5p+20","rf":2}].
    Death stamps are quoted hexadecimal float literals so they round
    trip bit-exactly (including ["infinity"] for immortal objects). *)

type event =
  | Alloc of {
      id : int;  (** object id the runtime assigned (verified on replay) *)
      size : int;
      heat : Kg_heap.Object_model.heat;
      death : float;
      ref_fields : int;
    }
  | Alloc_boot of { id : int; size : int; heat : Kg_heap.Object_model.heat; ref_fields : int }
  | Write_ref of { src : int; tgt : int }
  | Write_prim of { obj : int }
  | Read of { obj : int }
  | Read_burst of { obj : int; words : int }
  | Major_gc  (** an externally forced full collection (heap- or
                  write-triggered collections replay implicitly) *)
  | Reset_stats  (** driver marker: {!Gc_stats.reset} after boot *)
  | Flush_retirement  (** driver marker: end-of-run retirement flush *)

type recorder

val recorder : unit -> recorder

val record : recorder -> event -> unit
(** Append one event; pass [record r] to {!Runtime.set_event_hook}. *)

val length : recorder -> int
val events : recorder -> event array

val to_json : event -> string
val of_json : string -> event
(** Raises [Failure] on anything but one complete event object (see
    {!Kg_util.Json.parse}): a line cut short or with bytes around the
    object, an unknown event kind, a missing or mistyped field, or a
    heat tag outside 0-2. *)

val save : string -> event array -> unit
(** Write a JSONL trace file, one event per line. *)

val load : string -> event array
(** Read a JSONL trace file (blank lines ignored). Raises [Failure]
    naming the file and the 1-based line number on malformed input, and
    [Sys_error] on I/O errors. *)
