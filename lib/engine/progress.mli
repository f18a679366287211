(** Pluggable, domain-safe progress reporting for the engine.

    Pool workers report every resolved run here; the reporter keeps
    store hit/miss counters and, depending on the mode, narrates:

    - [Quiet]: counters only, no output (the default — table output
      must stay byte-identical across runs, so narration never goes to
      stdout anyway; all modes write to stderr).
    - [Log]: one line per resolved run: whether it came from the
      store, and if computed, its time, or the size and time of the
      group it was computed in.
    - [Tty]: a single carriage-return-updated status line. *)

type mode = Quiet | Log | Tty

val mode_of_string : string -> (mode, string) result
val mode_names : string

type t

val create : mode -> t
val job_done : t -> label:string -> hit:bool -> group:int -> elapsed_s:float -> unit
(** One resolved run: served from the store if [hit], else computed
    with [group - 1] others sharing its mutator ({!Kg_sim.Run.run_group};
    1 when computed alone). [elapsed_s] is the computation's time,
    the whole group's when [group > 1]. *)

val hits : t -> int
(** Runs served from the persistent store. *)

val misses : t -> int
(** Runs that had to be computed. *)

val finish : t -> unit
(** Terminate a [Tty] status line (no-op otherwise). *)
