(** The process-wide budget of domains beyond the main one.

    Every component that spawns domains accounts for them here: the
    engine's job pool, the mutator epoch team and the parallel
    collector {!claim} their workers unconditionally (they cannot run
    without them), while an optional helper — the pipelined cache-sim
    sink — starts only when {!try_claim} finds a spare core. Nested
    users (a pool job running a multi-domain simulation) therefore see
    each other's claims, and the optional helper stays off instead of
    oversubscribing the host. *)

val capacity : unit -> int
(** [Domain.recommended_domain_count () - 1]: the cores left once the
    main domain runs. *)

val claimed : unit -> int
(** Domains currently claimed (may exceed {!capacity}). *)

val claim : int -> unit
(** Record [n] more domains in use. Always succeeds. *)

val try_claim : int -> bool
(** Claim [n] domains only if the total stays within {!capacity}. *)

val release : int -> unit
(** Return [n] domains claimed earlier. *)
