(** The process-wide budget of domains beyond the main one.

    The two components that spawn domains account for them here: the
    engine's job pool ([Kg_engine.Pool]) {!claim}s its workers
    unconditionally (it cannot run without them), while the pipelined
    cache-sim sink ([Kg_mem.Sink_pipe]), an optional helper, starts
    only when {!try_claim} finds a spare core. A pool job running a
    Simulate-mode run therefore sees the pool's claims, and the sink
    stays inline instead of oversubscribing the host. *)

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
