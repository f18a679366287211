(** The run options that [kingsguard run], [check], [replay] and
    [serve] share, each defined once, and the one table of collector
    names. *)

val collector : Kg_sim.Run.spec Cmdliner.Term.t
(** [-c]/[--collector]: the {!Kg_sim.Run} spec named by [dram-only],
    [pcm-only], [kg-n], [kg-n-12], [kg-b], [kg-w], [kg-w-loo],
    [kg-w-loo-mdo], [kg-w-pm] or [wp]; default [kg-w]. *)

val simulate : bool Cmdliner.Term.t
val scale : int Cmdliner.Term.t
val heap_scale : int Cmdliner.Term.t
val cap_mb : int Cmdliner.Term.t
val seed : int Cmdliner.Term.t
val domains : int Cmdliner.Term.t
val schedule_seed : int Cmdliner.Term.t
val parallel_gc : bool Cmdliner.Term.t
