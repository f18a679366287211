(** The [kingsguard experiments] subcommand: regenerate any subset of
    the paper's tables and figures through the parallel experiment
    engine. *)

val term : int Cmdliner.Term.t
val doc : string
