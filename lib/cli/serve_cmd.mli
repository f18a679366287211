(** The [serve] subcommand: run the {!Kg_serve.Server} request/response
    mutator under one collector and print request counters, cache
    behaviour and the pause/latency SLO histograms. *)

val term : int Cmdliner.Term.t
val doc : string
