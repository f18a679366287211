type collector =
  | Gen_immix
  | Kg_nursery
  | Kg_writers of { loo : bool; mdo : bool; pm : bool }

type t = {
  collector : collector;
  nursery_bytes : int;
  observer_bytes : int;
  heap_bytes : int;
  write_threshold : int;
  pcm_write_trigger_bytes : int option;
  defrag_threshold : float option;
}

let kg_w_default = Kg_writers { loo = true; mdo = true; pm = true }

let make ?(nursery_mb = 4) ?observer_mb ?(write_threshold = 1) ?pcm_write_trigger_mb
    ?defrag_threshold ~heap_mb collector =
  let nursery_bytes = nursery_mb * Kg_util.Units.mib in
  let observer_bytes =
    match observer_mb with
    | Some mb -> mb * Kg_util.Units.mib
    | None -> 2 * nursery_bytes
  in
  {
    collector;
    nursery_bytes;
    observer_bytes;
    heap_bytes = heap_mb * Kg_util.Units.mib;
    write_threshold;
    pcm_write_trigger_bytes = Option.map (fun mb -> mb * Kg_util.Units.mib) pcm_write_trigger_mb;
    defrag_threshold;
  }

let name t =
  match t.collector with
  | Gen_immix -> "GenImmix"
  | Kg_nursery ->
    if t.nursery_bytes = 12 * Kg_util.Units.mib then "KG-N-12" else "KG-N"
  | Kg_writers { loo; mdo; pm } ->
    let suffix = (if not loo then "-LOO" else "") ^ (if not mdo then "-MDO" else "") ^ if not pm then "-PM" else "" in
    "KG-W" ^ suffix

let has_observer t = match t.collector with Kg_writers _ -> true | _ -> false
