(** Collector configurations (Table 1).

    [Gen_immix] is the unmodified generational Immix baseline, used for
    the DRAM-only and PCM-only systems (and, paired with {!Kg_os}, for
    the WP comparison). [Kg_nursery] maps the nursery to DRAM and
    everything else to PCM (Figure 3b). [Kg_writers] adds the observer
    space, per-object write monitoring and mature DRAM/PCM spaces
    (Figure 3c); its three switches correspond to the paper's ablations:
    LOO (large objects try the nursery first), MDO (PCM mark state kept
    in DRAM tables), and PM (primitive writes monitored in addition to
    reference writes — KG-W–PM in Figure 11 turns this off). *)

type collector =
  | Gen_immix
  | Kg_nursery
  | Kg_writers of { loo : bool; mdo : bool; pm : bool }

type t = {
  collector : collector;
  nursery_bytes : int;  (** default 4 MB; 12 MB for KG-N-12 *)
  observer_bytes : int;  (** default 8 MB = 2x nursery *)
  heap_bytes : int;  (** full-heap trigger: 2x minimum live size *)
  write_threshold : int;
      (** KG-W extension (the paper's §4.2.2 future work): an object
          counts as "written" for placement only after this many
          monitored writes in the epoch. 1 = the paper's write bit. *)
  pcm_write_trigger_bytes : int option;
      (** KG-W extension (§6.2.1 future work): also trigger a major
          collection after this many barrier-observed PCM write bytes,
          so written PCM objects are rescued promptly. *)
}

val kg_w_default : collector
(** KG-W with all optimizations on. *)

val make :
  ?nursery_mb:int ->
  ?observer_mb:int ->
  ?write_threshold:int ->
  ?pcm_write_trigger_mb:int ->
  heap_mb:int ->
  collector ->
  t

val name : t -> string
(** Short name as used in the paper's figures (KG-N, KG-W, KG-W-LOO,
    KG-W-LOO-MDO, KG-W-PM, GenImmix, KG-N-12). *)

val has_observer : t -> bool
