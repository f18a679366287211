(** OS Write Partitioning (WP), the state-of-the-art page-granularity
    baseline the paper compares against (§2, §6.1.3) [Zhang & Li,
    PACT'09; Zhou et al., USENIX ATC'01].

    DRAM is treated as a partition for highly mutated pages, found with
    a Multi-Queue ranking: the OS places every new page in PCM; the
    memory controller counts writebacks to each physical page; a page
    with 2^n writes sits in queue n of 8. Each OS time quantum (10 ms),
    pages in the four highest-ranked queues migrate to DRAM; every
    fifth quantum (50 ms) DRAM pages demote one queue, and pages that
    fall below the promotion threshold migrate back to PCM. Page copies
    are DMA at line granularity, bypassing the caches, and the
    PCM-bound halves are the "Migrations" writes of Figure 7.

    Simulated time is driven by demand-access counts: [accesses_per_ms]
    converts the paper's wall-clock quanta into units the simulator
    has. *)

val queues : int
(** Multi-Queue levels: 8. *)

val promote_rank : int
(** Queues [promote_rank..queues-1] go to DRAM: 4. *)

val demote_period : int
(** Quanta between DRAM demotions: 5 (= 50 ms). *)

val default_quantum_accesses : int
(** Demand accesses per 10 ms OS quantum: 500,000. *)

type t

val create :
  ?quantum_accesses:int ->
  hier:Kg_cache.Hierarchy.t ->
  virt_size:int ->
  unit ->
  t
(** [quantum_accesses] (default {!default_quantum_accesses}) sets the
    length of the OS quantum in demand accesses; tests shorten it to
    step the policy. [virt_size] bounds the virtual heap range (vaddr
    0..virt_size). The hierarchy's controller must route over a hybrid
    address map; WP installs itself as the controller's write
    observer. *)

val port : t -> Kg_gc.Mem_iface.t
(** The translated memory port the runtime should use: batches flush
    through a sink that maps virtual heap addresses to their current
    physical frame before entering the caches, ticking the OS access
    quantum per record. *)

val dram_pages : t -> int
(** Pages currently resident in the DRAM partition. *)

val peak_dram_pages : t -> int
val migrations_to_dram : t -> int
val migrations_to_pcm : t -> int

val migration_pcm_line_writes : t -> int
(** PCM line writes caused by migrating pages back (Figure 7's
    "Migrations" component). *)
