(** Batched memory port: the single path by which simulated heap
    traffic reaches the devices.

    Producers append flat access records (addr / size / write flag /
    phase tag) into a per-port ring buffer with no allocation and no
    closure dispatch; a full buffer — or an explicit {!flush} — hands
    the whole batch to a {!sink} pipeline in one call. Deliveries
    happen strictly in issue order, so any sink observes exactly the
    access stream a per-access interface would have seen.

    Sinks are a concrete variant: [Null] discards, [Counting] tallies
    raw per-device bytes (the architecture-independent measurements),
    [Cache_sim] forwards the batch to a driver installed once at
    creation (the cache hierarchy, which lives in a library above this
    one), and [Tee] duplicates the batch to two sinks — making trace
    capture or auxiliary metrics free when not composed in. *)

type batch = {
  mutable len : int;
  addrs : int array;
  sizes : int array;
  metas : int array;  (** bit 0: write flag; bits 1+: phase tag *)
}

val make_batch : int -> batch
(** An empty batch with room for the given number of records. *)

val meta : write:bool -> tag:int -> int
(** Pack a write flag and phase tag into a record meta word. *)

val is_write : int -> bool
val tag_of : int -> int

type counters = {
  mutable dram_read_bytes : int;
  mutable dram_write_bytes : int;
  mutable pcm_read_bytes : int;
  mutable pcm_write_bytes : int;
  pcm_write_bytes_by_phase : int array;  (** indexed by phase tag *)
}

val fresh_counters : phases:int -> counters

type stats = {
  s_dram_read_bytes : int;
  s_dram_write_bytes : int;
  s_pcm_read_bytes : int;
  s_pcm_write_bytes : int;
  s_pcm_write_bytes_by_phase : int array;
}
(** The one typed view of sink traffic that consumers (the run driver,
    figure tables) read, whatever sink produced it. *)

val zero_stats : phases:int -> stats
val stats_of_counters : counters -> stats

type driver = {
  run : batch -> unit;  (** deliver one batch; called once per flush *)
  drv_stats : unit -> stats;
}

type sink =
  | Null
  | Counting of Address_map.t * counters
  | Cache_sim of driver
  | Tee of sink * sink

val count_batch : Address_map.t -> counters -> batch -> unit
(** The shared counting implementation (also used by [Counting]). *)

val deliver : sink -> batch -> unit

type t

val default_capacity : int

val create : ?capacity:int -> sink:sink -> unit -> t
val sink : t -> sink
val set_sink : t -> sink -> unit
val capacity : t -> int
(** Records the port's buffer holds; for a {!sequenced_group} member,
    the group's shared buffer. *)

val sequenced_group : ?capacity:int -> sink:sink -> int -> t array
(** [sequenced_group ~sink n] creates [n] ports (one per mutator
    domain) that append into one shared buffer of [n * capacity]
    records in front of [sink], so the buffer holds their records in
    issue order and a delivery hands it over as it stands. Each member
    counts its own appends since the last delivery: an append by a
    member that already appended [capacity] records flushes the group
    first, where a private buffer of that capacity would have filled.
    Flushing any member delivers every member's records. Members must
    not append concurrently. *)

val read : t -> addr:int -> size:int -> unit
(** Append one read record tagged with the current phase. *)

val write : t -> addr:int -> size:int -> unit
(** Append one write record tagged with the current phase. *)

val flush : t -> unit
(** Deliver any buffered records to the sink, in issue order. *)

val set_phase_tag : t -> int -> unit
(** Tag subsequent records with the given phase id. Takes effect
    immediately — records already buffered keep the tag they were
    issued under. *)

val phase_tag : t -> int

val stats : ?phases:int -> t -> stats
(** Flush, then read the sink's traffic totals. [phases] sizes the
    per-phase array for sinks that track none (default 8). For [Tee]
    the left (primary) arm answers. *)
