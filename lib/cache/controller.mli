(** Memory controller: routes line-granularity accesses to DRAM or PCM
    by physical address and tallies per-device traffic.

    Writes to PCM additionally pass through the wear-leveling layer so
    endurance accounting sees the post-remapping line stream. Per-tag
    write counters back Figure 10 (which phase's writes reach PCM). *)

type t

val create : ?wear:Kg_mem.Wear.t -> map:Kg_mem.Address_map.t -> line_size:int -> unit -> t
(** A controller for the {!Kg_mem.Device.dram} and {!Kg_mem.Device.pcm}
    devices of Table 2. PCM writes feed [wear], if given. *)

val set_on_write : t -> (int -> unit) -> unit
(** Install the hook that observes every line writeback's physical
    address (replacing any earlier one) — the hook OS
    write-partitioning uses to count per-page writes in the memory
    controller. *)

val map : t -> Kg_mem.Address_map.t
val line_size : t -> int

val line_read : t -> int -> unit
(** Service a line fetch at the given physical address. *)

val line_write : t -> int -> tag:int -> unit
(** Service a line writeback. [tag] identifies the phase that produced
    the dirty data. *)

val line_read_run : t -> addrs:int array -> len:int -> unit
(** Service the first [len] addresses of [addrs] as line fetches, in
    order. Equivalent to [len] calls of {!line_read} (bit-identical
    time/energy accumulation), with the address-map bounds and device
    constants hoisted out of the loop. *)

val line_write_run : t -> addrs:int array -> tags:int array -> len:int -> unit
(** Same for line writebacks: element [i] of [addrs]/[tags] is one
    {!line_write}. The [on_write] hook and wear accounting fire per
    event, in order. *)

val reads : t -> Kg_mem.Device.kind -> int
val writes : t -> Kg_mem.Device.kind -> int

val writes_by_tag : t -> Kg_mem.Device.kind -> int array
(** Per-phase write counts (copy). Index = tag. *)

val bytes_written : t -> Kg_mem.Device.kind -> int
val bytes_read : t -> Kg_mem.Device.kind -> int

val access_time_ns : t -> float
(** Sum of device latencies over all serviced accesses: the raw,
    no-overlap memory time used by the time model. *)

val access_energy_j : t -> float
(** Dynamic energy of all serviced accesses. *)

val reset : t -> unit
