(** Physical address maps for the three memory systems of Table 2.

    A map partitions the physical address space into device-backed
    regions. The heap places spaces into one device or the other by
    allocating their virtual ranges inside the matching region; the
    memory controller consults the map to route each line writeback. *)

type t

val dram_only : ?size:int -> unit -> t
(** 32 GB DRAM-only system (size overridable for tests). *)

val pcm_only : ?size:int -> unit -> t
(** 32 GB PCM-only system. *)

val hybrid : ?dram_size:int -> ?pcm_size:int -> unit -> t
(** 1 GB DRAM + 32 GB PCM. DRAM occupies the low addresses, PCM the
    range above it. *)

val kind_of : t -> int -> Device.kind
(** Device backing the given physical address. Raises
    [Invalid_argument] for addresses outside the map. *)

val dram_bounds : t -> int * int
(** [(base, limit)] of the DRAM region, [(-1, -1)] if the map has
    none. Batch consumers hoist these out of their per-record loops
    instead of calling {!kind_of} per access. *)

val pcm_bounds : t -> int * int
(** [(base, limit)] of the PCM region, [(-1, -1)] if the map has none. *)

val dram_base : t -> int
(** Base address of the DRAM region, or raises if the map has none. *)

val pcm_base : t -> int
(** Base address of the PCM region, or raises if the map has none. *)

val dram_size : t -> int
(** Bytes of DRAM in the map (0 if none). *)

val pcm_size : t -> int
(** Bytes of PCM in the map (0 if none). *)
