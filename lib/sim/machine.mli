(** The simulated machine (Table 2): one of the three memory systems,
    with the cache hierarchy and memory controller in front, and
    wear-leveling + endurance accounting on the PCM device. *)

type system = Dram_only | Pcm_only | Hybrid

val system_name : system -> string

type t = {
  system : system;
  map : Kg_mem.Address_map.t;
  ctrl : Kg_cache.Controller.t;
  hier : Kg_cache.Hierarchy.t;
  wear : Kg_mem.Wear.t option;
}

val dram_gb : int
(** 32 GB for the DRAM-only system. *)

val pcm_gb : int
(** 32 GB of PCM. *)

val map_of : system -> Kg_mem.Address_map.t

val build : system -> t
(** Assemble caches, controller and wear-leveling for a system. *)

val port : t -> Kg_gc.Mem_iface.t
(** A batched memory port whose [Cache_sim] sink drives this machine's
    cache hierarchy; read traffic totals back with
    {!Kg_gc.Mem_iface.stats}. *)

val pcm_write_bytes : t -> int
val dram_write_bytes : t -> int

val drain : t -> unit
(** Flush the cache hierarchy. Idempotent — see
    {!Kg_cache.Hierarchy.drain}. *)
