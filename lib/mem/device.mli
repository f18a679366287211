(** Main-memory device models.

    Latency, power and endurance parameters for DRAM and PCM follow
    Table 2 of the paper: DRAM 45 ns read/write at 0.678 W read /
    0.825 W write; PCM 180 ns read / 450 ns write at 0.617 W read /
    3.0 W write, endurance 30 M writes per cell. Accesses are at cache
    line (64 B) granularity through the memory controller; when writing
    a row buffer back to the PCM array only modified lines are written
    (the paper's §5.2.2), which our controller models by issuing
    line-granularity writebacks in the first place. *)

type kind = Dram | Pcm

val kind_to_string : kind -> string

type t = {
  kind : kind;
  read_latency_ns : float;
  write_latency_ns : float;
  read_power_w : float;
  write_power_w : float;
  static_power_w : float;  (** background power for the whole device *)
  endurance : float;  (** writes per cell before wear-out; infinite for DRAM *)
}

val dram : t
(** Micron DDR3-like DRAM device (Table 2). *)

val pcm : t
(** PCM device from Lee et al. scaling model (Table 2), 30 M endurance. *)

val read_energy_j : t -> float
(** Energy to read one cache line: read power x read latency. *)

val write_energy_j : t -> float
(** Energy to write one cache line: write power x write latency. *)
