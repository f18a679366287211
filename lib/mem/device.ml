type kind = Dram | Pcm

let kind_to_string = function Dram -> "DRAM" | Pcm -> "PCM"

type t = {
  kind : kind;
  read_latency_ns : float;
  write_latency_ns : float;
  read_power_w : float;
  write_power_w : float;
  static_power_w : float;
  endurance : float;
}

let dram =
  {
    kind = Dram;
    read_latency_ns = 45.0;
    write_latency_ns = 45.0;
    read_power_w = 0.678;
    write_power_w = 0.825;
    (* DDR3 background power per DIMM, TN-41-01 ballpark. *)
    static_power_w = 0.9;
    endurance = infinity;
  }

let pcm =
  {
    kind = Pcm;
    read_latency_ns = 180.0;
    write_latency_ns = 450.0;
    read_power_w = 0.617;
    write_power_w = 3.0;
    (* "The static power of PCM prototypes are negligible compared to
       DRAM" (§5.2.2). *)
    static_power_w = 0.05;
    endurance = 30e6;
  }

let read_energy_j t = t.read_power_w *. (t.read_latency_ns *. 1e-9)
let write_energy_j t = t.write_power_w *. (t.write_latency_ns *. 1e-9)
