(** Analytical PCM lifetime model (Equation 1 of the paper).

    With perfect wear-leveling, writes spread uniformly over the whole
    capacity, so lifetime in years is

      Y = (S * E) / (B * 2^25)

    where S is the PCM capacity in bytes, E the per-cell endurance in
    writes, B the application write rate in bytes/second, and 2^25
    approximates the number of seconds in a year. *)

val years : size_bytes:float -> endurance:float -> write_rate_bytes_per_s:float -> float
(** Lifetime in years; [infinity] when the write rate is 0. *)
