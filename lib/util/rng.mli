(** Deterministic pseudo-random number generation.

    All stochastic choices in the simulator (object lifetimes, write
    targets, workload interleavings) flow through this module so that
    every experiment is reproducible from a seed. The generator is the
    stdlib's LXM (L64X128), which is fast, splittable, and
    allocation-free on the [int]/[float] paths the simulator hits
    several times per heap access. *)

type t
(** Mutable generator state. *)

val of_seed : int -> t
(** [of_seed s] creates a generator from a 63-bit seed. Two generators
    built from the same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each benchmark / subsystem its own stream so that
    adding draws in one subsystem does not perturb another. *)

val copy : t -> t
(** [copy t] is a generator with identical state that evolves
    independently from [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success
    of a Bernoulli([p]) sequence; mean (1-p)/p. [p] must be in (0,1]. *)

val pareto : t -> alpha:float -> xmin:float -> float
(** Pareto(alpha, xmin) draw; heavy-tailed sizes/lifetimes. *)

(** Zipf-distributed ranks: the skew of the "top 2% of objects take
    81% of writes" behaviour.

    A sampler inverts the integral h of the continuous envelope
    x{^ -s} at one uniform draw, x = h{^ -1}(u), and rounds x to the
    nearest rank k. It keeps the acceptance test of Hörmann and
    Derflinger's rejection-inversion (accept when k - x <= 0.5, or
    when u >= h(k + 0.5) - k{^ -s}), but for the exponents the
    simulator uses, s in \{1.1, 1.2\}, h{^ -1}(h(1.5) - 1) > 0.5, so the
    first test always passes and the rejection branch is unreachable:
    a draw costs one uniform, one [pow] and one rounding, and advances
    the generator exactly as one {!float} draw does. *)
module Zipf : sig
  type rng := t

  type t
  (** Mutable sampler for one exponent: the exponent's constants and
      h(n + 0.5) for the last [n] drawn over. Owned by the state that
      draws from it, like its generator; never shared across domains. *)

  val create : s:float -> t
  (** [s] must be non-negative; 0 is uniform. *)

  val draw : t -> rng -> n:int -> int
  (** A rank in [\[0, n)] with probability proportional to
      1/(rank+1){^ s}. [n] must be positive; [n = 1] returns 0 without
      drawing. *)
end
