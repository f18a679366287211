(** Object lifetime model.

    Lifetimes are drawn in allocation-clock bytes from a four-class
    mixture calibrated per benchmark so that the measured nursery and
    observer survival rates land near the paper's Table 4:

    - [Short]: dies inside the nursery with high probability; a small
      uniform tail survives one collection and then dies in the
      observer — the paper's "tenured garbage" that motivates the
      observer space (§4.2.1);
    - [Medium]: survives the nursery, dies around observer residency;
    - [Long]: exponential residency in the mature space, sized to hold
      the benchmark's live heap steady;
    - [Immortal]: never dies (the startup base the driver allocates to
      model boot/static data).

    The class probabilities solve: nursery survival = short-leak +
    p_medium + p_long, and observer survival ~ p_long / nursery
    survival. *)

type cls = Short | Medium | Long | Immortal

type t

val make : ?live_mb:int -> Descriptor.t -> nursery_bytes:int -> observer_bytes:int -> t
(** Calibrate against the default 4 MB nursery / 8 MB observer (the
    distribution is a workload property and must not depend on the
    collector actually used). [live_mb] overrides the benchmark's live
    target when the experiment scales the heap down. *)

val draw : t -> Kg_util.Rng.t -> nursery_remaining:float -> cls * float
(** A lifetime in bytes of future allocation (never [Immortal]; the
    driver allocates the immortal base itself).
    [nursery_remaining] is the allocation headroom before the next
    nursery collection: most short-class draws are clamped below it so
    measured survival matches the benchmark even when the target is
    near zero, while the objects still live long enough to take
    writes. *)

val p_long : t -> float
(** Probability mass of the [Long] class (exposed for tests). *)

val expected_nursery_survival : t -> float
(** The survival rate the calibration targets (for tests). *)
