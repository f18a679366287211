type cls = Short | Medium | Long | Immortal

type t = {
  p_short : float;
  p_medium : float;
  p_long : float;
  s_max : float;  (* raw short lifetimes are U(0, s_max) *)
  unclamped_frac : float;  (* shorts allowed to outlive the next GC *)
  med_lo : float;
  med_span : float;
  long_mean : float;
  target_ns : float;
}

let make ?live_mb (d : Descriptor.t) ~nursery_bytes ~observer_bytes =
  let ns = d.Descriptor.nursery_survival in
  let os = d.Descriptor.observer_survival in
  let nursery = float_of_int nursery_bytes in
  let p_long = ns *. os in
  (* Split the non-long survival between genuinely medium-lived objects
     and the short class's leak past its first collection. *)
  let leak_target = 0.3 *. ns *. (1.0 -. os) in
  let p_medium = 0.7 *. ns *. (1.0 -. os) in
  let p_short = max 0.0 (1.0 -. p_medium -. p_long) in
  (* Short objects draw a raw lifetime long enough to receive their
     share of writes, but most are clamped to die before the next
     nursery collection; the unclamped fraction supplies exactly the
     target "tenured garbage" leak. An unclamped U(0, s_max) lifetime
     at a uniform nursery position survives with probability
     s_max/(2N). *)
  let s_max = nursery /. 4.0 in
  let unclamped_leak = s_max /. (2.0 *. nursery) in
  let unclamped_frac =
    if p_short <= 0.0 then 0.0
    else Float.min 1.0 (leak_target /. (unclamped_leak *. p_short))
  in
  let obs_period =
    (* Allocation needed to fill the observer with promoted survivors. *)
    float_of_int observer_bytes /. Float.max ns 0.01
  in
  (* Mediums should mostly die while resident in the observer: span a
     bit over half an observer period. *)
  let med_span = Float.min (Float.max (0.6 *. obs_period) (8. *. 1048576.)) (256. *. 1048576.) in
  let live_bytes =
    float_of_int (Option.value live_mb ~default:(Descriptor.live_mb d)) *. 1048576.
  in
  (* The immortal base (allocated by the driver) covers 40% of the live
     target; steady-state long-lived churn covers the rest. *)
  let long_mean =
    if p_long <= 0.0 then 0.0
    else Float.max (16. *. 1048576.) (0.6 *. live_bytes /. p_long)
  in
  {
    p_short;
    p_medium;
    p_long;
    s_max;
    unclamped_frac;
    med_lo = nursery;
    med_span;
    long_mean;
    target_ns = ns;
  }

let draw t rng ~nursery_remaining =
  let open Kg_util in
  let u = Rng.float rng 1.0 in
  if u < t.p_short then begin
    let raw = Rng.float rng t.s_max in
    if Rng.bernoulli rng t.unclamped_frac then (Short, raw)
    else (Short, Float.min raw (0.95 *. nursery_remaining))
  end
  else if u < t.p_short +. t.p_medium then (Medium, t.med_lo +. Rng.float rng t.med_span)
  else (Long, t.med_lo +. Rng.exponential rng t.long_mean)

let p_long t = t.p_long
let expected_nursery_survival t = t.target_ns
