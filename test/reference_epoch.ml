(* The boxed stream merge this repo used before [Epoch.draw_schedule],
   kept verbatim as a differential oracle: the QCheck test in
   test_workload drives it and the chunk schedule from identically
   seeded generators over the same stream lengths and demands the same
   (domain, index) sequence and the same generator state after. It
   builds one [(domain, op)] tuple per op in a fresh vector. *)

open Kg_util

(* Interleave the domains' op streams into one schedule: repeatedly
   pick a domain with ops remaining and take a chunk, both drawn from
   the schedule PRNG. Per-domain order is preserved. *)
let merge_schedule rng (streams : 'a Vec.t array) : (int * 'a) Vec.t =
  let n = Array.length streams in
  let pos = Array.make n 0 in
  let remaining = ref 0 in
  Array.iter (fun s -> remaining := !remaining + Vec.length s) streams;
  let out = Vec.create () in
  let alive = Array.make n 0 in
  while !remaining > 0 do
    let na = ref 0 in
    for d = 0 to n - 1 do
      if pos.(d) < Vec.length streams.(d) then begin
        alive.(!na) <- d;
        incr na
      end
    done;
    let d = alive.(Rng.int rng !na) in
    let chunk = 1 + Rng.int rng 8 in
    let len = Vec.length streams.(d) in
    let take = Int.min chunk (len - pos.(d)) in
    for _ = 1 to take do
      Vec.push out (d, Vec.get streams.(d) pos.(d));
      pos.(d) <- pos.(d) + 1
    done;
    remaining := !remaining - take
  done;
  out
