type region = { base : int; size : int; kind : Device.kind }

(* Maps have at most one DRAM and one PCM region, so lookups reduce to
   two range checks; [kind_of] runs on every simulated memory event. *)
type t = {
  regions : region list;
  dram_base_ : int;
  dram_limit : int;
  pcm_base_ : int;
  pcm_limit : int;
}

let gib = Kg_util.Units.gib

let of_regions regions =
  let find kind =
    match List.find_opt (fun r -> r.kind = kind) regions with
    | Some r -> (r.base, r.base + r.size)
    | None -> (-1, -1)
  in
  let dram_base_, dram_limit = find Device.Dram in
  let pcm_base_, pcm_limit = find Device.Pcm in
  { regions; dram_base_; dram_limit; pcm_base_; pcm_limit }

let dram_only ?(size = 32 * gib) () = of_regions [ { base = 0; size; kind = Dram } ]
let pcm_only ?(size = 32 * gib) () = of_regions [ { base = 0; size; kind = Pcm } ]

let hybrid ?(dram_size = gib) ?(pcm_size = 32 * gib) () =
  of_regions
    [
      { base = 0; size = dram_size; kind = Dram };
      { base = dram_size; size = pcm_size; kind = Pcm };
    ]

let kind_of t addr =
  if addr >= t.dram_base_ && addr < t.dram_limit then Device.Dram
  else if addr >= t.pcm_base_ && addr < t.pcm_limit then Device.Pcm
  else invalid_arg (Printf.sprintf "Address_map.kind_of: address %#x unmapped" addr)

let dram_bounds t = (t.dram_base_, t.dram_limit)
let pcm_bounds t = (t.pcm_base_, t.pcm_limit)

let dram_base t =
  if t.dram_base_ < 0 then invalid_arg "Address_map.dram_base: map has no such region"
  else t.dram_base_

let pcm_base t =
  if t.pcm_base_ < 0 then invalid_arg "Address_map.pcm_base: map has no such region"
  else t.pcm_base_

let dram_size t = if t.dram_base_ < 0 then 0 else t.dram_limit - t.dram_base_
let pcm_size t = if t.pcm_base_ < 0 then 0 else t.pcm_limit - t.pcm_base_
