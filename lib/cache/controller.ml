open Kg_mem

(* Accumulated energy lives in a 1-slot float array rather than a
   mutable float field: float arrays are unboxed, so the per-event
   accumulation allocates nothing. Per-event energies are precomputed
   once at creation (the same doubles Device.read_energy_j would
   produce on every call). *)
type t = {
  map : Address_map.t;
  wear : Wear.t option;
  line_size : int;
  dram_base : int;
  dram_limit : int;
  pcm_base : int;
  pcm_limit : int;
  mutable dram_reads : int;
  mutable dram_writes : int;
  mutable pcm_reads : int;
  mutable pcm_writes : int;
  dram_tag_writes : int array;
  pcm_tag_writes : int array;
  energy_j : float array;  (* the one slot: total energy so far *)
  energy : float array;  (* 0: dram read, 1: dram write, 2: pcm read, 3: pcm write *)
  mutable on_write : int -> unit;
}

(* Per-tag write counters kept per device; writes with a larger tag
   are counted only in the totals. *)
let max_tags = 8

let create ?wear ~map ~line_size () =
  let dram_base, dram_limit = Address_map.dram_bounds map in
  let pcm_base, pcm_limit = Address_map.pcm_bounds map in
  let dram = Device.dram and pcm = Device.pcm in
  {
    map;
    wear;
    line_size;
    dram_base;
    dram_limit;
    pcm_base;
    pcm_limit;
    dram_reads = 0;
    dram_writes = 0;
    pcm_reads = 0;
    pcm_writes = 0;
    dram_tag_writes = Array.make max_tags 0;
    pcm_tag_writes = Array.make max_tags 0;
    energy_j = [| 0.0 |];
    energy =
      [|
        Device.read_energy_j dram;
        Device.write_energy_j dram;
        Device.read_energy_j pcm;
        Device.write_energy_j pcm;
      |];
    on_write = (fun _ -> ());
  }

let set_on_write t f = t.on_write <- f

let map t = t.map
let line_size t = t.line_size

(* An address outside both regions must raise exactly as the routing
   match did: Address_map.kind_of supplies the error. *)
let[@inline never] unmapped t addr = ignore (Address_map.kind_of t.map addr)

let line_read t addr =
  if addr >= t.dram_base && addr < t.dram_limit then begin
    t.dram_reads <- t.dram_reads + 1;
    t.energy_j.(0) <- t.energy_j.(0) +. Array.unsafe_get t.energy 0
  end
  else if addr >= t.pcm_base && addr < t.pcm_limit then begin
    t.pcm_reads <- t.pcm_reads + 1;
    t.energy_j.(0) <- t.energy_j.(0) +. Array.unsafe_get t.energy 2
  end
  else unmapped t addr

let[@inline] record_pcm_wear t addr =
  match t.wear with
  | None -> ()
  | Some w ->
    let off = addr - t.pcm_base in
    if off >= 0 && off < t.pcm_limit - t.pcm_base then Wear.record_write w off

let line_write t addr ~tag =
  t.on_write addr;
  if addr >= t.dram_base && addr < t.dram_limit then begin
    t.dram_writes <- t.dram_writes + 1;
    if tag < Array.length t.dram_tag_writes then
      t.dram_tag_writes.(tag) <- t.dram_tag_writes.(tag) + 1;
    t.energy_j.(0) <- t.energy_j.(0) +. Array.unsafe_get t.energy 1
  end
  else if addr >= t.pcm_base && addr < t.pcm_limit then begin
    t.pcm_writes <- t.pcm_writes + 1;
    if tag < Array.length t.pcm_tag_writes then
      t.pcm_tag_writes.(tag) <- t.pcm_tag_writes.(tag) + 1;
    record_pcm_wear t addr;
    t.energy_j.(0) <- t.energy_j.(0) +. Array.unsafe_get t.energy 3
  end
  else unmapped t addr

(* Batch entry points for the cache kernel's miss/writeback spills: the
   region bounds and per-event constants are hoisted out of the loop
   (the same trick the Counting port sink uses), the int tallies fold
   in locals, and only the order-sensitive float accumulation still
   runs per event — same additions, same order, so energy stays
   bit-identical to the one-call-per-line path. *)
let line_read_run t ~addrs ~len =
  let dram_base = t.dram_base and dram_limit = t.dram_limit in
  let pcm_base = t.pcm_base and pcm_limit = t.pcm_limit in
  let e_d = Array.unsafe_get t.energy 0 and e_p = Array.unsafe_get t.energy 2 in
  let acc = t.energy_j in
  let dr = ref 0 and pr = ref 0 in
  for i = 0 to len - 1 do
    let addr = Array.unsafe_get addrs i in
    if addr >= dram_base && addr < dram_limit then begin
      incr dr;
      Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. e_d)
    end
    else if addr >= pcm_base && addr < pcm_limit then begin
      incr pr;
      Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. e_p)
    end
    else unmapped t addr
  done;
  t.dram_reads <- t.dram_reads + !dr;
  t.pcm_reads <- t.pcm_reads + !pr

let line_write_run t ~addrs ~tags ~len =
  let dram_base = t.dram_base and dram_limit = t.dram_limit in
  let pcm_base = t.pcm_base and pcm_limit = t.pcm_limit in
  let e_d = Array.unsafe_get t.energy 1 and e_p = Array.unsafe_get t.energy 3 in
  let acc = t.energy_j in
  let dram_tags = t.dram_tag_writes and pcm_tags = t.pcm_tag_writes in
  let n_dram_tags = Array.length dram_tags and n_pcm_tags = Array.length pcm_tags in
  let dw = ref 0 and pw = ref 0 in
  for i = 0 to len - 1 do
    let addr = Array.unsafe_get addrs i in
    let tag = Array.unsafe_get tags i in
    t.on_write addr;
    if addr >= dram_base && addr < dram_limit then begin
      incr dw;
      if tag < n_dram_tags then dram_tags.(tag) <- dram_tags.(tag) + 1;
      Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. e_d)
    end
    else if addr >= pcm_base && addr < pcm_limit then begin
      incr pw;
      if tag < n_pcm_tags then pcm_tags.(tag) <- pcm_tags.(tag) + 1;
      record_pcm_wear t addr;
      Array.unsafe_set acc 0 (Array.unsafe_get acc 0 +. e_p)
    end
    else unmapped t addr
  done;
  t.dram_writes <- t.dram_writes + !dw;
  t.pcm_writes <- t.pcm_writes + !pw

let reads t = function Device.Dram -> t.dram_reads | Device.Pcm -> t.pcm_reads
let writes t = function Device.Dram -> t.dram_writes | Device.Pcm -> t.pcm_writes

let writes_by_tag t = function
  | Device.Dram -> Array.copy t.dram_tag_writes
  | Device.Pcm -> Array.copy t.pcm_tag_writes

let bytes_written t kind = writes t kind * t.line_size
let bytes_read t kind = reads t kind * t.line_size
let access_energy_j t = t.energy_j.(0)

let reset t =
  t.dram_reads <- 0;
  t.dram_writes <- 0;
  t.pcm_reads <- 0;
  t.pcm_writes <- 0;
  Array.fill t.dram_tag_writes 0 (Array.length t.dram_tag_writes) 0;
  Array.fill t.pcm_tag_writes 0 (Array.length t.pcm_tag_writes) 0;
  t.energy_j.(0) <- 0.0
