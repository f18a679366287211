open Kg_util
module O = Kg_heap.Object_model

type event =
  | Alloc of { id : int; size : int; heat : O.heat; death : float; ref_fields : int }
  | Alloc_boot of { id : int; size : int; heat : O.heat; ref_fields : int }
  | Write_ref of { src : int; tgt : int }
  | Write_prim of { obj : int }
  | Read of { obj : int }
  | Read_burst of { obj : int; words : int }
  | Major_gc
  | Reset_stats
  | Flush_retirement

type recorder = { evs : event Vec.t }

let recorder () = { evs = Vec.create () }
let record r e = Vec.push r.evs e
let length r = Vec.length r.evs
let events r = Vec.to_array r.evs

(* ------------------------------------------------------------------ *)
(* JSONL serialization                                                 *)

let heat_tag = function O.Cold -> 0 | O.Warm -> 1 | O.Hot -> 2

let heat_of_tag = function
  | 0 -> O.Cold
  | 1 -> O.Warm
  | 2 -> O.Hot
  | n -> raise (Json.Malformed (Printf.sprintf "heat tag %d" n))

(* Death stamps must survive a file round trip bit-exactly, so they are
   stored as quoted hexadecimal float literals ([Json.float]). *)
let event_j e =
  let open Json in
  match e with
  | Alloc { id; size; heat; death; ref_fields } ->
    Obj
      [
        ("ev", Str "alloc");
        ("id", Int id);
        ("size", Int size);
        ("heat", Int (heat_tag heat));
        ("death", float death);
        ("rf", Int ref_fields);
      ]
  | Alloc_boot { id; size; heat; ref_fields } ->
    Obj
      [
        ("ev", Str "boot");
        ("id", Int id);
        ("size", Int size);
        ("heat", Int (heat_tag heat));
        ("rf", Int ref_fields);
      ]
  | Write_ref { src; tgt } -> Obj [ ("ev", Str "wref"); ("src", Int src); ("tgt", Int tgt) ]
  | Write_prim { obj } -> Obj [ ("ev", Str "wprim"); ("obj", Int obj) ]
  | Read { obj } -> Obj [ ("ev", Str "read"); ("obj", Int obj) ]
  | Read_burst { obj; words } -> Obj [ ("ev", Str "readb"); ("obj", Int obj); ("n", Int words) ]
  | Major_gc -> Obj [ ("ev", Str "major") ]
  | Reset_stats -> Obj [ ("ev", Str "reset") ]
  | Flush_retirement -> Obj [ ("ev", Str "flush") ]

let event_of_j j =
  let open Json in
  let int k = to_int (member k j) in
  match to_str (member "ev" j) with
  | "alloc" ->
    Alloc
      {
        id = int "id";
        size = int "size";
        heat = heat_of_tag (int "heat");
        death = to_float (member "death" j);
        ref_fields = int "rf";
      }
  | "boot" ->
    Alloc_boot
      { id = int "id"; size = int "size"; heat = heat_of_tag (int "heat"); ref_fields = int "rf" }
  | "wref" -> Write_ref { src = int "src"; tgt = int "tgt" }
  | "wprim" -> Write_prim { obj = int "obj" }
  | "read" -> Read { obj = int "obj" }
  | "readb" -> Read_burst { obj = int "obj"; words = int "n" }
  | "major" -> Major_gc
  | "reset" -> Reset_stats
  | "flush" -> Flush_retirement
  | ev -> raise (Malformed (Printf.sprintf "unknown event kind %S" ev))

let to_json e = Json.to_string (event_j e)

let of_json line =
  try event_of_j (Json.parse line)
  with Json.Malformed m -> failwith (Printf.sprintf "Trace.of_json: %s in %S" m line)

let save file evs =
  let b = Buffer.create 256 in
  Out_channel.with_open_text file (fun oc ->
      Array.iter
        (fun e ->
          Buffer.clear b;
          Json.write b (event_j e);
          Buffer.add_char b '\n';
          Buffer.output_buffer oc b)
        evs)

let load file =
  In_channel.with_open_text file (fun ic ->
      let out = Vec.create () in
      let rec go n =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (if String.trim line <> "" then
             match of_json line with
             | e -> Vec.push out e
             | exception Failure m ->
               failwith (Printf.sprintf "Trace.load: %s, line %d: %s" file n m));
          go (n + 1)
      in
      go 1;
      Vec.to_array out)
