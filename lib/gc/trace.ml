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
  | n -> invalid_arg (Printf.sprintf "Trace.heat_of_tag: %d" n)

(* Death stamps must survive a file round trip bit-exactly, so they are
   stored as hexadecimal float literals (which also cover "inf"),
   quoted to stay inside JSON syntax. *)
let float_repr f = Printf.sprintf "%h" f

let to_json = function
  | Alloc { id; size; heat; death; ref_fields } ->
    Printf.sprintf {|{"ev":"alloc","id":%d,"size":%d,"heat":%d,"death":"%s","rf":%d}|} id size
      (heat_tag heat) (float_repr death) ref_fields
  | Alloc_boot { id; size; heat; ref_fields } ->
    Printf.sprintf {|{"ev":"boot","id":%d,"size":%d,"heat":%d,"rf":%d}|} id size (heat_tag heat)
      ref_fields
  | Write_ref { src; tgt } -> Printf.sprintf {|{"ev":"wref","src":%d,"tgt":%d}|} src tgt
  | Write_prim { obj } -> Printf.sprintf {|{"ev":"wprim","obj":%d}|} obj
  | Read { obj } -> Printf.sprintf {|{"ev":"read","obj":%d}|} obj
  | Read_burst { obj; words } -> Printf.sprintf {|{"ev":"readb","obj":%d,"n":%d}|} obj words
  | Major_gc -> {|{"ev":"major"}|}
  | Reset_stats -> {|{"ev":"reset"}|}
  | Flush_retirement -> {|{"ev":"flush"}|}

let parse_error line fmt =
  Printf.ksprintf (fun m -> failwith (Printf.sprintf "Trace.of_json: %s in %S" m line)) fmt

(* Raw text of the value following ["key":] (our writer never nests
   objects, so a value always ends at ',' or '}'). *)
let field line key =
  let pat = Printf.sprintf {|"%s":|} key in
  let plen = String.length pat and n = String.length line in
  let rec find i =
    if i + plen > n then parse_error line "missing field %S" key
    else if String.sub line i plen = pat then i + plen
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
    incr stop
  done;
  String.trim (String.sub line start (!stop - start))

let int_field line key =
  let raw = field line key in
  match int_of_string_opt raw with
  | Some i -> i
  | None -> parse_error line "field %S is not an integer (%S)" key raw

let unquote line raw =
  let n = String.length raw in
  if n >= 2 && raw.[0] = '"' && raw.[n - 1] = '"' then String.sub raw 1 (n - 2)
  else parse_error line "expected a quoted value, got %S" raw

let float_field line key =
  let raw = unquote line (field line key) in
  match float_of_string_opt raw with
  | Some f -> f
  | None -> parse_error line "field %S is not a float (%S)" key raw

let of_json line =
  (* A line cut short would otherwise parse: [field] stops at the end
     of the text, so a truncated last value reads as a shorter one. *)
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[String.length trimmed - 1] <> '}' then
    parse_error line "truncated line (no closing brace)";
  match unquote line (field line "ev") with
  | "alloc" ->
    Alloc
      {
        id = int_field line "id";
        size = int_field line "size";
        heat = heat_of_tag (int_field line "heat");
        death = float_field line "death";
        ref_fields = int_field line "rf";
      }
  | "boot" ->
    Alloc_boot
      {
        id = int_field line "id";
        size = int_field line "size";
        heat = heat_of_tag (int_field line "heat");
        ref_fields = int_field line "rf";
      }
  | "wref" -> Write_ref { src = int_field line "src"; tgt = int_field line "tgt" }
  | "wprim" -> Write_prim { obj = int_field line "obj" }
  | "read" -> Read { obj = int_field line "obj" }
  | "readb" -> Read_burst { obj = int_field line "obj"; words = int_field line "n" }
  | "major" -> Major_gc
  | "reset" -> Reset_stats
  | "flush" -> Flush_retirement
  | ev -> parse_error line "unknown event kind %S" ev

let save file evs =
  Out_channel.with_open_text file (fun oc ->
      Array.iter
        (fun e ->
          output_string oc (to_json e);
          output_char oc '\n')
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
