type series = string * float array

let colours =
  [| "#4e79a7"; "#f28e2b"; "#59a14f"; "#e15759"; "#b07aa1"; "#76b7b2"; "#edc948"; "#9c755f" |]

let palette i = colours.(i mod Array.length colours)

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let header w h = Printf.sprintf "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" font-family=\"sans-serif\" font-size=\"11\">\n" w h

let text b ~x ~y ?(anchor = "start") ?(size = 11) ?(rotate = 0.0) s =
  if rotate = 0.0 then
    Printf.bprintf b "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"%s\" font-size=\"%d\">%s</text>\n" x y
      anchor size (escape s)
  else
    Printf.bprintf b
      "<text x=\"%.1f\" y=\"%.1f\" text-anchor=\"%s\" font-size=\"%d\" transform=\"rotate(%.0f %.1f %.1f)\">%s</text>\n"
      x y anchor size rotate x y (escape s)

(* Shared frame: title, axes, legend. Returns the plotting rectangle. *)
let frame b ~w ~h ~title ~ylabel ~legend =
  let left = 55.0 and right = 15.0 and top = 35.0 and bottom = 70.0 in
  let px0 = left and py0 = top in
  let px1 = float_of_int w -. right and py1 = float_of_int h -. bottom in
  text b ~x:(float_of_int w /. 2.0) ~y:20.0 ~anchor:"middle" ~size:14 title;
  (match ylabel with
  | Some l -> text b ~x:14.0 ~y:((py0 +. py1) /. 2.0) ~anchor:"middle" ~rotate:(-90.0) l
  | None -> ());
  Printf.bprintf b
    "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"black\"/>\n" px0 py0 px0 py1;
  Printf.bprintf b
    "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"black\"/>\n" px0 py1 px1 py1;
  List.iteri
    (fun i label ->
      let lx = px0 +. (float_of_int i *. 120.0) in
      let ly = float_of_int h -. 12.0 in
      Printf.bprintf b "<rect x=\"%.1f\" y=\"%.1f\" width=\"10\" height=\"10\" fill=\"%s\"/>\n" lx
        (ly -. 9.0) (palette i);
      text b ~x:(lx +. 14.0) ~y:ly label)
    legend;
  (px0, py0, px1, py1)

let y_ticks b ~px0 ~py0 ~py1 ~vmax =
  for i = 0 to 4 do
    let v = vmax *. float_of_int i /. 4.0 in
    let y = py1 -. ((py1 -. py0) *. float_of_int i /. 4.0) in
    Printf.bprintf b
      "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" stroke=\"#ccc\"/>\n" px0 y (px0 -. 4.0)
      y;
    text b ~x:(px0 -. 6.0) ~y:(y +. 4.0) ~anchor:"end" (Printf.sprintf "%.2g" v)
  done

(* Every chart is drawn at one size. *)
let width = 760
let height = 360

let bar_chart ?ylabel ~title ~categories ~series () =
  let ncat = List.length categories in
  List.iter
    (fun (name, vs) ->
      if Array.length vs <> ncat then
        invalid_arg (Printf.sprintf "Svg_chart.bar_chart: series %S length mismatch" name))
    series;
  let b = Buffer.create 4096 in
  Buffer.add_string b (header width height);
  let legend = List.map fst series in
  let px0, py0, px1, py1 = frame b ~w:width ~h:height ~title ~ylabel ~legend in
  let vmax =
    List.fold_left (fun m (_, vs) -> Array.fold_left Float.max m vs) 1e-9 series *. 1.1
  in
  y_ticks b ~px0 ~py0 ~py1 ~vmax;
  let nser = max 1 (List.length series) in
  let slot = (px1 -. px0) /. float_of_int (max 1 ncat) in
  let bar_w = slot *. 0.8 /. float_of_int nser in
  List.iteri
    (fun si (_, vs) ->
      Array.iteri
        (fun ci v ->
          let x = px0 +. (float_of_int ci *. slot) +. (slot *. 0.1) +. (float_of_int si *. bar_w) in
          let bh = (py1 -. py0) *. v /. vmax in
          Printf.bprintf b
            "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" fill=\"%s\"/>\n" x
            (py1 -. bh) bar_w bh (palette si))
        vs)
    series;
  List.iteri
    (fun ci label ->
      let x = px0 +. (float_of_int ci *. slot) +. (slot /. 2.0) in
      text b ~x ~y:(py1 +. 12.0) ~anchor:"end" ~rotate:(-40.0) label)
    categories;
  Buffer.add_string b "</svg>\n";
  Buffer.contents b

let line_chart ?xlabel ?ylabel ~title ~series () =
  let b = Buffer.create 4096 in
  Buffer.add_string b (header width height);
  let legend = List.map fst series in
  let px0, py0, px1, py1 = frame b ~w:width ~h:height ~title ~ylabel ~legend in
  (match xlabel with
  | Some l -> text b ~x:((px0 +. px1) /. 2.0) ~y:(py1 +. 30.0) ~anchor:"middle" l
  | None -> ());
  let fold f init = List.fold_left (fun acc (_, pts) -> Array.fold_left f acc pts) init series in
  let xmax = fold (fun m (x, _) -> Float.max m x) 1e-9 in
  let vmax = fold (fun m (_, y) -> Float.max m y) 1e-9 *. 1.1 in
  y_ticks b ~px0 ~py0 ~py1 ~vmax;
  for i = 0 to 4 do
    let v = xmax *. float_of_int i /. 4.0 in
    let x = px0 +. ((px1 -. px0) *. float_of_int i /. 4.0) in
    text b ~x ~y:(py1 +. 14.0) ~anchor:"middle" (Printf.sprintf "%.3g" v)
  done;
  List.iteri
    (fun si (_, pts) ->
      let path = Buffer.create 256 in
      Array.iteri
        (fun i (x, y) ->
          let sx = px0 +. ((px1 -. px0) *. x /. xmax) in
          let sy = py1 -. ((py1 -. py0) *. y /. vmax) in
          Printf.bprintf path "%s%.1f,%.1f " (if i = 0 then "M" else "L") sx sy)
        pts;
      Printf.bprintf b "<path d=\"%s\" fill=\"none\" stroke=\"%s\" stroke-width=\"1.8\"/>\n"
        (Buffer.contents path) (palette si))
    series;
  Buffer.add_string b "</svg>\n";
  Buffer.contents b
