(** Dependency-free SVG charts.

    Renders the experiment tables as grouped bar charts and line charts
    so regenerated figures can be eyeballed against the paper's. Output
    is a standalone SVG document string, 760 by 360 pixels. *)

type series = string * float array
(** (legend label, one value per category). *)

val bar_chart :
  ?ylabel:string ->
  title:string ->
  categories:string list ->
  series:series list ->
  unit ->
  string
(** Grouped vertical bars; series lengths must equal the category
    count (raises [Invalid_argument] otherwise). The y-axis starts at
    0 and is scaled to the maximum value with a small headroom. *)

val line_chart :
  ?xlabel:string ->
  ?ylabel:string ->
  title:string ->
  series:(string * (float * float) array) list ->
  unit ->
  string
(** Poly-line chart over (x, y) points (e.g. the Figure 13 heap
    composition traces). *)
