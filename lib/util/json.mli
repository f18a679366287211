(** The one JSON codec of the library: a value type, a compact printer
    and a strict parser.

    It reads exactly what it writes. Floats never appear as JSON
    numbers: {!float} quotes them as ["%h"] hex literals, the only text
    form that round-trips every float bit-exactly (infinities included,
    which matter for death stamps). Numbers are integers. The printer
    emits no whitespace, so a value's text is one line.

    [parse (to_string v) = v] for every value. The parser reads
    exactly one value, with optional whitespace around tokens. It
    rejects a proper prefix, other bytes before or after the value, a
    non-integer number, an integer outside OCaml's [int] range and a
    [\u] escape above ASCII. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in order; keys are not deduplicated *)

exception Malformed of string
(** Raised by {!parse} (naming the byte offset) and by the accessors. *)

val write : Buffer.t -> t -> unit
(** Append the compact text of a value. *)

val to_string : t -> string
val parse : string -> t

(** {2 Accessors}

    Each raises {!Malformed} when the value has another shape. *)

val member : string -> t -> t
(** The first member with this key. *)

val to_int : t -> int
val to_str : t -> string
val to_bool : t -> bool
val to_arr : t -> t list

val float : float -> t
(** [Str] of the ["%h"] literal. *)

val to_float : t -> float
(** Reads a {!float}. *)

val opt : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

val to_opt : (t -> 'a) -> t -> 'a option
