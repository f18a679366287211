(** Growable arrays.

    The heap simulator keeps per-space object populations in vectors and
    compacts them in place during collections, so we need amortised O(1)
    push, O(1) swap-remove, and cheap truncation. OCaml 5.1's stdlib has
    no [Dynarray] yet; this is the small subset we use. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] when out of bounds. *)

val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the last element. *)

val swap_remove : 'a t -> int -> 'a
(** [swap_remove t i] removes index [i] in O(1) by moving the last
    element into its place, and returns the removed element. Order is
    not preserved. *)

val clear : 'a t -> unit
val truncate : 'a t -> int -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array
val of_array : 'a array -> 'a t

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order. *)
