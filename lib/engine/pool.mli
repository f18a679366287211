(** A domain pool that runs one job list at a time.

    {!run_all} spawns its worker domains for the list it is given and
    joins them before it returns ([jobs <= 1] runs the list inline in
    the calling domain, so sequential and parallel runs share one code
    path). OCaml 5 collects every domain's minor heap in one
    stop-the-world section, so the pool holds domains only while it
    has jobs to run.

    The first job that raises cancels every job not yet started: they
    settle as {!Cancelled}. Jobs already running are left to finish
    (the simulator has no preemption points, and a partial heap is
    worthless anyway). *)

type t

exception Cancelled
(** The job never ran: an earlier job failed first. *)

val create : jobs:int -> t
(** A pool of [jobs] workers (clamped to [1 .. 128]; [<= 1] means
    inline execution). The workers' domains are claimed from
    {!Kg_util.Domain_budget} until {!shutdown}. *)

val jobs : t -> int
(** Worker count (1 for an inline pool). *)

val run_all : t -> (unit -> 'a) list -> 'a list
(** Run every job on [min jobs n] domains, which take job indices from
    one shared cursor (inline in the calling domain when that is 1),
    and return the values in submission order. If any job failed,
    re-raises the error of the earliest-submitted failed job once every
    domain has joined. Call from one domain at a time; raises
    [Invalid_argument] after {!shutdown}. *)

type totals = {
  submitted : int;
  completed : int;  (** jobs that returned a value *)
  failed : int;  (** jobs that raised *)
  cancelled : int;  (** jobs discarded after the first failure *)
  busy_s : float;  (** job execution time summed across workers *)
  wall_s : float;  (** wall-clock time since {!create} *)
}

val totals : t -> totals

val shutdown : t -> unit
(** Release the workers' domain claims. Idempotent. *)
