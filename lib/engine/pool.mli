(** Fixed-size domain worker pool with a bounded work queue.

    Jobs are submitted from one coordinating domain and executed by
    [jobs] worker domains ([jobs <= 1] degenerates to inline execution
    in the submitting domain, so sequential and parallel runs share one
    code path).

    The first job that raises cancels everything still queued: their
    futures settle with {!Cancelled}, and the pool refuses further
    submissions the same way. Jobs already running are left to finish
    (the simulator has no preemption points, and a partial heap is
    worthless anyway). *)

type t

exception Cancelled
(** The job never ran: an earlier job failed first. *)

val create : jobs:int -> t
(** [jobs] worker domains (clamped to [1 .. 128]; [<= 1] means inline
    execution, no domains spawned). At most [4 * jobs] submitted jobs
    wait unclaimed before {!submit} blocks. *)

val jobs : t -> int
(** Worker count (1 for an inline pool). *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a job; blocks while the queue is full. *)

val await : 'a future -> 'a
(** Block until the job settles; returns its value or re-raises its
    exception ({!Cancelled} if it was discarded). *)

val run_all : t -> (unit -> 'a) list -> 'a list
(** Submit everything, await everything (in submission order), and
    return the values. If any job failed, re-raises the error of the
    earliest-submitted failed job after all futures have settled. *)

type totals = {
  submitted : int;
  completed : int;  (** jobs that returned a value *)
  failed : int;  (** jobs that raised *)
  cancelled : int;  (** jobs discarded after the first failure *)
  busy_s : float;  (** job execution time summed across workers *)
  wall_s : float;  (** wall-clock time since {!create} *)
}

val totals : t -> totals

val throughput : totals -> float
(** Completed jobs per wall-clock second (0 for an idle pool). *)

val shutdown : t -> unit
(** Wait for queued and running jobs to drain, then join the worker
    domains. Idempotent; submitting after shutdown raises
    [Invalid_argument]. *)
