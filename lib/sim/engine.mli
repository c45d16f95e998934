(** Deterministic discrete-event simulation engine.

    The engine substitutes for the paper's physical multi-core machines (see
    DESIGN.md §2): virtual time is measured in {e microseconds}, processes
    are lightweight coroutines implemented with OCaml effect handlers, and
    all scheduling is deterministic (ties in virtual time resolve in
    spawn/wake order).

    A process is any OCaml function executed via {!spawn}. Inside a process,
    {!delay} models consuming CPU time on the simulated core, {!now} reads
    the virtual clock, and {!Ivar} provides write-once synchronization from
    which futures, request queues and condition-style waits are built.

    Code between two suspension points runs atomically with respect to all
    other processes — exactly the property ReactDB's containers need for
    their commit steps. *)

type t

val create : unit -> t

(** Current virtual time in µs. Callable from inside a process (via the
    running engine) or outside. *)
val now : t -> float

(** [spawn t ?at f] schedules process [f] to start at virtual time [at]
    (default: now). *)
val spawn : t -> ?at:float -> (unit -> unit) -> unit

(** Run until the event queue drains or the optional horizon is reached.
    Returns the final virtual time. An exception escaping a process aborts
    the run and propagates. *)
val run : ?until:float -> t -> float

(** Number of events executed so far (diagnostics, determinism checks). *)
val events_executed : t -> int

(** {1 Operations available inside a process} *)

(** Advance this process's virtual time by [d] µs, yielding to other
    processes. A negative or NaN [d] raises [Invalid_argument] out of
    {!run}. *)
val delay : float -> unit

(** Virtual time of the engine whose {!run} is executing on the calling
    domain (the innermost one when runs nest). Reading it performs no
    effect. Raises [Invalid_argument] outside any {!run}. *)
val current_time : unit -> float

(** Spawn a sibling process at the current time from within a process. *)
val spawn_here : (unit -> unit) -> unit

(** Suspend the running process. The registrar receives a one-shot waker;
    invoking the waker (from any other process or engine context) resumes
    the suspended process at the waker's invocation time with the given
    value. *)
val suspend : (('a -> unit) -> unit) -> 'a

(** Write-once cells. Reading an unfilled ivar suspends; filling wakes all
    readers at the filling process's current time. *)
module Ivar : sig
  type 'a ivar

  val create : unit -> 'a ivar
  val is_filled : 'a ivar -> bool

  (** Raises [Invalid_argument] if already filled. *)
  val fill : 'a ivar -> 'a -> unit

  (** Value if filled, without suspending. *)
  val peek : 'a ivar -> 'a option

  (** Read, suspending the calling process until filled. *)
  val read : 'a ivar -> 'a
end

(** Unbounded FIFO with suspending [pop] (the request queues of transaction
    executors). Multiple blocked poppers are served in FIFO order. *)
module Mailbox : sig
  type 'a mb

  val create : unit -> 'a mb
  val push : 'a mb -> 'a -> unit
  val pop : 'a mb -> 'a
  val length : 'a mb -> int
  val is_empty : 'a mb -> bool
end
