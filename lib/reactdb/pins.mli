(** What live roots pin, kept once for both backends (DESIGN.md §10.3,
    §11.1): the snapshot and commit epochs that bound snapshot issue and
    version GC, and the migration generations a placement flip must drain.

    Thread-safe: the simulator's single engine thread and the runtime's
    domains use the same code. Each half has one leaf mutex, never held
    while calling out. *)

(** The epoch registry. Commits hold the epoch their TID is computed in
    from before the TID until every install landed; a snapshot is issued
    strictly below both the current epoch and every held commit epoch, so
    it names a prefix that can gain no more installs. *)
module Registry : sig
  type t

  (** [create ~epoch] reads the backend's Silo epoch clock through [epoch],
      always under the registry's lock. Snapshots start enabled. *)
  val create : epoch:(unit -> int) -> t

  val enabled : t -> bool
  val set_enabled : t -> bool -> unit

  (** [max 0 (min (epoch, min held commit epoch) - 1)]: the epoch the next
      snapshot would freeze. Never decreases. *)
  val safe_snapshot : t -> int

  (** Pin {!safe_snapshot} as a live snapshot and return it. *)
  val acquire : t -> int

  (** Unpin one live snapshot; a no-op when that epoch is not held. *)
  val release : t -> int -> unit

  (** The minimum live snapshot, else {!safe_snapshot}: no current or
      future snapshot reads below it, so version chains may be trimmed to
      it. *)
  val horizon : t -> int

  (** Hold the current epoch for a commit and return it; pair with
      {!drop_commit} on every path. *)
  val hold_commit : t -> int

  val drop_commit : t -> int -> unit
end

(** The migration generation gate. Every root registers in the current
    generation for its lifetime; a migration {e marks} its reactor (bumping
    the generation and installing a forwarding stub), {e drains} every root
    of the pre-mark generation, and {e flips} the placement, returning the
    traffic parked at the stub. Migrations are serialized, so at most two
    generations are live and two parity-indexed counters suffice. *)
module Gate : sig
  type t

  val create : unit -> t

  (** Register a root in the current generation and return it. A root
      never holds a slot of a generation it did not read: a mark racing
      the registration makes it retry in the new generation. *)
  val register : t -> int

  (** Drop a root's registration; the last pre-mark root to retire wakes
      the drain. *)
  val retire : t -> int -> unit

  (** Whether a root of generation [rgen] may use [reactor]'s current
      placement now; [false] means it must {!park} at the stub. Takes no
      lock while nothing migrates. *)
  val admits : t -> rgen:int -> string -> bool

  (** Queue [k] at [reactor]'s stub, to run at the flip; runs it at once if
      the flip already happened. *)
  val park : t -> string -> (unit -> unit) -> unit

  (** Install [reactor]'s stub in a new generation; returns the pre-mark
      generation (the cutoff). *)
  val mark : t -> string -> int

  (** [drain t ~suspend cutoff] returns once every root of generation
      [cutoff] has retired. [suspend register] blocks the caller until the
      waker passed to [register] is called (an engine suspension, or a
      blocked thread). The waker is registered under the gate's lock after
      a re-check, so its wake-up cannot be lost; it fires exactly once. *)
  val drain : t -> suspend:(((unit -> unit) -> unit) -> unit) -> int -> unit

  (** Remove [reactor]'s stub; returns its parked traffic, oldest first. *)
  val flip : t -> string -> (unit -> unit) list

  (** The whole protocol: serialize with other migrations, then — unless
      [home ()] is already [dst], which returns [0.] — mark, drain, [log
      ~seq] the placement record ([seq] numbers the migration), [set_home
      dst], flip, replay the parked traffic. Returns the pause (mark to
      flip) on the [now] clock. *)
  val migrate :
    t -> suspend:(((unit -> unit) -> unit) -> unit) -> now:(unit -> float) ->
    reactor:string -> home:(unit -> int) -> set_home:(int -> unit) -> dst:int ->
    log:(seq:int -> unit) -> float

  (** Serialized with migrations: set the flag, bump the generation as
      {!mark} does but with no stub, {!drain} the cutoff and end the
      active period as {!flip} does. A root that re-checks the flag after
      {!register} is refused if it registered after the bump, so once
      this returns no root admitted before it is live and none is
      admitted after it. *)
  val fence : t -> suspend:(((unit -> unit) -> unit) -> unit) -> bool Atomic.t -> unit

  val n_migrations : t -> int

  (** Bumped at every flip. *)
  val placement_epoch : t -> int

  (** Pause of the most recent migration; [0.] if none. *)
  val pause_last : t -> float
end
