(* The types and platform signature of [Lifecycle], declared once for its
   implementation and its interface. *)

(** Typed abort classes. Classification is by exception constructor, never
    by message text. [Ab_conflict] is an execution-time concurrency
    conflict ({!Occ.Txn.Conflict}), [Ab_validation] a commit-time OCC or
    2PC prepare failure; both count in the "validation" bucket. *)
type abort_class =
  | Ab_user
  | Ab_conflict
  | Ab_validation
  | Ab_dangerous
  | Ab_timeout
  | Ab_overload
  | Ab_internal

(** State shared by a root and all its sub-transactions. ['rx] is the
    platform's own per-root state. *)
type 'rx root = {
  txn : Occ.Txn.t;
  retry : int;  (** the attempt's retry index *)
  obs : Obs.Collector.t option;
  tr : Obs.Trace.t;  (** lifecycle trace; {!Obs.Trace.none} when untraced *)
  t_start : float;  (** submission, on the platform clock *)
  deadline : float;
      (** absolute, on the platform clock; [infinity] when none, so every
          check is one float compare and no clock read *)
  rsnapshot : int option;
      (** the frozen epoch a read-only root reads at; propagated to every
          sub-call so a fan-out reads one consistent cut *)
  active_set : string list Atomic.t;
      (** reactors with a live execution context of this root (§2.2.4):
          those on its call chains and the cross-container callees their
          callers have not joined yet, so a short list. Atomic because
          the root's frames on different containers run in parallel. *)
  doomed : (abort_class * string) option Atomic.t;
      (** a sub-transaction aborted: the root may not commit even if
          application code swallowed the exception (§2.2.3); the first
          abort wins *)
  mutable flush : Durability.batch option;
      (** the group-commit batch the root's redo record joined *)
  unsettled : int Atomic.t;
      (** what the root still waits for before it settles: its outcome's
          delivery and each posted install that has not landed *)
  settle : unit -> unit;  (** the platform's settlement, run by the last of them *)
  rx : 'rx;
}

(** A root attempt's verdict: its value, or the abort class, message and
    {!Obs.Abort.kind}. *)
type verdict = (Util.Value.t, abort_class * string * Obs.Abort.kind) result

module type PLATFORM = sig
  (** [t] is the platform's own state, the [own] field of a database
      [(slot, t) Bootstrap.t]; [slot] its per-reactor state, the [slot]
      field of a {!Bootstrap.reactor}; [exec] where code runs (a simulated
      executor, a runtime domain) and [cid] its container; [rx] the
      platform's per-root state. *)
  type t

  type exec
  type slot
  type rx
  type 'a future

  val now : unit -> float
  val cid : exec -> int

  (** {2 Frames} *)

  (** A frame of [reactor] starts on [exec] at container [home]: charge
      the procedure's base cost and return its data-access [charge] and
      [work] functions. [leave] runs when its body returned. *)
  val enter :
    (slot, t) Bootstrap.t -> rx root -> slot Bootstrap.reactor -> home:int ->
    exec -> on_root_path:bool ->
    (Query.Exec.charge_kind -> int -> unit) * (float -> unit)

  val leave : slot Bootstrap.reactor -> exec -> unit

  (** The container a sub-call to [reactor] may use now, or [None] when
      it must park at the reactor's migration stub and dispatch after the
      flip. May suspend the caller instead. *)
  val resolve :
    (slot, t) Bootstrap.t -> rx root -> caller:exec -> slot Bootstrap.reactor ->
    int option

  (** Ship a cross-container sub-call from container [from]: run
      [f exec home] on an executor of the reactor's container [home],
      exclusive with the root's other frames on [home] (frames on other
      containers may run in parallel). [parked] defers the dispatch to the
      flip. *)
  val call :
    (slot, t) Bootstrap.t -> rx root -> from:int -> on_root_path:bool ->
    slot Bootstrap.reactor -> parked:bool -> (exec -> int -> 'a) -> 'a future

  val peek : 'a future -> 'a option

  (** Block a frame of container [container] on an unresolved sub-call
      future, letting the root's other frames on that container run
      meanwhile. *)
  val await_sub :
    (slot, t) Bootstrap.t -> rx root -> exec -> container:int ->
    on_root_path:bool -> 'a future -> 'a

  (** {2 Commit} *)

  (** Run one commit step on container [c]'s owner, coordinated from
      [coord]; [await] blocks the coordinator on its unresolved future. *)
  val remote :
    (slot, t) Bootstrap.t -> rx root -> coord:exec -> int -> (unit -> 'a) ->
    'a future

  val await : (slot, t) Bootstrap.t -> exec -> 'a future -> 'a

  (** One install of a decided 2PC commit on container [c]'s owner,
      coordinated from [coord]. The simulator runs it as {!remote} does,
      and the coordinator awaits it. The runtime posts it and returns a
      resolved future: a decided commit cannot fail, and its records stay
      locked until installed, so a committed root's writes on other
      containers become visible when their install lands. That may be
      after the root's outcome is delivered, but always before it
      settles. *)
  val post :
    (slot, t) Bootstrap.t -> rx root -> coord:exec -> int -> (unit -> unit) ->
    unit future

  (** Virtual costs: validating the root's operations on a container, one
      install. *)
  val charge_validation : (slot, t) Bootstrap.t -> Occ.Txn.t -> int -> unit

  val charge_install : (slot, t) Bootstrap.t -> unit

  (** Chaos point: a 2PC participant prepared (locks held). *)
  val prepared : (slot, t) Bootstrap.t -> unit

  (** Hold a committed root until the flush of its record's batch, and
      return that flush's result: when to flush is the platform's. *)
  val wait_durable : (slot, t) Bootstrap.t -> Durability.batch -> (unit, string) result

  (** An exception that is not an abort. Returning turns it into an
      "internal" abort of the root; raising propagates it. *)
  val on_fatal : (slot, t) Bootstrap.t -> exn -> unit
end
