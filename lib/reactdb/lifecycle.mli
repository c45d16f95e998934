(** One transaction lifecycle for both backends (DESIGN.md §5.2).

    The paper fixes one semantics for a root transaction — sub-transactions
    on other reactors, implicit synchronization, the §2.2.4 dangerous-call
    rule, Silo validation and 2PC — and varies only the deployment beneath
    it. This module is the one copy of a root attempt's life from body
    start to outcome. The discrete-event simulator ({!Database}) and the
    real-parallel runtime ([Runtime.Db]) each supply a {!PLATFORM}: how to
    tell time, wait on a future, run code on another container, charge
    virtual cost and make a commit durable. *)

include module type of struct
  include Lifecycle_intf
end

(** {1 Abort taxonomy (DESIGN.md §6.3)} *)

(** Count one aborted attempt in its class's bucket of the shared
    counters ({!Bootstrap.counters}). *)
val count_abort : Bootstrap.counters -> abort_class -> unit

(** A root refused by a fenced primary ({!Bootstrap.refuses}): an
    "internal" abort, "fenced: stale primary generation". *)
val fenced : verdict

(** {1 History recording} *)

(** [history_entry txn ~tid] is the certification entry
    ({!Histories.Certify.entry}) of a root that commits at [tid]: its
    whole-row and projected reads from every container's slice, and each
    write with the columns it changes. Call it before the install, with
    the write set locked: an update's changed columns are found against
    the record's current data. A recorded database takes it in
    [install_all]. *)
val history_entry : Occ.Txn.t -> tid:int -> Histories.Certify.entry

module Make (P : PLATFORM) : sig
  (** A fresh root, traced when a collector is attached to the database;
      its deadline is [deadline_us] after [t_start]. A [readonly] root pins
      a snapshot epoch in the shared registry until {!finish}. [settle]
      runs once the root has settled: its outcome was {!delivered} and
      every install it posted landed. *)
  val root :
    (P.slot, P.t) Bootstrap.t -> txn:Occ.Txn.t -> retry:int -> t_start:float ->
    ?deadline_us:float -> settle:(unit -> unit) -> readonly:bool -> P.rx ->
    P.rx root

  (** Run a root's body on [exec] at container [home]: the dequeue
      deadline check, the procedure with implicit synchronization, the
      doomed check. Adds the [Queue_wait] (since [queued_since]) and
      [Exec] phases to the trace. The verdict is tentative: the body's
      value, or its abort. *)
  val run_body :
    (P.slot, P.t) Bootstrap.t -> P.rx root -> P.slot Bootstrap.reactor ->
    home:int -> P.exec -> queued_since:float -> proc:string ->
    args:Util.Value.t list -> verdict

  (** The final verdict, committing from [coord] a body that returned. A
      read-only snapshot root whose body returned is final; otherwise an
      expired deadline aborts at commit entry. *)
  val decide :
    (P.slot, P.t) Bootstrap.t -> P.rx root -> coord:P.exec -> verdict -> verdict

  (** Outcome bookkeeping: the snapshot's release, the durable wait of a
      logged commit (a failed flush turns it into an internal abort), the
      shared counters, the collector's record on slot [container]. Returns the client's result, the latency and the abort
      cause. *)
  val finish :
    (P.slot, P.t) Bootstrap.t -> P.rx root -> verdict -> container:int ->
    (Util.Value.t, string) result * float * Obs.Abort.cause option

  (** The root's outcome reached its client: it settles now, or when its
      last posted install lands. A platform whose [post] awaits every
      install has nothing to settle late and need not call it. *)
  val delivered : P.rx root -> unit
end
