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

(** Commit and abort counters shared by all domains, bucketed as
    "user", "validation", "dangerous-structure", "timeout", "overloaded"
    and "internal". *)
type counters

val counters : unit -> counters
val reset : counters -> unit
val n_committed : counters -> int
val n_aborted : counters -> int
val n_readonly_commits : counters -> int

(** Count one aborted attempt in its class's bucket. *)
val count_abort : counters -> abort_class -> unit

(** [(sequential, parallel)] resolutions of the [Config.Auto] router. *)
val auto_morphs : counters -> int * int

(** The procedure a root runs: under [Config.Auto], a declared morph pair
    resolves to its parallel twin when [parallel_ok ()], else stays
    sequential; the choice is counted. *)
val morph :
  counters -> Config.t -> Reactor.rtype -> string ->
  parallel_ok:(unit -> bool) -> string

(** Non-empty buckets; they sum to {!n_aborted}. *)
val aborts_by_reason : counters -> (string * int) list

(** {1 Redo records} *)

(** The redo writes of a transaction's write set. [owner] maps a table uid
    to its (reactor, table name). *)
val redo_writes :
  (int, string * string) Hashtbl.t -> Occ.Txn.t -> Wal.write list

module Make (P : PLATFORM) : sig
  (** A fresh root, traced when a collector is attached; its deadline is
      [deadline_us] after [t_start]. A [readonly] root pins a snapshot
      epoch in the platform's registry until {!finish}. *)
  val root :
    P.t -> txn:Occ.Txn.t -> retry:int -> obs:Obs.Collector.t option ->
    t_start:float -> ?deadline_us:float -> readonly:bool -> P.rx -> P.rx root

  (** Run a root's body on [exec] at container [home]: the dequeue
      deadline check, the procedure with implicit synchronization, the
      doomed check. Adds the [Queue_wait] (since [queued_since]) and
      [Exec] phases to the trace. The verdict is tentative: the body's
      value, or its abort. *)
  val run_body :
    P.t -> P.rx root -> P.reactor -> home:int -> P.exec ->
    queued_since:float -> proc:string -> args:Util.Value.t list -> verdict

  (** The final verdict, committing from [coord] a body that returned. A
      read-only snapshot root whose body returned is final; otherwise an
      expired deadline aborts at commit entry. *)
  val decide : P.t -> P.rx root -> coord:P.exec -> verdict -> verdict

  (** Outcome bookkeeping: the snapshot's release, the durable wait of a
      commit, the counters, the collector's record on slot [container]. Returns the client's result,
      the latency and the abort cause. *)
  val finish :
    P.t -> P.rx root -> verdict -> counters:counters -> container:int ->
    (Util.Value.t, string) result * float * Obs.Abort.cause option
end
