(** The ReactDB runtime (§3): containers, transaction executors, routers,
    transport, commit coordination — all running on the simulated machine.

    A {!t} is bootstrapped from a reactor database declaration, a deployment
    {!Config.t} and a hardware {!Profile.t} against a simulation engine.
    Client code (workers, tests, examples) runs as engine processes and
    submits root transactions with {!exec_txn}, which blocks the calling
    process until the transaction commits or aborts and reports its latency
    and cost-component breakdown.

    Execution model (§3.2): each transaction executor is a simulated core
    with a request queue. Root transactions are admission-controlled by the
    executor's MPL; sub-transactions and commit-protocol steps bypass
    admission (they belong to already-admitted roots) but still contend for
    the core. A (sub-)transaction holds its executor's core while running
    and releases it when blocking on a remote future — cooperative
    multitasking; re-acquisition on wake pays the receive cost Cr.
    Sub-transactions on reactors in the caller's container (including
    self-calls) execute synchronously inline in the caller's executor.
    Single-container transactions commit with container-local Silo
    validation; cross-container transactions run two-phase commit whose
    prepare is container-local validation with locks held. *)

type t

(** Per-transaction cost-component breakdown (the buckets of Figure 6).
    [overhead] covers input generation, client dispatch and commit —
    reported together as the paper's "commit + input-gen" bucket. *)
type breakdown = {
  mutable bd_sync_exec : float;
  mutable bd_cs : float;
  mutable bd_cr : float;
  mutable bd_async_exec : float;
  mutable bd_overhead : float;
}

type outcome = {
  result : (Util.Value.t, string) result;
  latency : float;  (** µs, input generation through commit/abort *)
  breakdown : breakdown;
  containers_touched : int;
  abort_cause : Obs.Abort.cause option;
      (** structured abort taxonomy for failed attempts; [None] on commit.
          Drives the retry policy in [Harness] ([Obs.Abort.transient]). *)
  snapshot : int option;
      (** the frozen epoch a read-only root executed against, [None] for
          ordinary OCC transactions *)
}

(** [create engine decl config profile] validates [decl], builds containers
    and executors, applies loaders, and starts executor dispatchers.
    Call before [Engine.run]. *)
val create :
  Sim.Engine.t -> Reactor.decl -> Config.t -> Profile.t -> t

val engine : t -> Sim.Engine.t
val config : t -> Config.t
val profile : t -> Profile.t

(** [exec_txn t ~reactor ~proc ~args] submits a root transaction and blocks
    the calling engine process until it completes. Aborted transactions
    (user aborts, dangerous call structures, validation failures) yield
    [Error reason]; they are fully rolled back. [retry] (default 0) is the
    attempt's retry index, recorded in the lifecycle trace and abort
    cause — the engine itself never retries.

    [deadline_us] gives the root a latency budget in {e virtual}
    microseconds from submission. The deadline propagates to every
    cross-container sub-call and is checked at phase boundaries (dequeue,
    sub-call start, resume after an await, implicit sync, commit entry,
    each 2PC prepare); an expired root aborts through the normal
    typed-abort unwinding — children awaited, locks released, 2PC
    participants rolled back — with a non-transient [Obs.Abort.Timeout]
    cause.

    If {!set_mailbox_cap} set a bound and the home executor's queue is at
    it, the root is shed {e at admission} with an [Obs.Abort.Overloaded]
    outcome (also non-transient) without ever enqueuing. *)
val exec_txn :
  ?retry:int ->
  ?deadline_us:float ->
  t ->
  reactor:string ->
  proc:string ->
  args:Util.Value.t list ->
  outcome

(** {1 Shared admin and statistics API}

    Catalogs, placement, snapshot reads, statistics, tracing and
    history recording, as on the parallel runtime. On this backend the
    migration pause is in virtual µs, the commit, abort, read-only and
    morph counters count since bootstrap or the last {!reset_stats}, and
    tracing ({!attach_obs}) stamps {e virtual} microseconds: create the
    collector with [~clock:Obs.Virtual]. *)

include Bootstrap.ADMIN with type t := t

(** {1 Live reconfiguration (online reactor migration — see DESIGN.md §11)}

    [migrate t ~reactor ~dst] moves a reactor to container [dst] while
    traffic runs, and returns the migration pause in virtual µs, by the
    protocol both backends share ({!Pins.Gate.migrate}: mark → drain →
    log → flip → replay; the call returns once the {!Wal.Migrate} record
    is flushed). The flip is one re-homing write, atomic in virtual time:
    catalogs are keyed by reactor, so records, secondary indexes and
    snapshot version chains move with the pointer.

    Because execution is deterministic in virtual time and placement never
    affects transaction results, a serial workload interleaved with
    migrations leaves the database byte-identical ({!Faultsim.diff}) to
    the same workload on a static deployment — the virtualization claim of
    the paper, checked by [bench/elasticity.exe].

    Migrations and {!fence} are serialized; concurrent callers queue. Must
    be called from inside the engine (it suspends). Moving a reactor to
    its current container returns [0.] without marking. Raises
    [Invalid_argument] on an unknown reactor or container index, and
    [Wal.Io_error] when the WAL failed (the flip stands, unlogged). *)
val migrate : t -> reactor:string -> dst:int -> float

(** Bootstrap-time only: silently re-home reactors (no drain, no log
    record) to resume a recovered deployment from
    [Faultsim.rc_placements]. Unknown reactors and out-of-range containers
    are ignored. Never call with traffic in flight — it bypasses the
    migration protocol. *)
val apply_placements : t -> (string * int) list -> unit

(** {1 Statistics} *)

(** Virtual µs each executor's core has been busy since bootstrap /
    {!reset_stats}, in executor order (container-major). *)
val busy_times : t -> float array

(** Fraction of virtual time each executor's core was busy since bootstrap
    / {!reset_stats}, in executor order (container-major). *)
val utilizations : t -> float array

(** Reset the shared commit, abort, read-only and morph counters and the
    utilization accumulators (e.g. between warm-up and measurement
    epochs). *)
val reset_stats : t -> unit

(** {1 Durability (extension beyond the paper — see DESIGN.md §8.2)} *)

(** [attach_wal t log] makes every later commit queue a redo record (TID
    and physical after-images) for [log] and return only once the group
    flush that writes it has run: a batch's first waiter spawns one flush
    at the next epoch boundary (every 40 ms of virtual time). Aborts and
    transactions that log nothing (read-only) return at once. The bound,
    the flush count and the failure rule are {!Bootstrap.ADMIN}'s
    [durable_epoch], [n_log_flushes] and [wal_error]. Recovery: load a
    fresh database from the same declaration, then [Wal.replay
    (Wal.entries log) ~catalog_of:(catalog_of fresh_db)]. *)
val attach_wal : t -> Wal.t -> unit

(** Fence this primary (DESIGN.md §12.4; the generation, flag and refusal
    count are {!Bootstrap.ADMIN}'s): every root admitted from then on is
    refused, and the call returns once every root admitted before has
    installed or rolled back (a logged one may still wait for its flush).
    With roots in flight it suspends, like {!migrate}. *)
val fence : t -> unit

(** {1 Overload protection and chaos injection}

    [attach_chaos t chaos] installs a seeded fault injector (see
    {!Chaos}); the simulator probes it at its catalogued injection points
    — [Stall_flush], charged as {e virtual} delay inside the group-commit
    flusher before the device flush, and [Kill_primary], which fences the
    primary mid-2PC (votes resolved, nothing installed — see the fencing
    section above). Delivery/prepare stalls are wall-clock concepts
    probed by the parallel runtime.

    [set_mailbox_cap t (Some cap)] bounds every executor's request queue
    for {e root admission only}: a root arriving when its home executor
    already holds [cap] queued messages is shed with an
    [Obs.Abort.Overloaded] outcome. Sub-transactions and commit-protocol
    steps are never shed. [None] (the default) restores unbounded
    admission. *)
val attach_chaos : t -> Chaos.t -> unit

val set_mailbox_cap : t -> int option -> unit
