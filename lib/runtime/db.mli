(** Real-parallel shared-nothing execution backend: one OCaml 5 domain per
    container, reusing [Occ], [Storage], [Btree], [Reactor] and [Workloads]
    unchanged from the simulator backend.

    {2 Execution model}

    Bootstrap goes through {!Reactdb.Bootstrap} — the same declaration and
    {!Reactdb.Config.t} that boots the simulator boots this backend. Each
    container becomes a domain owning its reactors' catalogs outright:
    every data access to container [c]'s records happens on domain [c]
    (root and same-container sub-transactions run inline on the home
    domain; cross-container calls ship a closure through the destination's
    {!Mailbox} and return a real future). Because of this data ownership,
    Silo validation needs no cross-domain locking: record TID/lock words
    are only ever touched by the owning domain, and the 2PC prepare /
    install / release steps for container [c] execute as mailbox messages
    on domain [c].

    Domains run cooperative fibers over effects (mirroring the simulator's
    executor-core semantics): a fiber blocking on a cross-container future
    or a 2PC vote suspends and releases its domain to run other
    transactions; the waker re-enqueues it through the home mailbox.
    Clients blocking in {!exec_txn} wait on a [Condition].

    A root transaction's context ([Occ.Txn.t]) keeps one slice per
    container, and each sub-transaction writes only its own container's
    slice, so a root's sub-transactions on other domains run at the same
    time as their caller. The frames of one root on one container run on
    that container's domain, which serializes them. Only a stolen or
    cost-routed root body runs elsewhere: such a root takes a lock
    (released across suspension points) that keeps its body exclusive
    with nested calls into its home container; a nested call that finds
    it taken goes back to the end of its domain's mailbox instead of
    blocking the domain. Under affinity routing no lock is created.
    Different roots run fully in parallel.

    [executors_per_container] counts and [mpl] from the config are ignored
    (one domain per container; admission is the client's concern), and the
    simulator's cost {!Reactdb.Profile} does not apply — time is real.
    Round-robin routing is honoured as ingress distribution: the root
    request lands on the round-robin-chosen domain and pays a forwarding
    hop to the owner, quantifying what affinity routing saves. The
    [Cost] router and opt-in work stealing (see {!start}) relax the
    home-domain-only placement of root {e bodies} while keeping all
    structural mutations on the owning domain. *)

type t

type outcome = {
  result : (Util.Value.t, string) result;
  latency_us : float;  (** wall-clock µs, submission through commit/abort *)
  containers_touched : int;
  abort_cause : Obs.Abort.cause option;
      (** structured abort taxonomy for failed attempts; [None] on commit.
          Drives the load driver's retry policy
          ([Obs.Abort.transient]). *)
  snapshot : int option;
      (** the frozen epoch a read-only root executed against, [None] for
          ordinary OCC transactions *)
}

(** [start decl cfg] bootstraps catalogs and loaders on the calling domain,
    then spawns one domain per container. Call {!shutdown} when done.

    [chaos] (default {!Chaos.none}) attaches a seeded fault injector; the
    runtime probes it at the catalogued injection points (root/sub-call
    delivery, between jobs on each domain, after a successful 2PC prepare
    with locks held, and [Kill_primary] between the 2PC phases, which
    fences the runtime as {!fence} does, without the drain).
    [mailbox_cap] bounds each container's mailbox for
    {e root admission only}: when the ingress mailbox already holds that
    many messages, {!submit} sheds the root with an
    [Obs.Abort.Overloaded] outcome instead of enqueuing it — internal
    runtime traffic is never shed.

    {3 Dynamic scheduling}

    [steal] (default false) turns on work stealing: an idle domain takes
    half the {e root} jobs (never internal traffic — resumptions, 2PC
    messages, forwards) from the deepest peer mailbox and runs their
    procedure bodies locally; the stolen root's commit is re-pinned to
    its home domain, so every structural mutation (prepare / install /
    release) still happens on the owner. Safe for update-in-place
    workloads; see DESIGN.md §8 for the relocation precondition.
    [cfg.router = Cost] picks each root's ingress domain by blending the
    [Costmodel] estimate with live load signals (queue-depth EWMA, busy
    fraction, shed pressure) instead of always using the home domain.

    {3 Durability}

    [wal] attaches a write-ahead log through the shared group commit
    ([Reactdb.Durability]): each committed root's after-images are
    encoded on its executor and queued, and the transaction's completion
    waits for the group flush that writes its record — one batched append
    + flush of everything queued, run by the committers (a WAL adds no
    domain), attributed to the [Flush_wait] phase. The bound, the flush
    count and the failure rule are {!Reactdb.Bootstrap.ADMIN}'s
    [durable_epoch], [n_log_flushes] and [wal_error]; here a
    [durable_epoch] read also advances the epoch and publishes the bound;
    after {!shutdown} the bound is the last epoch of the run.
    [epoch_len_s] (default 0.04 s) sets the Silo TID-epoch advance
    interval, which also sets the granularity of [durable_epoch]. *)
val start :
  ?chaos:Chaos.t ->
  ?mailbox_cap:int ->
  ?steal:bool ->
  ?wal:Wal.t ->
  ?epoch_len_s:float ->
  Reactor.decl ->
  Reactdb.Config.t ->
  t

(** Quiesces (waits for every submitted root to complete), closes all
    mailboxes and joins the domains. The catalogs remain readable. *)
val shutdown : t -> unit

(** Number of containers, each owned by one spawned domain; a container's
    index is its domain's. *)
val n_domains : t -> int

(** {1 Shared admin and statistics API}

    Catalogs, placement, snapshot reads, statistics, tracing and history
    recording, as on the simulator. On this backend, catalogs and the
    history are safe to read only after {!quiesce} or {!shutdown};
    read-only snapshot roots are home-pinned (never stolen or
    cost-routed), so every version-chain walk happens on the domain
    owning the records; and the "internal" abort bucket counts a
    procedure or commit step raising something that is not an abort
    (see {!n_fatal}). *)

include Reactdb.Bootstrap.ADMIN with type t := t

(** {1 Transactions} *)

(** [submit t ~reactor ~proc ~args ~k] enqueues a root transaction;
    [k outcome] runs on the root's home domain when it completes. Never
    blocks the caller. Thread-safe. A committed root's writes on its
    coordinator's container are installed when [k] runs; a 2PC root's
    writes on other containers are installed by jobs it posted to their
    domains, which may land after [k] runs. Until one lands, its records
    stay locked, so an OCC root that reads them fails validation rather
    than commit on the old value, and no snapshot includes the commit.
    The root completes for {!quiesce}, {!fence} and {!migrate} only once
    every posted install has landed. [retry] (default 0) is the attempt's
    retry index, recorded in the lifecycle trace and abort cause — the
    engine itself never retries. A root with [retry > 0] is admitted on
    its executor's deferred mailbox lane ({!Mailbox.try_push_deferred}):
    it runs only when that executor has nothing else queued, and it is
    never stolen.

    [deadline_us] gives the root a latency budget in wall-clock µs from
    submission. The deadline propagates to every cross-container sub-call
    and is checked at phase boundaries (dequeue, sub-call start, resume
    after an await, implicit sync, commit entry, each 2PC prepare); an
    expired root aborts through the normal typed-abort unwinding —
    children awaited, locks released, 2PC participants rolled back — with
    a non-transient [Obs.Abort.Timeout] cause.

    If the runtime was started with [mailbox_cap] and the ingress mailbox
    is full, the root is shed {e at admission}: [k] runs synchronously on
    the caller with an [Obs.Abort.Overloaded] outcome (also
    non-transient), and no domain ever sees the transaction. *)
val submit :
  ?retry:int ->
  ?deadline_us:float ->
  t ->
  reactor:string ->
  proc:string ->
  args:Util.Value.t list ->
  k:(outcome -> unit) ->
  unit

(** Blocking convenience around {!submit} for clients off the runtime's
    domains (tests, serial oracles). Must not be called from a [k]
    callback or procedure body — it would block an executor domain. *)
val exec_txn :
  ?deadline_us:float ->
  t ->
  reactor:string ->
  proc:string ->
  args:Util.Value.t list ->
  outcome

(** Block until every submitted root has completed, its posted installs
    included. *)
val quiesce : t -> unit

(** {1 Live reconfiguration (online reactor migration — see DESIGN.md §11)}

    {!migrate} moves a reactor to a new container under live load with no
    lost or duplicated transactions, by the protocol both backends share
    ({!Reactdb.Pins.Gate.migrate}: mark → drain → log → flip → replay).
    Roots and sub-calls that target the reactor after the mark queue at a
    forwarding stub and dispatch against the new home after the flip; the
    drain waits for every root admitted before the mark, so give roots a
    [deadline_us] budget to bound it. The handoff of the storage slice is
    the flip itself: the catalog is shared heap. Call from an admin thread
    (test driver, {!Autoscaler} loop, operator shell), never from a
    procedure body or [k] callback: the drain blocks. Migrations and
    {!fence} serialize. *)

(** [migrate t ~reactor ~dst] moves [reactor] to container [dst] and
    returns the migration pause in wall-clock µs (mark to flip: the window
    during which new traffic to this reactor queued), once its placement
    record is flushed. Returns [0.] if the reactor already lives on
    [dst]. Raises [Invalid_argument] on an unknown reactor or container,
    and [Wal.Io_error] when the WAL failed (the flip stands, unlogged). *)
val migrate : t -> reactor:string -> dst:int -> float

(** Fence this primary (DESIGN.md §12.4; the generation, flag and refusal
    count are {!Reactdb.Bootstrap.ADMIN}'s): every root that reaches an
    executor from then on is refused, and the call returns once every root
    submitted before it has completed, its posted installs included, so
    no commit is acknowledged after it returns and every acknowledged one
    is installed. Call from an admin thread, like {!migrate}. *)
val fence : t -> unit

(** Reactors currently homed on container [c], in declaration order. *)
val reactors_on : t -> int -> string list

(** {1 Internal failures} *)

(** Runtime-internal failures (a procedure or callback raised something
    that is not an abort). The offending transaction reports [Error] and
    the domain keeps running; a non-zero count means a bug. *)
val n_fatal : t -> int

val fatal_messages : t -> string list

(** Record a failure raised outside any transaction — a load driver's
    workload generator or deferred thunk — with the internal errors. *)
val record_fatal : t -> exn -> unit

(** {1 Dynamic-scheduling statistics} *)

(** One domain's scheduler counters (monotone atomics; [ss_qdepth_ewma]
    is the last published mailbox-depth EWMA, a gauge). *)
type sched_stat = {
  ss_steals_in : int;  (** root jobs this domain stole from peers *)
  ss_steals_out : int;  (** root jobs peers stole from this domain *)
  ss_routed_by_cost : int;
      (** roots the cost router admitted here instead of their home *)
  ss_sheds : int;  (** roots shed at this ingress (mailbox full) *)
  ss_qdepth_ewma : float;
}

(** Per-domain snapshot, indexed by domain id. Safe any time (atomic
    reads), exact at quiescence. *)
val sched_stats : t -> sched_stat array

(** Total stolen root jobs ([ss_steals_in] summed over domains). *)
val n_steals : t -> int

(** One domain's live load signals — the {!Autoscaler}'s decision inputs.
    All advisory: a stale read skews a policy decision, never
    correctness. *)
type load_stat = {
  ld_busy_frac : float;
      (** owner-published busy fraction over the last ~5 ms window *)
  ld_qdepth_ewma : float;  (** router-refreshed EWMA of mailbox depth *)
  ld_mailbox : int;  (** instantaneous mailbox length *)
  ld_sheds : int;  (** cumulative admission refusals at this mailbox *)
}

(** Per-domain load snapshot, indexed by domain id. *)
val load_stats : t -> load_stat array

(** Per-domain cumulative busy seconds since start, snapshot through each
    domain's own mailbox (so the caller must not hold a domain — clients
    and benches only). Mean utilization over a window of [w] seconds is
    [sum (busy1 - busy0) / (n * w)]. *)
val busy_times : t -> float array

(** Copy the scheduler counters into the attached collector (no-op
    without one) so they ride the schema-v3 report ([r_sched]). Call at
    quiescence; the load driver ([Harness.runtime]) calls it after each
    run. *)
val publish_sched_obs : t -> unit

(** {1 Observability}

    Tracing ({!attach_obs}) stamps {e wall-clock} microseconds: create the
    collector with [~clock:Obs.Wall] and [~containers:(n_domains t)]. Each
    attempt records on the domain that ran it, into that domain's slot —
    the per-domain ownership that makes recording lock-free. Attach
    before submitting work; summarize only at quiescence. *)
