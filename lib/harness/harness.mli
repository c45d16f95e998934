(** Experiment harness: closed-loop client workers and epoch-based
    measurement (§4.1.2, following OLTP-Bench), written once for both
    backends.

    A {!backend} is what the loop needs from an execution platform:
    {!sim} drives the simulator (workers are engine processes in a
    separate "worker container" that does not contend for
    transaction-executor cores, matching the paper's worker threads pinned
    to their own cores; all timings are virtual µs), {!runtime} drives the
    parallel runtime (completion-driven virtual clients; wall-clock µs).
    Measurements report averages and standard deviations across
    measurement epochs; warm-up epochs are discarded. *)

(** Mean per-transaction latency components (virtual µs) in the
    cost-model's vocabulary: synchronous execution, send ([Cs]) and
    receive ([Cr]) costs, asynchronous (overlapped) execution, and
    everything unattributed. Used to calibrate {!Costmodel} predictions
    (fig6, predict1). *)
type breakdown_avg = {
  avg_sync_exec : float;
  avg_cs : float;
  avg_cr : float;
  avg_async_exec : float;
  avg_overhead : float;
}

(** The same rules on both backends. Each attempt is attributed to the
    measurement window by one flag read at its completion, together with
    its latency sample and its retry decision: [committed] and [aborted]
    count {e attempts}, [retries] counts the aborted attempts that were
    resubmitted (each is also one of the [aborted]), so
    [committed + aborted = logical completions + retries] holds exactly
    and logical transactions that ultimately failed number
    [aborted - retries]. *)
type run_result = {
  throughput : float;
      (** committed attempts per second, mean across epochs (each epoch's
          count over its nominal length) *)
  throughput_std : float;  (** std of the per-epoch throughputs *)
  avg_latency : float;  (** µs, committed attempts, mean of epoch means *)
  latency_std : float;  (** std of the per-epoch mean latencies *)
  p50_latency : float;
      (** per-transaction latency percentiles (µs, committed attempts,
          whole window) from a bounded uniform reservoir *)
  p95_latency : float;
  p99_latency : float;
  abort_rate : float;  (** aborted / (committed + aborted) *)
  committed : int;
  aborted : int;
  retries : int;
  aborts_by_reason : (string * int) list;
      (** aborted attempts by [Obs.Abort.kind_name] ("conflict",
          "lock-busy", "timeout", "overloaded", …), non-empty kinds only *)
  breakdown : breakdown_avg option;
      (** averaged over committed attempts that carry one — the
          simulator's; [None] on the runtime *)
  utilizations : float array;
      (** per-executor busy fraction from window start to window end *)
}

(** Load specification. [gen worker rng] produces the next request of
    [worker]; each worker has an independent RNG, [Util.Rng.stream ~seed
    worker]. [max_retries] (default 0): aborted attempts whose cause is
    transient — conflicts and validation failures, per
    [Obs.Abort.transient] — are resubmitted with an increasing retry index
    up to this many times; user aborts, dangerous-call-structure aborts,
    deadline timeouts and admission sheds are never retried in-loop.
    After a shed the worker pauses 500 µs before generating new work. An
    attempt that aborts while the backend is fenced (DESIGN.md §12.4)
    ends its worker: it is not retried, and the worker starts no further
    transaction.

    [backoff] (default [Some Util.Backoff.default]) paces resubmissions
    with seeded exponential backoff + jitter spent as backend time
    ([None] restores immediate retry); worker [w]'s delays derive from
    [seed lxor (w * 0x9e3779b9)], so the schedule is a function of the
    seed. [deadline_us] gives every attempt that latency budget (expired
    attempts abort with the non-transient [Obs.Abort.Timeout]). Epoch
    lengths are in the backend's clock: virtual µs on the simulator, wall
    µs on the runtime (DESIGN.md §6.2). *)
type spec = {
  n_workers : int;
  gen : int -> Util.Rng.t -> Workloads.Wl.request;
  epochs : int;  (** measurement epochs (the paper uses 50) *)
  epoch_us : float;
  warmup_epochs : int;
  seed : int;
  max_retries : int;
  deadline_us : float option;
  backoff : Util.Backoff.policy option;
}

(** [spec ~n_workers gen] with defaults scaled down from the paper's
    setup: 20 epochs of 20 000 µs after 3 warm-up epochs, seed 42, no
    retries, no deadline, default backoff policy. *)
val spec :
  ?epochs:int ->
  ?epoch_us:float ->
  ?warmup_epochs:int ->
  ?seed:int ->
  ?max_retries:int ->
  ?deadline_us:float ->
  ?backoff:Util.Backoff.policy option ->
  n_workers:int ->
  (int -> Util.Rng.t -> Workloads.Wl.request) ->
  spec

(** An execution platform the closed loop drives. *)
type backend

(** The simulator. The database must be freshly created, its engine not
    yet run; each driver call runs the engine until it drains. A
    generator exception escapes the call. *)
val sim : Reactdb.Database.t -> backend

(** The parallel runtime, freshly started or quiescent. Driver calls
    return quiesced, with the scheduler counters published
    ({!Runtime.Db.publish_sched_obs}), and never shut the runtime down. A
    generator exception is recorded with the runtime's fatal errors and
    ends that worker. *)
val runtime : Runtime.Db.t -> backend

(** Run a timed closed-loop experiment: start the workers, run the
    warm-up epochs, measure, stop the workers and drain. *)
val run : backend -> spec -> run_result

(** [run_fixed b ~n_workers ~per_worker ~seed gen] drives exactly
    [n_workers * per_worker] logical transactions closed-loop and drains —
    for tests and audits that need an exact transaction count rather than
    a time window. Returns the number of retried attempts, so the
    backend's attempt counters satisfy
    [committed + aborted = n_workers * per_worker + retries] unless the
    backend is fenced during the run. A logical
    transaction shed at admission or expired past [deadline_us] counts as
    one completed-with-abort transaction. Defaults as in {!spec}. *)
val run_fixed :
  ?max_retries:int ->
  ?deadline_us:float ->
  ?backoff:Util.Backoff.policy option ->
  backend ->
  n_workers:int ->
  per_worker:int ->
  seed:int ->
  (int -> Util.Rng.t -> Workloads.Wl.request) ->
  int

(** Measure [n] sequential transactions from a single worker (the setup of
    the latency experiments, §4.2): returns the per-transaction outcomes
    after [warmup] unrecorded requests. *)
val measure_txns :
  Reactdb.Database.t ->
  ?warmup:int ->
  ?seed:int ->
  n:int ->
  (Util.Rng.t -> Workloads.Wl.request) ->
  Reactdb.Database.outcome list

(** Mean latency in µs of the committed outcomes. *)
val mean_latency : Reactdb.Database.outcome list -> float

(** Average the breakdowns of committed outcomes. *)
val mean_breakdown : Reactdb.Database.outcome list -> breakdown_avg

(** [build decl config] creates an engine and database pair. *)
val build :
  ?profile:Reactdb.Profile.t ->
  Reactor.decl ->
  Reactdb.Config.t ->
  Reactdb.Database.t
