(** Transaction-lifecycle observability.

    The paper's central claim is {e predictability}: §4.3 argues the
    deployment choice (shared-everything ± affinity, shared-nothing
    sync/async) controls the latency distribution, and Appendix C's cost
    model says where each microsecond goes. This module is the
    instrument that checks the claim: every transaction attempt is
    decomposed into a fixed set of lifecycle {!Phase}s whose durations
    sum to the end-to-end latency, plus a structured {!Abort.cause} when
    the attempt fails.

    {2 The two-clock rule}

    Both backends share one schema but different clocks. The
    discrete-event simulator ([Reactdb.Database]) stamps with
    [Sim.Engine] virtual microseconds; the real-parallel runtime
    ([Runtime.Db]) stamps with wall-clock microseconds
    ([Unix.gettimeofday]). A {!Collector} is created with its {!clock}
    and every export carries it, so virtual and wall numbers can never
    be silently mixed. Phase semantics are identical in both.

    {2 Cost discipline}

    Tracing must not perturb what it measures. When no collector is
    attached, each backend threads the shared {!Trace.none} sink through
    the hot path: every {!Trace.add} is then one branch on an immutable
    [false] and no allocation. When a collector is attached, one 7-slot
    float array is allocated per attempt and each stamp is a clock read
    plus an array store. [bench/predictability.exe] enforces a 3%
    ceiling on the no-op-sink overhead against the committed
    [BENCH_commit_path.json] baseline. *)

(** Dependency-free JSON value type, printer and parser — re-exported so
    that report consumers ([bench/predictability.exe], the CLI) read and
    write exports without an external JSON library. *)
module Json : module type of Json

(** Which clock a collector's numbers are in. *)
type clock =
  | Virtual  (** simulator virtual microseconds ([Sim.Engine.now]) *)
  | Wall  (** wall-clock microseconds ([Unix.gettimeofday]) *)

val clock_name : clock -> string
(** ["virtual"] / ["wall"] — the strings used in JSON exports. *)

val clock_of_name : string -> clock option
(** Inverse of {!clock_name}. *)

(** The fixed phase vocabulary. Phases partition an attempt's
    end-to-end latency: on every recorded attempt the seven durations
    sum to the latency (up to float rounding — checked by the QCheck
    property in [test/suite_obs.ml] and gated at 1% by
    [bench/predictability.exe]). *)
module Phase : sig
  type t =
    | Queue_wait
        (** ingress → transaction body starts executing: client dispatch,
            any forwarding hop, mailbox residence, MPL admission. *)
    | Exec
        (** body running on its executor, excluding time blocked on
            cross-reactor futures. *)
    | Suspend_wait
        (** root-path blocked windows: suspension on a cross-container
            future until its waker fires (includes the implicit
            end-of-procedure sync on unawaited children). *)
    | Validation
        (** OCC phase 1 on the root's timeline: local lock + read/node
            validation, and for 2PC the window until every participant's
            prepare vote has resolved. *)
    | Commit
        (** OCC phase 2: TID assignment, write install, lock release,
            and for 2PC the decide/ack round. *)
    | Flush_wait
        (** group-commit durability wait: from commit decision to the
            group flush that writes the transaction's record, on both
            backends (with a WAL attached only). *)
    | Overhead
        (** remainder: latency − (sum of the six measured phases);
            input generation and any uninstrumented slack. Derived at
            record time, clamped at zero — a negative remainder is a
            double-count bug and surfaces as a phase-sum deviation. *)

  val all : t list
  (** In display order, [Overhead] last. *)

  val count : int
  (** [List.length all], i.e. 7. *)

  val index : t -> int
  (** Dense index in [0, count); position of the phase in {!all}. *)

  val name : t -> string
  (** Stable snake_case name used in tables and JSON
      (e.g. ["queue_wait"]). *)

  val of_name : string -> t option
  (** Inverse of {!name}. *)
end

(** Structured abort taxonomy. Replaces string matching on abort
    messages: each failed attempt carries a {!kind}, the number of
    participant containers, and the retry index of the attempt. *)
module Abort : sig
  type kind =
    | User  (** explicit [Occ.Txn.Abort] raised by the procedure *)
    | Conflict
        (** execution-time conflict ([Occ.Txn.Conflict]), e.g. losing a
            duplicate-insert race before validation *)
    | Lock_busy
        (** validation lost the no-wait write-lock acquisition to a
            concurrent committer *)
    | Stale_read
        (** a read's TID changed, or its record was locked by another
            transaction, between access and validation *)
    | Node_changed
        (** a B-tree node witness (phantom protection) changed version *)
    | Key_exists
        (** an insert's key reservation found a committed duplicate *)
    | Dangerous  (** dangerous cross-reactor call ([Reactor.Dangerous_call]) *)
    | Internal  (** engine-internal failure; never expected in steady state *)
    | Timeout
        (** the attempt's deadline expired at a phase boundary; the
            engine unwound it through the normal abort path (locks
            released, 2PC participants rolled back) *)
    | Overloaded
        (** shed at admission: the home container's bounded mailbox was
            full, the attempt never started executing *)

  val all_kinds : kind list

  val kind_index : kind -> int
  (** Dense index in [0, n_kinds); position of the kind in {!all_kinds}.
      For per-kind counter arrays. *)

  val n_kinds : int
  (** [List.length all_kinds]. *)

  val kind_name : kind -> string
  (** Stable name used in tables and JSON (e.g. ["lock-busy"]). *)

  val kind_of_name : string -> kind option
  (** Inverse of {!kind_name}. *)

  val transient : kind -> bool
  (** [true] for kinds a retry can clear (conflicts and validation
      failures); [false] for [User], [Dangerous], [Internal] — and for
      [Timeout] and [Overloaded], whose whole point is to {e stop}
      spending: an expired deadline consumed the attempt's latency
      budget and a shed is the engine asking for less offered load, so
      re-attempting is the client's decision, not the retry loop's. The
      load driver's retry loop ([Harness], both backends) retries
      exactly the transient kinds. *)

  exception Timed_out of string
  (** Raised {e by the engines, at phase boundaries only} (never inside
      application procedure bodies) when a transaction's deadline
      expires; classified as a [Timeout] abort by both backends. *)

  (** What one failed attempt looked like. *)
  type cause = {
    kind : kind;
    participants : int;  (** containers touched by the attempt *)
    retry : int;  (** retry index of the attempt; 0 = first try *)
  }

  val cause : ?participants:int -> ?retry:int -> kind -> cause
  (** Build a cause; [participants] defaults to 1, [retry] to 0. *)
end

(** One replica's log-shipping lag (DESIGN.md §12), published at
    quiescence by whoever runs the shipper ([Replica.Shipper]).
    [rr_applied_epoch] is the replica's durable watermark;
    [rr_epochs_behind] / [rr_bytes_behind] measure the unshipped suffix
    of the primary's durable log at publish time. *)
type repl_row = {
  rr_replica : int;
  rr_applied_epoch : int;
  rr_epochs_behind : int;
  rr_bytes_behind : int;
  rr_batches : int;  (** shipped batches applied *)
  rr_drops : int;  (** batches lost or refused in flight (chaos, torn) *)
}

(** Per-attempt phase accumulator. A trace is either live (records into
    a 7-slot float array) or the shared disabled sink {!none}, which
    makes every operation a no-op costing one branch. Backends thread a
    trace through the attempt and hand it to
    {!Collector.record_commit}/{!Collector.record_abort} at the end. *)
module Trace : sig
  type t

  val none : t
  (** The shared disabled sink. {!add} on it is free of allocation and
      of stores; safe to share across domains because it is never
      written. *)

  val make : unit -> t
  (** A fresh enabled trace with all phases at zero. *)

  val enabled : t -> bool

  val add : t -> Phase.t -> float -> unit
  (** [add t p d] accumulates [d] (microseconds, either clock) into
      phase [p]. No-op on {!none}. Negative [d] from clock jitter is
      clamped to zero. *)

  val get : t -> Phase.t -> float
  (** Accumulated duration; [0.] on {!none}. *)

  val sum_measured : t -> float
  (** Sum of the six measured phases (everything except
      [Phase.Overhead]). *)

  val reset : t -> unit
  (** Zero all slots, allowing reuse across retries of one attempt
      slot. No-op on {!none}. *)
end

(** Accumulates finished attempts into per-container statistics.

    Concurrency contract: slot [c] must only be written by the thread
    (simulator) or domain (runtime: container [c]'s home domain) that
    owns container [c] — per-domain ownership, no locks on the record
    path. {!Report.summarize} merges all slots and must run at
    quiescence (after [Runtime.Db.quiesce]/[shutdown] or outside
    [Sim.Engine.run]). *)
module Collector : sig
  type t

  val create : ?reservoir_cap:int -> clock:clock -> containers:int -> unit -> t
  (** [create ~clock ~containers ()] sizes one lock-free slot per
      container. [reservoir_cap] (default 1024) bounds each per-phase
      reservoir per container. *)

  val clock : t -> clock

  val containers : t -> int

  val trace : t -> Trace.t
  (** Fresh enabled trace — shorthand for {!Trace.make} that reads as
      "a trace feeding this collector". *)

  val record_commit :
    t ->
    container:int ->
    ?participants:int ->
    ?retry:int ->
    ?readonly:bool ->
    latency_us:float ->
    Trace.t ->
    unit
  (** Fold a committed attempt into slot [container]. Derives
      [Phase.Overhead] as the clamped remainder against [latency_us]
      and tracks the worst phase-sum deviation. Out-of-range container
      ids clamp to slot 0. [readonly] (default [false]) additionally
      counts the commit as a read-only snapshot transaction. *)

  val record_abort :
    t -> container:int -> latency_us:float -> cause:Abort.cause -> Trace.t -> unit
  (** Fold an aborted attempt: phase stats as for commits, plus the
      abort-kind, participant and retry-index histograms. *)

  val set_sched :
    t ->
    container:int ->
    routed_by_cost:int ->
    qdepth_ewma:float ->
    unit
  (** Publish container [container]'s dynamic-scheduling counters (cost
      routing, queue-depth EWMA). Set-once-at-quiescence
      semantics: the runtime calls this after [quiesce] with its final
      per-domain counters ([Runtime.Db.publish_sched_obs]); the
      simulator never calls it, leaving all slots zero. Out-of-range
      container ids clamp to slot 0. *)

  val set_repl : t -> repl_row list -> unit
  (** Publish per-replica shipping-lag rows. Same
      set-once-at-quiescence contract as {!set_sched}: the shipper
      owner calls this after traffic stops; replica-free runs never
      call it, leaving the list empty (and the JSON field absent). *)

  val queue_wait_mean_us : t -> container:int -> float
  (** Mean queue-wait per attempt for slot [container]
      (queue-wait phase sum / attempts; [0.] before any attempt).
      Advisory read for controllers (e.g. [Runtime.Autoscaler]): racy
      against in-flight recording by the owning domain, like
      [Runtime.Db.load_stats]. Out-of-range ids clamp to slot 0. *)
end

(** Render and export collected statistics.

    The JSON export is versioned: {!schema_version} is bumped on any
    field rename/removal or semantic change; additions of new fields
    are allowed within a version. Readers ({!of_json}, used by
    [bench/predictability.exe]) reject documents whose version they do
    not know. *)
module Report : sig
  val schema_version : int
  (** Current export schema version (4: the ["scheduler"] rows dropped
      two per-domain counters of a removed scheduling path; 3 added the per-domain ["scheduler"] rows —
      cost-routed roots, queue-depth EWMA; 2 added the ["timeout"] and
      ["overloaded"] abort kinds to [r_aborts_by_kind]). *)

  val min_readable_version : int
  (** Oldest schema {!of_json} still accepts (2). v2 documents load
      with [r_sched = []]; v3 scheduler rows load without their two
      removed counters. *)

  (** One phase's merged statistics. [pr_count] counts attempts where
      the phase was non-zero; [pr_mean_us] is the per-attempt mean
      ([pr_sum_us] / attempts), i.e. the quantity the cost model
      predicts. Percentiles are over non-zero occurrences, pooled
      across containers. [pr_hist] is a sparse log₂ histogram:
      [(b, n)] means [n] occurrences in [[2^(b-1), 2^b)] µs. *)
  type phase_row = {
    pr_phase : string;
    pr_count : int;
    pr_sum_us : float;
    pr_mean_us : float;
    pr_p50_us : float;
    pr_p95_us : float;
    pr_p99_us : float;
    pr_share_pct : float;  (** share of total latency, percent *)
    pr_hist : (int * int) list;
  }

  (** One domain's dynamic-scheduling counters (schema v4). Domains
      where every signal is zero are omitted from [r_sched], so a
      static-scheduling run exports an empty list. *)
  type sched_row = {
    sr_container : int;
    sr_routed_by_cost : int;
        (** roots the cost router sent here instead of their home *)
    sr_qdepth_ewma : float;  (** mailbox-depth EWMA at last publish *)
  }

  (** A merged, export-ready summary. [r_max_sum_dev_pct] is the worst
      per-attempt relative deviation of (sum of phases) from latency —
      the predictability gate fails if it exceeds 1%. [r_retry_hist]
      maps retry index → attempts; [r_retries] counts attempts with a
      non-zero retry index. *)
  type t = {
    r_clock : string;
    r_attempts : int;
    r_commits : int;
    r_ro_commits : int;
        (** commits that ran as read-only snapshot transactions (subset of
            [r_commits]); 0 when loaded from a report predating the field *)
    r_aborts : int;
    r_retries : int;
    r_mean_latency_us : float;
    r_lat_p50_us : float;
    r_lat_p95_us : float;
    r_lat_p99_us : float;
    r_max_sum_dev_pct : float;
    r_phases : phase_row list;
    r_aborts_by_kind : (string * int) list;
    r_participants : (int * int) list;
    r_retry_hist : (int * int) list;
    r_sched : sched_row list;
    r_repl : repl_row list;
        (** per-replica shipping lag ({!Collector.set_repl}); empty — and
            absent from the JSON — when no replicas were attached *)
  }

  val summarize : Collector.t -> t
  (** Merge all container slots. Call at quiescence (see
      {!Collector}). *)

  val to_table : t -> string
  (** Text rendering via [Util.Tablefmt]: a phase-breakdown table plus,
      when any attempt aborted, an abort-taxonomy table. *)

  val to_json : t -> Json.t
  (** Versioned export; see the schema catalog in [EXPERIMENTS.md]. *)

  val of_json : Json.t -> (t, string) result
  (** Reader for {!to_json} output (also used by
      [bench/predictability.exe]). [Error _] on shape or version
      mismatch. Round-trips exactly: [of_json (to_json r) = Ok r]. *)
end
