(** Log-shipping replication and primary failover (DESIGN.md §12).

    The paper's virtualized-actor pitch (§4) is that a reactor deployment
    outlives any one container. This module provides the availability half
    of that story on top of the crash-consistency machinery: a {e replica}
    is an engine-free mirror of the reactor database — catalogs built
    straight from the declaration, exactly like recovery
    ([Faultsim.fresh_catalogs]) — kept current by replaying {e shipped}
    batches of the primary's durable WAL records through the same
    [Wal.replay] path recovery uses, secondary indexes and placements
    included.

    {2 The watermark invariant}

    A replica applies whole epochs or nothing. Its {e watermark} is the
    highest epoch [w] such that every committed-and-flushed entry with
    epoch ≤ [w] has been applied; batches always cover a contiguous epoch
    range starting at [w+1], so the watermark is also the replica's
    re-request cursor — a lost or refused batch simply leaves it unchanged
    and the next shipping round re-ships from the same point. Torn batches
    (detected exactly like a torn WAL tail) keep their readable prefix
    only up to the last {e provably complete} epoch.

    {2 Replica reads}

    A replica answers declared-read-only procedures at its watermark using
    the frozen-epoch visibility of DESIGN.md §10: reads resolve through
    record version chains at epoch = watermark, so a replica is never
    lag-{e inconsistent} — it serves a stale but transactionally
    consistent prefix, abort-free.

    {2 Failover}

    Promotion replays the replica's retained shipped log onto fresh
    catalogs — byte-for-byte the single-node recovery path — and diffs the
    result against the replica's live state ([Faultsim.diff] plus a full
    secondary-index audit) before the replica is allowed to take over
    under a bumped generation. The dead primary is fenced first
    ([Reactdb.Database.fence] or [Runtime.Db.fence]). *)

(** {1 Shipped batches} *)

module Batch : sig
  (** A decoded shipment. [b_from]..[b_to] is the contiguous epoch range
      the primary asserts complete; entries carry epochs within it
      (epochs with no commits ship no entries but still advance the
      range). *)
  type decoded = {
    b_gen : int;  (** primary generation that produced the batch *)
    b_from : int;  (** first epoch covered (receiver watermark + 1) *)
    b_to : int;  (** last epoch covered — the new watermark on success *)
    b_entries : Wal.entry list;
  }

  type decode_result =
    | Complete of decoded
    | Torn of { d : decoded; reason : string }
        (** header intact, payload damaged: [d.b_entries] is the readable
            prefix (every later entry is lost) *)
    | Garbage of string  (** header unreadable; nothing salvageable *)

  (** [encode ~gen ~from_epoch ~to_epoch entries] renders the wire form:
      one header line ["R|3|gen|from|to|count|crc32"] followed by the
      [Wal.encode_framed] v3 record of every entry, back to back; the CRC
      covers the whole payload. {!decode} also reads the v2 form
      (["R|2|…"] and one v2 line per entry). *)
  val encode :
    gen:int -> from_epoch:int -> to_epoch:int -> Wal.entry list -> string

  val decode : string -> decode_result

  (** Payload size in bytes (the v3 records) of a batch shipping exactly
      [entries] — the bytes-behind unit. *)
  val size : Wal.entry list -> int
end

(** {1 Replicas} *)

type t

(** What {!apply} did with a batch. *)
type apply_result =
  | Applied of { from_epoch : int; to_epoch : int; fresh : int }
      (** watermark advanced to [to_epoch]; [fresh] entries replayed
          (duplicates below the old watermark skipped) *)
  | Applied_torn of { upto : int; fresh : int; reason : string }
      (** torn batch: applied the readable prefix up to the last complete
          epoch [upto] (possibly the unchanged watermark) and discarded
          the rest — the next round re-ships from [upto] *)
  | Refused of string
      (** epoch gap, stale generation or garbage; state untouched *)

(** [create ~id decl] builds an empty replica: fresh catalogs with
    declared secondary indexes and loaders applied, watermark 0,
    generation [gen] (default 0). *)
val create : ?gen:int -> id:int -> Reactor.decl -> t

val id : t -> int

(** Last complete epoch applied; also the snapshot epoch replica reads
    run at and the re-request cursor. *)
val watermark : t -> int

(** Primary generation this replica last accepted a batch from. *)
val generation : t -> int

(** Placement assignment folded from shipped [Wal.Migrate] records (last
    move per reactor wins); reactors that never migrated are absent. *)
val placements : t -> (string * int) list

(** Retained shipped entries in application order — the log a promotion
    replays. *)
val log : t -> Wal.entry list

val catalogs : t -> (string * Storage.Catalog.t) list

(** Counters: batches applied (incl. torn prefixes), batches refused,
    torn batches seen, payload bytes applied, read-only transactions
    served. *)
val n_batches : t -> int

val n_refused : t -> int
val n_torn : t -> int
val bytes_applied : t -> int
val ro_served : t -> int

(** [apply t s] decodes and applies one shipment. Invariants enforced:
    stale generations are refused (fencing — a deposed primary cannot
    roll the replica back), epoch gaps are refused (a batch must start at
    watermark + 1 or earlier), entries at or below the watermark are
    skipped (idempotent re-delivery), and torn payloads keep only epochs
    strictly before the highest epoch seen in the readable prefix. *)
val apply : t -> string -> apply_result

(** [exec_ro t ~reactor ~proc ~args] serves a declared-read-only
    procedure at the replica's watermark epoch: version-chain reads, no
    locks, no validation — abort-free by construction. Cross-reactor
    [call]/[collect] resolve synchronously against the replica's own
    catalogs at the same frozen epoch. [Error _] if the procedure is not
    declared read-only, attempts a mutation, or aborts. *)
val exec_ro :
  t ->
  reactor:string ->
  proc:string ->
  args:Util.Value.t list ->
  (Util.Value.t, string) result

(** {1 Promotion} *)

type promotion = {
  pm_replica : int;
  pm_gen : int;  (** generation the promoted replica now serves under *)
  pm_epoch : int;  (** watermark at promotion — the preserved prefix *)
  pm_entries : int;  (** retained log entries replayed by the oracle *)
  pm_note : string;
}

(** [promote t] runs the recovery-equivalence oracle before promotion:
    the retained shipped log is replayed onto fresh catalogs (the
    single-node recovery path) and the result must be
    [Faultsim.diff]-identical to the replica's live state — placements
    included — and pass the full secondary-index audit. On success the
    replica's generation becomes [gen] (default: current + 1) and it may
    serve writes; the old primary must already be fenced. [Error _]
    means the replica diverged from its own log and must not be
    promoted. *)
val promote : ?gen:int -> t -> (promotion, string) result

(** Replica with the highest watermark (leftmost on ties); [None] on the
    empty list. *)
val freshest : t list -> t option

(** {1 The shipper}

    Drives shipping rounds from one primary log to a set of replicas.
    The source is an in-memory log and a bound, so the same shipper serves
    the simulator ([Reactdb.Database] + in-memory WAL, virtual time) and
    the runtime ([Runtime.Db] + its WAL, wall clock). Chaos composes
    here: [Chaos.Drop_shipment] loses a batch in flight (the replica's
    unchanged watermark re-requests it next round) and
    [Chaos.Delay_shipment] holds a batch one round (stretching lag
    without losing data). *)

module Shipper : sig
  type shipper

  (** [create ~log ~durable_epoch ~gen replicas] wires a shipper to the
      primary's in-memory [log], read through a cursor: each round reads
      only the entries appended since the last, while other domains may
      append, and keeps those some replica may still need. Only entries
      with epoch ≤ [durable_epoch ()] are ever shipped — the
      zero-lost-committed bound: an acked commit is durable, and every
      durable epoch is shipped; [gen] is the primary's current
      generation stamp. *)
  val create :
    ?chaos:Chaos.t ->
    log:Wal.t ->
    durable_epoch:(unit -> int) ->
    gen:(unit -> int) ->
    t list ->
    shipper

  (** One shipping round: per replica, deliver any batch delayed from
      the previous round, then ship the suffix (watermark, durable] as
      one batch — subject to the chaos probes. *)
  val round : shipper -> unit

  (** Final hand-off during failover: ship every replica the remaining
      durable suffix with chaos disabled — this models the recovery
      orchestrator reading the dead primary's surviving durable log
      directly rather than a live network shipment. Pending delayed
      batches are delivered first. *)
  val final_ship : shipper -> unit

  val rounds : shipper -> int

  (** Batches dropped ([Drop_shipment]) and delayed ([Delay_shipment])
      so far, across all replicas. *)
  val dropped : shipper -> int

  val delayed : shipper -> int

  (** Per-replica lag right now: (replica id, epochs behind, bytes
      behind), measured against [durable_epoch ()]. *)
  val lag : shipper -> (int * int * int) list

  (** Publish per-replica lag rows into a collector
      ([Obs.Collector.set_repl]) — call at quiescence. *)
  val publish_obs : shipper -> Obs.Collector.t -> unit
end
