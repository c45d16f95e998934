(** The Silo validation/commit protocol, containerized.

    Each function operates on one container's slice of a transaction and must
    be executed atomically with respect to that container (ReactDB arranges
    this: a container's commit step runs as one uninterrupted event on one of
    its executors).

    Single-container transactions call {!commit_single}. Multi-container
    transactions follow two-phase commit, exactly as §3.2.2 prescribes:
    {!prepare} on every touched container (phase one — Silo validation with
    write-set locks acquired and held), then {!install} everywhere with the
    TID from {!compute_tid} on success, or {!release} everywhere on failure.

    Prepare order within a container: (1) lock updates/deletes in global
    record order (no-wait), (2) validate the read set (observed TID unchanged
    and record not locked by another transaction; a projected read
    ({!Txn.read_cols}) may instead find its TID moved if its column mask is
    disjoint from its table's {!Storage.Table.t.changed}), (3) validate the
    node set
    (leaf versions unchanged — phantom freedom), (4) reserve buffered inserts
    in the index as absent, locked records. Reservation comes last so the
    transaction's own structural changes cannot invalidate its own
    witnesses.

    Silo validates a read only once the whole write set is locked, but
    {!prepare} locks and validates one container. The order in which a 2PC
    coordinator prepares its participants therefore matters: a participant
    whose reads are all covered by its own locks ({!Txn.reads_covered}) may
    validate early, since nothing can change those reads before it
    installs; the participant that validates last must do so after every
    other one has locked (DESIGN.md §5.2). *)

(** Why phase one failed, in the order the checks run. The taxonomy feeds
    the observability layer's abort causes ([Obs.Abort]) and the retry
    policies in the load harnesses — every one of these is transient. *)
type fail_reason =
  | Lock_busy  (** no-wait write-lock acquisition lost to a concurrent committer *)
  | Stale_read
      (** a read's TID changed (for a projected read: and an install has
          changed one of its columns), or its record is locked by another
          txn *)
  | Node_changed  (** a node witness (phantom protection) changed version *)
  | Key_exists  (** an insert's reservation found a committed duplicate *)

(** Human-readable rendering, e.g. ["write lock busy"]. *)
val fail_message : fail_reason -> string

(** [prepare txn ~container] runs phase one on [container]. On failure all
    locks and reservations taken in this container are rolled back and the
    first failing check is reported; other containers are untouched. The
    success path allocates nothing beyond the sorted lock slice. *)
val prepare : Txn.t -> container:int -> (unit, fail_reason) result

(** TID for this commit: greater than every observed and overwritten TID,
    in at least [epoch] (Silo's assignment rule). *)
val compute_tid : Txn.t -> epoch:int -> int

(** Phase two, success: make writes visible in [container] at [tid] and drop
    all locks. Before an update publishes its TID it ORs the columns it
    changes ({!Storage.Table.changed_cols}) into its table's
    {!Storage.Table.t.changed}; a delete ORs every column.

    With [?horizon] the install also publishes multi-version state for
    snapshot readers: each overwritten version retires into its record's
    history chain, deletes retain the record as a snapshot-visible tombstone
    in the primary index (secondary entries dropped) and {!Storage.Table.bury}
    it, and chains are trimmed to [horizon] — the oldest epoch any live or
    future snapshot can request — as inline garbage collection. Each insert
    or delete also {!Storage.Table.reclaim}s its table's tombstones deleted
    at or before [horizon]; a transaction that read a reclaimed tombstone
    fails validation with [Stale_read]. Without [horizon], the original
    single-version install runs and no chains are built. *)
val install : ?horizon:int -> Txn.t -> container:int -> tid:int -> unit

(** Phase two, failure (or local validation failure): undo reservations and
    drop locks in [container]. Idempotent, also safe if [prepare] was never
    run on [container]. *)
val release : Txn.t -> container:int -> unit

(** Validate and commit a transaction that touched only [container].
    [Error reason] means the transaction was aborted and rolled back.
    [?horizon] is forwarded to {!install}. *)
val commit_single :
  ?horizon:int -> Txn.t -> epoch:int -> container:int -> (int, fail_reason) result
