(** Transaction contexts for Silo-style optimistic concurrency control.

    A context accumulates, per root transaction (§2.2.3), one {e slice} per
    container the root touches. A slice holds that container's

    - {e read set} of (record, observed TID) pairs,
    - {e projected reads}: (record, observed TID, column mask) of reads
      that declared the columns they use,
    - {e write set} of buffered updates, deletes and inserts,
    - {e node set} of B+tree leaf witnesses for phantom validation,

    and the lookup tables over them. The commit protocol ({!Commit})
    validates and installs per container — locally for single-container
    transactions and via two-phase commit otherwise.

    {b Invariant.} A record is only ever read or written under its own
    container: every operation taking [~container] touches that
    container's slice and nothing else. Sub-transactions of one root on
    different containers therefore run in parallel without sharing any
    mutable state, while the frames of one container must not overlap
    (the runtime gives each root and container its own lock). Functions
    without [~container] ({!containers}, {!all_writes}, the counts) read
    every slice and need the context quiescent: after every
    sub-transaction completed.

    Inserts are buffered: the new record is created immediately but only
    placed into the index (absent-marked and locked, i.e. "reserved") during
    the prepare phase, and made visible during install. Execution-time reads
    observe the transaction's own buffered writes; merged visibility for
    scans is provided by the query layer. *)

exception Abort of string
(** Raised to abort the enclosing root transaction for deterministic
    reasons: user-defined aborts (e.g. business-rule failures) and
    programming errors such as inserting a key the transaction already
    inserted. *)

exception Conflict of string
(** Raised to abort the enclosing root transaction on a concurrency
    conflict detected during execution — e.g. a duplicate-key race where a
    competing inserter won the key. The runtime classifies these with
    validation failures, not user aborts. *)

type write_kind =
  | Update of Util.Value.t array
  | Insert
  | Delete

type write_entry = {
  wrec : Storage.Record.t;
  mutable kind : write_kind;
  wtable : Storage.Table.t;
  wkey : Storage.Table.Key.t;
  mutable wlive : bool;
      (** cleared when a delete cancels this transaction's own insert *)
  mutable wdisplaced : Storage.Record.t option;
      (** Insert entries only: a committed-delete tombstone this insert
          displaced from the index during prepare (snapshot mode), reinstated
          on rollback and grafted into the new record's version chain at
          install *)
}

(** A projected read ({!read_cols}): the columns [cmask] (a
    {!Storage.Table.col_bit} mask) of [crec], a record of [ctable], read at
    TID [cseen]. *)
type col_read = private {
  crec : Storage.Record.t;
  cseen : int;
  cmask : int;
  ctable : Storage.Table.t;
}

type t

(** A context for a deployment of [containers] containers, numbered from
    0. The data operations below raise [Invalid_argument] on a container
    outside that range; lookups and iterators find nothing there. *)
val create : id:int -> containers:int -> t

val id : t -> int

(** Containers touched by any read, write or scan, ascending. *)
val containers : t -> int list

(** {1 Data operations} *)

(** [read t ~container record] is the tuple visible to [t] in [record]:
    buffered writes win; otherwise the committed version is returned ([None]
    if logically absent) and the observation is recorded for validation. *)
val read : t -> container:int -> Storage.Record.t -> Util.Value.t array option

(** [read_cols t ~container ~table ~cols record] is {!read} for a caller
    that uses only the columns of the mask [cols] of the tuple it returns.
    The observation is recorded as a projected read, which validation
    passes while no committed install has changed one of those columns in
    [table] ({!Storage.Table.t.changed}), even if [record]'s TID moved.
    A record that is logically absent is recorded as a whole-row read, and
    a record this slice has read whole is not recorded again. *)
val read_cols :
  t ->
  container:int ->
  table:Storage.Table.t ->
  cols:int ->
  Storage.Record.t ->
  Util.Value.t array option

(** [write t ~container ~table ~key record data] buffers an update of
    [record] to [data]. *)
val write :
  t ->
  container:int ->
  table:Storage.Table.t ->
  key:Storage.Table.Key.t ->
  Storage.Record.t ->
  Util.Value.t array ->
  unit

(** [insert t ~container ~table tuple] buffers insertion of a fresh record.
    Raises [Abort] on a primary-key conflict with a committed record or
    another transaction's reservation; checks are re-validated at commit via
    the node set. *)
val insert :
  t -> container:int -> table:Storage.Table.t -> Util.Value.t array -> unit

(** [delete t ~container ~table ~key record] buffers deletion. Deleting a
    record inserted by [t] itself simply drops the buffered insert. *)
val delete :
  t ->
  container:int ->
  table:Storage.Table.t ->
  key:Storage.Table.Key.t ->
  Storage.Record.t ->
  unit

(** Record a B+tree leaf witness produced during a scan or a point lookup
    that missed (a found record is validated through the read set). *)
val note_node : t -> container:int -> Storage.Table.witness -> unit

(** {1 Own-write visibility helpers (used by the query layer)}

    Each looks in [container]'s slice only, where the record or table
    lives (the invariant above). *)

(** Buffered write covering [record], if any. *)
val own_write : t -> container:int -> Storage.Record.t -> write_entry option

(** Buffered insert into [table] under [key], if any. *)
val own_insert :
  t -> container:int -> table:Storage.Table.t -> key:Storage.Table.Key.t ->
  write_entry option

(** All buffered inserts into [table] (unordered). *)
val own_inserts_for :
  t -> container:int -> table:Storage.Table.t ->
  (Storage.Table.Key.t * Util.Value.t array) list

(** All buffered updates of [table] as (primary key, new tuple), unordered —
    used by the query layer to relocate rows in secondary-index scans whose
    indexed columns were updated in this transaction. *)
val own_updates_for :
  t -> container:int -> table:Storage.Table.t ->
  (Storage.Table.Key.t * Util.Value.t array) list

(** {1 Per-container iteration (the commit protocol's hot path)}

    Entries land in their container's slice at insertion time, so each of
    these visits exactly that slice — no whole-set folds or filters.
    Iteration is in insertion order and allocation-free. *)

val iter_reads_in :
  t -> container:int -> f:(Storage.Record.t -> int -> unit) -> unit

(** Whether [container]'s slice holds a projected read, O(1). *)
val has_col_reads : t -> container:int -> bool

val iter_col_reads_in : t -> container:int -> f:(col_read -> unit) -> unit

(** Live write entries only (cancelled own-inserts are skipped). *)
val iter_writes_in : t -> container:int -> f:(write_entry -> unit) -> unit

val iter_nodes_in :
  t -> container:int -> f:(Storage.Table.witness -> unit) -> unit

(** Number of reads (whole-row and projected) plus live writes in
    [container], O(1). *)
val ops_in : t -> container:int -> int

(** Live write entries of every container, ascending container id then
    insertion order (deterministic). *)
val iter_all_writes : t -> f:(write_entry -> unit) -> unit

(** [reads_covered t ~container] holds when [container]'s slice has no node
    witness and every record it read, whole or projected, has a live update
    or delete in the same slice. Such a slice's reads are guarded by its own
    write locks: once [Commit.prepare] has locked and validated them, no
    other transaction can change them before this one installs or
    releases. The 2PC coordinator relies on it to prepare its own container last
    (DESIGN.md §5.2). A slice that does not exist is covered. *)
val reads_covered : t -> container:int -> bool

(** {1 List views (tests, history recording)} *)

val reads_in : t -> container:int -> (Storage.Record.t * int) list
val col_reads_in : t -> container:int -> col_read list
val writes_in : t -> container:int -> write_entry list
val nodes_in : t -> container:int -> Storage.Table.witness list
val all_writes : t -> write_entry list

(** Whole-row and projected reads. *)
val read_count : t -> int

val write_count : t -> int
