(** Transactional query execution over one reactor's state.

    Every operation runs in the context of a (sub-)transaction: reads are
    tracked in the OCC read set, scans additionally record B+tree leaf
    witnesses, and writes are buffered in the write set. Visibility follows
    the reactor model's expectations: a transaction observes its own buffered
    updates, deletes and inserts (merged into scans in key order) layered
    over the committed state.

    The [charge] callback reports work units to the runtime, which converts
    them into simulated processing time; it fires {e after} the operation's
    logical effect, keeping each operation atomic in virtual time. *)

type charge_kind = [ `Read | `Write | `Scan_step ]

type ctx = {
  txn : Occ.Txn.t;
  container : int;
  catalog : Storage.Catalog.t;
  charge : charge_kind -> int -> unit;
  work : float -> unit;
      (** charge [µs] of pure computation (e.g. risk simulation) to the
          executing core *)
  snapshot : int option;
      (** When set, this context executes a read-only procedure against the
          frozen snapshot epoch: reads resolve through record version chains
          ({!Storage.Record.snapshot_read}) with no read-set tracking, no
          node witnesses and no own-write overlay, and every mutating
          operation raises [Occ.Txn.Abort]. *)
}

val make_ctx :
  ?snapshot:int ->
  txn:Occ.Txn.t ->
  container:int ->
  catalog:Storage.Catalog.t ->
  charge:(charge_kind -> int -> unit) ->
  work:(float -> unit) ->
  unit ->
  ctx

(** Resolve a table; raises [Invalid_argument] with the table name when
    missing (a programming error in the stored procedure). *)
val table : ctx -> string -> Storage.Table.t

val schema : ctx -> string -> Storage.Schema.t

(** {1 Point operations} *)

(** [get ctx tname key] is the visible tuple under [key].

    [get ~cols ctx tname key] is a {e projected read}, SQL's
    [SELECT cols ... WHERE key = ...]: it returns only the named columns,
    in the order named, and records the read for validation as a read of
    those columns only ({!Occ.Txn.read_cols}). Such a read stays valid
    while committed installs change only other columns of the table, so a
    read that is held across round trips does not lose to writers of
    columns it never uses. A key that names no live row is recorded as a
    whole-row read. It charges exactly what [get] charges. Raises
    [Invalid_argument] on an unknown column. *)
val get :
  ?cols:string list -> ctx -> string -> Storage.Table.Key.t ->
  Util.Value.t array option

(** [insert ctx tname tuple] buffers an insert; raises [Occ.Txn.Abort] on
    duplicate key. *)
val insert : ctx -> string -> Util.Value.t array -> unit

(** [update_key ctx tname key ~set] rewrites the tuple under [key] with
    [set]; [false] if the key is not visible. Raises [Occ.Txn.Abort] if
    [set] changes primary-key columns. *)
val update_key :
  ctx -> string -> Storage.Table.Key.t ->
  set:(Util.Value.t array -> Util.Value.t array) -> bool

(** [delete_key ctx tname key] buffers deletion; [false] if not visible. *)
val delete_key : ctx -> string -> Storage.Table.Key.t -> bool

(** {1 Scans}

    Bounds: [prefix] expands to the bounds covering all keys extending it and
    must not be combined with [lo]/[hi]. [where] filters on the visible
    tuple. [rev] scans descending. [limit] caps the returned rows (applied
    after filtering). *)

val scan :
  ctx -> string ->
  ?prefix:Storage.Table.Key.t ->
  ?lo:Storage.Table.Key.t ->
  ?hi:Storage.Table.Key.t ->
  ?where:Expr.t ->
  ?limit:int ->
  ?rev:bool ->
  unit ->
  Util.Value.t array list

(** Scan via a secondary index: rows return in index-key order (indexed
    columns, then primary key); [prefix]/[lo]/[hi] bound the {e secondary}
    key. Own buffered inserts are merged; witnesses are taken on the
    secondary index's leaves for phantom validation. *)
val scan_index :
  ctx -> string ->
  index:string ->
  ?prefix:Storage.Table.Key.t ->
  ?lo:Storage.Table.Key.t ->
  ?hi:Storage.Table.Key.t ->
  ?where:Expr.t ->
  ?limit:int ->
  ?rev:bool ->
  unit ->
  Util.Value.t array list

(** First row of [scan] (respecting [rev]), if any. *)
val first :
  ctx -> string ->
  ?prefix:Storage.Table.Key.t ->
  ?lo:Storage.Table.Key.t ->
  ?hi:Storage.Table.Key.t ->
  ?where:Expr.t ->
  ?rev:bool ->
  unit ->
  Util.Value.t array option

(** {1 Bulk updates and deletes} *)

(** Rewrite every matching row; returns the number updated. *)
val update :
  ctx -> string ->
  ?prefix:Storage.Table.Key.t ->
  ?lo:Storage.Table.Key.t ->
  ?hi:Storage.Table.Key.t ->
  ?where:Expr.t ->
  set:(Util.Value.t array -> Util.Value.t array) ->
  unit ->
  int

(** Delete every matching row; returns the number deleted. *)
val delete :
  ctx -> string ->
  ?prefix:Storage.Table.Key.t ->
  ?lo:Storage.Table.Key.t ->
  ?hi:Storage.Table.Key.t ->
  ?where:Expr.t ->
  unit ->
  int

(** {1 Aggregates} *)

(** [sum ctx tname col ...] sums a numeric column over matching rows
    (widening to float; [Null]s contribute 0). *)
val sum :
  ctx -> string -> string ->
  ?prefix:Storage.Table.Key.t ->
  ?lo:Storage.Table.Key.t ->
  ?hi:Storage.Table.Key.t ->
  ?where:Expr.t ->
  unit ->
  float

val count :
  ctx -> string ->
  ?prefix:Storage.Table.Key.t ->
  ?lo:Storage.Table.Key.t ->
  ?hi:Storage.Table.Key.t ->
  ?where:Expr.t ->
  unit ->
  int

(** Distinct values of a column over matching rows. *)
val distinct :
  ctx -> string -> string ->
  ?prefix:Storage.Table.Key.t ->
  ?lo:Storage.Table.Key.t ->
  ?hi:Storage.Table.Key.t ->
  ?where:Expr.t ->
  unit ->
  Util.Value.t list

(** Column accessor helpers for stored-procedure code. *)
val colv : ctx -> string -> string -> Util.Value.t array -> Util.Value.t
val seti : Util.Value.t array -> int -> Util.Value.t -> Util.Value.t array
