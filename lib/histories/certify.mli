(** Serializability certification of actual ReactDB executions.

    Both backends record a history ([enable_history] in
    [Reactdb.Bootstrap.ADMIN]): for each committed transaction, its
    install TID, its reads as (record, observed-TID) pairs, and the
    records it wrote with the columns each write changed. Read-only
    snapshot roots record nothing on either backend. Because Silo TIDs
    totally order the versions of each record, the log determines a
    multiversion serialization graph:

    - ww: writers of a record ordered by their install TIDs;
    - wr: the writer that installed TID [t] precedes every reader that
      observed [t];
    - rw: a reader that observed TID [t] precedes the writer that installed
      the next TID of that record.

    A {e projected} read, which used only the columns of its mask, is
    ordered at (record, column) granularity: its wr edge comes from the
    last write at or before its observed TID whose changed columns meet
    the mask, and its rw edges go to every later write whose changed
    columns meet the mask. Writes that changed only other columns are not
    ordered against it. Whole-row reads and ww edges stay per record.

    The committed execution is conflict-serializable iff this graph is
    acyclic — the integration tests run adversarial workloads on both
    backends under every deployment and certify each run. *)

type entry = {
  c_txn : int;  (** transaction id *)
  c_tid : int;  (** Silo TID the commit installed *)
  c_reads : (int * int) list;  (** whole-row reads: (record id, observed TID) *)
  c_col_reads : (int * int * int) list;
      (** projected reads: (record id, observed TID, column mask) *)
  c_writes : (int * int) list;
      (** (record id, mask of the columns the write changed); an insert or a
          delete changes every column ([-1]) *)
}

(** [check entries] is [Ok order] with a witness serial order of transaction
    ids, or [Error msg] describing the violation (cycle found, or a read of
    a TID no committed transaction installed and that is not the initial
    load version 0). *)
val check : entry list -> (int list, string) result
