(** Serializability certification of actual ReactDB executions.

    Both backends record a history ([enable_history] in
    [Reactdb.Bootstrap.ADMIN]): for each committed transaction, its
    install TID and its read set as (record, observed-TID) pairs.
    Read-only snapshot roots record nothing on either backend. Because
    Silo TIDs totally order the versions of each record, the log
    determines a multiversion serialization graph:

    - ww: writers of a record ordered by their install TIDs;
    - wr: the writer that installed TID [t] precedes every reader that
      observed [t];
    - rw: a reader that observed TID [t] precedes the writer that installed
      the next TID of that record.

    The committed execution is conflict-serializable iff this graph is
    acyclic — the integration tests run adversarial workloads on both
    backends under every deployment and certify each run. *)

type entry = {
  c_txn : int;  (** transaction id *)
  c_tid : int;  (** Silo TID the commit installed *)
  c_reads : (int * int) list;  (** (record id, observed TID) *)
  c_writes : int list;  (** record ids written *)
}

(** [check entries] is [Ok order] with a witness serial order of transaction
    ids, or [Error msg] describing the violation (cycle found, or a read of
    a TID no committed transaction installed and that is not the initial
    load version 0). *)
val check : entry list -> (int list, string) result
