(** Correctness audits shared by the gated benches, the tests, the CLI and
    the examples. Each returns [Ok] or an error string; the benches put
    that string in a row's ["audit"] field and the gate's AUDIT FAILURE
    line. Chain them with [>>=]. *)

val ( >>= ) :
  (unit, 'e) result -> (unit -> (unit, 'e) result) -> (unit, 'e) result

(** The runtime raised nothing that is not an abort. *)
val fatal : Runtime.Db.t -> (unit, string) result

(** Smallbank's conserving mix: the total money over the [n] customers'
    catalogs is exactly {!Workloads.Smallbank.loaded_money}. *)
val money : n:int -> (string * Storage.Catalog.t) list -> (unit, string) result

(** Every YCSB key reactor keeps exactly its one loaded row. *)
val ycsb_rows : (string * Storage.Catalog.t) list -> (unit, string) result

(** [committed + aborted = logical + retries]: every attempt counted
    once. *)
val accounting :
  committed:int -> aborted:int -> logical:int -> retries:int ->
  (unit, string) result

(** {!Faultsim.check_secondaries}: every live row is reachable through
    each secondary index, and no index holds extra or stale entries. *)
val secondaries : (string * Storage.Catalog.t) list -> (unit, string) result

(** TPC-C's consistency conditions over each warehouse's catalog, checked
    physically on live rows (after a run, or after quiescence on the
    runtime): (1) a district's [next_o_id - 1] is its largest order id,
    and the warehouse's [ytd] grew since load by the sum of its
    districts' [ytd] growth (within a relative 1e-6, since payment amounts
    are floats summed in different orders); (2) every new-order row belongs to an undelivered order (carrier 0);
    (3) per district, the new-order ids form one contiguous range — a
    delivery takes the oldest, a new order appends the next; (4) every
    order has exactly [ol_cnt] order lines. *)
val tpcc : (string * Storage.Catalog.t) list -> (unit, string) result

(** Conflict-serializability of a recorded history (paper Theorem 2.7),
    the [history] of either backend after its [enable_history]
    ({!Reactdb.Bootstrap.ADMIN}): [Ok n] when the [n] committed
    transactions certify, otherwise the {!Histories.Certify.check}
    violation. Read-only snapshot roots record nothing on either backend,
    so they are not certified. *)
val certify : Histories.Certify.entry list -> (int, string) result
