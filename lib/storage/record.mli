(** Physical records with Silo-style TID words.

    A record is the unit of concurrency control: it carries the version
    ([tid]) observed by optimistic readers, a no-wait lock owner field used
    during commit, and an [absent] flag used both for not-yet-committed
    inserts (visible only to the inserting transaction) and for logical
    deletes (readers observing a bumped TID on an absent record fail
    validation).

    Lock order across records is defined by the globally unique [rid],
    preventing deadlock among committers that lock their write sets in
    sorted order. *)

(** A superseded version, kept on the record's history chain for snapshot
    readers. Chains are newest-first with strictly decreasing commit
    epochs; [v_next] is mutable only so garbage collection can cut the
    tail in place. *)
type version = {
  v_tid : int;
  v_data : Util.Value.t array;
  v_absent : bool;
  mutable v_next : version option;
}

type t = {
  rid : int;
  mutable data : Util.Value.t array;
  mutable tid : int;
  mutable lock : int;
      (* 0 when free, -1 once reclaimed, otherwise the owning transaction
         id *)
  mutable absent : bool;
  mutable hist : version option;
      (** superseded versions, newest first (empty unless the commit path
          runs with snapshots enabled) *)
}

(** [fresh ~absent data] allocates a record with a new [rid] and TID 0. *)
val fresh : absent:bool -> Util.Value.t array -> t

(** TID packing: high bits epoch, low 32 bits sequence number. *)

val tid_make : epoch:int -> seq:int -> int

val tid_epoch : int -> int
val tid_seq : int -> int

(** [next_tid ~epoch observed] is a TID strictly greater than every TID in
    [observed] and belonging to at least [epoch] (Silo's TID assignment
    rule). *)
val next_tid : epoch:int -> int list -> int

val is_locked : t -> bool
val locked_by : t -> int option

(** [try_lock r ~txn] acquires the no-wait lock; [true] on success or if
    already held by [txn]. *)
val try_lock : t -> txn:int -> bool

(** [unlock r ~txn] releases the lock if held by [txn]; no-op otherwise. *)
val unlock : t -> txn:int -> unit

(** [snapshot_read r ~snapshot] is the row visible at snapshot epoch
    [snapshot]: the newest version (the record itself or a chain entry)
    whose committing epoch is [<= snapshot]; [None] if that version is
    absent or if the key did not exist at the snapshot. Sound only for
    snapshot epochs strictly below every in-flight commit epoch, which is
    what the backends' snapshot acquisition guarantees. *)
val snapshot_read : t -> snapshot:int -> Util.Value.t array option

(** [retire r ~new_tid] pushes the record's current version onto the chain
    if [new_tid] belongs to a later epoch (a same-epoch successor shadows
    it — no snapshot can sit between two commits of one epoch). Call just
    before installing the new version, then {!trim} once it is in place. *)
val retire : t -> new_tid:int -> unit

(** [graft r ~from] splices the superseded record [from] (a displaced
    delete tombstone whose key [r] re-inserts) into [r]'s history chain. *)
val graft : t -> from:t -> unit

(** [trim r ~horizon] reclaims every version strictly older than the
    newest version with epoch [<= horizon] — unreachable once every live
    and future snapshot is at an epoch [>= horizon]. *)
val trim : t -> horizon:int -> unit

(** Number of superseded versions currently chained (GC observability). *)
val chain_length : t -> int

(** [reclaim r] marks a delete tombstone that its table has just unlinked
    for good: the chain is dropped and the lock is taken under an owner no
    transaction has. Every later validation of a read of [r] then fails
    (the reader saw the key dead, and the key may since have been
    re-inserted under a fresh record), and no writer can lock [r]. *)
val reclaim : t -> unit

(** [r] was unlinked by {!reclaim}. *)
val is_reclaimed : t -> bool
