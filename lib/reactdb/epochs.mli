(** A multiset of epochs: how many holders are registered at each epoch.

    Both backends keep several of these — live snapshot readers per
    snapshot epoch (the GC horizon is their minimum), and the commits past
    their decision whose installs or redo records are still in flight
    (the snapshot and group-commit boundaries sit below their minimum). Not synchronized: callers hold their own lock. *)

type t

val create : unit -> t

(** Register one holder at an epoch. *)
val add : t -> int -> unit

(** Drop one holder; a no-op when none is registered at that epoch. *)
val remove : t -> int -> unit

(** [minimum t ~default] is the smallest registered epoch, or [default]
    when it is smaller (or nothing is registered). *)
val minimum : t -> default:int -> int
