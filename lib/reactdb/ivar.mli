(** Thread-safe write-once cell: the future of a cross-reactor call, a
    group-commit batch, a client's outcome. One [Atomic.t] word; an ivar
    allocates no mutex or condition variable. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Publish the value, then run the registered wakers on this thread in
    registration order. Raises [Invalid_argument] on a second fill. *)

val peek : 'a t -> 'a option

val waited : 'a t -> bool
(** Whether a waker was registered, or the cell is full. *)

val on_fill : 'a t -> ('a -> unit) -> unit
(** Register a waker, or run it at once on this thread when already
    full. *)

val read_block : 'a t -> 'a
(** Block the calling thread until filled. For client and admin threads:
    a fiber must suspend through {!on_fill} instead, or its domain stops
    draining its mailbox. *)
