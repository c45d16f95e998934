(** Minimal binary min-heap keyed by [(time, sequence)].

    The event queue of the discrete-event engine: ties in virtual time are
    broken by insertion sequence, which makes simulations fully
    deterministic. Entries are stored as parallel arrays (unboxed times,
    sequences, payloads), so [push] and [pop] allocate nothing except when
    the heap grows. Times must not be NaN. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int
val push : 'a t -> time:float -> seq:int -> 'a -> unit

(** Time of the smallest [(time, seq)] entry. Raises [Invalid_argument]
    when empty. *)
val min_time : 'a t -> float

(** Remove the smallest [(time, seq)] entry and return its payload. Raises
    [Invalid_argument] when empty. *)
val pop : 'a t -> 'a
