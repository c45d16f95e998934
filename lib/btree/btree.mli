(** In-memory B+tree with leaf-version witnesses.

    This is the ordered index underlying every ReactDB table. It follows the
    design Silo builds on: data lives only in leaves, leaves are doubly
    linked for forward and reverse range scans, and every leaf carries a
    {e version} counter that is bumped on any structural change (key insert,
    key delete, split). Readers can take a {!witness} of each leaf they
    touched; optimistic concurrency control re-validates witnesses at commit
    time to detect phantoms (a key appearing or disappearing in a scanned
    range necessarily bumps a witnessed leaf's version).

    The tree is not internally synchronized: ReactDB containers serialize
    structural access per container, and OCC provides transactional
    isolation on top. Deletion is by unlink-without-rebalance, the usual
    choice for in-memory OLTP trees: leaves may underflow, but a delete that
    empties a non-root leaf bumps its version (so its witnesses fail),
    unlinks it from the leaf chain and from its parent, and collapses a
    parent left with one child into that child. A scan from a range's start
    therefore never walks leaves that deletes emptied. *)

(** Keys of a tree: a total order plus a {e normalized key word}, one
    unboxed [int] summary of a key that each node stores beside it. Searches
    compare words and call [compare] only on a tie between inexact words,
    so a key whose word is exact is never dereferenced on a hit. This is the
    idea of Masstree's fixed 8-byte key slices (Mao, Kohler and Morris,
    EuroSys 2012). *)
module type ORDERED = sig
  type t

  val compare : t -> t -> int

  (** [norm k] is [k]'s normalized word. Contract:
      - monotone: [compare a b <= 0] implies [norm a <= norm b] (so equal
        keys have equal words and a smaller word means a smaller key);
      - a clear low bit means the word is exact: [norm a = norm b] with
        [norm a land 1 = 0] implies [compare a b = 0].

      A word with its low bit set says nothing beyond monotonicity; the
      constant [fun _ -> 1] is a valid (if useless) [norm]. *)
  val norm : t -> int
end

module Make (K : ORDERED) : sig
  type 'v t

  (** Witness of one leaf's version at read time. *)
  type witness

  val create : unit -> 'v t

  (** Number of live keys. *)
  val size : 'v t -> int

  (** [find t k] is the value bound to [k], if any. On a miss, [on_node],
      when given, receives a witness of the leaf that would hold [k]: it
      validates a negative lookup against a phantom insert. A hit reports
      no witness (Silo's rule): the caller validates the value it found by
      that value's own version word, and inserts of other keys into the
      same leaf do not concern it. *)
  val find : ?on_node:(witness -> unit) -> 'v t -> K.t -> 'v option

  val mem : 'v t -> K.t -> bool

  (** [insert t k v] binds [k] to [v] and returns the previous binding. *)
  val insert : 'v t -> K.t -> 'v -> 'v option

  (** [delete t k] removes [k] and returns its binding. A non-root leaf it
      empties leaves the tree, its version bumped. *)
  val delete : 'v t -> K.t -> 'v option

  (** [range t ?lo ?hi ~f] visits bindings with [lo <= k <= hi] in ascending
      order ([lo]/[hi] default to the extremes); [f] returns [false] to stop
      early. Every visited leaf is reported to [on_node]. *)
  val range :
    ?on_node:(witness -> unit) ->
    ?lo:K.t ->
    ?hi:K.t ->
    'v t ->
    f:(K.t -> 'v -> bool) ->
    unit

  (** Like {!range} but descending. *)
  val range_rev :
    ?on_node:(witness -> unit) ->
    ?lo:K.t ->
    ?hi:K.t ->
    'v t ->
    f:(K.t -> 'v -> bool) ->
    unit

  val iter : 'v t -> f:(K.t -> 'v -> unit) -> unit
  val fold : 'v t -> init:'a -> f:('a -> K.t -> 'v -> 'a) -> 'a
  val min_binding : 'v t -> (K.t * 'v) option
  val max_binding : 'v t -> (K.t * 'v) option
  val to_list : 'v t -> (K.t * 'v) list
  val clear : 'v t -> unit

  (** [witness_valid w] is [true] iff the witnessed leaf's version is
      unchanged since the witness was taken. *)
  val witness_valid : witness -> bool

  (** Internal consistency check for tests: key ordering, leaf-link
      integrity, separator invariants; every stored word equals [K.norm] of
      its key, and words do not decrease along the leaf chain or across
      separators; no leaf but the root is empty, and the leaf chain links
      exactly the tree's leaves. Raises [Failure] when violated. *)
  val check_invariants : 'v t -> unit
end
