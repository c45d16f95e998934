(** Tables: a schema plus a primary-key B+tree over {!Record.t}.

    Table operations are {e physical}: they manipulate the index and records
    directly and perform no concurrency control. Transactional reads and
    writes go through [Occ.Txn], which layers read/write-set tracking and
    validation over these primitives. Phantom witnesses from the underlying
    B+tree are surfaced so that scans can be validated. *)

module Key : sig
  type t = Util.Value.t array

  (** Lexicographic order; shorter keys that are a prefix of longer ones
      compare smaller, so partial-key prefixes can bound range scans. *)
  val compare : t -> t -> int

  (** Normalized key word for the B+tree ({!Btree.ORDERED.norm}): the
      columns packed into 61 bits, most significant first, then a cut bit
      (bit 0, set = inexact). Each column starts with a 3-bit tag in
      {!Util.Value.compare}'s constructor order, numbered from 1 so that a
      key never pads to the word of a key it extends. An [Int] of at most
      6 significant bytes adds a 5-bit sign-and-length class and those
      bytes and stays exact; [Null] is its tag alone. A [Bool], [Float] or
      [Str] column, a longer [Int], or running out of bits writes what fits
      and sets the cut bit. All-int keys such as TPC-C's [(d_id, o_id,
      ol_number)] are therefore exact; a string key costs one tie on its
      tag. *)
  val norm : t -> int
end

module Idx : module type of Btree.Make (Key)

(** A secondary index: selected columns, suffixed with the primary key for
    uniqueness, mapping to the same records as the primary index. Maintained
    by {!insert}, {!remove} and {!update_data}; scans over it take leaf
    witnesses for phantom validation exactly like primary scans.

    [sec_plan] is the flat column-extraction plan (indexed columns followed
    by the primary-key columns) precomputed at {!create} time; [sec_scratch]
    is an internal reusable key buffer for lookups that never store the
    key. *)
type secondary = private {
  sec_name : string;
  sec_cols : int array;
  sec_plan : int array;
  sec_scratch : Util.Value.t array;
  sec_idx : Record.t Idx.t;
}

(** Committed-delete tombstones awaiting {!reclaim}. *)
type graveyard

type t = {
  uid : int;  (** globally unique; identifies the table in write sets *)
  schema : Schema.t;
  idx : Record.t Idx.t;
  secondaries : secondary list;
  mutable graveyard : graveyard option;
      (** [None] until the table's first {!bury} *)
  mutable changed : int;
      (** Column mask ({!col_bit}) of every column that a committed install
          has changed in this table since it was created: each update ORs
          in its {!changed_cols}, each delete {!all_cols}. It only grows.
          The commit protocol ORs it before the install publishes its new
          TID, on the container's owner, where validation of that container
          also runs; a projected read whose mask misses it saw values that
          no install has replaced ([Occ.Commit.prepare]). *)
}

type witness = Idx.witness

(** {1 Column masks} *)

(** [col_bit i] is column [i]'s bit in a column mask. Columns from 62 on
    share the top bit, which can only make two masks meet more often. *)
val col_bit : int -> int

(** The mask of every column ([-1]). *)
val all_cols : int

(** [changed_cols old data] is the mask of the columns whose value the
    update [old] → [data] replaced: a column counts as changed unless both
    tuples hold the physically same value, so a tuple built by copying
    [old] and setting some columns changes exactly those. *)
val changed_cols : Util.Value.t array -> Util.Value.t array -> int

(** [create ?secondaries schema] — [secondaries] are (index name, column
    names) pairs. Raises [Invalid_argument] on unknown columns or duplicate
    index names. *)
val create : ?secondaries:(string * string list) list -> Schema.t -> t

(** Raises [Invalid_argument] for unknown index names. *)
val secondary : t -> string -> secondary

(** Secondary key (indexed columns @ primary key) of a tuple. *)
val sec_key_of : t -> secondary -> Util.Value.t array -> Key.t

(** [update_data t record data] replaces the record's tuple in place,
    relocating its secondary-index entries as needed. The primary key must
    be unchanged. *)
val update_data : t -> Record.t -> Util.Value.t array -> unit

(** Ordered scan over a secondary index (bounds are secondary keys; use
    {!key_prefix_bounds} on an indexed-column prefix). *)
val scan_secondary :
  ?on_node:(witness -> unit) ->
  ?lo:Key.t ->
  ?hi:Key.t ->
  ?rev:bool ->
  t ->
  index:string ->
  f:(Record.t -> bool) ->
  unit

(** Records in the primary index: live rows, reservations of inserts being
    prepared, and delete tombstones not yet reclaimed. *)
val size : t -> int

(** Unlink every record from the primary index {e and} every secondary
    index (checkpoint restore; clearing only [t.idx] would leave stale
    secondary entries), and empty the graveyard. *)
val clear : t -> unit

(** [find t key] locates the record currently indexed under [key]: a live
    row, or an absent-marked one (an insert's reservation, or a delete
    tombstone not yet reclaimed). *)
val find : ?on_node:(witness -> unit) -> t -> Key.t -> Record.t option

(** [insert t record] indexes [record] under its tuple's primary key.
    Returns the record previously indexed under that key, if any (the caller
    decides whether that is a uniqueness violation). *)
val insert : t -> Record.t -> Record.t option

(** Remove the index entry for [key]; returns the unlinked record. *)
val remove : t -> Key.t -> Record.t option

(** [sec_forget t record] drops [record]'s secondary-index entries while
    leaving its primary entry in place — the physical half of a logical
    delete that retains the record as a snapshot-visible tombstone. *)
val sec_forget : t -> Record.t -> unit

(** [reinstate t record] re-links a displaced tombstone into the primary
    index only (its secondary entries were dropped when its delete
    installed) and {!bury}s it again. Used when the insert that displaced
    it rolls back. *)
val reinstate : t -> Record.t -> unit

(** [bury t key record] queues the committed-delete tombstone [record],
    indexed under [key], for {!reclaim}. The first call allocates the
    table's graveyard. *)
val bury : t -> Key.t -> Record.t -> unit

(** [reclaim t ~horizon] unlinks from the primary index, in burial order,
    each buried tombstone whose delete epoch is at most [horizon] and that
    is still absent, unlocked and the record indexed under its key, and
    marks it {!Record.reclaim}ed. An entry whose record left the index
    under its key is dropped; the pass stops at the first entry deleted
    after [horizon] or still locked. A table that never buried pays one
    field test. *)
val reclaim : t -> horizon:int -> unit

(** [key_prefix_bounds prefix] gives [(lo, hi)] bounds covering exactly the
    keys extending [prefix]; pass them to {!range}. [hi] is a sentinel upper
    bound that compares greater than any extension of [prefix]. *)
val key_prefix_bounds : Key.t -> Key.t * Key.t

val range :
  ?on_node:(witness -> unit) ->
  ?lo:Key.t ->
  ?hi:Key.t ->
  t ->
  f:(Record.t -> bool) ->
  unit

val range_rev :
  ?on_node:(witness -> unit) ->
  ?lo:Key.t ->
  ?hi:Key.t ->
  t ->
  f:(Record.t -> bool) ->
  unit

(** Key of a tuple under this table's schema. *)
val key_of_tuple : t -> Util.Value.t array -> Key.t
