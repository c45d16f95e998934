(** Redo logging and recovery.

    The paper's prototype has no durability (§3.1) and points to
    log-based recovery as the natural mechanism; this module provides it as
    an extension. ReactDB appends one redo record per committed transaction
    — its Silo TID and physical after-images of every write, qualified by
    reactor and table. Because TIDs totally order conflicting commits
    (Silo's invariant), replaying records in TID order onto a
    freshly-loaded database reconstructs exactly the committed state.

    The log can live purely in memory (tests, simulations) or stream to a
    file. A file holds one binary record (format v3) per entry, back to
    back:

    {v
    record  := 0xB3, payload length (u32 LE), CRC-32 of payload (u32 LE), payload
    payload := varint txn, zigzag tid, varint write-count, write*
    write   := kind ('P' | 'D' | 'M'), bytes reactor, bytes table,
               varint value-count, value*
    value   := 0x00 null | 0x01 false | 0x02 true | 0x03 zigzag int
             | 0x04 float bits (8 bytes LE) | 0x05 bytes
    bytes   := varint length, raw bytes
    v}

    The length and CRC make a crash mid-append a detectable torn tail
    rather than a silently corrupt log. Checkpoints ({!Checkpoint}) and
    shipped replica batches carry the same records.

    The earlier text format v2 (one line
    ["2|crc32hex|length|payload"] per entry) stays readable everywhere it
    was written; a reader picks the format of each record from its first
    byte, so a v2 log reopened by this version holds v2 lines followed by
    v3 records. The unframed v1 format is no longer read. *)

(** One write in a committed transaction, or a logged placement change. *)
type write =
  | Put of { reactor : string; table : string; row : Util.Value.t array }
      (** insert-or-replace of a full row *)
  | Del of { reactor : string; table : string; key : Util.Value.t array }
  | Migrate of { reactor : string; dst : int }
      (** live-reconfiguration record: [reactor] now lives on container
          [dst]. Logged by the engines when an online migration commits, so
          recovery replays placement deterministically (DESIGN.md §11);
          carries no data. *)

type entry = { le_txn : int; le_tid : int; le_writes : write list }

type t

(** Raised by {!append} and {!flush} when the log device fails
    ([Sys_error] underneath: disk full, revoked descriptor, …). The
    engines catch it on the commit path and surface a typed [Internal]
    abort rather than letting a raw exception escape. *)
exception Io_error of string

(** In-memory log. *)
val in_memory : unit -> t

(** File-backed log (appends; the file is created if missing). Reopening an
    existing log counts its valid entries, so {!length} reports the whole
    log, and cuts off any torn tail left by a crash so that appended
    records stay reachable; the records before it keep their bytes. Call {!flush} to force buffered records to disk
    and {!close} when done. *)
val to_file : string -> t

(** An entry ready to append to one log: for a file log its v3 record,
    encoded when the record is made, so that whoever makes it (a
    committing executor) pays for the encoding rather than the party
    appending a batch; for an in-memory log the entry itself. *)
type record

(** [record t e] prepares [e] for {!append_many} on [t]. Reads only the
    log's kind, so any domain may call it while another appends. *)
val record : t -> entry -> record

(** [append_many t rs] appends a batch in order — the batch path. A
    file log copies the records' bytes into its channel buffer, so an
    epoch's worth of records costs one I/O at the covering {!flush}.
    Raises [Invalid_argument] on a record made for a log of the other
    kind. *)
val append_many : t -> record list -> unit

(** [append t e] appends one entry, encoding it straight into a file log's
    channel buffer. *)
val append : t -> entry -> unit

(** Number of entries in the log (existing entries of a reopened file plus
    entries appended since). *)
val length : t -> int

(** Entries in append order (in-memory logs only; raises
    [Invalid_argument] on file-backed logs — use {!read_file_tolerant}). *)
val entries : t -> entry list

(** [entries_from t n] is [entries t] without its first [n] entries: a
    reader's cursor. Safe while another domain appends. *)
val entries_from : t -> int -> entry list

(** Flush buffered records of a file-backed log to the file (the durable
    half of a group commit); no-op for in-memory logs (still counted in
    {!n_flushes}). *)
val flush : t -> unit

(** {1 Flush-time attribution}

    Real (wall-clock) cost of durability, for observability reports: how
    much device time the group-commit flushes actually took, as opposed to
    the {e flush-wait} phase a transaction's lifecycle trace records (time
    spent blocked waiting for a covering flush, which amortizes one flush
    over every transaction in the epoch). *)

(** Flushes performed since the log was opened. *)
val n_flushes : t -> int

(** Cumulative wall-clock µs spent inside {!flush} (0 for in-memory
    logs, whose flushes are free). *)
val flush_time_us : t -> float

val close : t -> unit

(** Result of scanning a log file: [Clean] if every record parsed, or
    [Torn] at the first partial/corrupt record — [valid] records precede
    it. *)
type tail = Clean | Torn of { valid : int; reason : string }

(** [read_file_tolerant path] parses a log file written by {!to_file},
    stopping cleanly at the first torn or corrupt record (crash recovery
    never raises on a damaged tail). Reads v3 records and v2 lines in any
    order. *)
val read_file_tolerant : string -> entry list * tail

(** [decode_string s] reads the log image [s] the way
    {!read_file_tolerant} reads a file: its readable prefix, and why it
    stopped early. *)
val decode_string : string -> entry list * tail

(** [replay entries ~catalog_of] applies entries in TID order: [Put]s
    insert-or-replace rows (maintaining secondary indexes), [Del]s unlink
    keys. [catalog_of] resolves each reactor's catalog (e.g.
    [Reactdb.Database.catalog_of]). [Migrate] records invoke [on_move]
    (default: ignore) in TID order — the last call per reactor is its
    recovered placement — and touch no catalog. Returns the number of data
    writes applied (placement records excluded). *)
val replay :
  ?on_move:(reactor:string -> dst:int -> unit) ->
  entry list ->
  catalog_of:(string -> Storage.Catalog.t) ->
  int

(** {1 Encoding}

    {!add_framed} reserves a record's header, appends the payload
    straight into a {!Buf.t}, checksums it over the bytes it occupies and
    fills the header in, so no per-value or per-record intermediate
    string is built. *)

(** Growable byte buffer that records are appended to. *)
module Buf : sig
  type t

  val create : int -> t
  val length : t -> int

  (** Forget the contents, keeping the capacity. *)
  val clear : t -> unit

  val add_char : t -> char -> unit
  val add_string : t -> string -> unit

  (** Decimal, as [string_of_int]. *)
  val add_int : t -> int -> unit

  (** Lowercase hex, two digits per byte — the codec for checkpoint
      reactor names and for strings inside v2 records. *)
  val add_hex : t -> string -> unit

  (** CRC-32 of the bytes in [\[pos, pos+len)], read in place. *)
  val crc32 : t -> pos:int -> len:int -> int

  (** [insert b ~at s] inserts [s] before the byte at [at], shifting the
      rest of the buffer right. *)
  val insert : t -> at:int -> string -> unit

  val contents : t -> string

  (** Write the contents to a channel. *)
  val output : out_channel -> t -> unit
end

(** Exact inverse of {!Buf.add_hex}: raises [Failure] unless the input is
    pairs of [\[0-9a-f\]]. *)
val unhex : string -> string

(** First byte of every v3 record (0xB3); no v2 line starts with it. *)
val record_magic : char

(** Append the v3 record of an entry. *)
val add_framed : Buf.t -> entry -> unit

(** The v3 record of an entry. *)
val encode_framed : entry -> string

(** Decode one whole record: a v3 record, or a v2 line without its
    newline. [Error reason] for anything torn, corrupt, with bytes left
    over, or in neither format. Never raises. *)
val decode_framed : string -> (entry, string) result

(** [decode_record s ~pos] decodes the record that starts at byte [pos]
    of [s] — a v3 record, or a v2 line with its newline — and returns it
    with the offset just past it. [Error reason] for a torn, corrupt or
    unknown record, or a [pos] outside [s]. Never raises. *)
val decode_record : string -> pos:int -> (entry * int, string) result
