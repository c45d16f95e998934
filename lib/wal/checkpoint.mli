(** Checkpoints: bounded-log recovery.

    A checkpoint is a consistent physical dump of every covered reactor's
    relations plus the position in the redo log it covers. Recovery then
    needs only the log suffix: restore the checkpoint into a freshly
    declared database and replay WAL entries from position [ck_covers]
    onward. Coverage is positional, not TID-based: Silo-style TIDs are not
    globally monotonic across reactors, so a TID watermark could skip a
    post-checkpoint commit that happened to draw a low TID.

    Checkpoints must be taken from quiescent state (between [Engine.run]s,
    or before workers start) — the distributed-snapshot machinery the paper
    cites ([24]) for online checkpoints is out of scope. *)

type t = {
  ck_tid : int;  (** highest TID whose effects are included *)
  ck_covers : int;
      (** number of log entries (positional prefix, append order = commit
          order) whose effects the snapshot already contains; recovery
          replays entries at positions >= [ck_covers]. [0] means unknown
          coverage (legacy files): the whole log replays over the restored
          state, which is sound but slower *)
  ck_reactors : string list;
      (** every reactor the checkpoint covers — including reactors whose
          tables were all empty at capture time, which contribute no rows
          but must still be cleared on restore *)
  ck_rows : (string * string * Util.Value.t array) list;
      (** (reactor, table, row) *)
}

(** [capture ~tid ?covers catalogs] snapshots [(reactor, catalog)] pairs.
    [covers] (default [0]) is the number of entries in the redo log at
    capture time — pass it so recovery can cut the log positionally. *)
val capture : tid:int -> ?covers:int -> (string * Storage.Catalog.t) list -> t

(** [restore ck ~catalog_of] clears every table (primary and secondary
    indexes) of every covered reactor in the target database and installs
    the snapshot rows. Returns the number of rows installed. *)
val restore : t -> catalog_of:(string -> Storage.Catalog.t) -> int

(** File round-trip. The writer is atomic (tmp + rename) and writes the
    [ckpt3] format: one framed binary WAL record per row plus a
    completeness trailer whose CRC also covers the header, so a torn or
    corrupt checkpoint is detected on read rather than restored partially
    (or restored with a corrupted coverage position). [ckpt2] files (text
    rows, the same trailer) remain readable; a legacy v1 file (no
    trailer) is rejected, so recovery falls back to log-only replay. *)

val write_file : string -> t -> unit

(** [Error reason] on a torn, truncated or corrupt file — crash recovery
    uses this to fall back to log-only replay. *)
val read_file_opt : string -> (t, string) result

(** [recover ~checkpoint ~log ~catalog_of] = restore + replay of the log
    entries at positions >= [ck_covers]; returns (rows restored, writes
    replayed). *)
val recover :
  checkpoint:t ->
  log:Wal.entry list ->
  catalog_of:(string -> Storage.Catalog.t) ->
  int * int
