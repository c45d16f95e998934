(** Deterministic crash/fault injection for recovery testing.

    The recovery-equivalence property this module supports: take a workload
    history whose commits were redo-logged to a file (optionally with a
    checkpoint taken part-way), crash at an arbitrary point — modelled as a
    seeded fault applied to a scratch copy of the on-disk artifacts — then
    recover from checkpoint + log tail and check that the recovered database
    equals the committed prefix of the history (the entries still readable
    from the damaged log), including secondary-index consistency.

    Everything is seeded and engine-free: recovery builds catalogs directly
    from the reactor declaration (schemas, secondary indexes, loaders)
    without booting a simulated database, so sweeping hundreds of crash
    points is cheap. *)

(** A simulated crash, applied to a copy of a log or checkpoint file. *)
type fault =
  | Truncate_entries of int
      (** keep only the first [n] records (crash between appends) *)
  | Truncate_bytes of int
      (** keep only the first [n] bytes (torn tail mid-append) *)
  | Corrupt_byte of { off : int; xor : int }
      (** flip bits of one byte in place (media corruption); [xor <> 0] *)

val pp_fault : fault -> string

(** [choose rng ~path] draws a fault appropriate for the file at [path]
    (its size and record count bound the fault coordinates). Equal seeds
    give equal faults. *)
val choose : Util.Rng.t -> path:string -> fault

(** [inject f ~src ~dst] writes a faulted copy of [src] to [dst]. *)
val inject : fault -> src:string -> dst:string -> unit

(** {1 Engine-free database images} *)

(** Catalogs for every reactor of [decl] — tables created with their
    declared secondary indexes, loaders applied — without a simulation
    engine. Mirrors bootstrap ([Reactdb.Database.create]) physically. *)
val fresh_catalogs : Reactor.decl -> (string * Storage.Catalog.t) list

(** [catalog_of cats] is a lookup by reactor name; apply it to [cats] once
    and reuse the result (it indexes [cats] in a hash table). Raises
    [Invalid_argument] for an unknown reactor. *)
val catalog_of :
  (string * Storage.Catalog.t) list -> string -> Storage.Catalog.t

(** Comparable image of catalog contents: live rows per (reactor, table),
    sorted. *)
type state = (string * string * Util.Value.t array list) list

val snapshot : (string * Storage.Catalog.t) list -> state

(** First divergence between two states, human-readable; [None] if equal. *)
val diff : state -> state -> string option

(** Full secondary-index audit: every live row is reachable through each of
    its table's secondary indexes under the key derived from its current
    tuple, and no index holds extra or stale entries. *)
val check_secondaries :
  (string * Storage.Catalog.t) list -> (unit, string) result

(** {1 Recovery} *)

type recovery = {
  rc_catalogs : (string * Storage.Catalog.t) list;  (** recovered image *)
  rc_entries : Wal.entry list;  (** entries surviving in the (faulted) log *)
  rc_tail : Wal.tail;
  rc_checkpoint : Checkpoint.t option;
      (** the checkpoint restored, if any; [None] when absent or unreadable
          (log-only replay) *)
  rc_restored : int;  (** checkpoint rows installed *)
  rc_replayed : int;  (** log data writes applied (placement records excluded) *)
  rc_placements : (string * int) list;
      (** placement recovered from surviving [Wal.Migrate] records, folded
          in TID order (last move per reactor wins); reactors that never
          migrated are absent and keep their config placement. Feed this to
          the engine bootstrap to resume with the pre-crash deployment
          (DESIGN.md §11). *)
  rc_note : string;  (** recovery path taken, for reports *)
}

(** [recover ?checkpoint ~log decl] rebuilds a database image from on-disk
    artifacts: fresh catalogs, checkpoint restore if [checkpoint] names a
    readable file (an unreadable one — e.g. a crash between checkpoint
    write and log flush — falls back to log-only replay), then tolerant log
    replay of the tail beyond the checkpoint's positional coverage. Never
    raises on damaged files. *)
val recover :
  ?checkpoint:string -> log:string -> Reactor.decl -> recovery

(** [verify ~decl ~reference_log r] checks recovery equivalence: replaying
    (checkpoint-covered prefix of [reference_log]) ∪ (surviving entries)
    onto fresh catalogs must yield exactly [r]'s recovered state, and the
    recovered secondary indexes must audit clean. [reference_log] is the
    full, undamaged history. Checkpoints used here must have been captured
    with [~covers] set to the true log position — a zero-coverage
    checkpoint taken after transactions ran would make the reference under-
    approximate what the snapshot contains. *)
val verify :
  decl:Reactor.decl ->
  reference_log:Wal.entry list ->
  recovery ->
  (unit, string) result

(** {1 Sweeping} *)

type report = {
  rp_points : int;  (** crash points exercised *)
  rp_clean_tail : int;  (** recoveries that found a clean log tail *)
  rp_torn_tail : int;  (** recoveries that stopped at a torn/corrupt record *)
  rp_ckpt_fallback : int;  (** checkpoint unreadable, log-only fallback *)
  rp_failures : (int * string) list;  (** (seed, what went wrong) *)
}

(** [crash_sweep ?checkpoint ?extra_check ~log ~scratch ~decl ~seeds ()]
    runs one recovery per seed: fault a scratch copy of the log (and, one
    time in four when a checkpoint is supplied, of the checkpoint too —
    the crash-between-checkpoint-and-log-tail scenario), recover, and
    {!verify}. [extra_check] runs against each recovered image (e.g. an
    application invariant like conservation of money). [scratch] is a path
    prefix for the faulted copies, which are cleaned up afterwards. The
    undamaged [log] must parse cleanly; raises [Failure] otherwise. *)
val crash_sweep :
  ?checkpoint:string ->
  ?extra_check:((string * Storage.Catalog.t) list -> (unit, string) result) ->
  log:string ->
  scratch:string ->
  decl:Reactor.decl ->
  seeds:int list ->
  unit ->
  report
