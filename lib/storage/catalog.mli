(** Per-reactor catalogs.

    Each reactor encapsulates its own relational state: a catalog maps table
    names to tables created from the reactor type's schemas. Catalogs of
    different reactors are fully disjoint (§2.2.2), even when hosted in the
    same container. *)

type t

val create : unit -> t

(** [create_table t schema] adds an empty table named [schema.sname], with
    optional secondary indexes (see {!Table.create}). Raises
    [Invalid_argument] if the name is taken. *)
val create_table :
  ?secondaries:(string * string list) list -> t -> Schema.t -> Table.t

(** Raises [Not_found] when missing. *)
val table : t -> string -> Table.t

val mem : t -> string -> bool

(** Every table with its name, in creation order. *)
val tables : t -> (string * Table.t) list

(** Total record count across all tables (diagnostics). *)
val total_records : t -> int
