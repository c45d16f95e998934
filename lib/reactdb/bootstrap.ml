(** The state both backends keep, written once (DESIGN.md §5.2).

    The discrete-event simulator ({!Database}) and the real-parallel
    runtime ([Runtime.Db]) boot a reactor database from the same
    declaration and deployment {!Config.t}, and then keep the same state:
    the placement table, the table-owner map for redo logging, the commit
    and abort counters, the pin registry and migration gate ({!Pins}), the
    group commit of an attached WAL ({!Durability}), the primary's
    generation and fence, the attached chaos injector and trace collector,
    the recorded history and the transaction-id counter. A backend's
    database is a {!t} whose [own] field holds what is truly its own
    (engine and executors, or domains and mailboxes), and its admin and
    statistics API is {!ADMIN}, implemented once by {!Admin}. *)

(** {1 Booting a declaration} *)

type entry = {
  bs_name : string;  (** reactor name *)
  bs_rtype : Reactor.rtype;
  bs_catalog : Storage.Catalog.t;
  bs_home : int;  (** container index from [Config.placement] *)
}

(** [build decl cfg] validates and materializes the declaration: each
    reactor's catalog (tables with their declared secondary indexes), its
    checked container placement, and the table-ownership map (table uid →
    reactor name, table name). Returns the entries in declaration order
    and the map. Loaders run after every reactor's catalog exists, in
    declaration order. Raises [Invalid_argument] on malformed declarations
    or out-of-range placements. A deployment that boots on one backend
    boots identically on the other. *)
let build decl cfg =
  Reactor.validate decl;
  let n_containers = Config.n_containers cfg in
  let table_owner = Hashtbl.create 256 in
  let entries =
    List.map
      (fun (name, tyname) ->
        let rt = Reactor.find_type decl tyname in
        let catalog = Storage.Catalog.create () in
        List.iter
          (fun schema ->
            let secondaries =
              List.assoc_opt schema.Storage.Schema.sname rt.Reactor.rt_indexes
            in
            ignore (Storage.Catalog.create_table ?secondaries catalog schema))
          rt.Reactor.rt_schemas;
        let home = cfg.Config.placement name in
        if home < 0 || home >= n_containers then
          invalid_arg
            (Printf.sprintf "ReactDB: reactor %S placed in bad container %d"
               name home);
        List.iter
          (fun (tname, tbl) ->
            Hashtbl.replace table_owner tbl.Storage.Table.uid (name, tname))
          (Storage.Catalog.tables catalog);
        { bs_name = name; bs_rtype = rt; bs_catalog = catalog; bs_home = home })
      decl.Reactor.reactors
  in
  let by_name = Hashtbl.create (List.length entries) in
  List.iter (fun e -> Hashtbl.replace by_name e.bs_name e.bs_catalog) entries;
  let catalog_of name =
    match Hashtbl.find_opt by_name name with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "ReactDB: unknown reactor %S" name)
  in
  List.iter
    (fun (rname, loader) -> loader (catalog_of rname))
    decl.Reactor.loaders;
  (entries, table_owner)

(** {1 Commit and abort counters}

    Shared by all domains. Aborts are bucketed by class; the lifecycle
    maps each {!Lifecycle.abort_class} to its bucket. *)

type counters = {
  committed : int Atomic.t;
  aborted : int Atomic.t;
  ro_commits : int Atomic.t;  (** committed read-only snapshot roots *)
  auto_seq : int Atomic.t;  (** [Config.Auto] roots kept sequential *)
  auto_par : int Atomic.t;  (** [Config.Auto] roots fanned out *)
  log_flushes : int Atomic.t;  (** group-commit flushes that wrote records *)
  buckets : int Atomic.t array;  (** one per {!bucket_names} entry *)
}

let bucket_names =
  [| "user"; "validation"; "dangerous-structure"; "timeout"; "overloaded";
     "internal" |]

let counters () =
  let z () = Util.Padded.atomic 0 in
  { committed = z (); aborted = z (); ro_commits = z (); auto_seq = z ();
    auto_par = z (); log_flushes = z (); buckets = Array.map (fun _ -> z ()) bucket_names }

let reset_counters c =
  List.iter
    (fun a -> Atomic.set a 0)
    (c.committed :: c.aborted :: c.ro_commits :: c.auto_seq :: c.auto_par
    :: c.log_flushes :: Array.to_list c.buckets)

(** {1 The shared core} *)

(** A placed reactor. *)
type 's reactor = {
  re : entry;  (** the logical reactor: name, type, catalog *)
  home : int Atomic.t;
      (** current placement; a migration flips it, so every routing
          decision re-reads it and none caches it across a suspension *)
  mutable slot : 's;  (** the backend's own per-reactor state *)
}

type ('s, 'p) t = {
  cfg : Config.t;
  entries : entry list;  (** declaration order *)
  reactors : (string, 's reactor) Hashtbl.t;
  table_owner : (int, string * string) Hashtbl.t;
      (** table uid → (reactor, table name); read-only after boot *)
  counters : counters;
  epoch : unit -> int;  (** the backend's Silo epoch clock *)
  registry : Pins.Registry.t;  (** snapshot and commit epochs (§10) *)
  gate : Pins.Gate.t;  (** migration generations and stubs (§11) *)
  mutable obs : Obs.Collector.t option;
      (** lifecycle tracing sink; [None] when untraced *)
  mutable wal : Durability.t option;  (** group commit (§8.3); [None] unlogged *)
  mutable chaos : Chaos.t;  (** the seeded fault injector; {!Chaos.none} *)
  generation : int Atomic.t;  (** the generation this primary serves (§12.4) *)
  fenced : bool Atomic.t;  (** set once, never cleared: refuse every root *)
  fenced_refusals : int Atomic.t;  (** roots refused while fenced *)
  mutable history : Histories.Certify.entry list Atomic.t option;
      (** committed roots' entries, newest first; [None] unrecorded *)
  txn_ids : int Atomic.t;
  own : 'p;  (** the backend's own state *)
}

(** [create decl cfg ~epoch ~slot own] boots [decl] ({!build}) and wraps
    the backend state [own]. [epoch] is the backend's Silo epoch clock,
    read by the pin registry; [slot ()] makes each reactor's own slot. *)
let create decl cfg ~epoch ~slot own =
  let entries, table_owner = build decl cfg in
  let reactors = Hashtbl.create (List.length entries) in
  List.iter
    (fun e ->
      Hashtbl.replace reactors e.bs_name
        { re = e; home = Atomic.make e.bs_home; slot = slot () })
    entries;
  { cfg; entries; reactors; table_owner; counters = counters (); epoch;
    registry = Pins.Registry.create ~epoch; gate = Pins.Gate.create ();
    obs = None; wal = None; chaos = Chaos.none; generation = Atomic.make 0;
    fenced = Atomic.make false; fenced_refusals = Atomic.make 0;
    history = None; txn_ids = Util.Padded.atomic 0; own }

(** Log every later commit's redo record to [log] through group commit. *)
let attach_wal t log =
  t.wal <- Some (Durability.create ~epoch:t.epoch ~flushes:t.counters.log_flushes log)

let lookup t name =
  match Hashtbl.find_opt t.reactors name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "ReactDB: unknown reactor %S" name)

(** A fresh transaction context with the next id (1, 2, ...), with one
    slice slot per container. *)
let next_txn t =
  Occ.Txn.create ~id:(1 + Atomic.fetch_and_add t.txn_ids 1)
    ~containers:(Config.n_containers t.cfg)

(** Admission of a root on [reactor]: the placed reactor, the procedure it
    runs and whether it runs read-only on a snapshot (snapshots enabled
    and the procedure declared read-only). Under [Config.Auto] a declared
    morph pair resolves to its parallel twin when [parallel_ok ()], else
    stays sequential (the formulation generators emit); the choice is
    counted. *)
let admit t ~reactor ~proc ~parallel_ok =
  let r = lookup t reactor in
  let rt = r.re.bs_rtype in
  let proc =
    if t.cfg.Config.morph <> Config.Auto then proc
    else
      match Reactor.morph_target rt proc with
      | Some par when parallel_ok () ->
        Atomic.incr t.counters.auto_par;
        par
      | Some _ ->
        Atomic.incr t.counters.auto_seq;
        proc
      | None -> proc
  in
  (r, proc, Pins.Registry.enabled t.registry && Reactor.proc_readonly rt proc)

(** Move [reactor] to container [dst] by the one migration protocol
    ({!Pins.Gate.migrate}), waiting with [suspend] and timing the pause on
    [now]. With a WAL attached, the placement record is queued write-ahead
    of the flip and the call returns once [wait] saw its flush. Raises
    [Invalid_argument] on an unknown reactor or container, and
    [Wal.Io_error] when the WAL failed (the flip stands, unlogged). *)
let migrate t ~suspend ~now ~wait ~reactor ~dst =
  let r = lookup t reactor in
  if dst < 0 || dst >= Config.n_containers t.cfg then
    invalid_arg (Printf.sprintf "ReactDB: migrate %s: no container %d" reactor dst);
  let flush = ref None in
  (* TID = (epoch, migration ordinal) grows across migrations, so
     recovery's last-wins placement fold is deterministic *)
  let log ~seq =
    Option.iter
      (fun d ->
        let tag = Durability.register d in
        let queued =
          Durability.queue d ~tag
            { Wal.le_txn = -seq; le_tid = Storage.Record.tid_make ~epoch:tag ~seq;
              le_writes = [ Wal.Migrate { reactor; dst } ] }
        in
        if Result.is_error queued then Durability.cancel d tag;
        flush := Some queued)
      t.wal
  in
  let pause =
    Pins.Gate.migrate t.gate ~suspend ~now ~reactor
      ~home:(fun () -> Atomic.get r.home) ~set_home:(Atomic.set r.home) ~dst ~log
  in
  match Option.map (fun q -> Result.bind q wait) !flush with
  | Some (Error m) -> raise (Wal.Io_error m)
  | Some (Ok ()) | None -> pause

(** A root's re-check after its gate registration: whether the primary is
    fenced ({!Pins.Gate.fence}; DESIGN.md §12.4), counting the refusal. *)
let refuses t = Atomic.get t.fenced && (Atomic.incr t.fenced_refusals; true)

(** {1 The admin and statistics API of both backends} *)

module type ADMIN = sig
  type t

  (** {2 Catalogs and placement} *)

  (** Direct physical access to a reactor's catalog, bypassing concurrency
      control: for loaders, audits and tests, while no transaction runs. *)
  val catalog_of : t -> string -> Storage.Catalog.t

  (** All reactors' catalogs in declaration order, for invariant audits
      (see [lib/audit]). Same caveat as {!catalog_of}. *)
  val catalogs : t -> (string * Storage.Catalog.t) list

  (** The container that currently hosts a reactor. *)
  val container_of : t -> string -> int

  (** Current [(reactor, container)] placement, in declaration order. *)
  val placements : t -> (string * int) list

  (** Migrations completed since start. *)
  val n_migrations : t -> int

  (** Placement version, bumped at every migration flip. Routing decisions
      made under an epoch stay valid for the roots that made them (the
      drain guarantees it); observers and tests use it to see flips. *)
  val placement_epoch : t -> int

  (** Pause (µs on the backend's clock, mark → flip) of the most recent
      migration; [0.] if none. *)
  val migration_pause_last_us : t -> float

  (** {2 Snapshot reads (multi-version, epoch-based — see DESIGN.md §10)}

      Procedures declared read-only on their reactor type
      ({!Reactor.rtype.rt_readonly}) execute against a frozen {e snapshot
      epoch} [S = min (current epoch, min in-flight commit epoch) - 1]
      ({!Pins.Registry}): every commit holds its epoch from before its TID
      until its installs landed on every participant, so [S] names an
      immutable, consistent prefix. Reads resolve through per-record
      version chains; the commit protocol is skipped entirely — no
      read-set, no locks, no validation, no 2PC — making read-only roots
      abort-free by construction.

      While enabled (the default), every install also retires overwritten
      versions into chains and trims them to the {e GC horizon}: the
      minimum live snapshot epoch, or the next epoch to be issued when no
      reader is live — so chains stay bounded under hot keys. *)

  (** [set_snapshots t false] disables snapshot execution {e and} version
      chain maintenance: declared-read-only procedures fall back to the
      ordinary OCC read path (the benchmark baseline), and installs revert
      to single-version behavior. *)
  val set_snapshots : t -> bool -> unit

  val snapshots_enabled : t -> bool

  (** The epoch the next read-only root would freeze. *)
  val safe_snapshot_epoch : t -> int

  (** Pin / unpin a snapshot epoch manually — what a read-only root does
      around its body; exposed for tests exercising version GC. [release]
      of an epoch not held is a no-op. *)
  val acquire_snapshot : t -> int

  val release_snapshot : t -> int -> unit

  (** The horizon installs currently trim version chains to. *)
  val gc_horizon : t -> int

  (** {2 Statistics} (monotone atomic counters shared by all executors) *)

  (** Committed root transactions. *)
  val n_committed : t -> int

  (** Aborted root attempts (every attempt of a retried transaction
      counts — see [Harness.run_result] for the accounting identity). *)
  val n_aborted : t -> int

  (** Aborts by typed class ({!Lifecycle.abort_class}), non-empty buckets
      only: "user" ({!Occ.Txn.Abort}), "validation" (execution-time
      {!Occ.Txn.Conflict} and commit-time validation/2PC failures),
      "dangerous-structure" ({!Reactor.Dangerous_call}, §2.2.4),
      "timeout", "overloaded" (admission sheds) and "internal" (WAL
      failures and other failures that are not aborts). Classification is
      by exception constructor, never by message text; the buckets sum to
      {!n_aborted}. *)
  val aborts_by_reason : t -> (string * int) list

  (** Committed roots that ran as read-only snapshot transactions. *)
  val n_readonly_commits : t -> int

  (** [(sequential, parallel)] resolution counts of the [Config.Auto]
      morph router. *)
  val auto_morphs : t -> int * int

  (** {2 Durability (epoch group commit — DESIGN.md §8.3)} *)

  (** The group-commit bound: every redo record whose TID epoch is at
      most this is in the log, so a shipper may ship up to it and
      failover salvages up to it (DESIGN.md §12). An acknowledged commit's
      record is in the log already, usually before this bound passes its
      epoch. It never moves back, and never moves again once the WAL
      failed. 0 without a WAL. *)
  val durable_epoch : t -> int

  (** Group-commit flushes that wrote records. *)
  val n_log_flushes : t -> int

  (** The WAL's first write or flush failure ([Wal.Io_error]), if any.
      The batch it failed comes back as an "internal" abort naming the
      WAL, although its writes are installed; every later logged commit
      gets the same abort before it installs anything. *)
  val wal_error : t -> string option

  (** {2 Replication fencing (DESIGN.md §12.4)}

      A primary serves at a {e generation} (default 0); a promoted replica
      takes the next one. Once the old primary is fenced (the backend's
      [fence], or the [Chaos.Kill_primary] point between the 2PC phases)
      every root it admits is refused with an "internal" abort ("fenced:
      stale primary generation") before it touches a record, and a 2PC
      rolls back instead of installing. A fence is never lifted. *)

  val generation : t -> int
  val set_generation : t -> int -> unit
  val fenced : t -> bool

  (** Roots refused while fenced; each also counts as "internal". *)
  val n_fenced_refusals : t -> int

  (** {2 Observability} *)

  (** [attach_obs t collector] turns on transaction-lifecycle tracing:
      every subsequent attempt stamps its lifecycle phases on the
      backend's clock and folds into [collector]'s slot for the container
      it ran in. With no collector attached the trace sink is
      [Obs.Trace.none] and the per-attempt cost is a few predictable
      branches and no clock reads. *)
  val attach_obs : t -> Obs.Collector.t -> unit

  (** {2 History recording (for serializability certification)}

      When enabled, every root that commits through the commit protocol
      records its {!Histories.Certify.entry} (txn id, install TID, read
      set, write set) at its decision, with every participant's locks
      held and nothing installed yet; {!history} returns the entries,
      in the order they were recorded, ready for
      {!Histories.Certify.check}. Read-only snapshot roots record
      nothing: they have no read set. Enable before submitting traffic:
      an entry that read a version installed while recording was off
      fails certification as an impossible read. *)

  val enable_history : t -> unit

  val history : t -> Histories.Certify.entry list
end

(** {!ADMIN} for every backend; a backend [include]s it. *)
module Admin = struct
  let catalog_of t name = (lookup t name).re.bs_catalog
  let catalogs t = List.map (fun e -> (e.bs_name, e.bs_catalog)) t.entries
  let container_of t name = Atomic.get (lookup t name).home

  let placements t =
    List.map (fun e -> (e.bs_name, container_of t e.bs_name)) t.entries

  let n_migrations t = Pins.Gate.n_migrations t.gate
  let placement_epoch t = Pins.Gate.placement_epoch t.gate
  let migration_pause_last_us t = Pins.Gate.pause_last t.gate
  let set_snapshots t on = Pins.Registry.set_enabled t.registry on
  let snapshots_enabled t = Pins.Registry.enabled t.registry
  let safe_snapshot_epoch t = Pins.Registry.safe_snapshot t.registry
  let acquire_snapshot t = Pins.Registry.acquire t.registry
  let release_snapshot t s = Pins.Registry.release t.registry s
  let gc_horizon t = Pins.Registry.horizon t.registry
  let n_committed t = Atomic.get t.counters.committed
  let n_aborted t = Atomic.get t.counters.aborted

  let aborts_by_reason t =
    List.filter
      (fun (_, n) -> n > 0)
      (Array.to_list
         (Array.mapi
            (fun i name -> (name, Atomic.get t.counters.buckets.(i)))
            bucket_names))

  let n_readonly_commits t = Atomic.get t.counters.ro_commits
  let auto_morphs t = (Atomic.get t.counters.auto_seq, Atomic.get t.counters.auto_par)
  let durable_epoch t = Option.fold ~none:0 ~some:Durability.durable_epoch t.wal
  let n_log_flushes t = Atomic.get t.counters.log_flushes
  let wal_error t = Option.bind t.wal Durability.error
  let generation t = Atomic.get t.generation
  let set_generation t g = Atomic.set t.generation g
  let fenced t = Atomic.get t.fenced
  let n_fenced_refusals t = Atomic.get t.fenced_refusals
  let attach_obs t c = t.obs <- Some c
  let enable_history t = if t.history = None then t.history <- Some (Atomic.make [])
  let history t = Option.fold ~none:[] ~some:(fun h -> List.rev (Atomic.get h)) t.history
end
