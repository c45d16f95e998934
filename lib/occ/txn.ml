exception Abort of string

(* Concurrency-driven aborts detected during execution (a competing
   transaction won a key race): distinct from [Abort] so the runtime can
   classify them as conflicts rather than user aborts, whatever the
   message text says. *)
exception Conflict of string

type write_kind =
  | Update of Util.Value.t array
  | Insert
  | Delete

type write_entry = {
  wrec : Storage.Record.t;
  mutable kind : write_kind;
  wtable : Storage.Table.t;
  wkey : Storage.Table.Key.t;
  mutable wlive : bool;
      (* cleared when a delete cancels this transaction's own insert; dead
         entries stay in their slice (append-only) and are skipped by every
         iterator *)
  mutable wdisplaced : Storage.Record.t option;
      (* Insert entries only: a committed-delete tombstone this insert
         displaced from the index during prepare, reinstated on rollback and
         grafted into the new record's version chain at install *)
}

(* A projected read: the columns of [cmask] of [crec], in [ctable], read
   at TID [cseen]. *)
type col_read = {
  crec : Storage.Record.t;
  cseen : int;
  cmask : int;
  ctable : Storage.Table.t;
}

(* One container's slice of the transaction context: everything a
   sub-transaction on that container mutates, so slices of different
   containers can be written in parallel. Built at insertion time, so the
   commit protocol iterates exactly its container's entries — no folds over
   the whole read/write/node sets (§3.2's lean Silo commit path). *)
type slice = {
  reads : (Storage.Record.t * int) Util.Vec.t; (* (record, observed tid) *)
  mutable col_reads : col_read Util.Vec.t;
      (* [no_col_reads] until the slice's first projected read *)
  writes : write_entry Util.Vec.t; (* includes dead entries *)
  nodes : Storage.Table.witness Util.Vec.t;
  mutable live : int; (* live entries in [writes] *)
  mutable read_rids : (int, unit) Hashtbl.t option; (* rid seen *)
  mutable write_rids : (int, write_entry) Hashtbl.t option;
      (* rid -> live entry *)
  mutable inserts : (int * Storage.Table.Key.t, write_entry) Hashtbl.t option;
      (* (table uid, key) -> entry; only live buffered inserts; created on
         the first insert *)
  mutable by_table : (int, write_entry Util.Vec.t) Hashtbl.t option;
      (* table uid -> entries (live and dead), for own-write visibility scans
         in the query layer; created on the first write *)
}

(* Shared by every slice without projected reads and never pushed to, so
   a slice pays for its own vector only when it makes such a read. *)
let no_col_reads : col_read Util.Vec.t = Util.Vec.create ()

(* Small-set rule: while a slice holds at most [small] reads (write
   entries), it deduplicates reads (finds its own writes) by scanning them;
   the rid table is built when the next entry arrives and kept up to date
   from then on. Most slices never build one. *)
let small = 8

(* Slot [c] is created and written only under container [c]; the array is
   sized once, so no slot ever moves. *)
type t = { tid : int; slices : slice option array }

let create ~id ~containers = { tid = id; slices = Array.make containers None }
let id t = t.tid

let containers t =
  let out = ref [] in
  for c = Array.length t.slices - 1 downto 0 do
    if Option.is_some t.slices.(c) then out := c :: !out
  done;
  !out

let slice t c =
  match t.slices.(c) with
  | Some s -> s
  | None ->
    let s =
      { reads = Util.Vec.create (); col_reads = no_col_reads;
        writes = Util.Vec.create ();
        nodes = Util.Vec.create (); live = 0; read_rids = None;
        write_rids = None; inserts = None; by_table = None }
    in
    t.slices.(c) <- Some s;
    s

let slice_opt t c = if c < Array.length t.slices then t.slices.(c) else None

let table_entries s table =
  let by_table =
    match s.by_table with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      s.by_table <- Some h;
      h
  in
  let uid = table.Storage.Table.uid in
  match Hashtbl.find_opt by_table uid with
  | Some v -> v
  | None ->
    let v = Util.Vec.create () in
    Hashtbl.add by_table uid v;
    v

(* Small-set lookups: a scan over at most [small] entries, in plain loops
   so that it allocates nothing. *)
let scan_read s rid =
  let hit = ref false in
  for i = 0 to Util.Vec.length s.reads - 1 do
    if (fst (Util.Vec.get s.reads i)).Storage.Record.rid = rid then hit := true
  done;
  !hit

let scan_write s rid =
  let hit = ref None in
  for i = 0 to Util.Vec.length s.writes - 1 do
    let e = Util.Vec.get s.writes i in
    if e.wlive && e.wrec.Storage.Record.rid = rid then hit := Some e
  done;
  !hit

let add_write_entry s e =
  Util.Vec.push s.writes e;
  s.live <- s.live + 1;
  (match s.write_rids with
  | Some h -> Hashtbl.add h e.wrec.Storage.Record.rid e
  | None ->
    if Util.Vec.length s.writes > small then begin
      let h = Hashtbl.create 32 in
      Util.Vec.iter
        (fun e -> if e.wlive then Hashtbl.add h e.wrec.Storage.Record.rid e)
        s.writes;
      s.write_rids <- Some h
    end);
  Util.Vec.push (table_entries s e.wtable) e

(* Cancel a live entry (delete of own insert): drop it from the lookup
   tables and the live count; its slot is skipped from now on. *)
let kill_entry s e =
  e.wlive <- false;
  s.live <- s.live - 1;
  Option.iter (fun h -> Hashtbl.remove h e.wrec.Storage.Record.rid) s.write_rids

let find_write s record =
  let rid = record.Storage.Record.rid in
  match s.write_rids with
  | Some h -> Hashtbl.find_opt h rid
  | None -> scan_write s rid

let own_write t ~container record =
  match slice_opt t container with
  | None -> None
  | Some s -> find_write s record

let find_insert s ~table ~key =
  match s.inserts with
  | None -> None
  | Some h -> Hashtbl.find_opt h (table.Storage.Table.uid, key)

let own_insert t ~container ~table ~key =
  match slice_opt t container with
  | None -> None
  | Some s -> find_insert s ~table ~key

let own_in_table t ~container table =
  match slice_opt t container with
  | Some { by_table = Some h; _ } -> Hashtbl.find_opt h table.Storage.Table.uid
  | _ -> None

let own_updates_for t ~container ~table =
  match own_in_table t ~container table with
  | None -> []
  | Some v ->
    Util.Vec.fold_left
      (fun acc e ->
        match e.kind with
        | Update data when e.wlive -> (e.wkey, data) :: acc
        | _ -> acc)
      [] v

let own_inserts_for t ~container ~table =
  match own_in_table t ~container table with
  | None -> []
  | Some v ->
    Util.Vec.fold_left
      (fun acc e ->
        match e.kind with
        | Insert when e.wlive -> (e.wkey, e.wrec.Storage.Record.data) :: acc
        | _ -> acc)
      [] v

let read_seen s rid =
  match s.read_rids with Some h -> Hashtbl.mem h rid | None -> scan_read s rid

let note_read s record =
  let rid = record.Storage.Record.rid in
  if not (read_seen s rid) then begin
    Util.Vec.push s.reads (record, record.Storage.Record.tid);
    match s.read_rids with
    | Some h -> Hashtbl.add h rid ()
    | None ->
      if Util.Vec.length s.reads > small then begin
        let h = Hashtbl.create 64 in
        Util.Vec.iter (fun (r, _) -> Hashtbl.add h r.Storage.Record.rid ()) s.reads;
        s.read_rids <- Some h
      end
  end

let read t ~container record =
  let s = slice t container in
  match find_write s record with
  | Some { kind = Update data; _ } -> Some data
  | Some { kind = Delete; _ } -> None
  | Some { kind = Insert; wrec; _ } ->
    (* Own buffered insert: visible without read-set tracking (the record is
       private to this transaction until install). *)
    Some wrec.Storage.Record.data
  | None ->
    note_read s record;
    if record.Storage.Record.absent then None
    else Some record.Storage.Record.data

(* A whole-row read of the same record already validates it, so a
   projected read after one adds nothing. One of a dead row reads the
   row's existence, every column of it: it is recorded whole. *)
let read_cols t ~container ~table ~cols record =
  let s = slice t container in
  match find_write s record with
  | Some { kind = Update data; _ } -> Some data
  | Some { kind = Delete; _ } -> None
  | Some { kind = Insert; wrec; _ } -> Some wrec.Storage.Record.data
  | None ->
    if record.Storage.Record.absent then begin
      note_read s record;
      None
    end
    else begin
      if not (read_seen s record.Storage.Record.rid) then begin
        if s.col_reads == no_col_reads then s.col_reads <- Util.Vec.create ();
        Util.Vec.push s.col_reads
          { crec = record; cseen = record.Storage.Record.tid; cmask = cols;
            ctable = table }
      end;
      Some record.Storage.Record.data
    end

let write t ~container ~table ~key record data =
  Storage.Schema.validate table.Storage.Table.schema data;
  let s = slice t container in
  match find_write s record with
  | Some ({ kind = Update _; _ } as e) -> e.kind <- Update data
  | Some { kind = Insert; wrec; _ } -> wrec.Storage.Record.data <- data
  | Some { kind = Delete; _ } -> raise (Abort "write after delete of same record")
  | None ->
    add_write_entry s
      { wrec = record; kind = Update data; wtable = table; wkey = key;
        wlive = true; wdisplaced = None }

let insert t ~container ~table tuple =
  Storage.Schema.validate table.Storage.Table.schema tuple;
  let s = slice t container in
  let key = Storage.Table.key_of_tuple table tuple in
  if Option.is_some (find_insert s ~table ~key) then
    raise (Abort "duplicate key (own insert)");
  (* Execution-time uniqueness probe. The leaf witness protects against a
     concurrent committer inserting the same key before we install. *)
  let clash = ref false in
  (match Storage.Table.find ~on_node:(fun w -> Util.Vec.push s.nodes w) table key with
  | Some existing ->
    if existing.Storage.Record.absent then begin
      (* Reserved by a concurrent preparer, or a committed delete. In the
         former case the key is effectively taken; in the latter the record
         is a tombstone we must not collide with structurally — observe it
         and treat present-flip as a conflict. *)
      note_read s existing;
      if Storage.Record.is_locked existing then clash := true
    end
    else clash := true
  | None -> ());
  if !clash then raise (Conflict "duplicate key");
  let record = Storage.Record.fresh ~absent:true tuple in
  (* Hold the record's lock from creation: once reserved in the index during
     prepare, concurrent validators must see it as another's lock. *)
  ignore (Storage.Record.try_lock record ~txn:t.tid);
  let entry =
    { wrec = record; kind = Insert; wtable = table; wkey = key; wlive = true;
      wdisplaced = None }
  in
  add_write_entry s entry;
  let inserts =
    match s.inserts with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 16 in
      s.inserts <- Some h;
      h
  in
  Hashtbl.add inserts (table.Storage.Table.uid, key) entry

let delete t ~container ~table ~key record =
  let s = slice t container in
  match find_write s record with
  | Some ({ kind = Insert; _ } as e) ->
    Option.iter (fun h -> Hashtbl.remove h (table.Storage.Table.uid, key)) s.inserts;
    kill_entry s e
  | Some ({ kind = Update _; _ } as e) -> e.kind <- Delete
  | Some { kind = Delete; _ } -> ()
  | None ->
    add_write_entry s
      { wrec = record; kind = Delete; wtable = table; wkey = key; wlive = true;
        wdisplaced = None }

let note_node t ~container w = Util.Vec.push (slice t container).nodes w

(* ---- per-container iteration (the commit protocol's hot path) ---- *)

let iter_reads_in t ~container ~f =
  match slice_opt t container with
  | None -> ()
  | Some s -> Util.Vec.iter (fun (r, observed) -> f r observed) s.reads

let has_col_reads t ~container =
  match slice_opt t container with
  | None -> false
  | Some s -> not (Util.Vec.is_empty s.col_reads)

let iter_col_reads_in t ~container ~f =
  match slice_opt t container with
  | None -> ()
  | Some s -> Util.Vec.iter f s.col_reads

let iter_writes_in t ~container ~f =
  match slice_opt t container with
  | None -> ()
  | Some s -> Util.Vec.iter (fun e -> if e.wlive then f e) s.writes

let iter_nodes_in t ~container ~f =
  match slice_opt t container with
  | None -> ()
  | Some s -> Util.Vec.iter f s.nodes

let ops_in t ~container =
  match slice_opt t container with
  | None -> 0
  | Some s -> Util.Vec.length s.reads + Util.Vec.length s.col_reads + s.live

(* A read record guarded by the slice's own write lock: a live update or
   delete of that same record. *)
let covered s r =
  match find_write s r with
  | Some { kind = Update _ | Delete; _ } -> true
  | Some { kind = Insert; _ } | None -> false

let reads_covered t ~container =
  match slice_opt t container with
  | None -> true
  | Some s ->
    Util.Vec.is_empty s.nodes
    && Util.Vec.for_all (fun (r, _) -> covered s r) s.reads
    && Util.Vec.for_all (fun c -> covered s c.crec) s.col_reads

(* ---- list views (tests, history recording) ---- *)

let reads_in t ~container =
  match slice_opt t container with
  | None -> []
  | Some s -> Util.Vec.to_list s.reads

let col_reads_in t ~container =
  match slice_opt t container with
  | None -> []
  | Some s -> Util.Vec.to_list s.col_reads

let writes_in t ~container =
  match slice_opt t container with
  | None -> []
  | Some s ->
    List.rev
      (Util.Vec.fold_left (fun acc e -> if e.wlive then e :: acc else acc) [] s.writes)

let nodes_in t ~container =
  match slice_opt t container with
  | None -> []
  | Some s -> Util.Vec.to_list s.nodes

(* Ascending container id, then insertion order: deterministic. *)
let all_writes t =
  let out = ref [] in
  for c = Array.length t.slices - 1 downto 0 do
    match t.slices.(c) with
    | None -> ()
    | Some s ->
      for i = Util.Vec.length s.writes - 1 downto 0 do
        let e = Util.Vec.get s.writes i in
        if e.wlive then out := e :: !out
      done
  done;
  !out

let iter_all_writes t ~f =
  Array.iter
    (function
      | None -> ()
      | Some s -> Util.Vec.iter (fun e -> if e.wlive then f e) s.writes)
    t.slices

let sum_slices t f =
  Array.fold_left (fun n -> function None -> n | Some s -> n + f s) 0 t.slices

let read_count t =
  sum_slices t (fun s -> Util.Vec.length s.reads + Util.Vec.length s.col_reads)
let write_count t = sum_slices t (fun s -> s.live)
