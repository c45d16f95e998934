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
  wcontainer : int;
  mutable wlive : bool;
      (* cleared when a delete cancels this transaction's own insert; dead
         entries stay in their buckets (append-only) and are skipped by every
         iterator *)
  mutable wdisplaced : Storage.Record.t option;
      (* Insert entries only: a committed-delete tombstone this insert
         displaced from the index during prepare, reinstated on rollback and
         grafted into the new record's version chain at install *)
}

module IntSet = Set.Make (Int)

(* Per-container slice of the transaction context, built at insertion time so
   the commit protocol iterates exactly its container's entries — no folds
   over the whole read/write/node sets (§3.2's lean Silo commit path). *)
type bucket = {
  breads : (Storage.Record.t * int) Util.Vec.t; (* (record, observed tid) *)
  bwrites : write_entry Util.Vec.t; (* includes dead entries *)
  bnodes : Storage.Table.witness Util.Vec.t;
  mutable blive : int; (* live entries in [bwrites] *)
}

(* Small-set rule: while a transaction holds at most [small] reads (write
   entries), it deduplicates reads (finds its own writes) by scanning its
   container buckets; the rid table is built when the next entry arrives
   and kept up to date from then on. Most transactions never build one. *)
let small = 8

type t = {
  tid : int;
  mutable containers : IntSet.t;
  mutable n_reads : int;
  mutable read_rids : (int, unit) Hashtbl.t option; (* rid seen *)
  mutable n_entries : int; (* write entries added, live and dead *)
  mutable n_live : int;
  mutable write_rids : (int, write_entry) Hashtbl.t option;
      (* rid -> live entry *)
  mutable inserts : (int * Storage.Table.Key.t, write_entry) Hashtbl.t option;
      (* (table uid, key) -> entry; only live buffered inserts; created on
         the first insert *)
  mutable buckets : bucket option array; (* index = container id *)
  mutable by_table : (int, write_entry Util.Vec.t) Hashtbl.t option;
      (* table uid -> entries (live and dead), for own-write visibility scans
         in the query layer; created on the first write *)
}

let create ~id =
  {
    tid = id;
    containers = IntSet.empty;
    n_reads = 0;
    read_rids = None;
    n_entries = 0;
    n_live = 0;
    write_rids = None;
    inserts = None;
    buckets = [||];
    by_table = None;
  }

let id t = t.tid
let containers t = IntSet.elements t.containers
let touch t c = t.containers <- IntSet.add c t.containers

let new_bucket () =
  { breads = Util.Vec.create (); bwrites = Util.Vec.create ();
    bnodes = Util.Vec.create (); blive = 0 }

let bucket t c =
  let n = Array.length t.buckets in
  if c >= n then begin
    let grown = Array.make (Stdlib.max (c + 1) (Stdlib.max 4 (2 * n))) None in
    Array.blit t.buckets 0 grown 0 n;
    t.buckets <- grown
  end;
  match t.buckets.(c) with
  | Some b -> b
  | None ->
    let b = new_bucket () in
    t.buckets.(c) <- Some b;
    b

let bucket_opt t c = if c < Array.length t.buckets then t.buckets.(c) else None

let table_bucket t table =
  let by_table =
    match t.by_table with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      t.by_table <- Some h;
      h
  in
  let uid = table.Storage.Table.uid in
  match Hashtbl.find_opt by_table uid with
  | Some v -> v
  | None ->
    let v = Util.Vec.create () in
    Hashtbl.add by_table uid v;
    v

(* [f] on every entry of every bucket's [field], containers ascending. *)
let iter_buckets t field f =
  Array.iter (function None -> () | Some b -> Util.Vec.iter f (field b)) t.buckets

(* Small-set lookups: a scan over at most [small] entries, in plain loops
   so that it allocates nothing. *)
let scan_read t rid =
  let hit = ref false and c = ref 0 in
  while (not !hit) && !c < Array.length t.buckets do
    (match t.buckets.(!c) with
    | Some b ->
      for i = 0 to Util.Vec.length b.breads - 1 do
        if (fst (Util.Vec.get b.breads i)).Storage.Record.rid = rid then hit := true
      done
    | None -> ());
    incr c
  done;
  !hit

let scan_write t rid =
  let hit = ref None and c = ref 0 in
  while Option.is_none !hit && !c < Array.length t.buckets do
    (match t.buckets.(!c) with
    | Some b ->
      for i = 0 to Util.Vec.length b.bwrites - 1 do
        let e = Util.Vec.get b.bwrites i in
        if e.wlive && e.wrec.Storage.Record.rid = rid then hit := Some e
      done
    | None -> ());
    incr c
  done;
  !hit

let add_write_entry t e =
  let b = bucket t e.wcontainer in
  Util.Vec.push b.bwrites e;
  b.blive <- b.blive + 1;
  t.n_entries <- t.n_entries + 1;
  t.n_live <- t.n_live + 1;
  (match t.write_rids with
  | Some h -> Hashtbl.add h e.wrec.Storage.Record.rid e
  | None ->
    if t.n_entries > small then begin
      let h = Hashtbl.create 32 in
      iter_buckets t (fun b -> b.bwrites) (fun e ->
          if e.wlive then Hashtbl.add h e.wrec.Storage.Record.rid e);
      t.write_rids <- Some h
    end);
  Util.Vec.push (table_bucket t e.wtable) e

(* Cancel a live entry (delete of own insert): drop it from the lookup
   tables and counters; its bucket slots are skipped from now on. *)
let kill_entry t e =
  e.wlive <- false;
  t.n_live <- t.n_live - 1;
  Option.iter (fun h -> Hashtbl.remove h e.wrec.Storage.Record.rid) t.write_rids;
  match bucket_opt t e.wcontainer with
  | Some b -> b.blive <- b.blive - 1
  | None -> assert false

let own_write t record =
  let rid = record.Storage.Record.rid in
  match t.write_rids with
  | Some h -> Hashtbl.find_opt h rid
  | None -> scan_write t rid

let own_insert t ~table ~key =
  match t.inserts with
  | None -> None
  | Some h -> Hashtbl.find_opt h (table.Storage.Table.uid, key)

let own_in_table t table =
  match t.by_table with
  | None -> None
  | Some h -> Hashtbl.find_opt h table.Storage.Table.uid

let own_updates_for t ~table =
  match own_in_table t table with
  | None -> []
  | Some v ->
    Util.Vec.fold_left
      (fun acc e ->
        match e.kind with
        | Update data when e.wlive -> (e.wkey, data) :: acc
        | _ -> acc)
      [] v

let own_inserts_for t ~table =
  match own_in_table t table with
  | None -> []
  | Some v ->
    Util.Vec.fold_left
      (fun acc e ->
        match e.kind with
        | Insert when e.wlive -> (e.wkey, e.wrec.Storage.Record.data) :: acc
        | _ -> acc)
      [] v

let note_read t ~container record =
  let rid = record.Storage.Record.rid in
  let seen =
    match t.read_rids with Some h -> Hashtbl.mem h rid | None -> scan_read t rid
  in
  if not seen then begin
    Util.Vec.push (bucket t container).breads (record, record.Storage.Record.tid);
    t.n_reads <- t.n_reads + 1;
    match t.read_rids with
    | Some h -> Hashtbl.add h rid ()
    | None ->
      if t.n_reads > small then begin
        let h = Hashtbl.create 64 in
        iter_buckets t (fun b -> b.breads) (fun (r, _) ->
            Hashtbl.add h r.Storage.Record.rid ());
        t.read_rids <- Some h
      end
  end;
  touch t container

let read t ~container record =
  match own_write t record with
  | Some { kind = Update data; _ } -> Some data
  | Some { kind = Delete; _ } -> None
  | Some { kind = Insert; wrec; _ } ->
    (* Own buffered insert: visible without read-set tracking (the record is
       private to this transaction until install). *)
    Some wrec.Storage.Record.data
  | None ->
    note_read t ~container record;
    if record.Storage.Record.absent then None
    else Some record.Storage.Record.data

let write t ~container ~table ~key record data =
  Storage.Schema.validate table.Storage.Table.schema data;
  touch t container;
  match own_write t record with
  | Some ({ kind = Update _; _ } as e) -> e.kind <- Update data
  | Some { kind = Insert; wrec; _ } -> wrec.Storage.Record.data <- data
  | Some { kind = Delete; _ } -> raise (Abort "write after delete of same record")
  | None ->
    add_write_entry t
      { wrec = record; kind = Update data; wtable = table; wkey = key;
        wcontainer = container; wlive = true; wdisplaced = None }

let insert t ~container ~table tuple =
  Storage.Schema.validate table.Storage.Table.schema tuple;
  touch t container;
  let key = Storage.Table.key_of_tuple table tuple in
  if Option.is_some (own_insert t ~table ~key) then
    raise (Abort "duplicate key (own insert)");
  (* Execution-time uniqueness probe. The leaf witness protects against a
     concurrent committer inserting the same key before we install. *)
  let clash = ref false in
  (match
     Storage.Table.find
       ~on_node:(fun w -> Util.Vec.push (bucket t container).bnodes w)
       table key
   with
  | Some existing ->
    if existing.Storage.Record.absent then begin
      (* Reserved by a concurrent preparer, or a committed delete. In the
         former case the key is effectively taken; in the latter the record
         is a tombstone we must not collide with structurally — observe it
         and treat present-flip as a conflict. *)
      note_read t ~container existing;
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
    { wrec = record; kind = Insert; wtable = table; wkey = key;
      wcontainer = container; wlive = true; wdisplaced = None }
  in
  add_write_entry t entry;
  let inserts =
    match t.inserts with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 16 in
      t.inserts <- Some h;
      h
  in
  Hashtbl.add inserts (table.Storage.Table.uid, key) entry

let delete t ~container ~table ~key record =
  touch t container;
  match own_write t record with
  | Some ({ kind = Insert; _ } as e) ->
    Option.iter (fun h -> Hashtbl.remove h (table.Storage.Table.uid, key)) t.inserts;
    kill_entry t e
  | Some ({ kind = Update _; _ } as e) -> e.kind <- Delete
  | Some { kind = Delete; _ } -> ()
  | None ->
    add_write_entry t
      { wrec = record; kind = Delete; wtable = table; wkey = key;
        wcontainer = container; wlive = true; wdisplaced = None }

let note_node t ~container w =
  touch t container;
  Util.Vec.push (bucket t container).bnodes w

(* ---- per-container iteration (the commit protocol's hot path) ---- *)

let iter_reads_in t ~container ~f =
  match bucket_opt t container with
  | None -> ()
  | Some b -> Util.Vec.iter (fun (r, observed) -> f r observed) b.breads

let iter_writes_in t ~container ~f =
  match bucket_opt t container with
  | None -> ()
  | Some b -> Util.Vec.iter (fun e -> if e.wlive then f e) b.bwrites

let iter_nodes_in t ~container ~f =
  match bucket_opt t container with
  | None -> ()
  | Some b -> Util.Vec.iter f b.bnodes

let ops_in t ~container =
  match bucket_opt t container with
  | None -> 0
  | Some b -> Util.Vec.length b.breads + b.blive

(* ---- list views (tests, history recording) ---- *)

let reads_in t ~container =
  match bucket_opt t container with
  | None -> []
  | Some b -> Util.Vec.to_list b.breads

let writes_in t ~container =
  match bucket_opt t container with
  | None -> []
  | Some b ->
    List.rev
      (Util.Vec.fold_left
         (fun acc e -> if e.wlive then e :: acc else acc)
         [] b.bwrites)

let nodes_in t ~container =
  match bucket_opt t container with
  | None -> []
  | Some b -> Util.Vec.to_list b.bnodes

(* Ascending container id, then insertion order: deterministic, unlike the
   hashtable fold this replaces. *)
let all_writes t =
  let out = ref [] in
  for c = Array.length t.buckets - 1 downto 0 do
    match t.buckets.(c) with
    | None -> ()
    | Some b ->
      for i = Util.Vec.length b.bwrites - 1 downto 0 do
        let e = Util.Vec.get b.bwrites i in
        if e.wlive then out := e :: !out
      done
  done;
  !out

let iter_all_writes t ~f =
  Array.iter
    (function
      | None -> ()
      | Some b -> Util.Vec.iter (fun e -> if e.wlive then f e) b.bwrites)
    t.buckets

let read_count t = t.n_reads
let write_count t = t.n_live
