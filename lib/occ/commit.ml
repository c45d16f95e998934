open Txn

let locked_kind e = match e.kind with Update _ | Delete -> true | Insert -> false

(* Remove a reserved insert from its table if the reservation happened; a
   tombstone the reservation displaced goes back into the primary index. *)
let unreserve ~txn:id e =
  match Storage.Table.find e.wtable e.wkey with
  | Some r when r == e.wrec ->
    ignore (Storage.Table.remove e.wtable e.wkey);
    (match e.wdisplaced with
    | Some tomb ->
      Storage.Table.reinstate e.wtable tomb;
      Storage.Record.unlock tomb ~txn:id;
      e.wdisplaced <- None
    | None -> ())
  | _ -> ()

let release txn ~container =
  let id = Txn.id txn in
  iter_writes_in txn ~container ~f:(fun e ->
      if locked_kind e then Storage.Record.unlock e.wrec ~txn:id
      else unreserve ~txn:id e)

type fail_reason = Lock_busy | Stale_read | Node_changed | Key_exists

let fail_message = function
  | Lock_busy -> "write lock busy"
  | Stale_read -> "stale read"
  | Node_changed -> "node witness changed"
  | Key_exists -> "insert key exists"

exception Invalid


let prepare txn ~container =
  let id = Txn.id txn in
  (* Updates/deletes of this container only, locked in global rid order:
     they are gathered from the container's slice and sorted in place. *)
  let acc = Util.Vec.create () in
  iter_writes_in txn ~container ~f:(fun e ->
      if locked_kind e then Util.Vec.push acc e);
  let lockable = Util.Vec.to_array acc in
  Array.sort
    (fun a b -> Int.compare a.wrec.Storage.Record.rid b.wrec.Storage.Record.rid)
    lockable;
  let n = Array.length lockable in
  let acquired = ref 0 in
  let rec lock_all i =
    i = n
    ||
    if Storage.Record.try_lock lockable.(i).wrec ~txn:id then begin
      acquired := i + 1;
      lock_all (i + 1)
    end
    else false
  in
  let unlock_acquired () =
    for j = 0 to !acquired - 1 do
      Storage.Record.unlock lockable.(j).wrec ~txn:id
    done
  in
  if not (lock_all 0) then begin
    unlock_acquired ();
    Error Lock_busy
  end
  else begin
    let reads_ok =
      try
        iter_reads_in txn ~container ~f:(fun r observed ->
            if r.Storage.Record.tid <> observed then raise Invalid;
            match Storage.Record.locked_by r with
            | None -> ()
            | Some owner -> if owner <> id then raise Invalid);
        (* A projected read also passes a moved TID when no install has
           changed one of its columns: the table's mask only grows, and
           every install ORs into it before publishing its TID. *)
        if has_col_reads txn ~container then
          iter_col_reads_in txn ~container ~f:(fun c ->
              if
                c.crec.Storage.Record.tid <> c.cseen
                && c.cmask land c.ctable.Storage.Table.changed <> 0
              then raise Invalid;
              match Storage.Record.locked_by c.crec with
              | None -> ()
              | Some owner -> if owner <> id then raise Invalid);
        true
      with Invalid -> false
    in
    if not reads_ok then begin
      unlock_acquired ();
      Error Stale_read
    end
    else begin
      let nodes_ok =
        try
          iter_nodes_in txn ~container ~f:(fun w ->
              if not (Storage.Table.Idx.witness_valid w) then raise Invalid);
          true
        with Invalid -> false
      in
      if not nodes_ok then begin
        unlock_acquired ();
        Error Node_changed
      end
      else begin
        (* Reserve inserts; a conflict here (concurrent installer beat us past
           our witness) rolls back this container's work. An unlocked
           committed-delete tombstone (retained for snapshot readers) is not a
           conflict: lock it out of circulation and displace it from the
           index — transactions that observed the key as dead now fail their
           read validation against the locked tombstone. *)
        let reserved = ref [] in
        let ok =
          try
            iter_writes_in txn ~container ~f:(fun e ->
                if e.kind = Insert then begin
                  (match Storage.Table.find e.wtable e.wkey with
                  | Some existing ->
                    if
                      existing.Storage.Record.absent
                      && Storage.Record.try_lock existing ~txn:id
                    then e.wdisplaced <- Some existing
                    else raise Invalid
                  | None -> e.wdisplaced <- None);
                  ignore (Storage.Table.insert e.wtable e.wrec);
                  reserved := e :: !reserved
                end);
            true
          with Invalid -> false
        in
        if not ok then begin
          List.iter (unreserve ~txn:id) !reserved;
          unlock_acquired ();
          Error Key_exists
        end
        else Ok ()
      end
    end
  end

let compute_tid txn ~epoch =
  let hi = ref 0 in
  List.iter
    (fun c ->
      Txn.iter_reads_in txn ~container:c ~f:(fun _ observed ->
          if observed > !hi then hi := observed);
      if Txn.has_col_reads txn ~container:c then
        Txn.iter_col_reads_in txn ~container:c ~f:(fun r ->
            if r.cseen > !hi then hi := r.cseen))
    (Txn.containers txn);
  Txn.iter_all_writes txn ~f:(fun e ->
      let t = e.wrec.Storage.Record.tid in
      if t > !hi then hi := t);
  Storage.Record.next_tid ~epoch (if !hi = 0 then [] else [ !hi ])

(* [?horizon] switches on multi-version publishing: the version being
   overwritten retires into the record's chain (epoch-stamped by its old
   TID), deletes keep the record in the primary index as a snapshot-visible
   tombstone and bury it in its table's graveyard, and chains are trimmed
   to [horizon] — the oldest epoch any live or future snapshot can request
   — as inline GC. Every insert or delete also reclaims its table's
   tombstones deleted at or before [horizon] (DESIGN.md §10.3). Without
   [horizon] the original single-version Silo install runs: no chains,
   deletes physically unlink. Either way an update ORs the columns it
   changes, and a delete every column, into its table's [changed] mask
   before it publishes its TID, so a projected read validated after the
   TID moved sees the mask too. *)
(* The mask saturates early (a table's updates keep changing the same
   columns), so it is written only when it grows: a store per install
   would keep the table's cache line moving between the domains whose
   tables share it. *)
let mark_changed tbl cols =
  let m = tbl.Storage.Table.changed in
  if cols land lnot m <> 0 then tbl.Storage.Table.changed <- m lor cols

let install ?horizon txn ~container ~tid =
  let id = Txn.id txn in
  iter_writes_in txn ~container ~f:(fun e ->
      let r = e.wrec in
      (match e.kind with
      | Update data ->
        mark_changed e.wtable (Storage.Table.changed_cols r.Storage.Record.data data);
        (match horizon with
        | Some h ->
          Storage.Record.retire r ~new_tid:tid;
          (* update_data relocates secondary-index entries when indexed
             columns changed *)
          Storage.Table.update_data e.wtable r data;
          r.Storage.Record.tid <- tid;
          Storage.Record.trim r ~horizon:h
        | None ->
          Storage.Table.update_data e.wtable r data;
          r.Storage.Record.tid <- tid)
      | Delete -> (
        mark_changed e.wtable Storage.Table.all_cols;
        match horizon with
        | Some h ->
          Storage.Record.retire r ~new_tid:tid;
          r.Storage.Record.absent <- true;
          r.Storage.Record.tid <- tid;
          Storage.Record.trim r ~horizon:h;
          Storage.Table.sec_forget e.wtable r;
          Storage.Table.bury e.wtable e.wkey r;
          Storage.Table.reclaim e.wtable ~horizon:h
        | None ->
          r.Storage.Record.absent <- true;
          r.Storage.Record.tid <- tid;
          ignore (Storage.Table.remove e.wtable e.wkey))
      | Insert -> (
        match horizon with
        | Some h ->
          (match e.wdisplaced with
          | Some tomb ->
            (* The displaced tombstone (and its older versions) becomes the
               new record's history: snapshots before this insert still see
               the key dead, older ones see the pre-delete rows. *)
            Storage.Record.graft r ~from:tomb;
            e.wdisplaced <- None
          | None -> ());
          r.Storage.Record.absent <- false;
          r.Storage.Record.tid <- tid;
          Storage.Record.trim r ~horizon:h;
          Storage.Table.reclaim e.wtable ~horizon:h
        | None ->
          r.Storage.Record.absent <- false;
          r.Storage.Record.tid <- tid));
      Storage.Record.unlock r ~txn:id)

let commit_single ?horizon txn ~epoch ~container =
  match prepare txn ~container with
  | Ok () ->
    let tid = compute_tid txn ~epoch in
    install ?horizon txn ~container ~tid;
    Ok tid
  | Error r -> Error r
