(* Unit tests for the Silo-style OCC layer: visibility, validation,
   phantom protection, and the 2PC primitives. *)

open Util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sch =
  Storage.Schema.make ~name:"kv"
    ~columns:[ ("k", Value.TInt); ("v", Value.TInt) ]
    ~key:[ "k" ]

let fresh_table () =
  let tbl = Storage.Table.create sch in
  for i = 0 to 9 do
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false [| Value.Int i; Value.Int (100 + i) |]))
  done;
  tbl

let ids = ref 0

let fresh_txn () =
  incr ids;
  Occ.Txn.create ~id:!ids ~containers:3

let key i = [| Value.Int i |]

let read_v txn ~c tbl i =
  match Storage.Table.find tbl (key i) with
  | None -> None
  | Some r -> (
    match Occ.Txn.read txn ~container:c r with
    | Some data -> Some (Value.to_int data.(1))
    | None -> None)

let write_v txn ~c tbl i v =
  match Storage.Table.find tbl (key i) with
  | None -> Alcotest.fail "missing record"
  | Some r ->
    Occ.Txn.write txn ~container:c ~table:tbl ~key:(key i) r
      [| Value.Int i; Value.Int v |]

let test_read_own_writes () =
  let tbl = fresh_table () in
  let t = fresh_txn () in
  write_v t ~c:0 tbl 3 999;
  Alcotest.(check (option int)) "sees own write" (Some 999) (read_v t ~c:0 tbl 3);
  Occ.Txn.insert t ~container:0 ~table:tbl [| Value.Int 50; Value.Int 1 |];
  (match Occ.Txn.own_insert t ~container:0 ~table:tbl ~key:(key 50) with
  | Some e ->
    check_int "own insert visible" 1
      (Value.to_int e.Occ.Txn.wrec.Storage.Record.data.(1))
  | None -> Alcotest.fail "own insert missing");
  (* Buffered insert is not physically in the table pre-commit. *)
  check_bool "not yet physical" true (Storage.Table.find tbl (key 50) = None)

let test_commit_installs () =
  let tbl = fresh_table () in
  let t = fresh_txn () in
  write_v t ~c:0 tbl 1 42;
  Occ.Txn.insert t ~container:0 ~table:tbl [| Value.Int 60; Value.Int 2 |];
  (match Storage.Table.find tbl (key 2) with
  | Some r ->
    Occ.Txn.delete t ~container:0 ~table:tbl ~key:(key 2) r
  | None -> Alcotest.fail "missing");
  (match Occ.Commit.commit_single t ~epoch:1 ~container:0 with
  | Ok tid -> check_bool "tid positive" true (tid > 0)
  | Error r -> Alcotest.failf "commit failed: %s" (Occ.Commit.fail_message r));
  let t2 = fresh_txn () in
  Alcotest.(check (option int)) "update visible" (Some 42) (read_v t2 ~c:0 tbl 1);
  check_bool "insert installed" true (Storage.Table.find tbl (key 60) <> None);
  check_bool "delete removed" true (Storage.Table.find tbl (key 2) = None)

let test_write_write_conflict () =
  let tbl = fresh_table () in
  let t1 = fresh_txn () and t2 = fresh_txn () in
  (* Both read-modify-write key 4; t1 commits first; t2 must fail
     validation on its stale read. *)
  ignore (read_v t1 ~c:0 tbl 4);
  ignore (read_v t2 ~c:0 tbl 4);
  write_v t1 ~c:0 tbl 4 1;
  write_v t2 ~c:0 tbl 4 2;
  check_bool "t1 commits" true
    (Result.is_ok (Occ.Commit.commit_single t1 ~epoch:1 ~container:0));
  check_bool "t2 aborts" true
    (Result.is_error (Occ.Commit.commit_single t2 ~epoch:1 ~container:0));
  let t3 = fresh_txn () in
  Alcotest.(check (option int)) "t1's write survives" (Some 1) (read_v t3 ~c:0 tbl 4)

let test_blind_write_no_conflict () =
  (* Blind writes (no read) of disjoint values: both commit, last wins. *)
  let tbl = fresh_table () in
  let t1 = fresh_txn () and t2 = fresh_txn () in
  write_v t1 ~c:0 tbl 5 1;
  write_v t2 ~c:0 tbl 5 2;
  check_bool "t1 ok" true
    (Result.is_ok (Occ.Commit.commit_single t1 ~epoch:1 ~container:0));
  check_bool "t2 ok (no read validation)" true
    (Result.is_ok (Occ.Commit.commit_single t2 ~epoch:1 ~container:0));
  let t3 = fresh_txn () in
  Alcotest.(check (option int)) "last wins" (Some 2) (read_v t3 ~c:0 tbl 5)

let test_phantom_protection () =
  let tbl = fresh_table () in
  (* t1 scans keys [20, 30] (empty), t2 inserts 25 and commits, t1 must
     fail validation through its node set. *)
  let t1 = fresh_txn () and t2 = fresh_txn () in
  let seen = ref 0 in
  Storage.Table.range tbl ~lo:(key 20) ~hi:(key 30)
    ~on_node:(fun w -> Occ.Txn.note_node t1 ~container:0 w)
    ~f:(fun _ -> incr seen; true);
  check_int "empty range" 0 !seen;
  (* t1 must also write something, else it has nothing to validate against;
     give it a write to force full validation. *)
  write_v t1 ~c:0 tbl 0 7;
  Occ.Txn.insert t2 ~container:0 ~table:tbl [| Value.Int 25; Value.Int 1 |];
  check_bool "t2 commits" true
    (Result.is_ok (Occ.Commit.commit_single t2 ~epoch:1 ~container:0));
  check_bool "t1 aborts on phantom" true
    (Result.is_error (Occ.Commit.commit_single t1 ~epoch:1 ~container:0))

(* A point lookup as the query layer makes it: the miss's leaf witness
   goes into [t]'s node set, a hit is read (and validated) by its TID. *)
let lookup t ~c tbl i =
  match
    Storage.Table.find ~on_node:(Occ.Txn.note_node t ~container:c) tbl (key i)
  with
  | None -> None
  | Some r ->
    Option.map (fun d -> Value.to_int d.(1)) (Occ.Txn.read t ~container:c r)

let commits t = Result.is_ok (Occ.Commit.commit_single t ~epoch:1 ~container:0)

(* t1 finds key 3 and updates it; t2 inserts key 15 into the same leaf and
   commits first. The leaf changed, but not t1's record: t1 commits. *)
let test_hit_ignores_leaf_insert () =
  let tbl = fresh_table () in
  let t1 = fresh_txn () and t2 = fresh_txn () in
  Alcotest.(check (option int)) "found" (Some 103) (lookup t1 ~c:0 tbl 3);
  write_v t1 ~c:0 tbl 3 7;
  Occ.Txn.insert t2 ~container:0 ~table:tbl [| Value.Int 15; Value.Int 1 |];
  check_bool "t2 inserts into the leaf" true (commits t2);
  match Occ.Commit.commit_single t1 ~epoch:1 ~container:0 with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "t1 aborted: %s" (Occ.Commit.fail_message r)

(* A missed key keeps its witness: a committed insert of that key aborts
   the reader (a scanned range is [test_phantom_protection]). *)
let test_miss_keeps_witness () =
  let tbl = fresh_table () in
  let t1 = fresh_txn () and t2 = fresh_txn () in
  Alcotest.(check (option int)) "miss" None (lookup t1 ~c:0 tbl 20);
  write_v t1 ~c:0 tbl 0 1;
  Occ.Txn.insert t2 ~container:0 ~table:tbl [| Value.Int 20; Value.Int 1 |];
  check_bool "t2 inserts the key" true (commits t2);
  match Occ.Commit.commit_single t1 ~epoch:1 ~container:0 with
  | Error Occ.Commit.Node_changed -> ()
  | Error r -> Alcotest.failf "wrong reason %s" (Occ.Commit.fail_message r)
  | Ok _ -> Alcotest.fail "t1 committed over a phantom"

(* [reads_covered]: every read record updated or deleted in the slice, and
   no node witness. *)
let test_reads_covered () =
  let tbl = fresh_table () in
  let covered t = Occ.Txn.reads_covered t ~container:0 in
  let t = fresh_txn () in
  check_bool "no slice" true (covered t);
  write_v t ~c:0 tbl 1 1;
  check_bool "blind write" true (covered t);
  ignore (read_v t ~c:0 tbl 2);
  check_bool "read-only record" false (covered t);
  write_v t ~c:0 tbl 2 2;
  check_bool "read record updated" true (covered t);
  ignore (read_v t ~c:0 tbl 3);
  Occ.Txn.delete t ~container:0 ~table:tbl ~key:(key 3)
    (Option.get (Storage.Table.find tbl (key 3)));
  check_bool "read record deleted" true (covered t);
  check_bool "other containers untouched" true (Occ.Txn.reads_covered t ~container:1);
  let scan = fresh_txn () in
  Storage.Table.range tbl ~lo:(key 4) ~hi:(key 5)
    ~on_node:(Occ.Txn.note_node scan ~container:0) ~f:(fun _ -> true);
  check_bool "scan" false (covered scan);
  let miss = fresh_txn () in
  ignore (lookup miss ~c:0 tbl 20);
  check_bool "miss" false (covered miss);
  let ins = fresh_txn () in
  Occ.Txn.insert ins ~container:0 ~table:tbl [| Value.Int 21; Value.Int 1 |];
  check_bool "insert probe" false (covered ins)

let test_insert_insert_conflict () =
  let tbl = fresh_table () in
  let t1 = fresh_txn () and t2 = fresh_txn () in
  Occ.Txn.insert t1 ~container:0 ~table:tbl [| Value.Int 77; Value.Int 1 |];
  Occ.Txn.insert t2 ~container:0 ~table:tbl [| Value.Int 77; Value.Int 2 |];
  check_bool "t1 commits" true
    (Result.is_ok (Occ.Commit.commit_single t1 ~epoch:1 ~container:0));
  check_bool "t2 aborts (duplicate)" true
    (Result.is_error (Occ.Commit.commit_single t2 ~epoch:1 ~container:0));
  let t3 = fresh_txn () in
  Alcotest.(check (option int)) "t1's row" (Some 1) (read_v t3 ~c:0 tbl 77)

let test_insert_existing_aborts_immediately () =
  let tbl = fresh_table () in
  let t = fresh_txn () in
  check_bool "duplicate key raises Conflict" true
    (try
       Occ.Txn.insert t ~container:0 ~table:tbl [| Value.Int 3; Value.Int 0 |];
       false
     with Occ.Txn.Conflict _ -> true)

let test_delete_then_reinsert_other_txn () =
  let tbl = fresh_table () in
  let t1 = fresh_txn () in
  (match Storage.Table.find tbl (key 7) with
  | Some r -> Occ.Txn.delete t1 ~container:0 ~table:tbl ~key:(key 7) r
  | None -> Alcotest.fail "missing");
  check_bool "t1 commits delete" true
    (Result.is_ok (Occ.Commit.commit_single t1 ~epoch:1 ~container:0));
  let t2 = fresh_txn () in
  Occ.Txn.insert t2 ~container:0 ~table:tbl [| Value.Int 7; Value.Int 5 |];
  check_bool "reinsert commits" true
    (Result.is_ok (Occ.Commit.commit_single t2 ~epoch:1 ~container:0));
  let t3 = fresh_txn () in
  Alcotest.(check (option int)) "new row" (Some 5) (read_v t3 ~c:0 tbl 7)

(* ---- tombstone reclamation (snapshot-mode installs, DESIGN.md §10.3) ---- *)

(* Commit [f]'s writes alone on container 0 at [epoch], publishing with
   [horizon]. *)
let commit_at ~epoch ~horizon f =
  let t = fresh_txn () in
  f t;
  match Occ.Commit.commit_single ~horizon t ~epoch ~container:0 with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "commit: %s" (Occ.Commit.fail_message r)

let delete_k t tbl i =
  match Storage.Table.find tbl (key i) with
  | Some r -> Occ.Txn.delete t ~container:0 ~table:tbl ~key:(key i) r
  | None -> Alcotest.failf "missing key %d" i

let insert_k t tbl i v = Occ.Txn.insert t ~container:0 ~table:tbl [| Value.Int i; Value.Int v |]

let tombstone tbl i =
  match Storage.Table.find tbl (key i) with
  | Some r when r.Storage.Record.absent -> r
  | _ -> Alcotest.failf "no tombstone under key %d" i

(* A transaction that read a key as dead through its tombstone — a read,
   or an insert's uniqueness probe — must fail validation once the
   tombstone is reclaimed and the key re-inserted: a point hit carries no
   leaf witness, so the tombstone's own state is what fails. *)
let test_reader_of_reclaimed_tombstone () =
  let tbl = fresh_table () in
  commit_at ~epoch:1 ~horizon:0 (fun t -> delete_k t tbl 3);
  let tomb = tombstone tbl 3 in
  let reader = fresh_txn () in
  Alcotest.(check (option int)) "read as dead" None (read_v reader ~c:0 tbl 3);
  write_v reader ~c:0 tbl 5 55;
  let prober = fresh_txn () in
  insert_k prober tbl 3 33;
  (* an install past the delete's epoch reclaims; the key is re-inserted *)
  commit_at ~epoch:3 ~horizon:2 (fun t -> insert_k t tbl 40 4);
  check_bool "tombstone unlinked" true (Storage.Table.find tbl (key 3) = None);
  check_bool "tombstone marked" true (Storage.Record.is_reclaimed tomb);
  commit_at ~epoch:3 ~horizon:2 (fun t -> insert_k t tbl 3 7);
  check_bool "reader fails with a stale read" true
    (Occ.Commit.prepare reader ~container:0 = Error Occ.Commit.Stale_read);
  check_bool "insert probe fails with a stale read" true
    (Occ.Commit.prepare prober ~container:0 = Error Occ.Commit.Stale_read);
  let t = fresh_txn () in
  Alcotest.(check (option int)) "re-inserted row" (Some 7) (read_v t ~c:0 tbl 3)

(* An insert that displaced a tombstone and then rolled back puts the
   tombstone back in the index and in the graveyard, whose entry for it
   was dropped while the reservation held the key. *)
let test_rolled_back_insert_reburies () =
  let tbl = fresh_table () in
  commit_at ~epoch:1 ~horizon:0 (fun t -> delete_k t tbl 3);
  let tomb = tombstone tbl 3 in
  let ins = fresh_txn () in
  insert_k ins tbl 3 9;
  check_bool "insert prepares over the tombstone" true
    (Occ.Commit.prepare ins ~container:0 = Ok ());
  commit_at ~epoch:3 ~horizon:2 (fun t -> insert_k t tbl 40 4);
  check_bool "the reservation holds the key" false (Storage.Record.is_reclaimed tomb);
  Occ.Commit.release ins ~container:0;
  check_bool "rollback reinstates the tombstone" true (tombstone tbl 3 == tomb);
  commit_at ~epoch:3 ~horizon:2 (fun t -> insert_k t tbl 41 4);
  check_bool "re-buried tombstone reclaimed" true
    (Storage.Table.find tbl (key 3) = None && Storage.Record.is_reclaimed tomb);
  check_int "live rows only" 11 (Storage.Table.size tbl)

(* A horizon below the delete's epoch keeps the tombstone; one at it
   reclaims, together with the chain; no horizon unlinks at once. *)
let test_reclaim_waits_for_horizon () =
  let tbl = fresh_table () in
  commit_at ~epoch:1 ~horizon:0 (fun t -> write_v t ~c:0 tbl 3 1);
  commit_at ~epoch:2 ~horizon:0 (fun t -> delete_k t tbl 3);
  let tomb = tombstone tbl 3 in
  commit_at ~epoch:3 ~horizon:1 (fun t -> insert_k t tbl 40 4);
  check_bool "kept below the horizon" true (tombstone tbl 3 == tomb);
  (match Storage.Record.snapshot_read tomb ~snapshot:1 with
  | Some row -> check_int "pre-delete row at epoch 1" 1 (Value.to_int row.(1))
  | None -> Alcotest.fail "epoch-1 row lost");
  commit_at ~epoch:3 ~horizon:2 (fun t -> delete_k t tbl 40);
  check_bool "reclaimed at the horizon" true (Storage.Table.find tbl (key 3) = None);
  check_int "chain dropped" 0 (Storage.Record.chain_length tomb);
  let t = fresh_txn () in
  delete_k t tbl 4;
  check_bool "single-version delete" true
    (Result.is_ok (Occ.Commit.commit_single t ~epoch:4 ~container:0));
  check_bool "unlinked at once without a horizon" true
    (Storage.Table.find tbl (key 4) = None)

(* Property: with every install reclaiming the tombstones its horizon has
   passed, a reader's validation still fails whenever the key it read has
   changed since — deleted, re-inserted (before or after its tombstone
   was reclaimed) or updated. Writers commit one at a time at a
   nondecreasing epoch, with the horizon one epoch behind; one last insert
   two epochs later leaves the index holding the live rows only. *)
let prop_reclaim_keeps_validation_sound =
  QCheck.Test.make ~name:"validation stays sound under tombstone reclamation"
    ~count:300
    QCheck.(list_of_size Gen.(1 -- 80) (triple (int_bound 2) (int_bound 5) (int_bound 99)))
    (fun ops ->
      let tbl = Storage.Table.create sch in
      let model = Hashtbl.create 8 in
      let epoch = ref 1 in
      let readers = Queue.create () in
      let sound = ref true in
      let read t i =
        match Storage.Table.find ~on_node:(Occ.Txn.note_node t ~container:0) tbl (key i) with
        | None -> None
        | Some r ->
          Option.map (fun d -> Value.to_int d.(1)) (Occ.Txn.read t ~container:0 r)
      in
      List.iter
        (fun (op, k, v) ->
          match op with
          | 0 ->
            epoch := !epoch + (v mod 2);
            let t = fresh_txn () in
            (match Hashtbl.find_opt model k with
            | None ->
              insert_k t tbl k v;
              Hashtbl.replace model k v
            | Some _ when v mod 3 = 0 ->
              delete_k t tbl k;
              Hashtbl.remove model k
            | Some _ ->
              write_v t ~c:0 tbl k v;
              Hashtbl.replace model k v);
            if Result.is_error
                 (Occ.Commit.commit_single ~horizon:(!epoch - 1) t ~epoch:!epoch ~container:0)
            then sound := false
          | 1 ->
            let t = fresh_txn () in
            Queue.add (t, k, read t k) readers
          | _ -> (
            match Queue.take_opt readers with
            | None -> ()
            | Some (t, k, seen) ->
              let valid = Occ.Commit.prepare t ~container:0 = Ok () in
              Occ.Commit.release t ~container:0;
              if valid && seen <> Hashtbl.find_opt model k then sound := false))
        ops;
      commit_at ~epoch:(!epoch + 2) ~horizon:(!epoch + 1) (fun t -> insert_k t tbl 100 0);
      !sound
      && List.for_all
           (fun k ->
             let t = fresh_txn () in
             read t k = Hashtbl.find_opt model k)
           [ 0; 1; 2; 3; 4; 5 ]
      && Storage.Table.size tbl = Hashtbl.length model + 1)

let test_2pc_prepare_release () =
  (* Two containers, each with its own table; release after one prepare
     leaves no residue. *)
  let tbl0 = fresh_table () and tbl1 = fresh_table () in
  let t = fresh_txn () in
  write_v t ~c:0 tbl0 1 11;
  write_v t ~c:1 tbl1 2 22;
  check_bool "prepare c0" true (Result.is_ok (Occ.Commit.prepare t ~container:0));
  (* Simulate failure on container 1: release both. *)
  Occ.Commit.release t ~container:0;
  Occ.Commit.release t ~container:1;
  let t2 = fresh_txn () in
  Alcotest.(check (option int)) "no residue c0" (Some 101) (read_v t2 ~c:0 tbl0 1);
  (match Storage.Table.find tbl0 (key 1) with
  | Some r -> check_bool "unlocked" false (Storage.Record.is_locked r)
  | None -> Alcotest.fail "missing")

let test_2pc_full_commit () =
  let tbl0 = fresh_table () and tbl1 = fresh_table () in
  let t = fresh_txn () in
  write_v t ~c:0 tbl0 1 11;
  Occ.Txn.insert t ~container:1 ~table:tbl1 [| Value.Int 88; Value.Int 8 |];
  Alcotest.(check (list int)) "containers" [ 0; 1 ] (Occ.Txn.containers t);
  check_bool "prepare c0" true (Result.is_ok (Occ.Commit.prepare t ~container:0));
  check_bool "prepare c1" true (Result.is_ok (Occ.Commit.prepare t ~container:1));
  let tid = Occ.Commit.compute_tid t ~epoch:2 in
  Occ.Commit.install t ~container:0 ~tid;
  Occ.Commit.install t ~container:1 ~tid;
  let t2 = fresh_txn () in
  Alcotest.(check (option int)) "c0 installed" (Some 11) (read_v t2 ~c:0 tbl0 1);
  Alcotest.(check (option int)) "c1 installed" (Some 8) (read_v t2 ~c:1 tbl1 88);
  check_int "tid epoch" 2 (Storage.Record.tid_epoch tid)

let test_prepare_locked_by_other_fails () =
  let tbl = fresh_table () in
  let t1 = fresh_txn () and t2 = fresh_txn () in
  write_v t1 ~c:0 tbl 1 11;
  write_v t2 ~c:0 tbl 1 22;
  check_bool "t1 prepares (locks)" true
    (Result.is_ok (Occ.Commit.prepare t1 ~container:0));
  (match Occ.Commit.prepare t2 ~container:0 with
  | Error Occ.Commit.Lock_busy -> ()
  | Error r ->
    Alcotest.failf "t2 prepare: wrong reason %s" (Occ.Commit.fail_message r)
  | Ok () -> Alcotest.fail "t2 prepare should fail on lock");
  (* t2 read-validating against a locked record also fails. *)
  let t3 = fresh_txn () in
  ignore (read_v t3 ~c:0 tbl 1);
  write_v t3 ~c:0 tbl 2 0;
  (match Occ.Commit.prepare t3 ~container:0 with
  | Error Occ.Commit.Stale_read -> ()
  | Error r ->
    Alcotest.failf "t3 prepare: wrong reason %s" (Occ.Commit.fail_message r)
  | Ok () -> Alcotest.fail "reader of locked record must fail validation");
  Occ.Commit.release t1 ~container:0

let test_reserved_insert_blocks_concurrent_insert () =
  let tbl = fresh_table () in
  let t1 = fresh_txn () in
  Occ.Txn.insert t1 ~container:0 ~table:tbl [| Value.Int 90; Value.Int 1 |];
  check_bool "t1 prepares (reserves 90)" true
    (Result.is_ok (Occ.Commit.prepare t1 ~container:0));
  (* Concurrent executor tries to insert the same key mid-2PC: the
     execution-time probe sees the reservation. *)
  let t2 = fresh_txn () in
  check_bool "t2 insert aborts on reservation" true
    (try
       Occ.Txn.insert t2 ~container:0 ~table:tbl [| Value.Int 90; Value.Int 2 |];
       false
     with Occ.Txn.Conflict _ -> true);
  Occ.Commit.release t1 ~container:0;
  check_bool "reservation rolled back" true (Storage.Table.find tbl (key 90) = None)

let test_write_after_delete_rejected () =
  let tbl = fresh_table () in
  let t = fresh_txn () in
  (match Storage.Table.find tbl (key 1) with
  | Some r ->
    Occ.Txn.delete t ~container:0 ~table:tbl ~key:(key 1) r;
    check_bool "write-after-delete aborts" true
      (try
         Occ.Txn.write t ~container:0 ~table:tbl ~key:(key 1) r
           [| Value.Int 1; Value.Int 0 |];
         false
       with Occ.Txn.Abort _ -> true)
  | None -> Alcotest.fail "missing")

let test_delete_own_insert_cancels () =
  let tbl = fresh_table () in
  let t = fresh_txn () in
  Occ.Txn.insert t ~container:0 ~table:tbl [| Value.Int 91; Value.Int 1 |];
  (match Occ.Txn.own_insert t ~container:0 ~table:tbl ~key:(key 91) with
  | Some e -> Occ.Txn.delete t ~container:0 ~table:tbl ~key:(key 91) e.Occ.Txn.wrec
  | None -> Alcotest.fail "missing own insert");
  check_int "write set empty" 0 (Occ.Txn.write_count t);
  check_bool "commit clean" true
    (Result.is_ok (Occ.Commit.commit_single t ~epoch:1 ~container:0));
  check_bool "nothing installed" true (Storage.Table.find tbl (key 91) = None)

(* ------------------------------------------------------------------ *)
(* Property: the per-container slices behind reads_in/writes_in/nodes_in/
   ops_in and the per-table entries behind own_updates_for/own_inserts_for
   agree with a naive whole-set-filter reference across randomized
   read/write/insert/delete/scan sequences, including the write-after-delete
   and delete-of-own-insert edge cases. As in the system, each table lives
   in one container: a generated case binds every table to a container and
   accesses it only there.

   The reference below is the pre-bucketing implementation: one flat
   hashtable per set, filtered per container/table on every query. It runs
   in lockstep with the real context against the same physical tables (no
   operation mutates the table before commit, so the two never interfere). *)

module Naive = struct
  type wkind = NUpdate of Value.t array | NInsert | NDelete

  type wentry = {
    nrec : Storage.Record.t;
    mutable nkind : wkind;
    ntable : Storage.Table.t;
    nkey : Storage.Table.Key.t;
    ncontainer : int;
  }

  type t = {
    reads : (int, Storage.Record.t * int * int) Hashtbl.t;
    writes : (int, wentry) Hashtbl.t;
    inserts : (int * Storage.Table.Key.t, wentry) Hashtbl.t;
    mutable nodes : (int * Storage.Table.witness) list;
  }

  let create () =
    { reads = Hashtbl.create 64; writes = Hashtbl.create 16;
      inserts = Hashtbl.create 16; nodes = [] }

  let own_write t record = Hashtbl.find_opt t.writes record.Storage.Record.rid
  let own_insert t ~table ~key = Hashtbl.find_opt t.inserts (table.Storage.Table.uid, key)

  let note_read t ~container record =
    let rid = record.Storage.Record.rid in
    if not (Hashtbl.mem t.reads rid) then
      Hashtbl.add t.reads rid (record, record.Storage.Record.tid, container)

  let read t ~container record =
    match own_write t record with
    | Some { nkind = NUpdate data; _ } -> Some data
    | Some { nkind = NDelete; _ } -> None
    | Some { nkind = NInsert; nrec; _ } -> Some nrec.Storage.Record.data
    | None ->
      note_read t ~container record;
      if record.Storage.Record.absent then None
      else Some record.Storage.Record.data

  let write t ~container ~table ~key record data =
    match own_write t record with
    | Some ({ nkind = NUpdate _; _ } as e) -> e.nkind <- NUpdate data
    | Some { nkind = NInsert; nrec; _ } -> nrec.Storage.Record.data <- data
    | Some { nkind = NDelete; _ } -> raise (Occ.Txn.Abort "write after delete")
    | None ->
      Hashtbl.add t.writes record.Storage.Record.rid
        { nrec = record; nkind = NUpdate data; ntable = table; nkey = key;
          ncontainer = container }

  let insert t ~container ~table tuple =
    let key = Storage.Table.key_of_tuple table tuple in
    if Hashtbl.mem t.inserts (table.Storage.Table.uid, key) then
      raise (Occ.Txn.Abort "duplicate key (own insert)");
    let clash = ref false in
    (match
       Storage.Table.find
         ~on_node:(fun w -> t.nodes <- (container, w) :: t.nodes)
         table key
     with
    | Some existing ->
      if existing.Storage.Record.absent then begin
        note_read t ~container existing;
        if Storage.Record.is_locked existing then clash := true
      end
      else clash := true
    | None -> ());
    if !clash then raise (Occ.Txn.Abort "duplicate key");
    let record = Storage.Record.fresh ~absent:true tuple in
    let entry =
      { nrec = record; nkind = NInsert; ntable = table; nkey = key;
        ncontainer = container }
    in
    Hashtbl.add t.writes record.Storage.Record.rid entry;
    Hashtbl.add t.inserts (table.Storage.Table.uid, key) entry

  let delete t ~container ~table ~key record =
    match own_write t record with
    | Some { nkind = NInsert; nrec; _ } ->
      Hashtbl.remove t.writes nrec.Storage.Record.rid;
      Hashtbl.remove t.inserts (table.Storage.Table.uid, key)
    | Some ({ nkind = NUpdate _; _ } as e) -> e.nkind <- NDelete
    | Some { nkind = NDelete; _ } -> ()
    | None ->
      Hashtbl.add t.writes record.Storage.Record.rid
        { nrec = record; nkind = NDelete; ntable = table; nkey = key;
          ncontainer = container }

  let note_node t ~container w = t.nodes <- (container, w) :: t.nodes

  let reads_in t ~container =
    Hashtbl.fold
      (fun _ (r, observed, c) acc ->
        if c = container then (r, observed) :: acc else acc)
      t.reads []

  let writes_in t ~container =
    Hashtbl.fold
      (fun _ e acc -> if e.ncontainer = container then e :: acc else acc)
      t.writes []

  let nodes_in t ~container =
    List.filter_map (fun (c, w) -> if c = container then Some w else None) t.nodes

  let own_updates_for t ~table =
    Hashtbl.fold
      (fun _ e acc ->
        match e.nkind with
        | NUpdate data when e.ntable.Storage.Table.uid = table.Storage.Table.uid
          ->
          (e.nkey, data) :: acc
        | _ -> acc)
      t.writes []

  let own_inserts_for t ~table =
    Hashtbl.fold
      (fun (uid, key) e acc ->
        if uid = table.Storage.Table.uid then
          (key, e.nrec.Storage.Record.data) :: acc
        else acc)
      t.inserts []
end

type prop_op =
  | PRead of int * int * int (* table, key, container *)
  | PWrite of int * int * int * int (* table, key, container, value *)
  | PIns of int * int * int * int
  | PDel of int * int * int
  | PScan of int * int * int * int (* table, lo, hi, container *)

(* Write-entry projection comparable across the two contexts (buffered
   inserts allocate distinct records, so rids cannot be compared). *)
let wproj_real (e : Occ.Txn.write_entry) =
  let tag, payload =
    match e.Occ.Txn.kind with
    | Occ.Txn.Update d -> (0, d)
    | Occ.Txn.Insert -> (1, e.Occ.Txn.wrec.Storage.Record.data)
    | Occ.Txn.Delete -> (2, [||])
  in
  (e.Occ.Txn.wtable.Storage.Table.uid, e.Occ.Txn.wkey, tag, payload)

let wproj_naive (e : Naive.wentry) =
  let tag, payload =
    match e.Naive.nkind with
    | Naive.NUpdate d -> (0, d)
    | Naive.NInsert -> (1, e.Naive.nrec.Storage.Record.data)
    | Naive.NDelete -> (2, [||])
  in
  (e.Naive.ntable.Storage.Table.uid, e.Naive.nkey, tag, payload)

let sorted l = List.sort Stdlib.compare l

let prop_tables () =
  let mk () =
    let tbl = Storage.Table.create sch in
    for i = 0 to 14 do
      ignore
        (Storage.Table.insert tbl
           (Storage.Record.fresh ~absent:false [| Value.Int i; Value.Int (100 + i) |]))
    done;
    (* Tombstones: committed deletes an insert probe must observe. *)
    List.iter
      (fun k ->
        ignore
          (Storage.Table.insert tbl
             (Storage.Record.fresh ~absent:true [| Value.Int k; Value.Int 0 |])))
      [ 100; 101 ];
    tbl
  in
  [| mk (); mk () |]

let apply_both tables txn naive op =
  let run_both f g =
    (* Both sides must agree on whether the operation aborts. *)
    let r =
      try Ok (f ()) with
      | Occ.Txn.Abort m | Occ.Txn.Conflict m -> Error m
    in
    let n = try Ok (g ()) with Occ.Txn.Abort _ -> Error "abort" in
    match r, n with
    | Ok (), Ok () -> true
    | Error _, Error _ -> true
    | _ -> false
  in
  match op with
  | PRead (t, k, c) -> (
    let tbl = tables.(t) in
    match Storage.Table.find tbl [| Value.Int k |] with
    | None -> true
    | Some r ->
      let a = Occ.Txn.read txn ~container:c r in
      let b = Naive.read naive ~container:c r in
      a = b)
  | PWrite (t, k, c, v) -> (
    let tbl = tables.(t) in
    let key = [| Value.Int k |] in
    let data = [| Value.Int k; Value.Int v |] in
    match Occ.Txn.own_insert txn ~container:c ~table:tbl ~key with
    | Some e ->
      run_both
        (fun () -> Occ.Txn.write txn ~container:c ~table:tbl ~key e.Occ.Txn.wrec data)
        (fun () ->
          match Naive.own_insert naive ~table:tbl ~key with
          | Some ne -> Naive.write naive ~container:c ~table:tbl ~key ne.Naive.nrec data
          | None -> Alcotest.fail "naive missing own insert")
    | None -> (
      match Storage.Table.find tbl key with
      | None -> true
      | Some r ->
        run_both
          (fun () -> Occ.Txn.write txn ~container:c ~table:tbl ~key r data)
          (fun () -> Naive.write naive ~container:c ~table:tbl ~key r data)))
  | PIns (t, k, c, v) ->
    let tbl = tables.(t) in
    run_both
      (fun () -> Occ.Txn.insert txn ~container:c ~table:tbl [| Value.Int k; Value.Int v |])
      (fun () -> Naive.insert naive ~container:c ~table:tbl [| Value.Int k; Value.Int v |])
  | PDel (t, k, c) -> (
    let tbl = tables.(t) in
    let key = [| Value.Int k |] in
    match Occ.Txn.own_insert txn ~container:c ~table:tbl ~key with
    | Some e ->
      run_both
        (fun () -> Occ.Txn.delete txn ~container:c ~table:tbl ~key e.Occ.Txn.wrec)
        (fun () ->
          match Naive.own_insert naive ~table:tbl ~key with
          | Some ne -> Naive.delete naive ~container:c ~table:tbl ~key ne.Naive.nrec
          | None -> Alcotest.fail "naive missing own insert")
    | None -> (
      match Storage.Table.find tbl key with
      | None -> true
      | Some r ->
        run_both
          (fun () -> Occ.Txn.delete txn ~container:c ~table:tbl ~key r)
          (fun () -> Naive.delete naive ~container:c ~table:tbl ~key r)))
  | PScan (t, lo, hi, c) ->
    let tbl = tables.(t) in
    Storage.Table.range tbl ~lo:[| Value.Int lo |] ~hi:[| Value.Int hi |]
      ~on_node:(fun w ->
        Occ.Txn.note_node txn ~container:c w;
        Naive.note_node naive ~container:c w)
      ~f:(fun _ -> true);
    true

(* [bind.(t)] is table [t]'s container. *)
let contexts_agree bind tables txn naive =
  let ok = ref true in
  let check b = if not b then ok := false in
  for c = 0 to 2 do
    let rr =
      sorted
        (List.map
           (fun (r, obs) -> (r.Storage.Record.rid, obs))
           (Occ.Txn.reads_in txn ~container:c))
    in
    let nr =
      sorted
        (List.map
           (fun (r, obs) -> (r.Storage.Record.rid, obs))
           (Naive.reads_in naive ~container:c))
    in
    check (rr = nr);
    check
      (sorted (List.map wproj_real (Occ.Txn.writes_in txn ~container:c))
      = sorted (List.map wproj_naive (Naive.writes_in naive ~container:c)));
    check
      (List.length (Occ.Txn.nodes_in txn ~container:c)
      = List.length (Naive.nodes_in naive ~container:c));
    check
      (Occ.Txn.ops_in txn ~container:c
      = List.length (Naive.reads_in naive ~container:c)
        + List.length (Naive.writes_in naive ~container:c));
    (* Iterators must agree with the list views they mirror. *)
    let n = ref 0 in
    Occ.Txn.iter_writes_in txn ~container:c ~f:(fun _ -> incr n);
    check (!n = List.length (Occ.Txn.writes_in txn ~container:c));
    n := 0;
    Occ.Txn.iter_reads_in txn ~container:c ~f:(fun _ _ -> incr n);
    check (!n = List.length (Occ.Txn.reads_in txn ~container:c))
  done;
  Array.iteri
    (fun t tbl ->
      let container = bind.(t) in
      check
        (sorted (Occ.Txn.own_updates_for txn ~container ~table:tbl)
        = sorted (Naive.own_updates_for naive ~table:tbl));
      check
        (sorted (Occ.Txn.own_inserts_for txn ~container ~table:tbl)
        = sorted (Naive.own_inserts_for naive ~table:tbl)))
    tables;
  !ok

(* One operation on a table, under the container [bind] gives it. *)
let gen_prop_op bind =
  QCheck.Gen.(
    let table = int_bound 1 in
    let pkey = frequency [ (10, int_bound 20); (1, oneofl [ 100; 101 ]) ] in
    frequency
      [
        (3, map2 (fun t k -> PRead (t, k, bind.(t))) table pkey);
        ( 3,
          map3 (fun t k v -> PWrite (t, k, bind.(t), v)) table pkey (int_bound 999) );
        ( 2,
          map3 (fun t k v -> PIns (t, k, bind.(t), v)) table pkey (int_bound 999) );
        (2, map2 (fun t k -> PDel (t, k, bind.(t))) table pkey);
        (1, map2 (fun t lo -> PScan (t, lo, lo + 5, bind.(t))) table (int_bound 20));
      ])

(* A container for each of the two tables (possibly the same one; container
   2 may stay untouched), then the operations. *)
let gen_prop_case =
  QCheck.Gen.(
    let* bind = array_size (return 2) (int_bound 2) in
    let* ops = list_size (int_range 0 60) (gen_prop_op bind) in
    return (bind, ops))

let prop_buckets_match_reference =
  QCheck.Test.make ~name:"per-container buckets = naive whole-set reference"
    ~count:200 (QCheck.make gen_prop_case)
    (fun (bind, ops) ->
      let tables = prop_tables () in
      let txn = fresh_txn () in
      let naive = Naive.create () in
      List.for_all (fun op -> apply_both tables txn naive op) ops
      && contexts_agree bind tables txn naive)

(* Everything a container's slice exposes, comparable across snapshots. *)
let slice_view txn c =
  ( sorted
      (List.map
         (fun (r, obs) -> (r.Storage.Record.rid, obs))
         (Occ.Txn.reads_in txn ~container:c)),
    List.map wproj_real (Occ.Txn.writes_in txn ~container:c),
    List.length (Occ.Txn.nodes_in txn ~container:c),
    Occ.Txn.ops_in txn ~container:c )

let op_container = function
  | PRead (_, _, c) | PWrite (_, _, c, _) | PIns (_, _, c, _) | PDel (_, _, c)
  | PScan (_, _, _, c) ->
    c

(* Property: an operation on one container leaves every other container's
   slice as it was, which is what lets a root's sub-transactions on
   different containers run in parallel. *)
let prop_other_slices_unchanged =
  QCheck.Test.make ~name:"operations leave other containers' slices unchanged"
    ~count:200 (QCheck.make gen_prop_case)
    (fun (_, ops) ->
      let tables = prop_tables () in
      let txn = fresh_txn () in
      let naive = Naive.create () in
      List.for_all
        (fun op ->
          let others = List.filter (( <> ) (op_container op)) [ 0; 1; 2 ] in
          let before = List.map (slice_view txn) others in
          ignore (apply_both tables txn naive op);
          before = List.map (slice_view txn) others)
        ops)

(* Deterministic run of the two edge cases the property relies on. Table 0
   lives in container 1, table 1 in container 0; container 2 holds
   nothing. *)
let test_bucket_edge_cases () =
  let tables = prop_tables () in
  let bind = [| 1; 0 |] in
  let txn = fresh_txn () in
  let naive = Naive.create () in
  let ops =
    [
      PIns (0, 50, 1, 7); (* buffered insert in container 1 *)
      PWrite (0, 50, 1, 8); (* write lands on own insert *)
      PDel (0, 50, 1); (* delete of own insert: entry dies *)
      PDel (0, 3, 1); (* delete of committed record *)
      PWrite (0, 3, 1, 9); (* write-after-delete: must abort *)
      PIns (0, 100, 1, 1); (* insert over tombstone: observes it *)
      PRead (1, 4, 0);
      PWrite (1, 4, 0, 11);
    ]
  in
  List.iter
    (fun op -> check_bool "op agrees" true (apply_both tables txn naive op))
    ops;
  check_bool "contexts agree" true (contexts_agree bind tables txn naive);
  check_int "container 2 has no live writes" 0
    (List.length (Occ.Txn.writes_in txn ~container:2));
  check_int "own inserts of table 0" 1
    (List.length (Occ.Txn.own_inserts_for txn ~container:1 ~table:tables.(0)))

(* The small-set boundary: up to 8 reads (write entries) a slice finds
   duplicates and its own writes by scanning them, from the 9th by rid
   tables. The table lives in container 0, so every entry lands in one
   slice; container 1 takes part in validation with an empty slice. Each
   size runs twice: undisturbed, and with a concurrent commit to the last
   record read, which must fail validation. *)
let test_small_set_boundary () =
  List.iter
    (fun n ->
      let name s = Printf.sprintf "%d entries: %s" n s in
      let run ~interfere =
        let tbl = Storage.Table.create sch in
        for i = 0 to n + 1 do
          ignore
            (Storage.Table.insert tbl
               (Storage.Record.fresh ~absent:false [| Value.Int i; Value.Int i |]))
        done;
        let t = fresh_txn () in
        let c _ = 0 in
        for i = 0 to n - 1 do
          ignore (read_v t ~c:(c i) tbl i)
        done;
        ignore (read_v t ~c:(c 0) tbl 0);
        ignore (read_v t ~c:0 tbl (n - 1));
        check_int (name "records read twice count once") n (Occ.Txn.read_count t);
        for i = 0 to n - 1 do
          write_v t ~c:(c i) tbl i (1000 + i)
        done;
        check_int (name "writes after reads") n (Occ.Txn.write_count t);
        for i = 0 to n - 1 do
          Alcotest.(check (option int))
            (name "own write visible") (Some (1000 + i)) (read_v t ~c:(c i) tbl i)
        done;
        check_int (name "own-write reads not tracked") n (Occ.Txn.read_count t);
        (match Storage.Table.find tbl (key (n + 1)) with
        | Some r ->
          check_bool (name "unwritten record") true
            (Occ.Txn.own_write t ~container:(c (n + 1)) r = None)
        | None -> Alcotest.fail "missing record");
        Occ.Txn.insert t ~container:0 ~table:tbl [| Value.Int 500; Value.Int 5 |];
        check_int (name "insert counted") (n + 1) (Occ.Txn.write_count t);
        let ins =
          match Occ.Txn.own_insert t ~container:0 ~table:tbl ~key:(key 500) with
          | Some e -> e.Occ.Txn.wrec
          | None -> Alcotest.fail "missing own insert"
        in
        check_bool (name "own insert found by rid") true
          (Occ.Txn.own_write t ~container:0 ins <> None);
        Occ.Txn.delete t ~container:0 ~table:tbl ~key:(key 500) ins;
        check_int (name "deleted own insert") n (Occ.Txn.write_count t);
        check_bool (name "own insert gone") true
          (Occ.Txn.own_write t ~container:0 ins = None
          && Occ.Txn.own_insert t ~container:0 ~table:tbl ~key:(key 500) = None);
        if interfere then begin
          let t2 = fresh_txn () in
          write_v t2 ~c:0 tbl (n - 1) 7;
          check_bool "interfering commit" true
            (Result.is_ok (Occ.Commit.commit_single t2 ~epoch:1 ~container:0))
        end;
        let votes = List.map (fun c -> Occ.Commit.prepare t ~container:c) [ 0; 1 ] in
        let expect vc =
          if interfere && vc = c (n - 1) then Error Occ.Commit.Stale_read else Ok ()
        in
        check_bool (name "validation outcome") true (votes = List.map expect [ 0; 1 ])
      in
      run ~interfere:false;
      run ~interfere:true)
    [ 7; 8; 9; 40 ]

(* ---- projected reads (column-aware validation) ---- *)

(* Rows (k, a, b, c) with k = 0..3 and every column k * 10 + its index. *)
let sch3 =
  Storage.Schema.make ~name:"kabc"
    ~columns:
      [ ("k", Value.TInt); ("a", Value.TInt); ("b", Value.TInt); ("c", Value.TInt) ]
    ~key:[ "k" ]

let fresh_table3 () =
  let tbl = Storage.Table.create sch3 in
  for i = 0 to 3 do
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false
            (Array.init 4 (fun j -> Value.Int (if j = 0 then i else (i * 10) + j)))))
  done;
  tbl

let mask cols = List.fold_left (fun m j -> m lor Storage.Table.col_bit j) 0 cols

(* Project columns [cols] of row [i]; the read is recorded with their
   mask. *)
let read_cols t tbl i cols =
  match Storage.Table.find tbl (key i) with
  | None -> Alcotest.failf "missing key %d" i
  | Some r ->
    Option.map
      (fun row -> List.map (fun j -> Value.to_int row.(j)) cols)
      (Occ.Txn.read_cols t ~container:0 ~table:tbl ~cols:(mask cols) r)

(* Read-modify-write: add [d] to column [j] of row [i], copying the rest. *)
let rmw t tbl i j d =
  match Storage.Table.find tbl (key i) with
  | None -> Alcotest.failf "missing key %d" i
  | Some r -> (
    match Occ.Txn.read t ~container:0 r with
    | None -> Alcotest.failf "dead key %d" i
    | Some row ->
      let row' = Array.copy row in
      row'.(j) <- Value.Int (Value.to_int row.(j) + d);
      Occ.Txn.write t ~container:0 ~table:tbl ~key:(key i) r row')

let install_modes = [ ("single-version", None); ("multi-version", Some 0) ]

let commit_ok ?horizon what t =
  match Occ.Commit.commit_single ?horizon t ~epoch:1 ~container:0 with
  | Ok tid -> tid
  | Error r -> Alcotest.failf "%s: %s" what (Occ.Commit.fail_message r)

let commit_result ?horizon t =
  Result.map ignore (Occ.Commit.commit_single ?horizon t ~epoch:1 ~container:0)

let test_projected_survives_other_columns () =
  List.iter
    (fun (mode, horizon) ->
      let tbl = fresh_table3 () in
      let t = fresh_txn () in
      Alcotest.(check (option (list int))) "projected values" (Some [ 11 ])
        (read_cols t tbl 1 [ 1 ]);
      let seen = (List.hd (Occ.Txn.col_reads_in t ~container:0)).Occ.Txn.cseen in
      for n = 1 to 3 do
        let w = fresh_txn () in
        rmw w tbl 1 (2 + (n mod 2)) n;
        ignore (commit_ok ?horizon (mode ^ ": writer of b or c") w)
      done;
      rmw t tbl 2 3 1;
      let tid = commit_ok ?horizon (mode ^ ": reader of a after three installs") t in
      check_bool (mode ^ ": commit TID above the observed one") true (tid > seen);
      check_int (mode ^ ": changed columns") (mask [ 2; 3 ]) tbl.Storage.Table.changed;
      (* a whole-row read of the same row does not survive *)
      let t = fresh_txn () in
      ignore (read_v t ~c:0 tbl 1);
      let w = fresh_txn () in
      rmw w tbl 1 2 1;
      ignore (commit_ok ?horizon (mode ^ ": writer of b") w);
      check_bool (mode ^ ": whole-row read fails") true
        (commit_result ?horizon t = Error Occ.Commit.Stale_read))
    install_modes

let test_projected_fails_on_its_columns () =
  List.iter
    (fun (mode, horizon) ->
      let fails what setup =
        let tbl = fresh_table3 () in
        let t = fresh_txn () in
        ignore (read_cols t tbl 1 [ 1; 2 ]);
        setup tbl;
        check_bool (mode ^ ": " ^ what) true
          (commit_result ?horizon t = Error Occ.Commit.Stale_read)
      in
      fails "an install changed one of its columns" (fun tbl ->
          let w = fresh_txn () in
          rmw w tbl 1 3 1;
          ignore (commit_ok ?horizon "writer of c" w);
          let w = fresh_txn () in
          rmw w tbl 1 2 1;
          ignore (commit_ok ?horizon "writer of b" w));
      fails "a column changed on another row after its row moved" (fun tbl ->
          let w = fresh_txn () in
          rmw w tbl 1 3 1;
          ignore (commit_ok ?horizon "writer of c" w);
          let w = fresh_txn () in
          rmw w tbl 0 1 1;
          ignore (commit_ok ?horizon "writer of a elsewhere" w));
      fails "its row was deleted" (fun tbl ->
          commit_at ~epoch:1 ~horizon:(Option.value horizon ~default:0) (fun w ->
              delete_k w tbl 1));
      fails "another transaction holds its lock" (fun tbl ->
          let w = fresh_txn () in
          rmw w tbl 1 3 1;
          check_bool "writer prepared" true (Occ.Commit.prepare w ~container:0 = Ok ())))
    install_modes;
  (* the lock alone fails the read; once released, the read passes *)
  let tbl = fresh_table3 () in
  let t = fresh_txn () in
  ignore (read_cols t tbl 1 [ 1 ]);
  let w = fresh_txn () in
  rmw w tbl 1 3 1;
  check_bool "writer prepared" true (Occ.Commit.prepare w ~container:0 = Ok ());
  check_bool "locked: stale" true (Occ.Commit.prepare t ~container:0 = Error Occ.Commit.Stale_read);
  Occ.Commit.release w ~container:0;
  check_bool "released: passes" true (Result.is_ok (commit_result t))

(* A delete's tombstone reclaimed under a projected reader of the row: the
   reader fails (the delete marked every column, and the reclaimed record
   stays locked for good). *)
let test_projected_fails_after_reclaim () =
  let tbl = fresh_table3 () in
  let t = fresh_txn () in
  ignore (read_cols t tbl 1 [ 1 ]);
  let r = Option.get (Storage.Table.find tbl (key 1)) in
  commit_at ~epoch:1 ~horizon:0 (fun w -> delete_k w tbl 1);
  commit_at ~epoch:3 ~horizon:2 (fun w ->
      Occ.Txn.insert w ~container:0 ~table:tbl [| Value.Int 9; Value.Int 0; Value.Int 0; Value.Int 0 |]);
  check_bool "tombstone reclaimed" true (Storage.Record.is_reclaimed r);
  check_bool "reader fails" true
    (Result.is_error (Occ.Commit.commit_single ~horizon:2 t ~epoch:3 ~container:0))

(* Dead rows are read whole; a row read whole is not recorded again;
   projected reads count as reads and are covered by their own writes. *)
let test_projected_bookkeeping () =
  let tbl = fresh_table3 () in
  commit_at ~epoch:1 ~horizon:0 (fun w -> delete_k w tbl 3);
  let t = fresh_txn () in
  Alcotest.(check (option (list int))) "dead row" None (read_cols t tbl 3 [ 1 ]);
  check_int "dead row read whole" 1 (List.length (Occ.Txn.reads_in t ~container:0));
  ignore (read_v t ~c:0 tbl 2);
  ignore (read_cols t tbl 2 [ 1 ]);
  check_int "row read whole not projected" 0
    (List.length (Occ.Txn.col_reads_in t ~container:0));
  let t = fresh_txn () in
  ignore (read_cols t tbl 1 [ 1 ]);
  check_int "counted as a read" 1 (Occ.Txn.read_count t);
  check_int "counted in the slice" 1 (Occ.Txn.ops_in t ~container:0);
  check_bool "not covered without a write" false (Occ.Txn.reads_covered t ~container:0);
  rmw t tbl 1 2 1;
  check_bool "covered by its own write" true (Occ.Txn.reads_covered t ~container:0)

(* Property: random interleavings of projected readers, whole-row readers
   and read-modify-writers over two rows and three columns. Each
   transaction runs its operations at one step and tries to commit at a
   later one; the committed ones' history entries, taken between prepare
   and install as the backends take them, always certify. *)
type col_op = Proj of int * int list | Whole of int | Rmw of int * int

let gen_col_txn =
  QCheck.Gen.(
    let row = int_bound 1 and col = int_range 1 3 in
    let op =
      frequency
        [ (3, map2 (fun r cs -> Proj (r, List.sort_uniq compare cs)) row (list_size (1 -- 2) col));
          (1, map (fun r -> Whole r) row);
          (3, map2 (fun r c -> Rmw (r, c)) row col) ]
    in
    pair (list_size (1 -- 3) op) (int_range 1 4))

let prop_projected_certifies =
  QCheck.Test.make ~name:"projected, whole-row and RMW interleavings certify" ~count:300
    QCheck.(
      make
        Gen.(pair bool (list_size (2 -- 8) gen_col_txn)))
    (fun (multi, txns) ->
      let tbl = Storage.Table.create sch3 in
      for i = 0 to 1 do
        ignore
          (Storage.Table.insert tbl
             (Storage.Record.fresh ~absent:false (Array.init 4 (fun j -> Value.Int (if j = 0 then i else 0)))))
      done;
      let horizon = if multi then Some 0 else None in
      let history = ref [] in
      (* transaction [i] starts at step [i] and ends [delay] steps later *)
      let started = Array.of_list (List.map (fun (ops, delay) -> (ops, delay, fresh_txn ())) txns) in
      let n = Array.length started in
      for step = 0 to n + 4 do
        if step < n then begin
          let ops, _, t = started.(step) in
          List.iter
            (function
              | Proj (r, cs) -> ignore (read_cols t tbl r cs)
              | Whole r -> ignore (read_v t ~c:0 tbl r)
              | Rmw (r, c) -> rmw t tbl r c 1)
            ops
        end;
        Array.iteri
          (fun i (_, delay, t) ->
            if i + delay = step then
              match Occ.Commit.prepare t ~container:0 with
              | Error _ -> ()
              | Ok () ->
                let tid = Occ.Commit.compute_tid t ~epoch:1 in
                history := Reactdb.Lifecycle.history_entry t ~tid :: !history;
                Occ.Commit.install ?horizon t ~container:0 ~tid)
          started
      done;
      match Histories.Certify.check !history with
      | Ok _ -> true
      | Error m -> QCheck.Test.fail_reportf "%d committed: %s" (List.length !history) m)

let suite =
  ( "occ",
    [
      Alcotest.test_case "read own writes" `Quick test_read_own_writes;
      Alcotest.test_case "commit installs" `Quick test_commit_installs;
      Alcotest.test_case "write-write conflict" `Quick test_write_write_conflict;
      Alcotest.test_case "blind writes" `Quick test_blind_write_no_conflict;
      Alcotest.test_case "phantom protection" `Quick test_phantom_protection;
      Alcotest.test_case "point hit ignores leaf inserts" `Quick
        test_hit_ignores_leaf_insert;
      Alcotest.test_case "missed key keeps its witness" `Quick test_miss_keeps_witness;
      Alcotest.test_case "reads covered by own locks" `Quick test_reads_covered;
      Alcotest.test_case "insert-insert conflict" `Quick test_insert_insert_conflict;
      Alcotest.test_case "duplicate insert aborts" `Quick
        test_insert_existing_aborts_immediately;
      Alcotest.test_case "delete then reinsert" `Quick
        test_delete_then_reinsert_other_txn;
      Alcotest.test_case "reader of reclaimed tombstone fails validation" `Quick
        test_reader_of_reclaimed_tombstone;
      Alcotest.test_case "rolled-back displacing insert re-buries tombstone" `Quick
        test_rolled_back_insert_reburies;
      Alcotest.test_case "tombstone reclaim waits for the horizon" `Quick
        test_reclaim_waits_for_horizon;
      Alcotest.test_case "2pc prepare/release" `Quick test_2pc_prepare_release;
      Alcotest.test_case "2pc full commit" `Quick test_2pc_full_commit;
      Alcotest.test_case "prepare fails on foreign lock" `Quick
        test_prepare_locked_by_other_fails;
      Alcotest.test_case "reservation blocks insert" `Quick
        test_reserved_insert_blocks_concurrent_insert;
      Alcotest.test_case "write after delete" `Quick test_write_after_delete_rejected;
      Alcotest.test_case "delete own insert" `Quick test_delete_own_insert_cancels;
      Alcotest.test_case "bucket edge cases" `Quick test_bucket_edge_cases;
      Alcotest.test_case "small-set boundary" `Quick test_small_set_boundary;
      QCheck_alcotest.to_alcotest prop_reclaim_keeps_validation_sound;
      QCheck_alcotest.to_alcotest prop_buckets_match_reference;
      QCheck_alcotest.to_alcotest prop_other_slices_unchanged;
      Alcotest.test_case "projected read survives installs to other columns" `Quick
        test_projected_survives_other_columns;
      Alcotest.test_case "projected read fails on its columns, a delete or a lock"
        `Quick test_projected_fails_on_its_columns;
      Alcotest.test_case "projected read fails after a reclaim" `Quick
        test_projected_fails_after_reclaim;
      Alcotest.test_case "projected read bookkeeping" `Quick test_projected_bookkeeping;
      QCheck_alcotest.to_alcotest prop_projected_certifies;
    ] )
