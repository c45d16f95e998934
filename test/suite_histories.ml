(* Tests for the §2.3 formal machinery: projection, serializability
   checking in both models, Theorem 2.7 as a property, and certification
   of actual execution histories, which both backends record. *)

open Histories

let check_bool = Alcotest.(check bool)

let ev ?(st = 0) t r item w =
  { Model.e_txn = t; e_st = st; e_reactor = r; e_item = item; e_write = w }

let test_serial_history_serializable () =
  (* T1 fully before T2, conflicting on the same item. *)
  let h = [ ev 1 0 "x" true; ev 1 0 "y" false; ev 2 0 "x" true ] in
  check_bool "reactor model" true (Model.reactor_serializable h);
  check_bool "classic model" true (Model.classic_serializable (Model.project h))

let test_cycle_not_serializable () =
  (* T1 reads x then writes y; T2 writes x after T1's read but reads y before
     T1's write: T1 -> T2 (rw on x), T2 -> T1 (rw on y). *)
  let h =
    [ ev 1 0 "x" false; ev 2 0 "y" false; ev 2 0 "x" true; ev 1 0 "y" true ]
  in
  check_bool "reactor model detects cycle" false (Model.reactor_serializable h);
  check_bool "classic model detects cycle" false
    (Model.classic_serializable (Model.project h))

let test_same_item_different_reactors_no_conflict () =
  (* The same item name in different reactors is a different data item
     (disjoint state, §2.3.2): no conflict, hence serializable. *)
  let h =
    [ ev 1 0 "x" false; ev 2 1 "x" true; ev 2 0 "q" true; ev 1 1 "q" true ]
  in
  (* cross pattern but on (reactor, item) pairs that do not collide *)
  check_bool "disjoint reactors" true (Model.reactor_serializable h);
  (* projection must preserve that: k ◦ x names differ *)
  check_bool "projection too" true (Model.classic_serializable (Model.project h))

let test_projection_name_mapping () =
  let h = [ ev 1 3 "x" true; ev 1 7 "x" true ] in
  match Model.project h with
  | [ a; b ] ->
    check_bool "distinct projected items" true (a.Model.c_item <> b.Model.c_item)
  | _ -> Alcotest.fail "arity"

let test_serial_order_witness () =
  let h = [ ev 2 0 "x" true; ev 1 0 "x" true ] in
  (match Model.serial_order h with
  | Some order -> Alcotest.(check (list int)) "T2 before T1" [ 2; 1 ] order
  | None -> Alcotest.fail "serializable");
  let bad =
    [ ev 1 0 "x" true; ev 2 0 "x" true; ev 2 0 "y" true; ev 1 0 "y" true ]
  in
  check_bool "no witness for cycle" true (Model.serial_order bad = None)

let test_has_cycle () =
  check_bool "cycle" true (Model.has_cycle [ (1, [ 2 ]); (2, [ 3 ]); (3, [ 1 ]) ]);
  check_bool "dag" false (Model.has_cycle [ (1, [ 2; 3 ]); (2, [ 3 ]) ]);
  check_bool "self loop" true (Model.has_cycle [ (1, [ 1 ]) ])

(* Theorem 2.7 as a property: for random histories (nested sub-transaction
   structure, several reactors/items), reactor-model serializability agrees
   with classic-model serializability of the projection. *)
let gen_history =
  QCheck.Gen.(
    list_size (int_range 0 30)
      (map
         (fun (t, st, r, item, w) ->
           {
             Model.e_txn = 1 + t;
             e_st = st;
             e_reactor = r;
             e_item = String.make 1 (Char.chr (Char.code 'a' + item));
             e_write = w;
           })
         (tup5 (int_bound 4) (int_bound 3) (int_bound 2) (int_bound 2) bool)))

let prop_theorem_2_7 =
  QCheck.Test.make ~name:"Theorem 2.7: serializable iff projection is"
    ~count:500 (QCheck.make gen_history)
    (fun h ->
      Model.reactor_serializable h
      = Model.classic_serializable (Model.project h))

(* --- certification of recorded histories --- *)

let test_certify_clean () =
  let entries =
    [
      { Certify.c_txn = 1; c_tid = 10; c_reads = [ (100, 0) ]; c_col_reads = [];
        c_writes = [ (100, -1) ] };
      { Certify.c_txn = 2; c_tid = 20; c_reads = [ (100, 10) ]; c_col_reads = [];
        c_writes = [ (100, -1) ] };
    ]
  in
  match Certify.check entries with
  | Ok order -> Alcotest.(check (list int)) "order" [ 1; 2 ] order
  | Error m -> Alcotest.failf "unexpected: %s" m

let test_certify_detects_cycle () =
  (* T1 read x@0 and wrote y@10; T2 read y@0 and wrote x@10: each read the
     version preceding the other's write — classic write-skew cycle. *)
  let entries =
    [
      { Certify.c_txn = 1; c_tid = 10; c_reads = [ (1, 0) ]; c_col_reads = [];
        c_writes = [ (2, -1) ] };
      { Certify.c_txn = 2; c_tid = 10; c_reads = [ (2, 0) ]; c_col_reads = [];
        c_writes = [ (1, -1) ] };
    ]
  in
  check_bool "write-skew cycle" true (Result.is_error (Certify.check entries))

let test_certify_detects_impossible_read () =
  let entries =
    [ { Certify.c_txn = 1; c_tid = 10; c_reads = [ (1, 77) ]; c_col_reads = [];
        c_writes = [] } ]
  in
  check_bool "phantom tid" true (Result.is_error (Certify.check entries))

(* Column granularity. T2 read record 2 whole and changed column b of
   record 1; T1 read column a of record 1 before that write and then wrote
   record 2. By record, each read a version the other overwrote: a cycle.
   By column, T1 never read what T2 wrote, so T2 then T1 is a witness; if
   T2's write changed column a, the cycle is real. *)
let column_history ~t1_reads ~t2_changes =
  let a = 1 lsl 1 and b = 1 lsl 2 in
  let t1_reads, t1_cols =
    if t1_reads = `Whole then ([ (1, 0) ], []) else ([], [ (1, 0, a) ])
  in
  [
    { Certify.c_txn = 2; c_tid = 10; c_reads = [ (2, 0) ]; c_col_reads = [];
      c_writes = [ (1, if t2_changes = `A then a else b) ] };
    { Certify.c_txn = 1; c_tid = 20; c_reads = t1_reads; c_col_reads = t1_cols;
      c_writes = [ (2, -1) ] };
  ]

let test_certify_columns () =
  (match Certify.check (column_history ~t1_reads:`Cols ~t2_changes:`B) with
  | Ok order -> Alcotest.(check (list int)) "witness by column" [ 2; 1 ] order
  | Error m -> Alcotest.failf "disjoint columns rejected: %s" m);
  check_bool "the same reads by record form a cycle" true
    (Result.is_error (Certify.check (column_history ~t1_reads:`Whole ~t2_changes:`B)));
  check_bool "a cycle by column" true
    (Result.is_error (Certify.check (column_history ~t1_reads:`Cols ~t2_changes:`A)))

(* A projected read takes its wr edge from the last write of one of its
   columns at or before the TID it observed, not from whichever write
   installed that TID. T2 changed column b of record 1 at TID 20 and wrote
   record 3; T3 read column a of record 1 at TID 20 but record 3 before
   T2's write. T3 saw nothing T2 wrote, so T3 then T2 is a witness; had
   T3 read column b, it would have read T2's write both before and after
   it. A projected read of a TID nobody installed is still refused. *)
let test_certify_column_versions () =
  let a = 1 lsl 1 and b = 1 lsl 2 in
  let h cols =
    [
      { Certify.c_txn = 2; c_tid = 20; c_reads = []; c_col_reads = [];
        c_writes = [ (1, b); (3, -1) ] };
      { Certify.c_txn = 3; c_tid = 30; c_reads = [ (3, 0) ];
        c_col_reads = [ (1, 20, cols) ]; c_writes = [] };
    ]
  in
  (match Certify.check (h a) with
  | Ok order -> Alcotest.(check (list int)) "reader of a first" [ 3; 2 ] order
  | Error m -> Alcotest.failf "reader of an unchanged column rejected: %s" m);
  check_bool "reader of the changed column" true (Result.is_error (Certify.check (h b)));
  let phantom =
    [ { Certify.c_txn = 1; c_tid = 10; c_reads = []; c_col_reads = [ (1, 77, a) ];
        c_writes = [] } ]
  in
  check_bool "projected read of a TID never installed" true
    (Result.is_error (Certify.check phantom))

(* End-to-end: record histories from adversarial simulator executions
   under every deployment and certify them. Despite their names the
   [certify_runtime_*] cases run the simulator; the runtime's own cases
   follow them. *)
let certify_run ?(accounts = 4) config =
  Testlib.with_db ~n:accounts config (fun db ->
      Reactdb.Database.enable_history db;
      Testlib.run_conflict_workload ~accounts db ~workers:6 ~per_worker:30;
      match Audit.certify (Reactdb.Database.history db) with
      | Ok n -> check_bool "history non-trivial" true (n > 50)
      | Error m -> Alcotest.failf "execution not serializable: %s" m)

let test_certify_runtime_se () = certify_run (Testlib.se_config ~affinity:false 4 4)
let test_certify_runtime_sn () = certify_run ~accounts:16 (Testlib.sn_config 16)

let test_certify_runtime_affinity () =
  certify_run (Testlib.se_config ~affinity:true 2 4)

(* Runtime histories: 2 domains under each ingress policy, recorded from
   [start], before any traffic. Every committed root records one entry,
   except read-only snapshot roots (TPC-C order-status and stock-level),
   which record none. *)
let routings =
  let open Reactdb.Config in
  [ ("affinity", Affinity, false); ("round-robin", Round_robin, false);
    ("stealing", Affinity, true); ("cost", Cost, false) ]

(* [gen db w rng] is worker [w]'s next request. *)
let certify_runtime_run ?(audit = ignore) (router, steal) decl names ~per_worker gen =
  let cfg = Reactdb.Config.of_groups ~router (Reactdb.Config.chunk 2 names) in
  let db = Runtime.Db.start ~steal decl cfg in
  Runtime.Db.enable_history db;
  let (_ : int) =
    Harness.run_fixed ~max_retries:3 (Harness.runtime db) ~n_workers:4 ~per_worker
      ~seed:5 (gen db)
  in
  Runtime.Db.shutdown db;
  Testlib.audit "no fatals" (Audit.fatal db);
  audit db;
  match Audit.certify (Runtime.Db.history db) with
  | Ok n ->
    Alcotest.(check int) "one entry per committed OCC root"
      (Runtime.Db.n_committed db - Runtime.Db.n_readonly_commits db) n
  | Error m -> Alcotest.failf "runtime execution not serializable: %s" m

let certify_runtime_bank routing () =
  certify_runtime_run routing (Testlib.bank_decl 4) (Testlib.names 4) ~per_worker:100
    (fun _ _ rng -> Testlib.random_transfer rng ~accounts:4)

let certify_runtime_ycsb routing () =
  let module Y = Workloads.Ycsb in
  let p = Y.params ~txn_keys:4 ~theta:0.99 32 in
  certify_runtime_run routing (Y.decl ~keys:32 ()) (Y.keys 32) ~per_worker:100
    (fun db _ rng -> Y.gen_multi_update rng p ~container_of:(Runtime.Db.container_of db))

(* The TPC-C mix; each worker draws history ids from its own range, and the
   warehouses then pass TPC-C's consistency audit. *)
let certify_runtime_tpcc routing () =
  let module T = Workloads.Tpcc in
  let p = T.params ~sizes:T.small_sizes 2 in
  let seqs = Array.init 4 (fun w -> ref (w * 1_000_000)) in
  certify_runtime_run routing
    ~audit:(fun db -> Testlib.audit "tpcc consistency" (Audit.tpcc (Runtime.Db.catalogs db)))
    (T.decl ~warehouses:2 ~sizes:T.small_sizes ())
    (T.warehouses 2) ~per_worker:60
    (fun _ w rng -> T.gen_mix rng p ~home:(1 + (w mod 2)) ~seq:seqs.(w))

let runtime_cases =
  List.concat_map
    (fun (wl, case) ->
      List.map
        (fun (name, router, steal) ->
          Alcotest.test_case
            (Printf.sprintf "runtime certifies %s, %s" wl name)
            `Quick (case (router, steal)))
        routings)
    [ ("bank", certify_runtime_bank); ("ycsb", certify_runtime_ycsb);
      ("tpcc", certify_runtime_tpcc) ]

let suite =
  ( "histories",
    [
      Alcotest.test_case "serial history" `Quick test_serial_history_serializable;
      Alcotest.test_case "cycle detected" `Quick test_cycle_not_serializable;
      Alcotest.test_case "reactor state disjoint" `Quick
        test_same_item_different_reactors_no_conflict;
      Alcotest.test_case "projection naming" `Quick test_projection_name_mapping;
      Alcotest.test_case "serial order witness" `Quick test_serial_order_witness;
      Alcotest.test_case "cycle detection" `Quick test_has_cycle;
      QCheck_alcotest.to_alcotest prop_theorem_2_7;
      Alcotest.test_case "certify clean" `Quick test_certify_clean;
      Alcotest.test_case "certify cycle" `Quick test_certify_detects_cycle;
      Alcotest.test_case "certify impossible read" `Quick
        test_certify_detects_impossible_read;
      Alcotest.test_case "certify by column" `Quick test_certify_columns;
      Alcotest.test_case "certify column versions" `Quick test_certify_column_versions;
      Alcotest.test_case "certify runtime SE" `Quick test_certify_runtime_se;
      Alcotest.test_case "certify runtime SN" `Quick test_certify_runtime_sn;
      Alcotest.test_case "certify runtime affinity" `Quick
        test_certify_runtime_affinity;
    ]
    @ runtime_cases )
