(* Tests for the shared correctness audits (lib/audit): each audit accepts
   a clean state and rejects one crafted bad state. *)

open Util
module SB = Workloads.Smallbank

let check_bool = Alcotest.(check bool)
let rejects name r = check_bool name true (Result.is_error r)

(* The first live record of [table] in [reactor]'s catalog. *)
let first_row cats reactor table =
  let tbl = Storage.Catalog.table (List.assoc reactor cats) table in
  let found = ref None in
  Storage.Table.range tbl ~f:(fun r ->
      if r.Storage.Record.absent then true
      else begin
        found := Some r;
        false
      end);
  (tbl, Option.get !found)

let test_money () =
  let cats = Faultsim.fresh_catalogs (SB.decl ~customers:3 ()) in
  Testlib.audit "loaded total" (Audit.money ~n:3 cats);
  let tbl, r = first_row cats (SB.customer_name 1) "checking" in
  let data = Array.copy r.Storage.Record.data in
  data.(1) <- Value.Float (Value.to_float data.(1) +. 0.01);
  Storage.Table.update_data tbl r data;
  rejects "balance nudged by 0.01" (Audit.money ~n:3 cats)

let test_ycsb_rows () =
  let cats = Faultsim.fresh_catalogs (Workloads.Ycsb.decl ~keys:4 ()) in
  Testlib.audit "one row per key" (Audit.ycsb_rows cats);
  let tbl, _ = first_row cats (List.hd (Workloads.Ycsb.keys 4)) "usertable" in
  ignore
    (Storage.Table.insert tbl
       (Storage.Record.fresh ~absent:false [| Value.Int 1; Value.Str "x" |]));
  rejects "second row" (Audit.ycsb_rows cats)

let test_accounting () =
  Testlib.audit "balanced"
    (Audit.accounting ~committed:10 ~aborted:3 ~logical:10 ~retries:3);
  rejects "off by one"
    (Audit.accounting ~committed:10 ~aborted:3 ~logical:11 ~retries:3)

let test_secondaries () =
  let cats =
    Faultsim.fresh_catalogs
      (Workloads.Tpcc.decl ~warehouses:1 ~sizes:Workloads.Tpcc.small_sizes ())
  in
  Testlib.audit "indexes consistent" (Audit.secondaries cats);
  let w = List.hd (Workloads.Tpcc.warehouses 1) in
  let tbl, r = first_row cats w "customer" in
  Storage.Table.sec_forget tbl r;
  rejects "index entry missing" (Audit.secondaries cats)

let test_fatal () =
  let db = Runtime.Db.start (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  Runtime.Db.shutdown db;
  Testlib.audit "no fatals" (Audit.fatal db);
  Runtime.Db.record_fatal db (Failure "boom");
  rejects "one fatal" (Audit.fatal db)

let test_certify () =
  Testlib.with_db (Testlib.sn_config 4) (fun db ->
      Reactdb.Database.enable_history db;
      Testlib.run_conflict_workload db ~workers:3 ~per_worker:10;
      match Audit.certify (Reactdb.Database.history db) with
      | Ok n -> check_bool "history recorded" true (n > 0)
      | Error m -> Alcotest.failf "not serializable: %s" m)

(* The runtime's recorded history certifies; a forged entry that read a
   version no transaction installed does not. *)
let test_certify_runtime () =
  let db = Runtime.Db.start (Testlib.bank_decl 4) (Testlib.sn_config 4) in
  Runtime.Db.enable_history db;
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db) ~n_workers:3 ~per_worker:20 ~seed:9
      (fun _ rng -> Testlib.random_transfer rng ~accounts:4)
  in
  Runtime.Db.shutdown db;
  let h = Runtime.Db.history db in
  (match Audit.certify h with
  | Ok n -> check_bool "history recorded" true (n > 0)
  | Error m -> Alcotest.failf "not serializable: %s" m);
  let e = List.hd h in
  rejects "read of a version never installed"
    (Audit.certify
       ({ e with Histories.Certify.c_txn = -1; c_reads = [ (fst (List.hd e.c_writes), -7) ] } :: h))

let suite =
  ( "audit",
    [
      Alcotest.test_case "money" `Quick test_money;
      Alcotest.test_case "ycsb rows" `Quick test_ycsb_rows;
      Alcotest.test_case "accounting" `Quick test_accounting;
      Alcotest.test_case "secondaries" `Quick test_secondaries;
      Alcotest.test_case "fatal" `Quick test_fatal;
      Alcotest.test_case "certify" `Quick test_certify;
      Alcotest.test_case "certify runtime" `Quick test_certify_runtime;
    ] )
