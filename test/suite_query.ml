(* Tests for the expression DSL and the transactional query layer. *)

open Util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let sch =
  Storage.Schema.make ~name:"t"
    ~columns:
      [ ("id", Value.TInt); ("grp", Value.TStr); ("amt", Value.TFloat);
        ("flag", Value.TBool) ]
    ~key:[ "id" ]

(* --- Expr --- *)

let row id grp amt flag =
  [| Value.Int id; Value.Str grp; Value.Float amt; Value.Bool flag |]

let test_expr_basic () =
  let open Query.Expr in
  let e = compile_pred sch (col "grp" ==. vstr "a" &&. (col "amt" >. vfloat 5.)) in
  check_bool "match" true (e (row 1 "a" 10. true));
  check_bool "group mismatch" false (e (row 1 "b" 10. true));
  check_bool "amt too low" false (e (row 1 "a" 1. true))

let test_expr_arith () =
  let open Query.Expr in
  let v = eval sch ((col "amt" *. vfloat 2.) +. vfloat 1.) (row 1 "a" 5. true) in
  check_bool "arith" true (Value.equal v (Value.Float 11.));
  let v = eval sch (vint 7 +. vint 3) (row 1 "a" 0. true) in
  check_bool "int add stays int" true (Value.equal v (Value.Int 10));
  let v = eval sch (vint 7 /. vint 2) (row 1 "a" 0. true) in
  check_bool "int div widens" true (Value.equal v (Value.Float 3.5))

let test_expr_null_semantics () =
  let open Query.Expr in
  let nrow = [| Value.Int 1; Value.Str "a"; Value.Null; Value.Bool true |] in
  check_bool "null comparison false" false
    (compile_pred sch (col "amt" >. vfloat 0.) nrow);
  check_bool "is_null" true (compile_pred sch (is_null (col "amt")) nrow);
  check_bool "null arith is null" true
    (Value.is_null (eval sch (col "amt" +. vfloat 1.) nrow))

let test_expr_unknown_column () =
  check_bool "unknown column" true
    (try
       let (_ : Util.Value.t array -> Util.Value.t) =
         Query.Expr.compile sch (Query.Expr.col "nope")
       in
       false
     with Invalid_argument _ -> true)

let test_expr_pp () =
  let open Query.Expr in
  let s = Fmt.str "%a" pp (col "a" ==. vint 1 &&. not_ (col "b" <. vfloat 2.)) in
  check_bool "renders" true (String.length s > 10)

(* --- Exec --- *)

let ids = ref 1000

let fresh_ctx () =
  let catalog = Storage.Catalog.create () in
  let tbl = Storage.Catalog.create_table catalog sch in
  List.iter
    (fun (i, g, a, f) ->
      ignore
        (Storage.Table.insert tbl (Storage.Record.fresh ~absent:false (row i g a f))))
    [ (1, "a", 10., true); (2, "b", 20., false); (3, "a", 30., true);
      (4, "b", 40., false); (5, "a", 50., true) ];
  incr ids;
  let txn = Occ.Txn.create ~id:!ids ~containers:1 in
  ( Query.Exec.make_ctx ~txn ~container:0 ~catalog
      ~charge:(fun _ _ -> ())
      ~work:(fun _ -> ()) (),
    txn )

let test_get_and_scan () =
  let ctx, _ = fresh_ctx () in
  (match Query.Exec.get ctx "t" [| Value.Int 3 |] with
  | Some r -> checkf "get" 30. (Value.to_number r.(2))
  | None -> Alcotest.fail "missing");
  check_int "scan all" 5 (List.length (Query.Exec.scan ctx "t" ()));
  check_int "scan filtered" 3
    (List.length
       (Query.Exec.scan ctx "t" ~where:Query.Expr.(col "grp" ==. vstr "a") ()));
  check_int "scan limit" 2 (List.length (Query.Exec.scan ctx "t" ~limit:2 ()));
  (match Query.Exec.first ctx "t" ~rev:true () with
  | Some r -> check_int "rev first = max key" 5 (Value.to_int r.(0))
  | None -> Alcotest.fail "rev first")

(* A projected get returns the named columns in that order and records a
   read of those columns only; it sees the transaction's own deletes and
   inserts; an unknown column is a programming error. *)
let test_get_projected () =
  let ctx, txn = fresh_ctx () in
  (match Query.Exec.get ~cols:[ "amt"; "grp" ] ctx "t" [| Value.Int 3 |] with
  | Some [| Value.Float a; Value.Str g |] ->
    checkf "amt" 30. a;
    Alcotest.(check string) "grp" "a" g
  | _ -> Alcotest.fail "projected row");
  (match Occ.Txn.col_reads_in txn ~container:0 with
  | [ r ] ->
    check_int "mask of amt and grp"
      (Storage.Table.col_bit 1 lor Storage.Table.col_bit 2)
      r.Occ.Txn.cmask
  | l -> Alcotest.failf "%d projected reads" (List.length l));
  check_int "no whole-row read" 0 (List.length (Occ.Txn.reads_in txn ~container:0));
  check_bool "deleted" true (Query.Exec.delete_key ctx "t" [| Value.Int 4 |]);
  check_bool "own delete hides the row" true
    (Query.Exec.get ~cols:[ "amt" ] ctx "t" [| Value.Int 4 |] = None);
  Query.Exec.insert ctx "t" (row 9 "c" 90. false);
  (match Query.Exec.get ~cols:[ "grp" ] ctx "t" [| Value.Int 9 |] with
  | Some [| Value.Str "c" |] -> ()
  | _ -> Alcotest.fail "own insert, projected");
  check_bool "unknown column" true
    (try
       ignore (Query.Exec.get ~cols:[ "nope" ] ctx "t" [| Value.Int 1 |]);
       false
     with Invalid_argument _ -> true)

let test_scan_sees_own_inserts () =
  let ctx, _ = fresh_ctx () in
  Query.Exec.insert ctx "t" (row 10 "a" 100. true);
  Query.Exec.insert ctx "t" (row 0 "a" 0. true);
  let rows = Query.Exec.scan ctx "t" () in
  check_int "merged count" 7 (List.length rows);
  (* and in key order *)
  let keys = List.map (fun r -> Value.to_int r.(0)) rows in
  Alcotest.(check (list int)) "key order" [ 0; 1; 2; 3; 4; 5; 10 ] keys;
  (match Query.Exec.first ctx "t" ~rev:true () with
  | Some r -> check_int "rev sees own insert" 10 (Value.to_int r.(0))
  | None -> Alcotest.fail "first");
  checkf "sum includes own inserts" 250. (Query.Exec.sum ctx "t" "amt" ())

let test_scan_hides_own_deletes () =
  let ctx, _ = fresh_ctx () in
  check_bool "deleted" true (Query.Exec.delete_key ctx "t" [| Value.Int 2 |]);
  check_int "scan skips deleted" 4 (List.length (Query.Exec.scan ctx "t" ()));
  check_bool "get misses deleted" true
    (Query.Exec.get ctx "t" [| Value.Int 2 |] = None);
  check_bool "double delete false" false
    (Query.Exec.delete_key ctx "t" [| Value.Int 2 |])

let test_update_visibility () =
  let ctx, _ = fresh_ctx () in
  check_bool "updated" true
    (Query.Exec.update_key ctx "t" [| Value.Int 1 |] ~set:(fun r ->
         Query.Exec.seti r 2 (Value.Float 99.)));
  (match Query.Exec.get ctx "t" [| Value.Int 1 |] with
  | Some r -> checkf "sees update" 99. (Value.to_number r.(2))
  | None -> Alcotest.fail "missing");
  (* bulk update with predicate *)
  let n =
    Query.Exec.update ctx "t" ~where:Query.Expr.(col "grp" ==. vstr "b")
      ~set:(fun r -> Query.Exec.seti r 2 (Value.Float 0.))
      ()
  in
  check_int "bulk updated" 2 n;
  checkf "sum after updates" 179. (Query.Exec.sum ctx "t" "amt" ())

let test_update_key_change_rejected () =
  let ctx, _ = fresh_ctx () in
  check_bool "key change aborts" true
    (try
       ignore
         (Query.Exec.update_key ctx "t" [| Value.Int 1 |] ~set:(fun r ->
              Query.Exec.seti r 0 (Value.Int 999)));
       false
     with Occ.Txn.Abort _ -> true)

let test_delete_where () =
  let ctx, _ = fresh_ctx () in
  let n = Query.Exec.delete ctx "t" ~where:Query.Expr.(col "amt" >=. vfloat 30.) () in
  check_int "deleted" 3 n;
  check_int "left" 2 (Query.Exec.count ctx "t" ())

let test_aggregates () =
  let ctx, _ = fresh_ctx () in
  checkf "sum" 150. (Query.Exec.sum ctx "t" "amt" ());
  check_int "count where" 3
    (Query.Exec.count ctx "t" ~where:Query.Expr.(col "flag" ==. vbool true) ());
  let ds = Query.Exec.distinct ctx "t" "grp" () in
  check_int "distinct" 2 (List.length ds)

let test_commit_persists_through_query_layer () =
  let ctx, txn = fresh_ctx () in
  Query.Exec.insert ctx "t" (row 42 "z" 1. false);
  ignore (Query.Exec.update_key ctx "t" [| Value.Int 1 |] ~set:(fun r ->
      Query.Exec.seti r 2 (Value.Float 0.)));
  check_bool "commit" true
    (Result.is_ok (Occ.Commit.commit_single txn ~epoch:1 ~container:0));
  (* new txn sees the committed state *)
  incr ids;
  let txn2 = Occ.Txn.create ~id:!ids ~containers:1 in
  let ctx2 = { ctx with Query.Exec.txn = txn2 } in
  check_int "row count" 6 (Query.Exec.count ctx2 "t" ());
  checkf "updated amt" 0.
    (match Query.Exec.get ctx2 "t" [| Value.Int 1 |] with
    | Some r -> Value.to_number r.(2)
    | None -> Alcotest.fail "missing")

let test_charge_accounting () =
  let reads = ref 0 and writes = ref 0 and steps = ref 0 in
  let catalog = Storage.Catalog.create () in
  let tbl = Storage.Catalog.create_table catalog sch in
  for i = 1 to 8 do
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false (row i "a" 1. true)))
  done;
  incr ids;
  let ctx =
    Query.Exec.make_ctx
      ~txn:(Occ.Txn.create ~id:!ids ~containers:1)
      ~container:0 ~catalog
      ~charge:(fun kind n ->
        match kind with
        | `Read -> reads := !reads + n
        | `Write -> writes := !writes + n
        | `Scan_step -> steps := !steps + n)
      ~work:(fun _ -> ()) ()
  in
  ignore (Query.Exec.get ctx "t" [| Value.Int 1 |]);
  ignore (Query.Exec.scan ctx "t" ());
  Query.Exec.insert ctx "t" (row 100 "a" 1. true);
  check_int "reads charged" 1 !reads;
  check_int "scan steps charged" 8 !steps;
  check_int "writes charged" 1 !writes

let suite =
  ( "query",
    [
      Alcotest.test_case "expr basics" `Quick test_expr_basic;
      Alcotest.test_case "expr arithmetic" `Quick test_expr_arith;
      Alcotest.test_case "expr null semantics" `Quick test_expr_null_semantics;
      Alcotest.test_case "expr unknown column" `Quick test_expr_unknown_column;
      Alcotest.test_case "expr pretty printing" `Quick test_expr_pp;
      Alcotest.test_case "get and scan" `Quick test_get_and_scan;
      Alcotest.test_case "projected get" `Quick test_get_projected;
      Alcotest.test_case "scan sees own inserts" `Quick test_scan_sees_own_inserts;
      Alcotest.test_case "scan hides own deletes" `Quick test_scan_hides_own_deletes;
      Alcotest.test_case "updates" `Quick test_update_visibility;
      Alcotest.test_case "key change rejected" `Quick test_update_key_change_rejected;
      Alcotest.test_case "delete where" `Quick test_delete_where;
      Alcotest.test_case "aggregates" `Quick test_aggregates;
      Alcotest.test_case "commit persists" `Quick test_commit_persists_through_query_layer;
      Alcotest.test_case "charge accounting" `Quick test_charge_accounting;
    ] )
