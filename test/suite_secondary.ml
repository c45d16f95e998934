(* Tests for secondary indexes: physical maintenance, transactional
   visibility (including same-transaction relocation), and phantom
   protection through secondary-index leaf witnesses. *)

open Util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sch =
  Storage.Schema.make ~name:"emp"
    ~columns:
      [ ("id", Value.TInt); ("dept", Value.TStr); ("salary", Value.TInt) ]
    ~key:[ "id" ]

let row i dept salary = [| Value.Int i; Value.Str dept; Value.Int salary |]

let fresh_table () =
  let tbl = Storage.Table.create ~secondaries:[ ("by_dept", [ "dept" ]) ] sch in
  List.iter
    (fun (i, d, s) ->
      ignore (Storage.Table.insert tbl (Storage.Record.fresh ~absent:false (row i d s))))
    [ (1, "eng", 100); (2, "ops", 80); (3, "eng", 120); (4, "hr", 60) ];
  tbl

let dept_ids tbl dept =
  let lo, hi = Storage.Table.key_prefix_bounds [| Value.Str dept |] in
  let out = ref [] in
  Storage.Table.scan_secondary tbl ~index:"by_dept" ~lo ~hi ~f:(fun r ->
      out := Value.to_int r.Storage.Record.data.(0) :: !out;
      true);
  List.rev !out

let test_maintenance () =
  let tbl = fresh_table () in
  Alcotest.(check (list int)) "eng members" [ 1; 3 ] (dept_ids tbl "eng");
  (* remove relocates *)
  ignore (Storage.Table.remove tbl [| Value.Int 1 |]);
  Alcotest.(check (list int)) "after remove" [ 3 ] (dept_ids tbl "eng");
  (* update_data moves between departments *)
  (match Storage.Table.find tbl [| Value.Int 3 |] with
  | Some r -> Storage.Table.update_data tbl r (row 3 "ops" 120)
  | None -> Alcotest.fail "missing");
  Alcotest.(check (list int)) "eng empty" [] (dept_ids tbl "eng");
  Alcotest.(check (list int)) "ops gained" [ 2; 3 ] (dept_ids tbl "ops")

let test_create_validation () =
  check_bool "unknown column" true
    (try
       ignore (Storage.Table.create ~secondaries:[ ("x", [ "nope" ]) ] sch);
       false
     with Invalid_argument _ -> true);
  check_bool "duplicate name" true
    (try
       ignore
         (Storage.Table.create
            ~secondaries:[ ("x", [ "dept" ]); ("x", [ "salary" ]) ]
            sch);
       false
     with Invalid_argument _ -> true);
  let tbl = fresh_table () in
  check_bool "unknown index on scan" true
    (try
       Storage.Table.scan_secondary tbl ~index:"zzz" ~f:(fun _ -> true);
       false
     with Invalid_argument _ -> true)

(* --- transactional visibility through Exec.scan_index --- *)

let ids = ref 9000

let fresh_ctx () =
  let catalog = Storage.Catalog.create () in
  ignore
    (Storage.Catalog.create_table ~secondaries:[ ("by_dept", [ "dept" ]) ]
       catalog sch);
  let tbl = Storage.Catalog.table catalog "emp" in
  List.iter
    (fun (i, d, s) ->
      ignore (Storage.Table.insert tbl (Storage.Record.fresh ~absent:false (row i d s))))
    [ (1, "eng", 100); (2, "ops", 80); (3, "eng", 120); (4, "hr", 60) ];
  incr ids;
  ( Query.Exec.make_ctx
      ~txn:(Occ.Txn.create ~id:!ids ~containers:1)
      ~container:0 ~catalog
      ~charge:(fun _ _ -> ())
      ~work:(fun _ -> ()) (),
    catalog )

let scan_dept ctx dept =
  List.map
    (fun r -> Value.to_int r.(0))
    (Query.Exec.scan_index ctx "emp" ~index:"by_dept"
       ~prefix:[| Value.Str dept |] ())

let test_exec_scan_index () =
  let ctx, _ = fresh_ctx () in
  Alcotest.(check (list int)) "eng" [ 1; 3 ] (scan_dept ctx "eng");
  (* rev + limit: highest id in eng *)
  match
    Query.Exec.scan_index ctx "emp" ~index:"by_dept"
      ~prefix:[| Value.Str "eng" |] ~rev:true ~limit:1 ()
  with
  | [ r ] -> check_int "rev limit" 3 (Value.to_int r.(0))
  | l -> Alcotest.failf "expected 1 row, got %d" (List.length l)

let test_exec_index_sees_own_insert () =
  let ctx, _ = fresh_ctx () in
  Query.Exec.insert ctx "emp" (row 9 "eng" 1);
  Alcotest.(check (list int)) "buffered insert merged" [ 1; 3; 9 ]
    (scan_dept ctx "eng")

let test_exec_index_relocation () =
  let ctx, _ = fresh_ctx () in
  (* move employee 3 from eng to hr, inside the transaction *)
  check_bool "updated" true
    (Query.Exec.update_key ctx "emp" [| Value.Int 3 |] ~set:(fun r ->
         Query.Exec.seti r 1 (Value.Str "hr")));
  Alcotest.(check (list int)) "left eng" [ 1 ] (scan_dept ctx "eng");
  Alcotest.(check (list int)) "joined hr" [ 3; 4 ] (scan_dept ctx "hr")

let test_exec_index_hides_own_delete () =
  let ctx, _ = fresh_ctx () in
  check_bool "deleted" true (Query.Exec.delete_key ctx "emp" [| Value.Int 1 |]);
  Alcotest.(check (list int)) "delete hidden" [ 3 ] (scan_dept ctx "eng")

let test_exec_index_where () =
  let ctx, _ = fresh_ctx () in
  let rich =
    Query.Exec.scan_index ctx "emp" ~index:"by_dept"
      ~prefix:[| Value.Str "eng" |]
      ~where:Query.Expr.(col "salary" >. vint 110)
      ()
  in
  check_int "filter on non-indexed column" 1 (List.length rich)

(* --- concurrency: phantom protection through the secondary index --- *)

let test_index_phantom () =
  let _, catalog = fresh_ctx () in
  let mk () =
    incr ids;
    ( Occ.Txn.create ~id:!ids ~containers:1,
      Query.Exec.make_ctx ~txn:(Occ.Txn.create ~id:(1000000 + !ids) ~containers:1)
        ~container:0 ~catalog
        ~charge:(fun _ _ -> ())
        ~work:(fun _ -> ()) () )
  in
  ignore mk;
  (* txn A scans hr via the index and writes something; txn B moves an
     employee into hr and commits first; A must fail validation. *)
  incr ids;
  let txn_a = Occ.Txn.create ~id:!ids ~containers:1 in
  let ctx_a =
    Query.Exec.make_ctx ~txn:txn_a ~container:0 ~catalog
      ~charge:(fun _ _ -> ())
      ~work:(fun _ -> ()) ()
  in
  Alcotest.(check (list int)) "A sees hr = [4]" [ 4 ] (scan_dept ctx_a "hr");
  ignore
    (Query.Exec.update_key ctx_a "emp" [| Value.Int 2 |] ~set:(fun r ->
         Query.Exec.seti r 2 (Value.Int 81)));
  incr ids;
  let txn_b = Occ.Txn.create ~id:!ids ~containers:1 in
  let ctx_b =
    Query.Exec.make_ctx ~txn:txn_b ~container:0 ~catalog
      ~charge:(fun _ _ -> ())
      ~work:(fun _ -> ()) ()
  in
  ignore
    (Query.Exec.update_key ctx_b "emp" [| Value.Int 1 |] ~set:(fun r ->
         Query.Exec.seti r 1 (Value.Str "hr")));
  check_bool "B commits" true
    (Result.is_ok (Occ.Commit.commit_single txn_b ~epoch:1 ~container:0));
  check_bool "A aborts on index phantom" true
    (Result.is_error (Occ.Commit.commit_single txn_a ~epoch:1 ~container:0))

let test_index_no_false_phantom () =
  (* an update that does NOT touch indexed columns must not invalidate
     index-range scanners *)
  let _, catalog = fresh_ctx () in
  incr ids;
  let txn_a = Occ.Txn.create ~id:!ids ~containers:1 in
  let ctx_a =
    Query.Exec.make_ctx ~txn:txn_a ~container:0 ~catalog
      ~charge:(fun _ _ -> ())
      ~work:(fun _ -> ()) ()
  in
  Alcotest.(check (list int)) "A sees hr" [ 4 ] (scan_dept ctx_a "hr");
  ignore
    (Query.Exec.update_key ctx_a "emp" [| Value.Int 2 |] ~set:(fun r ->
         Query.Exec.seti r 2 (Value.Int 81)));
  incr ids;
  let txn_b = Occ.Txn.create ~id:!ids ~containers:1 in
  let ctx_b =
    Query.Exec.make_ctx ~txn:txn_b ~container:0 ~catalog
      ~charge:(fun _ _ -> ())
      ~work:(fun _ -> ()) ()
  in
  (* salary-only change of an eng employee: hr's index leaves untouched *)
  ignore
    (Query.Exec.update_key ctx_b "emp" [| Value.Int 1 |] ~set:(fun r ->
         Query.Exec.seti r 2 (Value.Int 101)));
  check_bool "B commits" true
    (Result.is_ok (Occ.Commit.commit_single txn_b ~epoch:1 ~container:0));
  check_bool "A still commits" true
    (Result.is_ok (Occ.Commit.commit_single txn_a ~epoch:1 ~container:0))

(* Model-based property: scan_index over random data equals a filtered,
   sorted scan of the base table. *)
let prop_index_matches_filter =
  QCheck.Test.make ~name:"index scan = filtered base scan" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 40) (pair (int_bound 100) (int_bound 3)))
        (int_bound 3))
    (fun (rows_spec, dept_i) ->
      let dept_of i = Printf.sprintf "d%d" i in
      let catalog = Storage.Catalog.create () in
      ignore
        (Storage.Catalog.create_table ~secondaries:[ ("by_dept", [ "dept" ]) ]
           catalog sch);
      let tbl = Storage.Catalog.table catalog "emp" in
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (id, d) ->
          if not (Hashtbl.mem seen id) then begin
            Hashtbl.add seen id ();
            ignore
              (Storage.Table.insert tbl
                 (Storage.Record.fresh ~absent:false (row id (dept_of d) id)))
          end)
        rows_spec;
      incr ids;
      let ctx =
        Query.Exec.make_ctx ~txn:(Occ.Txn.create ~id:!ids ~containers:1) ~container:0
          ~catalog
          ~charge:(fun _ _ -> ())
          ~work:(fun _ -> ()) ()
      in
      let via_index = scan_dept ctx (dept_of dept_i) in
      let via_filter =
        List.sort Int.compare
          (List.map
             (fun r -> Value.to_int r.(0))
             (Query.Exec.scan ctx "emp"
                ~where:Query.Expr.(col "dept" ==. vstr (dept_of dept_i))
                ()))
      in
      via_index = via_filter)

let suite =
  ( "secondary",
    [
      Alcotest.test_case "physical maintenance" `Quick test_maintenance;
      Alcotest.test_case "creation validation" `Quick test_create_validation;
      Alcotest.test_case "exec scan_index" `Quick test_exec_scan_index;
      Alcotest.test_case "own insert via index" `Quick test_exec_index_sees_own_insert;
      Alcotest.test_case "own update relocates" `Quick test_exec_index_relocation;
      Alcotest.test_case "own delete hidden" `Quick test_exec_index_hides_own_delete;
      Alcotest.test_case "residual predicate" `Quick test_exec_index_where;
      Alcotest.test_case "index phantom protection" `Quick test_index_phantom;
      Alcotest.test_case "no false phantoms" `Quick test_index_no_false_phantom;
      QCheck_alcotest.to_alcotest prop_index_matches_filter;
    ] )
