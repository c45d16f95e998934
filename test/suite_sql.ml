(* Tests for the SQL front-end: lexer, parser, and execution semantics over
   a transactional context. *)

open Util
module DB = Reactdb.Database

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- lexer --- *)

let test_lexer_basics () =
  let toks = Sql.Lexer.tokenize "SELECT a, b FROM t WHERE x >= 1.5 -- cmt" in
  check_int "token count" 11 (List.length toks);
  check_bool "keyword" true (List.hd toks = Sql.Lexer.KW "SELECT");
  let toks = Sql.Lexer.tokenize "'it''s' <> ?" in
  check_bool "string escape" true
    (List.hd toks = Sql.Lexer.STRING "it's");
  check_bool "ne" true (List.nth toks 1 = Sql.Lexer.NE);
  check_bool "param" true (List.nth toks 2 = Sql.Lexer.QMARK)

let test_lexer_errors () =
  check_bool "unterminated string" true
    (try
       ignore (Sql.Lexer.tokenize "'oops");
       false
     with Sql.Lexer.Lex_error _ -> true);
  check_bool "bad char" true
    (try
       ignore (Sql.Lexer.tokenize "a @ b");
       false
     with Sql.Lexer.Lex_error _ -> true)

(* --- parser --- *)

let test_parse_select () =
  match Sql.Parser.parse
          "SELECT name, SUM(amt) AS total FROM orders o WHERE settled = 'N' \
           AND amt > 10 GROUP BY name ORDER BY total DESC LIMIT 5"
  with
  | Sql.Ast.Select s ->
    check_int "items" 2 (List.length s.Sql.Ast.sel_items);
    check_bool "alias" true (s.Sql.Ast.sel_alias = Some "o");
    check_bool "group" true (s.Sql.Ast.sel_group = [ (None, "name") ]);
    check_bool "order desc" true
      (match s.Sql.Ast.sel_order with
      | Some o -> o.Sql.Ast.ord_desc && o.Sql.Ast.ord_col = "total"
      | None -> false);
    check_bool "limit" true (s.Sql.Ast.sel_limit = Some 5)
  | _ -> Alcotest.fail "expected select"

let test_parse_join () =
  match Sql.Parser.parse
          "SELECT p.name, o.amt FROM provider p INNER JOIN orders o ON \
           p.name = o.provider"
  with
  | Sql.Ast.Select { sel_join = Some j; _ } ->
    check_bool "join table" true (j.Sql.Ast.j_table = "orders");
    check_bool "on left" true (j.Sql.Ast.j_left = (Some "p", "name"));
    check_bool "on right" true (j.Sql.Ast.j_right = (Some "o", "provider"))
  | _ -> Alcotest.fail "expected join"

let test_parse_precedence () =
  (* a = 1 OR b = 2 AND c = 3  ==  a=1 OR (b=2 AND c=3) *)
  match Sql.Parser.parse_expr "a = 1 OR b = 2 AND c = 3" with
  | Sql.Ast.Or (_, Sql.Ast.And _) -> ()
  | e -> Alcotest.failf "bad precedence: %s" (Fmt.str "%a" Sql.Ast.pp_expr e)

let test_parse_arith_precedence () =
  match Sql.Parser.parse_expr "1 + 2 * 3" with
  | Sql.Ast.Arith (Query.Expr.Add, _, Sql.Ast.Arith (Query.Expr.Mul, _, _)) -> ()
  | e -> Alcotest.failf "bad precedence: %s" (Fmt.str "%a" Sql.Ast.pp_expr e)

let test_parse_params_numbered () =
  let stmt = Sql.Parser.parse "UPDATE t SET a = ?, b = ? WHERE c = ?" in
  check_int "three params" 3 (Sql.Ast.param_count stmt)

let test_parse_dml () =
  (match Sql.Parser.parse "INSERT INTO t (a, b) VALUES (1, 'x')" with
  | Sql.Ast.Insert { ins_cols = Some [ "a"; "b" ]; ins_values = [ _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "insert");
  (match Sql.Parser.parse "DELETE FROM t WHERE a IS NOT NULL" with
  | Sql.Ast.Delete { del_where = Some (Sql.Ast.Not (Sql.Ast.Is_null _)); _ } -> ()
  | _ -> Alcotest.fail "delete")

let test_parse_errors () =
  let bad s =
    try
      ignore (Sql.Parser.parse s);
      false
    with Sql.Parser.Parse_error _ -> true
  in
  check_bool "garbage" true (bad "FROBNICATE t");
  check_bool "trailing" true (bad "SELECT * FROM t extra ,");
  check_bool "missing from" true (bad "SELECT *");
  check_bool "bad limit" true (bad "SELECT * FROM t LIMIT x")

let test_pp_reparse () =
  (* printing a parsed statement re-parses to the same tree *)
  List.iter
    (fun src ->
      let s1 = Sql.Parser.parse src in
      let printed = Fmt.str "%a" Sql.Ast.pp_stmt s1 in
      let s2 =
        try Sql.Parser.parse printed
        with Sql.Parser.Parse_error m ->
          Alcotest.failf "re-parse of %S failed: %s" printed m
      in
      check_bool (Printf.sprintf "roundtrip %s" src) true (s1 = s2))
    [
      "SELECT * FROM t";
      "SELECT a, b + 1 AS c FROM t WHERE NOT (a < 3) OR b IS NULL";
      "SELECT COUNT(*), SUM(x) FROM t GROUP BY g ORDER BY g ASC LIMIT 2";
      "SELECT p.name FROM provider p JOIN orders o ON p.name = o.provider";
      "INSERT INTO t (a) VALUES (-4.5)";
      "UPDATE t SET a = a + 1 WHERE b = 'q'";
      "DELETE FROM t WHERE TRUE";
    ]

(* --- execution --- *)

let orders_schema =
  Storage.Schema.make ~name:"orders"
    ~columns:
      [ ("id", Value.TInt); ("provider", Value.TStr); ("amt", Value.TFloat);
        ("settled", Value.TStr) ]
    ~key:[ "id" ]

let provider_schema =
  Storage.Schema.make ~name:"provider"
    ~columns:[ ("name", Value.TStr); ("risk", Value.TFloat) ]
    ~key:[ "name" ]

let ids = ref 5000

let ctx_of ?(charge = fun _ _ -> ()) catalog =
  incr ids;
  let txn = Occ.Txn.create ~id:!ids ~containers:1 in
  ( txn,
    Query.Exec.make_ctx ~txn ~container:0 ~catalog ~charge
      ~work:(fun _ -> ()) () )

let orders_catalog () =
  let catalog = Storage.Catalog.create () in
  let ot = Storage.Catalog.create_table catalog orders_schema in
  let pt = Storage.Catalog.create_table catalog provider_schema in
  List.iter
    (fun (i, p, a, s) ->
      ignore
        (Storage.Table.insert ot
           (Storage.Record.fresh ~absent:false
              [| Value.Int i; Value.Str p; Value.Float a; Value.Str s |])))
    [ (1, "visa", 10., "N"); (2, "mc", 20., "Y"); (3, "visa", 30., "N");
      (4, "amex", 5., "N"); (5, "mc", 15., "N") ];
  List.iter
    (fun (p, r) ->
      ignore
        (Storage.Table.insert pt
           (Storage.Record.fresh ~absent:false [| Value.Str p; Value.Float r |])))
    [ ("visa", 0.1); ("mc", 0.2); ("amex", 0.3) ];
  catalog

let fresh_ctx () = snd (ctx_of (orders_catalog ()))

let test_select_star () =
  let ctx = fresh_ctx () in
  match Sql.Run.exec ctx "SELECT * FROM orders" with
  | Sql.Run.Rows { cols; rows } ->
    Alcotest.(check (list string)) "cols" [ "id"; "provider"; "amt"; "settled" ] cols;
    check_int "rows" 5 (List.length rows)
  | _ -> Alcotest.fail "rows expected"

let test_select_where_params () =
  let ctx = fresh_ctx () in
  let rows =
    Sql.Run.query ctx ~params:[ Value.Str "visa"; Value.Float 15. ]
      "SELECT id FROM orders WHERE provider = ? AND amt > ?"
  in
  check_int "one match" 1 (List.length rows);
  check_int "id 3" 3 (Value.to_int (List.hd rows).(0))

let test_select_order_limit () =
  let ctx = fresh_ctx () in
  let rows =
    Sql.Run.query ctx "SELECT id, amt FROM orders ORDER BY amt DESC LIMIT 2"
  in
  Alcotest.(check (list int)) "top 2 by amount" [ 3; 2 ]
    (List.map (fun r -> Value.to_int r.(0)) rows)

let test_aggregates () =
  let ctx = fresh_ctx () in
  check_bool "sum" true
    (Value.equal
       (Sql.Run.scalar ctx "SELECT SUM(amt) FROM orders WHERE settled = 'N'")
       (Value.Float 60.));
  check_bool "count star" true
    (Value.equal (Sql.Run.scalar ctx "SELECT COUNT(*) FROM orders") (Value.Int 5));
  check_bool "min" true
    (Value.equal (Sql.Run.scalar ctx "SELECT MIN(amt) FROM orders") (Value.Float 5.));
  check_bool "avg" true
    (Value.equal (Sql.Run.scalar ctx "SELECT AVG(amt) FROM orders") (Value.Float 16.))

let test_group_by () =
  let ctx = fresh_ctx () in
  match
    Sql.Run.exec ctx
      "SELECT provider, COUNT(*) AS n, SUM(amt) AS total FROM orders \
       WHERE settled = 'N' GROUP BY provider ORDER BY total DESC"
  with
  | Sql.Run.Rows { rows; cols } ->
    Alcotest.(check (list string)) "cols" [ "provider"; "n"; "total" ] cols;
    (match rows with
    | [ a; b; c ] ->
      check_bool "visa first (40)" true
        (Value.to_str a.(0) = "visa" && Value.equal a.(2) (Value.Float 40.));
      check_bool "mc second (15)" true (Value.to_str b.(0) = "mc");
      check_bool "amex third (5)" true (Value.to_str c.(0) = "amex")
    | _ -> Alcotest.failf "expected 3 groups, got %d" (List.length rows))
  | _ -> Alcotest.fail "rows"

let test_join () =
  let ctx = fresh_ctx () in
  (* the Fig. 1(a) join: provider risk × unsettled orders *)
  let rows =
    Sql.Run.query ctx
      "SELECT p.name, SUM(amt) AS exposure FROM provider p INNER JOIN orders \
       o ON p.name = o.provider WHERE o.settled = 'N' GROUP BY p.name \
       ORDER BY exposure DESC"
  in
  check_int "three providers" 3 (List.length rows);
  check_bool "visa exposure 40" true
    (Value.to_str (List.hd rows).(0) = "visa"
    && Value.equal (List.hd rows).(1) (Value.Float 40.))

let test_join_projection () =
  let ctx = fresh_ctx () in
  let rows =
    Sql.Run.query ctx
      "SELECT o.id, p.risk FROM orders o JOIN provider p ON o.provider = \
       p.name WHERE o.amt > 14 ORDER BY id"
  in
  Alcotest.(check (list int)) "joined ids" [ 2; 3; 5 ]
    (List.map (fun r -> Value.to_int r.(0)) rows)

let test_dml_roundtrip () =
  let ctx = fresh_ctx () in
  check_int "insert" 1
    (Sql.Run.execute ctx
       "INSERT INTO orders (id, provider, amt, settled) VALUES (9, 'visa', 1.0, 'N')");
  check_int "update" 3
    (Sql.Run.execute ctx ~params:[ Value.Str "visa" ]
       "UPDATE orders SET settled = 'Y' WHERE provider = ?");
  check_bool "all visa settled" true
    (Value.equal
       (Sql.Run.scalar ctx
          "SELECT COUNT(*) FROM orders WHERE provider = 'visa' AND settled = 'N'")
       (Value.Int 0));
  check_int "delete" 2
    (Sql.Run.execute ctx "DELETE FROM orders WHERE provider = 'mc'");
  check_bool "four left" true
    (Value.equal (Sql.Run.scalar ctx "SELECT COUNT(*) FROM orders") (Value.Int 4))

let test_insert_without_cols () =
  let ctx = fresh_ctx () in
  check_int "positional insert" 1
    (Sql.Run.execute ctx "INSERT INTO orders VALUES (10, 'amex', 2.0, 'N')");
  check_bool "present" true
    (Sql.Run.query1 ctx "SELECT * FROM orders WHERE id = 10" <> None)

let test_sees_own_writes () =
  let ctx = fresh_ctx () in
  ignore (Sql.Run.execute ctx "INSERT INTO orders VALUES (11, 'x', 7.0, 'N')");
  ignore (Sql.Run.execute ctx "UPDATE orders SET amt = 100.0 WHERE id = 1");
  check_bool "sum reflects buffered writes" true
    (Value.equal
       (Sql.Run.scalar ctx "SELECT SUM(amt) FROM orders")
       (Value.Float (100. +. 20. +. 30. +. 5. +. 15. +. 7.)))

let test_errors () =
  let ctx = fresh_ctx () in
  let sql_err f = try ignore (f ()); false with Sql.Run.Sql_error _ -> true in
  check_bool "unknown table" true
    (try ignore (Sql.Run.query ctx "SELECT * FROM nope"); false
     with Invalid_argument _ -> true);
  check_bool "unknown column" true
    (sql_err (fun () -> Sql.Run.query ctx "SELECT zig FROM orders"));
  check_bool "ambiguous column" true
    (sql_err (fun () ->
         Sql.Run.query ctx
           "SELECT amt FROM orders o JOIN orders q ON o.id = q.id"));
  check_bool "mixed agg" true
    (sql_err (fun () -> Sql.Run.query ctx "SELECT id, COUNT(*) FROM orders"));
  check_bool "not in group by" true
    (sql_err (fun () ->
         Sql.Run.query ctx "SELECT amt, COUNT(*) FROM orders GROUP BY provider"));
  check_bool "missing param" true
    (sql_err (fun () -> Sql.Run.query ctx "SELECT * FROM orders WHERE id = ?"));
  check_bool "scalar on many" true
    (sql_err (fun () -> ignore (Sql.Run.scalar ctx "SELECT id FROM orders")));
  (* operands of the wrong type *)
  List.iter
    (fun src -> check_bool src true (sql_err (fun () -> Sql.Run.query ctx src)))
    [ "SELECT provider + 1 FROM orders"; "SELECT -provider FROM orders";
      "SELECT id FROM orders WHERE amt LIKE 'x%'";
      "SELECT id FROM orders WHERE amt AND id = 1" ]

let test_in_between_like () =
  let ctx = fresh_ctx () in
  check_bool "IN" true
    (Value.equal
       (Sql.Run.scalar ctx
          "SELECT COUNT(*) FROM orders WHERE provider IN ('visa', 'amex')")
       (Value.Int 3));
  check_bool "NOT IN" true
    (Value.equal
       (Sql.Run.scalar ctx
          "SELECT COUNT(*) FROM orders WHERE provider NOT IN ('visa')")
       (Value.Int 3));
  check_bool "BETWEEN (inclusive, numeric coercion)" true
    (Value.equal
       (Sql.Run.scalar ctx
          "SELECT COUNT(*) FROM orders WHERE amt BETWEEN 10 AND 20")
       (Value.Int 3));
  check_bool "NOT BETWEEN" true
    (Value.equal
       (Sql.Run.scalar ctx
          "SELECT COUNT(*) FROM orders WHERE amt NOT BETWEEN 10 AND 20")
       (Value.Int 2));
  check_bool "IN compares numbers like =" true
    (Value.equal
       (Sql.Run.scalar ctx "SELECT COUNT(*) FROM orders WHERE amt IN (10)")
       (Value.Int 1));
  check_bool "LIKE prefix" true
    (Value.equal
       (Sql.Run.scalar ctx
          "SELECT COUNT(*) FROM orders WHERE provider LIKE 'v%'")
       (Value.Int 2));
  check_bool "LIKE underscore" true
    (Value.equal
       (Sql.Run.scalar ctx
          "SELECT COUNT(*) FROM orders WHERE provider LIKE '_c'")
       (Value.Int 2));
  check_bool "LIKE middle wildcard" true
    (Value.equal
       (Sql.Run.scalar ctx
          "SELECT COUNT(*) FROM orders WHERE provider LIKE 'a%x'")
       (Value.Int 1));
  (* DML with the new predicates (no pushdown required) *)
  check_int "delete with LIKE" 2
    (Sql.Run.execute ctx "DELETE FROM orders WHERE provider LIKE 'v%'");
  check_int "update with IN" 1
    (Sql.Run.execute ctx
       "UPDATE orders SET settled = 'Y' WHERE id IN (4, 400)")

let test_pp_reparse_new_predicates () =
  List.iter
    (fun src ->
      let s1 = Sql.Parser.parse src in
      let s2 = Sql.Parser.parse (Fmt.str "%a" Sql.Ast.pp_stmt s1) in
      check_bool src true (s1 = s2))
    [
      "SELECT * FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 0 AND 9";
      "SELECT * FROM t WHERE name LIKE '%x_y%' OR c NOT IN ('q')";
    ]

let test_null_semantics () =
  let ctx = fresh_ctx () in
  ignore
    (Sql.Run.exec ctx "INSERT INTO orders (id, provider) VALUES (12, 'z')");
  check_bool "null amt not matched by comparison" true
    (Value.equal
       (Sql.Run.scalar ctx "SELECT COUNT(*) FROM orders WHERE amt > -999999")
       (Value.Int 5));
  check_bool "is null finds it" true
    (Value.equal
       (Sql.Run.scalar ctx "SELECT COUNT(*) FROM orders WHERE amt IS NULL")
       (Value.Int 1));
  check_bool "sum skips null" true
    (Value.equal (Sql.Run.scalar ctx "SELECT SUM(amt) FROM orders")
       (Value.Float 80.))

(* --- key ranges --- *)

let test_keyed_update_beside_commit () =
  (* Each keyed UPDATE reads only its own row, so a commit to another row of
     the same table leaves it valid. *)
  let catalog = orders_catalog () in
  let t1, c1 = ctx_of catalog and t2, c2 = ctx_of catalog in
  check_int "t1 updates row 1" 1
    (Sql.Run.execute c1 "UPDATE orders SET settled = 'Y' WHERE id = 1");
  check_int "t2 updates row 4" 1
    (Sql.Run.execute c2 "UPDATE orders SET settled = 'Y' WHERE id = 4");
  let commit name t =
    match Occ.Commit.commit_single t ~epoch:1 ~container:0 with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "%s: %s" name (Occ.Commit.fail_message r)
  in
  commit "t2" t2;
  commit "t1" t1;
  check_bool "both settled" true
    (Value.equal
       (Sql.Run.scalar (snd (ctx_of catalog))
          "SELECT COUNT(*) FROM orders WHERE id IN (1, 4) AND settled = 'Y'")
       (Value.Int 2))

let lines_schema =
  Storage.Schema.make ~name:"lines"
    ~columns:
      [ ("d", Value.TInt); ("o", Value.TInt); ("x", Value.TFloat);
        ("touched", Value.TInt) ]
    ~key:[ "d"; "o" ]

let lines_keys =
  List.concat_map (fun d -> List.init 5 (fun o -> (d, o))) (List.init 4 Fun.id)

(* 4 x 5 rows keyed (d, o), plus the [extra] keys, x NULL where d + o is
   0 or 7; the context counts the rows its scans visit. *)
let lines_ctx ?(extra = []) () =
  let catalog = Storage.Catalog.create () in
  let t = Storage.Catalog.create_table catalog lines_schema in
  List.iter
    (fun (d, o) ->
      let x =
        if (d + o) mod 7 = 0 then Value.Null
        else Value.Float (float_of_int ((3 * d + o) mod 5) /. 2.)
      in
      ignore
        (Storage.Table.insert t
           (Storage.Record.fresh ~absent:false
              [| Value.Int d; Value.Int o; x; Value.Int 0 |])))
    (lines_keys @ extra);
  let steps = ref 0 in
  let charge kind n = if kind = `Scan_step then steps := !steps + n in
  (snd (ctx_of ~charge catalog), steps)

let key_pair row = (Value.to_int row.(0), Value.to_int row.(1))

let test_where_scans_key_range () =
  List.iter
    (fun (where, visited) ->
      let ctx, steps = lines_ctx () in
      ignore (Sql.Run.query ctx ("SELECT * FROM lines WHERE " ^ where));
      check_int where visited !steps)
    [
      ("d = 1", 5);
      ("d = 1 AND o = 3", 1);
      ("x > 0 AND o = 3 AND 1 = d", 1);
      ("d = 2 AND o BETWEEN 1 AND 2", 2);
      ("d = 2 AND o > 3", 1);
      ("d = 2 AND o >= 3", 2);
      ("d = 2 AND o <= 1", 2);
      ("d = 2 AND o < 1", 1);
      ("d > 2", 5);
      ("d < 1", 5);
      ("d = 1.0", 20);
      ("o = 3", 20);
      ("d = 1 OR d = 2", 20);
      ("d = NULL", 20);
    ]

(* A negative constant bounds the key range like a positive one: the
   parser reads [-1] as a negation of the literal 1. An empty range still
   charges one step, for its seek. *)
let test_where_negative_key_range () =
  List.iter
    (fun (where, rows, visited) ->
      let ctx, steps = lines_ctx ~extra:[ (-1, -2) ] () in
      let got = Sql.Run.query ctx ("SELECT * FROM lines WHERE " ^ where) in
      check_int (where ^ ": rows") rows (List.length got);
      check_int (where ^ ": visited") visited !steps)
    [
      ("d < -1", 0, 1);
      ("d <= -1", 1, 1);
      ("d = -1 AND o = -2", 1, 1);
      ("d = 0 AND o > -1", 5, 5);
      ("d = -1 AND o = - -2", 0, 1);
    ]

(* A strict upper bound on an Int key column ends the range before the
   bound's own key: the statement never reads the row at the bound, so a
   commit to that row leaves it valid. *)
let test_strict_bound_beside_commit () =
  let catalog = (fst (lines_ctx ())).Query.Exec.catalog in
  let t1, c1 = ctx_of catalog and t2, c2 = ctx_of catalog in
  check_int "t1 touches the rows below o = 2" 2
    (Sql.Run.execute c1 "UPDATE lines SET touched = 1 WHERE d = 2 AND o < 2");
  check_int "t2 touches the row at the bound" 1
    (Sql.Run.execute c2 "UPDATE lines SET touched = 2 WHERE d = 2 AND o = 2");
  let commit name t =
    match Occ.Commit.commit_single t ~epoch:1 ~container:0 with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "%s: %s" name (Occ.Commit.fail_message r)
  in
  commit "t2" t2;
  commit "t1" t1

let gen_where =
  let open QCheck.Gen in
  let const =
    frequency
      [ (6, map string_of_int (int_range (-1) 5));
        (1, oneofl [ "2.0"; "1.5"; "'a'"; "NULL"; "TRUE" ]) ]
  in
  let col = oneofl [ "d"; "o"; "x" ] in
  let op = oneofl [ "="; "="; "<"; "<="; ">"; ">="; "<>" ] in
  let atom =
    frequency
      [ (4, map3 (Printf.sprintf "%s %s %s") col op const);
        (1, map3 (Printf.sprintf "%s %s %s") const op col);
        (1, map3 (Printf.sprintf "%s BETWEEN %s AND %s") col const const);
        (1, map3 (Printf.sprintf "%s IN (%s, %s)") col const const);
        (1, map (Printf.sprintf "%s IS NULL") col) ]
  in
  let rec term n =
    if n = 0 then atom
    else
      frequency
        [ (3, atom);
          (4, map2 (Printf.sprintf "%s AND %s") (term (n - 1)) (term (n - 1)));
          (1, map2 (Printf.sprintf "(%s OR %s)") (term (n - 1)) (term (n - 1)));
          (1, map (Printf.sprintf "NOT (%s)") (term (n - 1))) ]
  in
  term 3

let prop_key_range_equivalence =
  QCheck.Test.make ~name:"keyed WHERE touches the rows of a whole-table scan"
    ~count:500 (QCheck.make ~print:Fun.id gen_where) (fun where ->
      let expected =
        let ctx, _ = lines_ctx () in
        List.map key_pair
          (Query.Exec.scan ctx "lines"
             ~where:(Sql.Run.expr (Sql.Parser.parse_expr where)) ())
      in
      let check what got =
        if got <> expected then
          QCheck.Test.fail_reportf "%s touched %d rows, the scan %d" what
            (List.length got) (List.length expected)
      in
      let ctx, _ = lines_ctx () in
      check "SELECT"
        (List.map key_pair
           (Sql.Run.query ctx ("SELECT d, o FROM lines WHERE " ^ where)));
      let ctx, _ = lines_ctx () in
      let n =
        Sql.Run.execute ctx
          ("UPDATE lines SET touched = touched + 1 WHERE " ^ where)
      in
      let touched =
        List.filter_map
          (fun row ->
            if Value.equal row.(3) (Value.Int 1) then Some (key_pair row)
            else None)
          (Query.Exec.scan ctx "lines" ())
      in
      check "UPDATE" touched;
      check_int "UPDATE count" (List.length touched) n;
      let ctx, _ = lines_ctx () in
      let n = Sql.Run.execute ctx ("DELETE FROM lines WHERE " ^ where) in
      let left = List.map key_pair (Query.Exec.scan ctx "lines" ()) in
      let gone = List.filter (fun k -> not (List.mem k left)) lines_keys in
      check "DELETE" gone;
      check_int "DELETE count" (List.length gone) n;
      true)

(* --- SQL statements as racing transactions --- *)

let counter_schema =
  Storage.Schema.make ~name:"counter"
    ~columns:[ ("id", Value.TInt); ("v", Value.TInt) ]
    ~key:[ "id" ]

let test_sql_under_concurrency () =
  (* Workers hammer `UPDATE counter SET v = v + 1` through the generic sql
     procedure on one reactor of a two-executor shared-everything
     deployment: the final value must equal the number of commits exactly,
     and the history must certify. *)
  let counter_type =
    Sql.Proc.with_sql
      (Reactor.rtype ~name:"Counter" ~schemas:[ counter_schema ] ~procs:[] ())
  in
  let loader catalog =
    ignore
      (Storage.Table.insert
         (Storage.Catalog.table catalog "counter")
         (Storage.Record.fresh ~absent:false [| Value.Int 0; Value.Int 0 |]))
  in
  let decl =
    Reactor.decl ~types:[ counter_type ] ~reactors:[ ("c", "Counter") ]
      ~loaders:[ ("c", loader) ] ()
  in
  let db =
    Harness.build decl
      (Reactdb.Config.shared_everything ~executors:2 ~affinity:false [ "c" ])
  in
  DB.enable_history db;
  let eng = DB.engine db in
  for _ = 0 to 3 do
    Sim.Engine.spawn eng (fun () ->
        for _ = 1 to 40 do
          ignore
            (DB.exec_txn db ~reactor:"c" ~proc:"sql"
               ~args:[ Value.Str "UPDATE counter SET v = v + 1 WHERE id = 0" ])
        done)
  done;
  ignore (Sim.Engine.run eng);
  let final =
    Testlib.in_sim db (fun db ->
        match
          DB.exec_txn db ~reactor:"c" ~proc:"sql"
            ~args:[ Value.Str "SELECT v FROM counter WHERE id = 0" ]
        with
        | { DB.result = Ok (Value.Int v); _ } -> v
        | _ -> Alcotest.fail "select failed")
  in
  check_int "commits + aborts = attempts" 160 (DB.n_committed db - 1 + DB.n_aborted db);
  check_int "lost-update free" (DB.n_committed db - 1) final;
  check_bool "contention actually occurred" true (DB.n_aborted db > 0);
  Testlib.audit "not serializable" (Audit.certify (DB.history db))

let suite =
  ( "sql",
    [
      Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
      Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
      Alcotest.test_case "parse select" `Quick test_parse_select;
      Alcotest.test_case "parse join" `Quick test_parse_join;
      Alcotest.test_case "boolean precedence" `Quick test_parse_precedence;
      Alcotest.test_case "arith precedence" `Quick test_parse_arith_precedence;
      Alcotest.test_case "param numbering" `Quick test_parse_params_numbered;
      Alcotest.test_case "parse dml" `Quick test_parse_dml;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "pp/reparse roundtrip" `Quick test_pp_reparse;
      Alcotest.test_case "select star" `Quick test_select_star;
      Alcotest.test_case "where + params" `Quick test_select_where_params;
      Alcotest.test_case "order by + limit" `Quick test_select_order_limit;
      Alcotest.test_case "aggregates" `Quick test_aggregates;
      Alcotest.test_case "group by" `Quick test_group_by;
      Alcotest.test_case "join (Fig 1a)" `Quick test_join;
      Alcotest.test_case "join projection" `Quick test_join_projection;
      Alcotest.test_case "dml" `Quick test_dml_roundtrip;
      Alcotest.test_case "positional insert" `Quick test_insert_without_cols;
      Alcotest.test_case "reads own writes" `Quick test_sees_own_writes;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "IN/BETWEEN/LIKE" `Quick test_in_between_like;
      Alcotest.test_case "new predicate roundtrip" `Quick
        test_pp_reparse_new_predicates;
      Alcotest.test_case "null semantics" `Quick test_null_semantics;
      Alcotest.test_case "sql under concurrency" `Quick test_sql_under_concurrency;
      Alcotest.test_case "keyed UPDATE commits beside a commit to another row"
        `Quick test_keyed_update_beside_commit;
      Alcotest.test_case "WHERE scans only its key range" `Quick
        test_where_scans_key_range;
      Alcotest.test_case "WHERE bounds a key range by a negative constant" `Quick
        test_where_negative_key_range;
      Alcotest.test_case "a strict Int bound leaves the row at the bound unread"
        `Quick test_strict_bound_beside_commit;
      QCheck_alcotest.to_alcotest prop_key_range_equivalence;
    ] )
