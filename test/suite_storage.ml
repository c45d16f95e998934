(* Unit tests for schemas, records, tables and catalogs. *)

open Util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sch =
  Storage.Schema.make ~name:"t"
    ~columns:[ ("a", Value.TInt); ("b", Value.TStr); ("c", Value.TFloat) ]
    ~key:[ "a"; "b" ]

let test_schema_make () =
  check_int "arity" 3 (Storage.Schema.arity sch);
  check_int "col index" 1 (Storage.Schema.column_index sch "b");
  Alcotest.check_raises "unknown col" Not_found (fun () ->
      ignore (Storage.Schema.column_index sch "zzz"));
  check_bool "dup col rejected" true
    (try
       ignore
         (Storage.Schema.make ~name:"x"
            ~columns:[ ("a", Value.TInt); ("a", Value.TStr) ]
            ~key:[ "a" ]);
       false
     with Invalid_argument _ -> true);
  check_bool "empty key rejected" true
    (try
       ignore (Storage.Schema.make ~name:"x" ~columns:[ ("a", Value.TInt) ] ~key:[]);
       false
     with Invalid_argument _ -> true);
  check_bool "unknown key col rejected" true
    (try
       ignore
         (Storage.Schema.make ~name:"x" ~columns:[ ("a", Value.TInt) ] ~key:[ "b" ]);
       false
     with Invalid_argument _ -> true)

let test_schema_validate () =
  Storage.Schema.validate sch [| Value.Int 1; Value.Str "x"; Value.Float 2. |];
  Storage.Schema.validate sch [| Value.Int 1; Value.Str "x"; Value.Null |];
  let bad f = try f (); false with Invalid_argument _ -> true in
  check_bool "arity" true
    (bad (fun () -> Storage.Schema.validate sch [| Value.Int 1 |]));
  check_bool "type" true
    (bad (fun () ->
         Storage.Schema.validate sch [| Value.Str "no"; Value.Str "x"; Value.Null |]));
  check_bool "null key" true
    (bad (fun () ->
         Storage.Schema.validate sch [| Value.Null; Value.Str "x"; Value.Null |]))

let test_key_extraction () =
  let k =
    Storage.Schema.key_of_tuple sch [| Value.Int 7; Value.Str "q"; Value.Null |]
  in
  check_bool "key" true (k = [| Value.Int 7; Value.Str "q" |])

let test_record_tid () =
  let t = Storage.Record.tid_make ~epoch:3 ~seq:17 in
  check_int "epoch" 3 (Storage.Record.tid_epoch t);
  check_int "seq" 17 (Storage.Record.tid_seq t);
  let nt = Storage.Record.next_tid ~epoch:3 [ t; Storage.Record.tid_make ~epoch:2 ~seq:99 ] in
  check_bool "next > observed" true (nt > t);
  check_int "same epoch bumps seq" 18 (Storage.Record.tid_seq nt);
  let nt2 = Storage.Record.next_tid ~epoch:5 [ t ] in
  check_int "later epoch restarts seq" 1 (Storage.Record.tid_seq nt2);
  check_int "later epoch kept" 5 (Storage.Record.tid_epoch nt2)

let test_record_lock () =
  let r = Storage.Record.fresh ~absent:false [| Value.Int 1 |] in
  check_bool "fresh unlocked" false (Storage.Record.is_locked r);
  check_bool "lock" true (Storage.Record.try_lock r ~txn:7);
  check_bool "reentrant" true (Storage.Record.try_lock r ~txn:7);
  check_bool "other denied" false (Storage.Record.try_lock r ~txn:8);
  Storage.Record.unlock r ~txn:8;
  check_bool "wrong owner unlock is noop" true (Storage.Record.is_locked r);
  Storage.Record.unlock r ~txn:7;
  check_bool "unlocked" false (Storage.Record.is_locked r)

let test_record_rid_unique () =
  let a = Storage.Record.fresh ~absent:false [||] in
  let b = Storage.Record.fresh ~absent:false [||] in
  check_bool "rids distinct" true (a.Storage.Record.rid <> b.Storage.Record.rid)

let test_table_basic () =
  let tbl = Storage.Table.create sch in
  let row i = [| Value.Int i; Value.Str "k"; Value.Float (float_of_int i) |] in
  for i = 1 to 10 do
    ignore (Storage.Table.insert tbl (Storage.Record.fresh ~absent:false (row i)))
  done;
  check_int "size" 10 (Storage.Table.size tbl);
  (match Storage.Table.find tbl [| Value.Int 5; Value.Str "k" |] with
  | Some r -> check_bool "found row" true (Value.equal r.Storage.Record.data.(2) (Value.Float 5.))
  | None -> Alcotest.fail "missing");
  let n = ref 0 in
  Storage.Table.range tbl ~f:(fun _ -> incr n; true);
  check_int "range all" 10 !n;
  ignore (Storage.Table.remove tbl [| Value.Int 5; Value.Str "k" |]);
  check_int "removed" 9 (Storage.Table.size tbl)

let test_table_validates_on_insert () =
  let tbl = Storage.Table.create sch in
  check_bool "bad tuple rejected" true
    (try
       ignore
         (Storage.Table.insert tbl (Storage.Record.fresh ~absent:false [| Value.Int 1 |]));
       false
     with Invalid_argument _ -> true)

let test_prefix_bounds () =
  let tbl = Storage.Table.create sch in
  let row i s = [| Value.Int i; Value.Str s; Value.Null |] in
  List.iter
    (fun (i, s) ->
      ignore (Storage.Table.insert tbl (Storage.Record.fresh ~absent:false (row i s))))
    [ (1, "a"); (1, "b"); (2, "a"); (2, "b"); (3, "a") ];
  let lo, hi = Storage.Table.key_prefix_bounds [| Value.Int 2 |] in
  let seen = ref [] in
  Storage.Table.range tbl ~lo ~hi ~f:(fun r ->
      seen := Value.to_str r.Storage.Record.data.(1) :: !seen;
      true);
  Alcotest.(check (list string)) "prefix scan" [ "a"; "b" ] (List.rev !seen)

(* sec_key_of builds keys through a flat column-extraction plan precomputed
   at Table.create; it must match the old map+append construction (indexed
   columns, then the primary key) for multi-column secondaries. *)
let test_sec_key_plan () =
  let tbl =
    Storage.Table.create
      ~secondaries:[ ("by_cb", [ "c"; "b" ]); ("by_c", [ "c" ]) ]
      sch
  in
  let old_construction s data =
    Array.append
      (Array.map (fun i -> data.(i)) s.Storage.Table.sec_cols)
      (Storage.Schema.key_of_tuple sch data)
  in
  let rng = Rng.create 99 in
  List.iter
    (fun name ->
      let s = Storage.Table.secondary tbl name in
      for _ = 1 to 50 do
        let data =
          [| Value.Int (Rng.int rng 1000); Value.Str (Rng.alphastring rng 3);
             Value.Float (Rng.float rng 10.) |]
        in
        let got = Storage.Table.sec_key_of tbl s data in
        let want = old_construction s data in
        check_bool "plan = map+append" true (got = want);
        check_bool "Key.compare agrees" true
          (Storage.Table.Key.compare got want = 0)
      done)
    [ "by_cb"; "by_c" ];
  (* Secondary maintenance end-to-end: update moving a row within by_c. *)
  let row = [| Value.Int 1; Value.Str "r"; Value.Float 5. |] in
  let rcd = Storage.Record.fresh ~absent:false row in
  ignore (Storage.Table.insert tbl rcd);
  let seen lo hi =
    let acc = ref [] in
    Storage.Table.scan_secondary tbl ~index:"by_c"
      ~lo:[| Value.Float lo |] ~hi:[| Value.Float hi; Value.Str "\xff" |]
      ~f:(fun r ->
        acc := r.Storage.Record.data :: !acc;
        true);
    !acc
  in
  check_int "indexed under 5." 1 (List.length (seen 5. 5.));
  Storage.Table.update_data tbl rcd [| Value.Int 1; Value.Str "r"; Value.Float 7. |];
  check_int "moved out of 5." 0 (List.length (seen 5. 5.));
  check_int "moved into 7." 1 (List.length (seen 7. 7.))

(* The same-constructor fast paths in Key.compare must order exactly like
   the generic Value.compare loop. *)
let prop_key_compare_fastpath =
  let gen_value =
    QCheck.Gen.(
      frequency
        [ (3, map (fun i -> Value.Int i) (int_range (-50) 50));
          (2, map (fun s -> Value.Str s) (string_size ~gen:printable (int_bound 4)));
          (1, map (fun b -> Value.Bool b) bool);
          (1, map (fun f -> Value.Float (float_of_int f)) (int_range (-9) 9));
          (1, return Value.Null) ])
  in
  let gen_key = QCheck.Gen.(list_size (int_bound 4) gen_value) in
  QCheck.Test.make ~name:"Key.compare = generic lexicographic reference"
    ~count:500
    (QCheck.make QCheck.Gen.(pair gen_key gen_key))
    (fun (a, b) ->
      let a = Array.of_list a and b = Array.of_list b in
      let reference x y =
        let la = Array.length x and lb = Array.length y in
        let n = Stdlib.min la lb in
        let rec go i =
          if i = n then Stdlib.compare la lb
          else
            let c = Value.compare x.(i) y.(i) in
            if c <> 0 then c else go (i + 1)
        in
        go 0
      in
      let sign c = Stdlib.compare c 0 in
      sign (Storage.Table.Key.compare a b) = sign (reference a b))

(* Prefix and length cases (a key against its own prefixes, extensions
   and copies) against a plain list-lexicographic reference, and no minor
   allocation per call: the compare runs at every B+tree node visited. *)
let prop_key_compare_prefixes =
  let gen_value =
    QCheck.Gen.(
      frequency
        [ (3, map (fun i -> Value.Int i) (int_range (-3) 3));
          (2, map (fun s -> Value.Str s) (oneofl [ ""; "a"; "ab"; "b" ]));
          (1, map (fun b -> Value.Bool b) bool);
          (1, map (fun f -> Value.Float (float_of_int f)) (int_range (-2) 2));
          (1, return Value.Null) ])
  in
  let gen_pair =
    QCheck.Gen.(
      list_size (int_bound 5) gen_value >>= fun a ->
      let a = Array.of_list a in
      let n = Array.length a in
      frequency
        [ (2, map (fun k -> Array.sub a 0 k) (int_bound n));
          (2, map (fun ext -> Array.append a (Array.of_list ext))
                (list_size (int_range 1 3) gen_value));
          (1, return (Array.copy a));
          (1, return a);
          (2, map Array.of_list (list_size (int_bound 5) gen_value)) ]
      >>= fun b -> oneofl [ (a, b); (b, a) ])
  in
  let reference a b =
    let rec go = function
      | [], [] -> 0
      | [], _ :: _ -> -1
      | _ :: _, [] -> 1
      | x :: xs, y :: ys ->
        let c = Value.compare x y in
        if c <> 0 then c else go (xs, ys)
    in
    go (Array.to_list a, Array.to_list b)
  in
  let words_per_call a b =
    let n = 100 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Storage.Table.Key.compare a b))
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  QCheck.Test.make ~name:"Key.compare: prefixes, lengths, no allocation"
    ~count:500
    (QCheck.make gen_pair)
    (fun (a, b) ->
      let sign c = Stdlib.compare c 0 in
      sign (Storage.Table.Key.compare a b) = sign (reference a b)
      && words_per_call a b < 1.)

let test_catalog () =
  let c = Storage.Catalog.create () in
  let t = Storage.Catalog.create_table c sch in
  check_bool "mem" true (Storage.Catalog.mem c "t");
  check_bool "same table" true (Storage.Catalog.table c "t" == t);
  check_bool "dup rejected" true
    (try
       ignore (Storage.Catalog.create_table c sch);
       false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Storage.Catalog.table c "nope"));
  ignore (Storage.Table.insert t (Storage.Record.fresh ~absent:false
    [| Value.Int 1; Value.Str "x"; Value.Null |]));
  check_int "total records" 1 (Storage.Catalog.total_records c)

let suite =
  ( "storage",
    [
      Alcotest.test_case "schema make" `Quick test_schema_make;
      Alcotest.test_case "schema validate" `Quick test_schema_validate;
      Alcotest.test_case "key extraction" `Quick test_key_extraction;
      Alcotest.test_case "tid packing" `Quick test_record_tid;
      Alcotest.test_case "record locks" `Quick test_record_lock;
      Alcotest.test_case "rid uniqueness" `Quick test_record_rid_unique;
      Alcotest.test_case "table basics" `Quick test_table_basic;
      Alcotest.test_case "table validates" `Quick test_table_validates_on_insert;
      Alcotest.test_case "prefix bounds" `Quick test_prefix_bounds;
      Alcotest.test_case "secondary key plan" `Quick test_sec_key_plan;
      Alcotest.test_case "catalog" `Quick test_catalog;
      QCheck_alcotest.to_alcotest prop_key_compare_fastpath;
      QCheck_alcotest.to_alcotest prop_key_compare_prefixes;
    ] )
