(* Unit and property tests for the B+tree, including the leaf-version
   witness discipline that OCC's phantom detection depends on. *)

(* Ints whose double fits a word are exact ([x lsl 1], low bit clear); the
   two tails clamp to inexact words, so the tie-break stays reachable. *)
module Int_key = struct
  type t = int

  let compare = Int.compare
  let lim = max_int / 2
  let norm x =
    if x > lim then max_int else if x < -lim then min_int lor 1 else x lsl 1
end

(* A deliberately coarse word: exact below 64, then one inexact word per 16
   keys, so most model operations land on a tie and go to [compare]. *)
module Coarse_key = struct
  type t = int

  let compare = Int.compare

  let norm x =
    if x >= 0 && x < 64 then x lsl 1
    else if x >= 64 then ((64 + ((x - 64) / 16)) lsl 1) lor 1
    else ((x asr 4) lsl 1) lor 1
end

module T = Btree.Make (Int_key)
module C = Btree.Make (Coarse_key)

(* What the model properties use, so they run on either instance. *)
module type INT_TREE = sig
  type 'v t
  type witness

  val create : unit -> 'v t
  val size : 'v t -> int
  val find : ?on_node:(witness -> unit) -> 'v t -> int -> 'v option
  val insert : 'v t -> int -> 'v -> 'v option
  val delete : 'v t -> int -> 'v option
  val range :
    ?on_node:(witness -> unit) -> ?lo:int -> ?hi:int -> 'v t ->
    f:(int -> 'v -> bool) -> unit

  val range_rev :
    ?on_node:(witness -> unit) -> ?lo:int -> ?hi:int -> 'v t ->
    f:(int -> 'v -> bool) -> unit

  val to_list : 'v t -> (int * 'v) list
  val check_invariants : 'v t -> unit
end

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let build n =
  let t = T.create () in
  for i = 0 to n - 1 do
    ignore (T.insert t i (i * 10))
  done;
  t

let test_insert_find () =
  let t = build 1000 in
  check_int "size" 1000 (T.size t);
  for i = 0 to 999 do
    Alcotest.(check (option int)) "find" (Some (i * 10)) (T.find t i)
  done;
  Alcotest.(check (option int)) "missing" None (T.find t 5000);
  T.check_invariants t

let test_insert_replace () =
  let t = build 10 in
  Alcotest.(check (option int)) "replace returns prev" (Some 50) (T.insert t 5 99);
  Alcotest.(check (option int)) "new value" (Some 99) (T.find t 5);
  check_int "size unchanged" 10 (T.size t)

let test_delete () =
  let t = build 100 in
  Alcotest.(check (option int)) "delete existing" (Some 70) (T.delete t 7);
  Alcotest.(check (option int)) "gone" None (T.find t 7);
  Alcotest.(check (option int)) "delete missing" None (T.delete t 7);
  check_int "size" 99 (T.size t);
  T.check_invariants t

let test_reverse_insert_order () =
  let t = T.create () in
  for i = 999 downto 0 do
    ignore (T.insert t i i)
  done;
  T.check_invariants t;
  check_int "size" 1000 (T.size t);
  Alcotest.(check (option (pair int int))) "min" (Some (0, 0)) (T.min_binding t);
  Alcotest.(check (option (pair int int)))
    "max" (Some (999, 999)) (T.max_binding t)

let test_range () =
  let t = build 100 in
  let seen = ref [] in
  T.range t ~lo:10 ~hi:15 ~f:(fun k _ ->
      seen := k :: !seen;
      true);
  Alcotest.(check (list int)) "range keys" [ 10; 11; 12; 13; 14; 15 ]
    (List.rev !seen);
  (* early stop *)
  let seen = ref [] in
  T.range t ~lo:0 ~f:(fun k _ ->
      seen := k :: !seen;
      List.length !seen < 3);
  check_int "early stop" 3 (List.length !seen)

let test_range_unbounded () =
  let t = build 50 in
  let n = ref 0 in
  T.range t ~f:(fun _ _ -> incr n; true);
  check_int "full scan" 50 !n;
  let n = ref 0 in
  T.range t ~lo:40 ~f:(fun _ _ -> incr n; true);
  check_int "lo only" 10 !n;
  let n = ref 0 in
  T.range t ~hi:9 ~f:(fun _ _ -> incr n; true);
  check_int "hi only" 10 !n

let test_range_rev () =
  let t = build 100 in
  let seen = ref [] in
  T.range_rev t ~lo:95 ~f:(fun k _ ->
      seen := k :: !seen;
      true);
  Alcotest.(check (list int)) "descending tail" [ 99; 98; 97; 96; 95 ]
    (List.rev !seen);
  let seen = ref [] in
  T.range_rev t ~lo:10 ~hi:12 ~f:(fun k _ ->
      seen := k :: !seen;
      true);
  Alcotest.(check (list int)) "bounded reverse" [ 12; 11; 10 ] (List.rev !seen)

let test_range_empty_tree () =
  let t : int T.t = T.create () in
  let n = ref 0 in
  T.range t ~f:(fun _ _ -> incr n; true);
  T.range_rev t ~f:(fun _ _ -> incr n; true);
  check_int "no visits on empty tree" 0 !n;
  Alcotest.(check (option (pair int int))) "min empty" None (T.min_binding t)

let test_witness_stable_read () =
  let t = build 100 in
  let ws = ref [] in
  T.range t ~on_node:(fun w -> ws := w :: !ws) ~lo:10 ~hi:40 ~f:(fun _ _ -> true);
  check_bool "witnesses taken" true (List.length !ws > 0);
  check_bool "valid when untouched" true (List.for_all T.witness_valid !ws);
  (* An update of a value (no structural change) must keep witnesses valid. *)
  ignore (T.insert t 20 12345);
  check_bool "value replace keeps witnesses" true (List.for_all T.witness_valid !ws)

let test_witness_detects_insert () =
  (* Even keys only, so odd keys inside the range are genuine phantoms. *)
  let t = T.create () in
  for i = 0 to 99 do
    ignore (T.insert t (2 * i) i)
  done;
  let ws = ref [] in
  T.range t ~on_node:(fun w -> ws := w :: !ws) ~lo:10 ~hi:40 ~f:(fun _ _ -> true);
  check_bool "valid before" true (List.for_all T.witness_valid !ws);
  ignore (T.insert t 25 1);
  check_bool "phantom insert invalidates a witness" true
    (not (List.for_all T.witness_valid !ws))

let test_witness_detects_delete () =
  let t = build 100 in
  let ws = ref [] in
  T.range t ~on_node:(fun w -> ws := w :: !ws) ~lo:10 ~hi:40 ~f:(fun _ _ -> true);
  ignore (T.delete t 25);
  check_bool "delete invalidates a witness" true
    (not (List.for_all T.witness_valid !ws))

let test_witness_point_miss () =
  let t = build 10 in
  let ws = ref [] in
  Alcotest.(check (option int)) "miss" None
    (T.find t 55 ~on_node:(fun w -> ws := w :: !ws));
  check_int "one witness on miss" 1 (List.length !ws);
  ignore (T.insert t 55 1);
  check_bool "later insert of that key invalidates" true
    (not (List.for_all T.witness_valid !ws))

(* A hit is guarded by the found value itself: no leaf witness. *)
let test_no_witness_on_hit () =
  let t = build 10 in
  let ws = ref [] in
  Alcotest.(check (option int)) "hit" (Some 50)
    (T.find t 5 ~on_node:(fun w -> ws := w :: !ws));
  check_int "no witness on hit" 0 (List.length !ws)

(* A delete that empties a non-root leaf takes it out of the tree, so a scan
   from the start of a range whose head was deleted (a TPC-C district's
   delivered new-orders) starts at the first remaining key's leaf. *)
let test_emptied_leaves_unlinked () =
  let t = T.create () in
  for i = 0 to 9_999 do
    ignore (T.insert t i i)
  done;
  for i = 0 to 8_999 do
    ignore (T.delete t i)
  done;
  T.check_invariants t;
  check_int "size" 1_000 (T.size t);
  let ws = ref 0 and first = ref None in
  T.range t ~on_node:(fun _ -> incr ws) ~lo:0 ~f:(fun k _ ->
      first := Some k;
      false);
  Alcotest.(check (option int)) "first remaining key" (Some 9_000) !first;
  check_bool (Printf.sprintf "%d witnesses from key 0" !ws) true (!ws <= 2);
  (* Emptying the whole tree collapses it to a root leaf that still
     takes inserts, scans and witnesses. *)
  let w = ref [] in
  T.range t ~on_node:(fun x -> w := x :: !w) ~lo:9_500 ~hi:9_600 ~f:(fun _ _ -> true);
  for i = 9_000 to 9_999 do
    ignore (T.delete t i)
  done;
  T.check_invariants t;
  check_bool "witnesses of emptied leaves fail" true
    (not (List.exists T.witness_valid !w));
  check_int "empty" 0 (T.size t);
  for i = 0 to 99 do
    ignore (T.insert t (99 - i) i)
  done;
  T.check_invariants t;
  check_int "refilled" 100 (List.length (T.to_list t))

(* Model-based property test against Stdlib.Map. *)
module M = Map.Make (Int)

type op = Ins of int * int | Del of int | Find of int

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Ins (k, v)) (int_bound 500) (int_bound 10_000));
        (2, map (fun k -> Del k) (int_bound 500));
        (2, map (fun k -> Find k) (int_bound 500));
      ])

let show_op = function
  | Ins (k, v) -> Printf.sprintf "Ins(%d,%d)" k v
  | Del k -> Printf.sprintf "Del(%d)" k
  | Find k -> Printf.sprintf "Find(%d)" k

let prop_model ?(name = "btree behaves like Map") (module T : INT_TREE) =
  QCheck.Test.make ~name ~count:200
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 400) gen_op)
       ~print:(fun ops -> String.concat ";" (List.map show_op ops)))
    (fun ops ->
      let t = T.create () in
      let m = ref M.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Ins (k, v) ->
            let prev = T.insert t k v in
            if prev <> M.find_opt k !m then ok := false;
            m := M.add k v !m
          | Del k ->
            let prev = T.delete t k in
            if prev <> M.find_opt k !m then ok := false;
            m := M.remove k !m
          | Find k -> if T.find t k <> M.find_opt k !m then ok := false)
        ops;
      T.check_invariants t;
      !ok
      && T.size t = M.cardinal !m
      && T.to_list t = M.bindings !m)

let prop_range_matches_model ?(name = "btree range = Map filtered bindings")
    (module T : INT_TREE) =
  QCheck.Test.make ~name ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 300) (int_bound 1000))
        (int_bound 1000) (int_bound 1000))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let t = T.create () in
      let m =
        List.fold_left
          (fun m k ->
            ignore (T.insert t k (k * 2));
            M.add k (k * 2) m)
          M.empty keys
      in
      let fwd = ref [] in
      T.range t ~lo ~hi ~f:(fun k v ->
          fwd := (k, v) :: !fwd;
          true);
      let rev = ref [] in
      T.range_rev t ~lo ~hi ~f:(fun k v ->
          rev := (k, v) :: !rev;
          true);
      let expected =
        List.filter (fun (k, _) -> k >= lo && k <= hi) (M.bindings m)
      in
      List.rev !fwd = expected && !rev = expected)

(* Soundness of phantom detection: take witnesses over a range, apply a
   random batch of structural operations, and check that whenever the
   range's CONTENT changed, at least one witness is invalid. (The converse
   — no false positives — is deliberately not required: leaf-granularity
   validation is conservative.) *)
let prop_witness_soundness =
  QCheck.Test.make ~name:"witnesses catch every range-content change" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 150) (int_bound 300))
        (pair (int_bound 300) (int_bound 300))
        (list_of_size Gen.(1 -- 30) (pair bool (int_bound 300))))
    (fun (initial, (a, b), ops) ->
      let lo = min a b and hi = max a b in
      let t = T.create () in
      List.iter (fun k -> ignore (T.insert t k k)) initial;
      let contents () =
        let out = ref [] in
        T.range t ~lo ~hi ~f:(fun k _ ->
            out := k :: !out;
            true);
        List.rev !out
      in
      let before = contents () in
      let ws = ref [] in
      T.range t ~on_node:(fun w -> ws := w :: !ws) ~lo ~hi ~f:(fun _ _ -> true);
      (* ensure the boundary leaf is witnessed even when the range is empty *)
      ignore (T.find t lo ~on_node:(fun w -> ws := w :: !ws));
      List.iter
        (fun (ins, k) ->
          if ins then ignore (T.insert t k k) else ignore (T.delete t k))
        ops;
      let after = contents () in
      let all_valid = List.for_all T.witness_valid !ws in
      (* content changed => some witness invalid *)
      (not (before <> after)) || not all_valid)

(* The storage key word (Table.Key.norm) against its contract. *)
module Key = Storage.Table.Key
module V = Util.Value

let p2 k = 1 lsl k

(* Ints on each byte-length boundary, both signs, and the extremes. *)
let boundary_ints =
  [ 0; 1; -1; 2; -2; max_int; min_int; max_int - 1; min_int + 1 ]
  @ List.concat_map
      (fun k ->
        let b = p2 (8 * k) in
        [ b; b - 1; b + 1; -b; -b - 1; -b + 1 ])
      [ 1; 2; 3; 4; 5; 6; 7 ]

let gen_value =
  QCheck.Gen.(
    frequency
      [
        (1, return V.Null);
        (1, map (fun b -> V.Bool b) bool);
        (4, map (fun i -> V.Int i) (oneofl boundary_ints));
        (3, map (fun i -> V.Int i) (int_range (-300) 300));
        (1, map (fun i -> V.Int i) int);
        (1, map (fun f -> V.Float f) (oneofl [ 0.; -0.; 1.5; -2.; nan; infinity ]));
        ( 2,
          map
            (fun s -> V.Str s)
            (oneofl [ ""; "\x00"; "\xff"; "a"; "a\x00"; String.make 8 '\xff' ]) );
      ])

let gen_key = QCheck.Gen.(map Array.of_list (list_size (int_range 0 5) gen_value))

(* Pairs that share a prefix, so later columns decide the order; one side
   may be a prefix of the other or the [key_prefix_bounds] sentinel. *)
let gen_key_pair =
  QCheck.Gen.(
    frequency
      [
        (1, pair gen_key gen_key);
        ( 3,
          map3
            (fun p a b -> (Array.append p a, Array.append p b))
            gen_key gen_key gen_key );
        ( 1,
          map2
            (fun p a -> (Array.append p a, snd (Storage.Table.key_prefix_bounds p)))
            gen_key gen_key );
      ])

let show_key k = String.concat "," (Array.to_list (Array.map V.to_string k))

let prop_key_norm_contract =
  QCheck.Test.make ~name:"Key.norm is monotone; an exact word means equal keys"
    ~count:5000
    (QCheck.make gen_key_pair ~print:(fun (a, b) ->
         Printf.sprintf "[%s] [%s]" (show_key a) (show_key b)))
    (fun (a, b) ->
      let c = Key.compare a b and na = Key.norm a and nb = Key.norm b in
      (c > 0 || na <= nb)
      && (c < 0 || na >= nb)
      && (na <> nb || na land 1 = 1 || c = 0))

let test_key_norm_exactness () =
  let exact k = Key.norm k land 1 = 0 in
  let ints l = Array.of_list (List.map (fun i -> V.Int i) l) in
  check_bool "order line key" true (exact (ints [ 10; 3001; 15 ]));
  check_bool "negative ints" true (exact (ints [ -1; -300; -7 ]));
  check_bool "6-byte ints" true
    (exact (ints [ p2 48 - 1 ]) && exact (ints [ -p2 48 ]));
  check_bool "empty key" true (exact [||]);
  check_bool "null column" true (exact [| V.Null; V.Int 3 |]);
  check_bool "7-byte int" false (exact (ints [ p2 48 ]));
  check_bool "string column" false (exact [| V.Int 1; V.Str "a" |]);
  check_bool "out of bits" false (exact (ints [ p2 40; p2 40 ]));
  check_bool "prefix below its extension" true
    (Key.norm (ints [ 4 ]) < Key.norm (ints [ 4; 0 ]))

(* Table.Idx against a map on composite int keys: small values take the
   exact-word path, 7- and 8-byte values the tie-break path. *)
module KM = Map.Make (Key)

let gen_int_col =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-3) 12);
        (2, oneofl [ 255; 256; -256; -257; 65_536; p2 48; p2 48 + 1; max_int; min_int ]);
      ])

let gen_ckey =
  QCheck.Gen.(
    map
      (fun l -> Array.of_list (List.map (fun i -> V.Int i) l))
      (list_repeat 3 gen_int_col))

let prop_idx_composite_model =
  QCheck.Test.make ~name:"Table.Idx on composite int keys behaves like Map"
    ~count:200
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 0 400) (pair (int_bound 3) gen_ckey))
           gen_int_col))
    (fun (ops, p) ->
      let module I = Storage.Table.Idx in
      let t = I.create () in
      let m = ref KM.empty in
      let ok = ref true in
      List.iteri
        (fun n (op, k) ->
          match op with
          | 0 | 1 ->
            if I.insert t k n <> KM.find_opt k !m then ok := false;
            m := KM.add k n !m
          | 2 ->
            if I.delete t k <> KM.find_opt k !m then ok := false;
            m := KM.remove k !m
          | _ -> if I.find t k <> KM.find_opt k !m then ok := false)
        ops;
      I.check_invariants t;
      let lo, hi = Storage.Table.key_prefix_bounds [| V.Int p |] in
      let fwd = ref [] and rev = ref [] in
      I.range t ~lo ~hi ~f:(fun k v -> fwd := (k, v) :: !fwd; true);
      I.range_rev t ~lo ~hi ~f:(fun k v -> rev := (k, v) :: !rev; true);
      let expected =
        List.filter
          (fun (k, _) -> V.compare k.(0) (V.Int p) = 0)
          (KM.bindings !m)
      in
      !ok
      && I.size t = KM.cardinal !m
      && I.to_list t = KM.bindings !m
      && List.rev !fwd = expected
      && !rev = expected)

let suite =
  ( "btree",
    [
      Alcotest.test_case "insert/find" `Quick test_insert_find;
      Alcotest.test_case "insert replace" `Quick test_insert_replace;
      Alcotest.test_case "delete" `Quick test_delete;
      Alcotest.test_case "reverse insert order" `Quick test_reverse_insert_order;
      Alcotest.test_case "range" `Quick test_range;
      Alcotest.test_case "range unbounded" `Quick test_range_unbounded;
      Alcotest.test_case "range_rev" `Quick test_range_rev;
      Alcotest.test_case "empty tree ranges" `Quick test_range_empty_tree;
      Alcotest.test_case "witness stable on reads" `Quick test_witness_stable_read;
      Alcotest.test_case "witness detects insert" `Quick test_witness_detects_insert;
      Alcotest.test_case "witness detects delete" `Quick test_witness_detects_delete;
      Alcotest.test_case "witness on point miss" `Quick test_witness_point_miss;
      Alcotest.test_case "no witness on point hit" `Quick test_no_witness_on_hit;
      Alcotest.test_case "emptied leaves leave the tree" `Quick
        test_emptied_leaves_unlinked;
      QCheck_alcotest.to_alcotest (prop_model (module T));
      QCheck_alcotest.to_alcotest (prop_range_matches_model (module T));
      QCheck_alcotest.to_alcotest
        (prop_model ~name:"btree behaves like Map (coarse words)" (module C));
      QCheck_alcotest.to_alcotest
        (prop_range_matches_model
           ~name:"btree range = Map filtered bindings (coarse words)" (module C));
      Alcotest.test_case "key words: exact int keys, cut otherwise" `Quick
        test_key_norm_exactness;
      QCheck_alcotest.to_alcotest prop_key_norm_contract;
      QCheck_alcotest.to_alcotest prop_idx_composite_model;
      QCheck_alcotest.to_alcotest prop_witness_soundness;
    ] )
