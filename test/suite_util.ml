(* Unit and property tests for lib/util. *)

open Util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_value_order () =
  let open Value in
  check_int "int order" (-1) (compare (Int 1) (Int 2));
  check_int "str order" 1 (compare (Str "b") (Str "a"));
  check_int "null smallest" (-1) (compare Null (Bool false));
  check_int "cross-type by tag" (-1) (compare (Int 5) (Float 0.));
  check_bool "equal" true (equal (Str "x") (Str "x"));
  check_bool "nan self-compare" true (compare (Float Float.nan) (Float Float.nan) = 0)

let test_value_access () =
  let open Value in
  check_int "to_int" 42 (to_int (Int 42));
  Alcotest.(check (float 1e-9)) "to_number widens" 7. (to_number (Int 7));
  Alcotest.check_raises "type error" (Type_error "expected int, got \"x\"")
    (fun () -> ignore (to_int (Str "x")));
  check_bool "conforms null" true (conforms Null TInt);
  check_bool "conforms mismatch" false (conforms (Int 1) TStr)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 8 in
  let distinct = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000 <> Rng.int c 1000 then distinct := true
  done;
  check_bool "different seed different stream" true !distinct

let test_rng_ranges () =
  let r = Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Rng.int_incl r 5 10 in
    check_bool "int_incl in range" true (v >= 5 && v <= 10);
    let f = Rng.float r 3. in
    check_bool "float in range" true (f >= 0. && f < 3.);
    let p = Rng.pick_except r 10 4 in
    check_bool "pick_except" true (p <> 4 && p >= 0 && p < 10)
  done

let test_rng_streams () =
  (* same (seed, index) => same sequence *)
  let a = Rng.stream ~seed:42 3 and b = Rng.stream ~seed:42 3 in
  for _ = 1 to 100 do
    check_int "stream deterministic" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done;
  (* different indexes of one seed are independent streams *)
  let outputs =
    List.init 16 (fun i ->
        let r = Rng.stream ~seed:42 i in
        List.init 8 (fun _ -> Rng.int r 1_000_000))
  in
  let distinct = List.sort_uniq compare outputs in
  check_int "16 streams all distinct" 16 (List.length distinct);
  (* stream 0 is not the plain generator of the same seed *)
  let s0 = Rng.stream ~seed:42 0 and plain = Rng.create 42 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int s0 1_000_000 <> Rng.int plain 1_000_000 then differs := true
  done;
  check_bool "stream 0 distinct from create" true !differs;
  check_bool "negative index rejected" true
    (try ignore (Rng.stream ~seed:1 (-1)); false
     with Invalid_argument _ -> true)

let test_reservoir_exact () =
  (* while seen <= cap the reservoir is the whole stream: exact percentiles *)
  let r = Stats.Reservoir.create 100 in
  for i = 1 to 100 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  check_int "seen" 100 (Stats.Reservoir.seen r);
  check_int "size" 100 (Stats.Reservoir.size r);
  Alcotest.(check (float 1e-9)) "p50" 50. (Stats.Reservoir.percentile r 50.);
  Alcotest.(check (float 1e-9)) "p95" 95. (Stats.Reservoir.percentile r 95.);
  Alcotest.(check (float 1e-9)) "p99" 99. (Stats.Reservoir.percentile r 99.);
  Alcotest.(check (float 1e-9)) "p100" 100. (Stats.Reservoir.percentile r 100.)

let test_reservoir_sampled () =
  (* beyond cap: a uniform sample of a known distribution keeps percentile
     estimates near truth *)
  let r = Stats.Reservoir.create ~seed:9 512 in
  for i = 1 to 100_000 do
    Stats.Reservoir.add r (float_of_int (i mod 1000))
  done;
  check_int "seen counts stream" 100_000 (Stats.Reservoir.seen r);
  check_int "size bounded by cap" 512 (Stats.Reservoir.size r);
  let p50 = Stats.Reservoir.percentile r 50. in
  check_bool "p50 near 500" true (Float.abs (p50 -. 500.) < 100.);
  let p95 = Stats.Reservoir.percentile r 95. in
  check_bool "p95 near 950" true (Float.abs (p95 -. 950.) < 50.);
  check_bool "ordered" true (p50 <= p95)

let test_reservoir_empty () =
  let r = Stats.Reservoir.create 8 in
  Alcotest.(check (float 1e-9)) "empty percentile" 0.
    (Stats.Reservoir.percentile r 50.);
  check_bool "cap must be positive" true
    (try ignore (Stats.Reservoir.create 0); false
     with Invalid_argument _ -> true)

let test_rng_uniformity () =
  let r = Rng.create 99 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int r 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      check_bool "bucket within 10% of expected" true
        (abs (c - (n / 10)) < n / 100))
    counts

let test_nurand () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.nurand r ~a:255 ~c:123 ~x:0 ~y:999 in
    check_bool "nurand in [x,y]" true (v >= 0 && v <= 999)
  done

let test_zipf_bounds () =
  let r = Rng.create 5 in
  List.iter
    (fun theta ->
      let g = Rng.Zipf.create ~n:100 ~theta in
      for _ = 1 to 2000 do
        let v = Rng.Zipf.next r g in
        check_bool "zipf in range" true (v >= 0 && v < 100)
      done)
    [ 0.01; 0.5; 0.99; 1.0; 2.0; 5.0 ]

let test_zipf_skew () =
  let r = Rng.create 11 in
  let freq0 theta =
    let g = Rng.Zipf.create ~n:1000 ~theta in
    let c = ref 0 in
    for _ = 1 to 20_000 do
      if Rng.Zipf.next r g = 0 then incr c
    done;
    !c
  in
  let low = freq0 0.01 and mid = freq0 0.99 and high = freq0 5.0 in
  check_bool "higher theta concentrates on item 0" true (low < mid && mid < high);
  check_bool "theta=5 almost always item 0" true (high > 19_000)

let test_zipf_single () =
  let r = Rng.create 2 in
  let g = Rng.Zipf.create ~n:1 ~theta:0.99 in
  for _ = 1 to 10 do
    check_int "n=1 always 0" 0 (Rng.Zipf.next r g)
  done

let test_stats_basic () =
  let s = Stats.of_list [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944487 (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4. (Stats.max s);
  check_int "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "p50" 2. (Stats.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p100" 4. (Stats.percentile s 100.)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 1e-9)) "mean of empty" 0. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "stddev of empty" 0. (Stats.stddev s);
  Alcotest.(check (float 1e-9)) "percentile of empty" 0. (Stats.percentile s 50.)

let test_stats_merge () =
  let a = Stats.of_list [ 1.; 2. ] and b = Stats.of_list [ 3. ] in
  let m = Stats.merge a b in
  check_int "merged count" 3 (Stats.count m);
  Alcotest.(check (float 1e-9)) "merged mean" 2. (Stats.mean m)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 9.9; -5.; 100. ];
  let c = Stats.Histogram.counts h in
  check_int "bucket 0 gets 0.5 and clamped -5" 2 c.(0);
  check_int "bucket 1" 2 c.(1);
  check_int "last bucket gets 9.9 and clamped 100" 2 c.(9);
  check_int "total" 6 (Stats.Histogram.total h)

let test_tablefmt () =
  let t = Tablefmt.create ~title:"T" [ "a"; "b" ] in
  Tablefmt.row t [ "x"; "1" ];
  Tablefmt.row t [ "longer"; "22" ];
  let s = Tablefmt.to_string t in
  check_bool "has title" true (String.length s > 0 && String.sub s 0 4 = "== T");
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Tablefmt.row: arity mismatch") (fun () ->
      Tablefmt.row t [ "only-one" ])

(* Property: stats mean/stddev agree with a direct fold. *)
let prop_stats_mean =
  QCheck.Test.make ~name:"stats mean matches direct computation" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Util.Stats.of_list xs in
      let direct = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      Float.abs (Util.Stats.mean s -. direct) < 1e-6)

let prop_zipf_theta0_uniformish =
  QCheck.Test.make ~name:"zipf theta~0 is near-uniform" ~count:5
    QCheck.(int_range 10 50)
    (fun n ->
      let r = Util.Rng.create n in
      let g = Util.Rng.Zipf.create ~n ~theta:0.01 in
      let counts = Array.make n 0 in
      let draws = 20_000 in
      for _ = 1 to draws do
        let v = Util.Rng.Zipf.next r g in
        counts.(v) <- counts.(v) + 1
      done;
      (* every bucket within 3x of the uniform expectation *)
      Array.for_all (fun c -> c < 3 * draws / n + 10) counts)

let test_strutil_contains () =
  let has s sub = Strutil.contains s ~sub in
  check_bool "empty sub" true (has "abc" "");
  check_bool "empty both" true (has "" "");
  check_bool "sub in empty" false (has "" "x");
  check_bool "at start" true (has "duplicate key (own insert)" "duplicate key");
  check_bool "in middle" true (has "xduplicate keyx" "duplicate key");
  check_bool "at end" true (has "abc" "bc");
  check_bool "whole" true (has "abc" "abc");
  check_bool "absent" false (has "abc" "abd");
  check_bool "longer than s" false (has "ab" "abc");
  check_bool "repeated prefix" true (has "aaaab" "aaab");
  check_bool "almost repeated" false (has "aabaab" "aaab");
  check_bool "prefix yes" true (Strutil.has_prefix "dangerous call" ~prefix:"dangerous");
  check_bool "prefix no" false (Strutil.has_prefix "danger" ~prefix:"dangerous")

(* Reference: the allocation-per-position scan this helper replaced. *)
let prop_strutil_matches_naive =
  QCheck.Test.make ~name:"Strutil.contains = naive substring scan" ~count:500
    QCheck.(pair (string_of_size Gen.(int_bound 12)) (string_of_size Gen.(int_bound 4)))
    (fun (s, sub) ->
      let naive =
        let n = String.length sub and l = String.length s in
        let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Strutil.contains s ~sub = naive)

let test_vec_basics () =
  let v = Vec.create () in
  check_bool "empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 42 (Vec.get v 42);
  check_bool "get oob" true
    (try ignore (Vec.get v 100); false with Invalid_argument _ -> true);
  Alcotest.(check (list int)) "to_list order" (List.init 100 Fun.id) (Vec.to_list v);
  check_int "fold" 4950 (Vec.fold_left ( + ) 0 v);
  check_bool "exists" true (Vec.exists (fun x -> x = 77) v);
  check_bool "for_all" true (Vec.for_all (fun x -> x < 100) v);
  let sum = ref 0 in
  Vec.iter (fun x -> sum := !sum + x) v;
  check_int "iter" 4950 !sum;
  check_int "to_array" 99 (Vec.to_array v).(99);
  Vec.clear v;
  check_int "cleared" 0 (Vec.length v);
  Vec.push v 7;
  check_int "push after clear" 7 (Vec.get v 0)

(* --- Backoff: deterministic, monotone, capped (the three properties the
   retry loops rely on — see lib/util/backoff.mli) --- *)

let backoff_policy_gen =
  QCheck.make
    QCheck.Gen.(
      map4
        (fun base mult cap jit ->
          Backoff.make ~base_us:base ~multiplier:mult ~cap_us:cap ~jitter:jit
            ())
        (float_range 0.1 5000.) (float_range 0.5 4.) (float_range 10. 1e6)
        (float_range (-0.5) 1.5))

let prop_backoff =
  QCheck.Test.make
    ~name:"backoff: deterministic per seed, monotone in attempt, capped"
    ~count:200
    QCheck.(pair backoff_policy_gen small_signed_int)
    (fun (p, seed) ->
      let d k = Backoff.delay_us p ~seed ~attempt:k in
      let deterministic = List.for_all (fun k -> d k = d k) [ 1; 2; 5; 9 ] in
      let monotone =
        List.for_all (fun k -> d (k + 1) >= d k) [ 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      let capped =
        List.for_all
          (fun k -> d k <= p.Backoff.cap_us && d k >= 0.)
          [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 30 ]
      in
      deterministic && monotone && capped && d 0 = 0. && d (-3) = 0.)

let test_backoff_default () =
  let p = Backoff.default in
  let d1 = Backoff.delay_us p ~seed:7 ~attempt:1 in
  check_bool "first retry at least base" true (d1 >= p.Backoff.base_us);
  check_bool "first retry within jitter band" true
    (d1 <= p.Backoff.base_us *. (1. +. p.Backoff.jitter));
  check_bool "deep retries hit the cap" true
    (Backoff.delay_us p ~seed:7 ~attempt:30 = p.Backoff.cap_us);
  check_bool "seeds decorrelate" true
    (Backoff.delay_us p ~seed:1 ~attempt:3
    <> Backoff.delay_us p ~seed:2 ~attempt:3)

(* CRC-32: the standard check value, and [crc32_sub] agreeing with a
   checksum of the copied slice. *)
let test_crc32 () =
  check_int "check value" 0xCBF43926 (Checksum.crc32 "123456789");
  check_int "empty" 0 (Checksum.crc32 "");
  check_int "sub of check value" 0xCBF43926
    (Checksum.crc32_sub "xx123456789y" ~pos:2 ~len:9);
  check_int "init chains" (Checksum.crc32 "123456789")
    (Checksum.crc32 ~init:(Checksum.crc32 "1234") "56789");
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises "range outside string"
        (Invalid_argument "Checksum.crc32_sub") (fun () ->
          ignore (Checksum.crc32_sub "abc" ~pos ~len)))
    [ (-1, 1); (0, 4); (2, 2); (1, -1) ]

let prop_crc32_sub =
  QCheck.Test.make ~name:"crc32_sub = crc32 of String.sub" ~count:500
    QCheck.(
      triple (string_gen_of_size Gen.(int_bound 200) Gen.char) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = a mod (n + 1) in
      let len = b mod (n - pos + 1) in
      Checksum.crc32_sub s ~pos ~len = Checksum.crc32 (String.sub s pos len))

(* A padded atomic is an ordinary atomic to every operation: two domains
   each add 1 to the same cell 100 000 times and none is lost; a second
   padded cell beside it is untouched. *)
let test_padded_atomic () =
  let a = Padded.atomic 0 and other = Padded.atomic 7 in
  let bump () =
    for _ = 1 to 100_000 do
      ignore (Atomic.fetch_and_add a 1)
    done
  in
  let d = Domain.spawn bump in
  bump ();
  Domain.join d;
  Alcotest.(check int) "exact count" 200_000 (Atomic.get a);
  Alcotest.(check int) "neighbour untouched" 7 (Atomic.get other);
  let x = "x" in
  let s = Padded.atomic x in
  Alcotest.(check bool) "compare_and_set" true (Atomic.compare_and_set s x "y");
  Alcotest.(check string) "boxed value" "y" (Atomic.get s)

let suite =
  ( "util",
    [
      Alcotest.test_case "value ordering" `Quick test_value_order;
      Alcotest.test_case "strutil contains" `Quick test_strutil_contains;
      Alcotest.test_case "vec basics" `Quick test_vec_basics;
      QCheck_alcotest.to_alcotest prop_strutil_matches_naive;
      Alcotest.test_case "value accessors" `Quick test_value_access;
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng streams" `Quick test_rng_streams;
      Alcotest.test_case "reservoir exact" `Quick test_reservoir_exact;
      Alcotest.test_case "reservoir sampled" `Quick test_reservoir_sampled;
      Alcotest.test_case "reservoir empty" `Quick test_reservoir_empty;
      Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
      Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
      Alcotest.test_case "nurand bounds" `Quick test_nurand;
      Alcotest.test_case "zipf bounds" `Quick test_zipf_bounds;
      Alcotest.test_case "zipf skew ordering" `Quick test_zipf_skew;
      Alcotest.test_case "zipf n=1" `Quick test_zipf_single;
      Alcotest.test_case "stats basics" `Quick test_stats_basic;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "stats merge" `Quick test_stats_merge;
      Alcotest.test_case "histogram" `Quick test_histogram;
      Alcotest.test_case "tablefmt" `Quick test_tablefmt;
      QCheck_alcotest.to_alcotest prop_stats_mean;
      QCheck_alcotest.to_alcotest prop_zipf_theta0_uniformish;
      Alcotest.test_case "backoff defaults" `Quick test_backoff_default;
      QCheck_alcotest.to_alcotest prop_backoff;
      Alcotest.test_case "crc32" `Quick test_crc32;
      QCheck_alcotest.to_alcotest prop_crc32_sub;
      Alcotest.test_case "padded atomic across domains" `Quick test_padded_atomic;
    ] )
