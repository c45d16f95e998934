(* Tests of the benchmark's own code: the fixed-work drivers, the
   percentile rule, the host-speed rescaling, metric names and the span
   self-time arithmetic. *)

open Perfbench
module Sb = Workloads.Smallbank

let customers = 40

let small_requests n =
  let rng = Util.Rng.create 7 in
  Array.init n (fun _ -> Sb.gen_standard rng ~n:customers)

let config () =
  Reactdb.Config.shared_nothing (Scenario.groups (Sb.customers customers) 2)

let check_driver name (r : Driver.result) n =
  Alcotest.(check int) (name ^ ": every request ran once") n (Driver.logical r);
  Alcotest.(check int)
    (name ^ ": outcomes partition the requests")
    n
    (Driver.committed r + Driver.count Driver.User_abort r + Driver.failed r);
  Array.iteri
    (fun i s ->
      let l = r.Driver.lat_us.(i) in
      if s = Driver.Committed then
        Alcotest.(check bool) (name ^ ": latency recorded") true (Float.is_finite l && l >= 0.)
      else Alcotest.(check bool) (name ^ ": no latency") true (Float.is_nan l))
    r.Driver.status;
  Alcotest.(check int)
    (name ^ ": one latency per commit")
    (Driver.committed r)
    (Array.length (Driver.committed_latencies r))

let test_runtime_driver () =
  let n = 600 in
  let db = Runtime.Db.start (Sb.decl ~customers ()) (config ()) in
  let r = Driver.runtime db ~clients:5 ~readonly:(fun _ -> false) (small_requests n) in
  Runtime.Db.shutdown db;
  check_driver "runtime" r n;
  Alcotest.(check int) "attempt accounting" (n + Driver.retries r)
    (Runtime.Db.n_committed db + Runtime.Db.n_aborted db)

let test_sim_driver () =
  let n = (2 * Probe.every) + 100 in
  let db = Harness.build (Sb.decl ~customers ()) (config ()) in
  let r = Driver.sim db ~clients:5 ~readonly:(fun _ -> false) (small_requests n) in
  check_driver "simulator" r n;
  Alcotest.(check bool) "wall and reference seconds timed" true
    (r.Driver.wall_s > 0. && r.Driver.ref_wall_s > 0. && Float.is_finite r.Driver.ref_wall_s);
  Alcotest.(check int) "attempt accounting" (n + Driver.retries r)
    (Reactdb.Database.n_committed db + Reactdb.Database.n_aborted db)

(* The simulator's virtual latencies repeat exactly for the same inputs. *)
let test_sim_repeats () =
  let run () =
    let db = Harness.build (Sb.decl ~customers ()) (config ()) in
    Driver.committed_latencies
      (Driver.sim db ~clients:8 ~readonly:(fun _ -> false) (small_requests 400))
  in
  Alcotest.(check (array (float 0.))) "same latencies" (run ()) (run ())

(* More clients than requests: the spare clients end at once. *)
let test_more_clients_than_requests () =
  let db = Runtime.Db.start (Sb.decl ~customers ()) (config ()) in
  let r = Driver.runtime db ~clients:16 ~readonly:(fun _ -> false) (small_requests 3) in
  Runtime.Db.shutdown db;
  check_driver "runtime, 16 clients" r 3

(* Each stretch counts at the mean probe time at its ends, the last one at
   the last probe's. *)
let test_probe_rescaling () =
  let r = Probe.ref_s in
  Alcotest.(check (float 1e-12)) "reference speed" 3. (Probe.ref_seconds [ r; r ] [ 1.; 2. ]);
  Alcotest.(check (float 1e-12)) "slower probes, fewer reference seconds" (2. /. 1.5 +. 0.5)
    (Probe.ref_seconds [ r; 2. *. r ] [ 2.; 1. ]);
  Alcotest.check_raises "one probe per stretch" (Invalid_argument "Probe.ref_seconds")
    (fun () -> ignore (Probe.ref_seconds [ r ] [ 1.; 1. ]))

let test_percentile_rule () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let p = Pstats.percentile in
  Alcotest.(check (option (float 0.))) "p50 of 1..100" (Some 50.) (p a 50.);
  Alcotest.(check (option (float 0.))) "p90: exactly 10 beyond" (Some 90.) (p a 90.);
  Alcotest.(check (option (float 0.))) "p95: only 5 beyond" None (p a 95.);
  Alcotest.(check (option (float 0.))) "empty" None (p [||] 50.);
  Alcotest.(check (option (float 0.))) "10 samples, p50" None (p (Array.sub a 0 10) 50.);
  let b = Array.init 1010 float_of_int in
  Alcotest.(check bool) "p99 needs 1000+ samples" true (p b 99. <> None);
  Alcotest.(check bool) "p99 of 999" true (p (Array.sub b 0 999) 99. = None)

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Pstats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Pstats.median [ 4.; 1.; 2.; 3. ])

let test_name_rules () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Pstats.valid_name n))
    [ "p50_us"; "occ.abort_lock_busy_per_1k"; "btree.find-ns"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Pstats.valid_name n))
    [ ""; ".hidden"; "_x"; "lock busy"; "µs"; "a/b"; String.make 65 'a' ];
  Alcotest.(check bool) "unit 1/s" true (Pstats.valid_unit "1/s");
  Alcotest.(check bool) "unit µs" false (Pstats.valid_unit "µs")

let read_spec () =
  let ic = open_in "../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Json.of_string s with Ok j -> j | Error e -> Alcotest.fail e

let spec_metrics spec key =
  match Option.bind (Obs.Json.member key spec) Obs.Json.to_list with
  | None -> Alcotest.fail ("BENCHMARK.json: no " ^ key)
  | Some l ->
    List.map
      (fun m ->
        let str k = Option.bind (Obs.Json.member k m) Obs.Json.to_str in
        match (str "name", str "unit") with
        | Some n, Some u -> (n, u)
        | _ -> Alcotest.fail ("BENCHMARK.json: bad metric in " ^ key))
      l

(* Every metric name and unit in BENCHMARK.json obeys the rules, and a
   traced round of a small Smallbank emits exactly the declared metrics,
   in the declared units (run.py adds obs.overhead_pct from two rounds). *)
let test_declared_metrics () =
  let spec = read_spec () in
  let e2e = spec_metrics spec "end_to_end" and layer = spec_metrics spec "per_layer" in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("name " ^ n) true (Pstats.valid_name n);
      Alcotest.(check bool) ("unit " ^ u) true (Pstats.valid_unit u))
    (e2e @ layer);
  let w =
    { Scenario.smallbank with
      Scenario.reactors = Sb.customers customers;
      decl = (fun () -> Sb.decl ~customers ());
      gen = (fun _ rng n -> Array.init n (fun _ -> Sb.gen_standard rng ~n:customers));
      audit = (fun _ _ -> []);
      warmup = 100;
      txns = 2_000 }
  in
  let r = Scenario.run_round w ~seed:3 ~trace:true in
  Alcotest.(check (list string)) "no errors" [] r.Scenario.errors;
  let names ms =
    List.sort compare (List.map (fun m -> (m.Scenario.m_name, m.Scenario.m_unit)) ms)
  in
  Alcotest.(check (list (pair string string))) "end-to-end" (List.sort compare e2e)
    (names r.Scenario.end_to_end);
  Alcotest.(check (list (pair string string))) "per-layer"
    (List.sort compare (List.filter (fun (n, _) -> n <> "obs.overhead_pct") layer))
    (names r.Scenario.per_layer)

let span id parent t0 t1 = { Span.id; parent; name = string_of_int id; t0; t1 }

let test_self_time () =
  let root = span 0 None 0. 10. in
  let spans =
    [ root; span 1 (Some 0) 1. 3.; span 2 (Some 0) 2. 5.; span 3 (Some 0) 8. 12.;
      span 4 (Some 2) 2. 4. ]
  in
  (* children of the root cover [1,5] and [8,10] inside it: 6 of its 10 s *)
  Alcotest.(check (float 1e-9)) "overlapping and overhanging children" 4.
    (Span.self_time spans root);
  Alcotest.(check (float 1e-9)) "grandchildren count for their parent only" 1.
    (Span.self_time spans (List.nth spans 2));
  Alcotest.(check (float 1e-9)) "leaf" 2. (Span.self_time spans (List.nth spans 1));
  Alcotest.(check (float 1e-9)) "no children" 0.
    (Span.covered ~lo:0. ~hi:1. [ (2., 3.) ])

let test_span_nesting () =
  let t = Span.create () in
  let v = Span.record t "outer" (fun () -> Span.record t "inner" (fun () -> 42)) in
  Alcotest.(check int) "value passes through" 42 v;
  match Span.spans t with
  | [ o; i ] ->
    Alcotest.(check string) "start order" "outer" o.Span.name;
    Alcotest.(check (option int)) "inner's parent" (Some o.Span.id) i.Span.parent;
    Alcotest.(check bool) "self time within total" true
      (List.for_all
         (fun (_, total, self) -> self >= 0. && self <= total)
         (Span.summary (Span.spans t)))
  | _ -> Alcotest.fail "expected two spans"

let () =
  Alcotest.run "perfbench"
    [ ( "driver",
        [ Alcotest.test_case "runtime fixed work" `Quick test_runtime_driver;
          Alcotest.test_case "simulator fixed work" `Quick test_sim_driver;
          Alcotest.test_case "simulator latencies repeat" `Quick test_sim_repeats;
          Alcotest.test_case "more clients than requests" `Quick
            test_more_clients_than_requests ] );
      ( "stats",
        [ Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "probe rescaling" `Quick test_probe_rescaling;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "metric names" `Quick test_name_rules;
          Alcotest.test_case "declared metrics" `Quick test_declared_metrics ] );
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "nesting" `Quick test_span_nesting ] ) ]
