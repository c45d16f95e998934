(* Transaction-lifecycle observability: phase vocabulary, traces,
   collector/report semantics, JSON export, and the retry accounting the
   tracer's abort taxonomy drives in both load harnesses. *)

open Util
module DB = Reactdb.Database
module RDb = Runtime.Db

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let check_close msg a b =
  let eps = 1e-9 *. Stdlib.max 1. (Stdlib.max (abs_float a) (abs_float b)) in
  if abs_float (a -. b) > eps then
    Alcotest.failf "%s: %.17g <> %.17g" msg a b

(* ---- vocabulary ---- *)

let test_phase_names () =
  check_int "seven phases" 7 Obs.Phase.count;
  check_int "all length" Obs.Phase.count (List.length Obs.Phase.all);
  List.iteri
    (fun i p ->
      check_int "dense index" i (Obs.Phase.index p);
      match Obs.Phase.of_name (Obs.Phase.name p) with
      | Some p' -> check_bool "name round-trip" true (p = p')
      | None -> Alcotest.failf "of_name %s" (Obs.Phase.name p))
    Obs.Phase.all;
  check_str "snake case" "queue_wait" (Obs.Phase.name Obs.Phase.Queue_wait);
  check_bool "unknown name" true (Obs.Phase.of_name "bogus" = None)

let test_abort_kinds () =
  List.iter
    (fun k ->
      match Obs.Abort.kind_of_name (Obs.Abort.kind_name k) with
      | Some k' -> check_bool "kind round-trip" true (k = k')
      | None -> Alcotest.failf "kind_of_name %s" (Obs.Abort.kind_name k))
    Obs.Abort.all_kinds;
  check_bool "conflict transient" true (Obs.Abort.transient Obs.Abort.Conflict);
  check_bool "lock-busy transient" true
    (Obs.Abort.transient Obs.Abort.Lock_busy);
  check_bool "stale-read transient" true
    (Obs.Abort.transient Obs.Abort.Stale_read);
  check_bool "user not transient" false (Obs.Abort.transient Obs.Abort.User);
  check_bool "dangerous not transient" false
    (Obs.Abort.transient Obs.Abort.Dangerous);
  check_bool "internal not transient" false
    (Obs.Abort.transient Obs.Abort.Internal);
  (* schema v2 additions: deadline expiry and admission sheds are typed,
     named, and deliberately NOT transient — retrying an expired budget or
     a shed defeats the point of both mechanisms *)
  check_str "timeout name" "timeout" (Obs.Abort.kind_name Obs.Abort.Timeout);
  check_str "overloaded name" "overloaded"
    (Obs.Abort.kind_name Obs.Abort.Overloaded);
  check_bool "timeout not transient" false
    (Obs.Abort.transient Obs.Abort.Timeout);
  check_bool "overloaded not transient" false
    (Obs.Abort.transient Obs.Abort.Overloaded);
  check_int "ten kinds" 10 Obs.Abort.n_kinds;
  check_int "kinds indexed densely" (Obs.Abort.n_kinds - 1)
    (List.fold_left
       (fun acc k -> max acc (Obs.Abort.kind_index k))
       0 Obs.Abort.all_kinds);
  check_int "schema version bumped for the scheduler rows" 3
    Obs.Report.schema_version;
  check_int "v2 reports stay readable" 2 Obs.Report.min_readable_version

(* ---- traces ---- *)

let test_trace_basics () =
  check_bool "none disabled" false (Obs.Trace.enabled Obs.Trace.none);
  Obs.Trace.add Obs.Trace.none Obs.Phase.Exec 10.;
  check_close "none stays zero" 0. (Obs.Trace.get Obs.Trace.none Obs.Phase.Exec);
  let tr = Obs.Trace.make () in
  check_bool "make enabled" true (Obs.Trace.enabled tr);
  Obs.Trace.add tr Obs.Phase.Exec 5.;
  Obs.Trace.add tr Obs.Phase.Exec 2.5;
  Obs.Trace.add tr Obs.Phase.Validation 1.5;
  Obs.Trace.add tr Obs.Phase.Queue_wait (-3.);
  check_close "accumulates" 7.5 (Obs.Trace.get tr Obs.Phase.Exec);
  check_close "negative clamped" 0. (Obs.Trace.get tr Obs.Phase.Queue_wait);
  check_close "sum_measured" 9. (Obs.Trace.sum_measured tr);
  Obs.Trace.reset tr;
  check_close "reset" 0. (Obs.Trace.sum_measured tr)

(* ---- JSON ---- *)

let test_json_basics () =
  let module J = Obs.Json in
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\n\t\x01");
        ("n", J.Num 1.5);
        ("big", J.Num 1e300);
        ("i", J.Num 42.);
        ("neg", J.Num (-0.125));
        ("b", J.Bool true);
        ("null", J.Null);
        ("l", J.List [ J.Num 1.; J.Str "x"; J.List []; J.Obj [] ]);
      ]
  in
  (match J.of_string (J.to_string v) with
  | Ok v' -> check_bool "compact round-trip" true (v = v')
  | Error e -> Alcotest.failf "parse: %s" e);
  (match J.of_string (J.to_string ~pretty:true v) with
  | Ok v' -> check_bool "pretty round-trip" true (v = v')
  | Error e -> Alcotest.failf "pretty parse: %s" e);
  check_bool "trailing garbage rejected" true
    (Result.is_error (J.of_string "{} x"));
  check_bool "bad literal rejected" true (Result.is_error (J.of_string "nul"));
  check_bool "unterminated string rejected" true
    (Result.is_error (J.of_string "\"abc"));
  check_str "integral printed without point" "42" (J.to_string (J.Num 42.));
  match J.of_string "{\"a\": [1, 2.5, \"\\u0041\"]}" with
  | Ok (J.Obj [ ("a", J.List [ J.Num 1.; J.Num 2.5; J.Str "A" ]) ]) -> ()
  | Ok v -> Alcotest.failf "unexpected parse: %s" (J.to_string v)
  | Error e -> Alcotest.failf "parse: %s" e

(* ---- collector / report ---- *)

(* A deterministic synthetic history: phases sum below latency, so the
   overhead remainder absorbs the difference exactly. *)
let synthetic_collector () =
  let c = Obs.Collector.create ~clock:Obs.Virtual ~containers:2 () in
  (* 3 commits on container 0. *)
  for i = 1 to 3 do
    let tr = Obs.Collector.trace c in
    Obs.Trace.add tr Obs.Phase.Exec (10. *. float_of_int i);
    Obs.Trace.add tr Obs.Phase.Validation 2.;
    Obs.Collector.record_commit c ~container:0
      ~latency_us:((10. *. float_of_int i) +. 2. +. 5.)
      tr
  done;
  (* 1 cross-container commit on container 1, retry index 1. *)
  let tr = Obs.Collector.trace c in
  Obs.Trace.add tr Obs.Phase.Exec 4.;
  Obs.Trace.add tr Obs.Phase.Suspend_wait 6.;
  Obs.Trace.add tr Obs.Phase.Commit 3.;
  Obs.Collector.record_commit c ~container:1 ~participants:2 ~retry:1
    ~latency_us:20. tr;
  (* 2 aborts on container 1. *)
  let tr = Obs.Collector.trace c in
  Obs.Trace.add tr Obs.Phase.Exec 1.;
  Obs.Collector.record_abort c ~container:1 ~latency_us:2.
    ~cause:(Obs.Abort.cause ~participants:2 Obs.Abort.Lock_busy)
    tr;
  let tr = Obs.Collector.trace c in
  Obs.Collector.record_abort c ~container:1 ~latency_us:1.
    ~cause:(Obs.Abort.cause ~retry:2 Obs.Abort.User)
    tr;
  c

let test_report_summarize () =
  let r = Obs.Report.summarize (synthetic_collector ()) in
  check_str "clock" "virtual" r.Obs.Report.r_clock;
  check_int "attempts" 6 r.Obs.Report.r_attempts;
  check_int "commits" 4 r.Obs.Report.r_commits;
  check_int "aborts" 2 r.Obs.Report.r_aborts;
  check_int "retried attempts" 2 r.Obs.Report.r_retries;
  check_close "max dev 0" 0. r.Obs.Report.r_max_sum_dev_pct;
  let total_lat = 17. +. 27. +. 37. +. 20. +. 2. +. 1. in
  check_close "mean latency" (total_lat /. 6.) r.Obs.Report.r_mean_latency_us;
  let phase_sum =
    List.fold_left
      (fun acc p -> acc +. p.Obs.Report.pr_sum_us)
      0. r.Obs.Report.r_phases
  in
  check_close "phases partition total latency" total_lat phase_sum;
  let row p =
    List.find
      (fun x -> x.Obs.Report.pr_phase = Obs.Phase.name p)
      r.Obs.Report.r_phases
  in
  check_close "exec sum" 65. (row Obs.Phase.Exec).Obs.Report.pr_sum_us;
  check_int "exec occurrences" 5 (row Obs.Phase.Exec).Obs.Report.pr_count;
  check_close "suspend sum" 6.
    (row Obs.Phase.Suspend_wait).Obs.Report.pr_sum_us;
  check_close "overhead sum"
    (15. +. 7. +. 1. +. 1.)
    (row Obs.Phase.Overhead).Obs.Report.pr_sum_us;
  check_bool "abort kinds" true
    (List.sort compare r.Obs.Report.r_aborts_by_kind
    = [ ("lock-busy", 1); ("user", 1) ]);
  check_bool "participants hist" true
    (List.assoc 2 r.Obs.Report.r_participants = 2);
  check_bool "retry hist has index 2" true
    (List.assoc 2 r.Obs.Report.r_retry_hist = 1);
  let table = Obs.Report.to_table r in
  List.iter
    (fun p ->
      check_bool ("table mentions " ^ Obs.Phase.name p) true
        (let name = Obs.Phase.name p in
         let rec find i =
           i + String.length name <= String.length table
           && (String.sub table i (String.length name) = name || find (i + 1))
         in
         find 0))
    Obs.Phase.all

let test_overcount_detected () =
  let c = Obs.Collector.create ~clock:Obs.Wall ~containers:1 () in
  let tr = Obs.Collector.trace c in
  Obs.Trace.add tr Obs.Phase.Exec 110.;
  (* measured 110 > latency 100: a double-count; remainder goes negative. *)
  Obs.Collector.record_commit c ~container:0 ~latency_us:100. tr;
  let r = Obs.Report.summarize c in
  check_bool "deviation surfaces" true
    (r.Obs.Report.r_max_sum_dev_pct > 9.9
    && r.Obs.Report.r_max_sum_dev_pct < 10.1)

let test_report_json_roundtrip () =
  let r = Obs.Report.summarize (synthetic_collector ()) in
  (match Obs.Report.of_json (Obs.Report.to_json r) with
  | Ok r' -> check_bool "exact round-trip" true (r = r')
  | Error e -> Alcotest.failf "of_json: %s" e);
  (* Version policy: an unknown schema_version is rejected. *)
  match Obs.Report.to_json r with
  | Obs.Json.Obj fields ->
    let bumped =
      Obs.Json.Obj
        (List.map
           (function
             | "schema_version", _ -> ("schema_version", Obs.Json.Num 999.)
             | kv -> kv)
           fields)
    in
    check_bool "unknown version rejected" true
      (Result.is_error (Obs.Report.of_json bumped))
  | _ -> Alcotest.fail "to_json not an object"

(* Backwards compatibility: a v2 document (no "scheduler" field) still
   loads, with empty scheduler rows; and v3 sched rows survive a
   round-trip. *)
let test_report_v2_readable () =
  let r = Obs.Report.summarize (synthetic_collector ()) in
  (match Obs.Report.to_json r with
  | Obs.Json.Obj fields ->
    let v2 =
      Obs.Json.Obj
        (List.filter_map
           (function
             | "schema_version", _ ->
               Some ("schema_version", Obs.Json.Num 2.)
             | "scheduler", _ -> None
             | kv -> Some kv)
           fields)
    in
    (match Obs.Report.of_json v2 with
    | Ok r2 ->
      check_bool "v2 loads with no sched rows" true
        (r2 = { r with Obs.Report.r_sched = [] })
    | Error e -> Alcotest.failf "v2 rejected: %s" e)
  | _ -> Alcotest.fail "to_json not an object");
  (* v3 with sched rows round-trips *)
  let c = synthetic_collector () in
  Obs.Collector.set_sched c ~container:1 ~steals_in:3 ~steals_out:0
    ~routed_by_cost:7 ~qdepth_ewma:2.5;
  let r3 = Obs.Report.summarize c in
  (match r3.Obs.Report.r_sched with
  | [ s ] ->
    check_int "sched container" 1 s.Obs.Report.sr_container;
    check_int "sched steals_in" 3 s.Obs.Report.sr_steals_in;
    check_int "sched routed_by_cost" 7 s.Obs.Report.sr_routed_by_cost
  | l -> Alcotest.failf "expected one sched row, got %d" (List.length l));
  match Obs.Report.of_json (Obs.Report.to_json r3) with
  | Ok r' -> check_bool "v3 sched rows round-trip" true (r' = r3)
  | Error e -> Alcotest.failf "of_json: %s" e

(* ---- QCheck: generated traces ---- *)

let gen_attempt =
  QCheck.Gen.(
    let dur = oneof [ return 0.; float_bound_inclusive 1000. ] in
    let* phases = array_size (return 6) dur in
    let* extra = float_bound_inclusive 50. in
    let* container = int_bound 2 in
    let* commit = bool in
    let* retry = int_bound 3 in
    let* participants = 1 -- 4 in
    let* kind = oneofl Obs.Abort.all_kinds in
    return (phases, extra, container, commit, retry, participants, kind))

let measured_phases =
  List.filter (fun p -> p <> Obs.Phase.Overhead) Obs.Phase.all

let build_collector attempts =
  let c = Obs.Collector.create ~clock:Obs.Virtual ~containers:3 () in
  List.iter
    (fun (phases, extra, container, commit, retry, participants, kind) ->
      let tr = Obs.Collector.trace c in
      List.iteri (fun i p -> Obs.Trace.add tr p phases.(i)) measured_phases;
      let latency_us = Obs.Trace.sum_measured tr +. extra in
      if commit then
        Obs.Collector.record_commit c ~container ~participants ~retry
          ~latency_us tr
      else
        Obs.Collector.record_abort c ~container ~latency_us
          ~cause:(Obs.Abort.cause ~participants ~retry kind)
          tr)
    attempts;
  c

(* Non-negative per-phase durations, and phase sums equal to the summed
   end-to-end latency within float rounding (latency >= measured by
   construction, so the overhead remainder absorbs the rest exactly). *)
let prop_phase_partition =
  QCheck.Test.make ~name:"phases partition latency" ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 60) gen_attempt))
    (fun attempts ->
      let r = Obs.Report.summarize (build_collector attempts) in
      let total_lat =
        List.fold_left
          (fun acc (phases, extra, _, _, _, _, _) ->
            acc +. Array.fold_left ( +. ) extra phases)
          0. attempts
      in
      let phase_sum =
        List.fold_left
          (fun acc p ->
            if p.Obs.Report.pr_sum_us < 0. then
              QCheck.Test.fail_reportf "negative phase sum %s"
                p.Obs.Report.pr_phase;
            acc +. p.Obs.Report.pr_sum_us)
          0. r.Obs.Report.r_phases
      in
      let eps = 1e-6 *. Stdlib.max 1. total_lat in
      if abs_float (phase_sum -. total_lat) > eps then
        QCheck.Test.fail_reportf "phase sum %.17g <> latency sum %.17g"
          phase_sum total_lat;
      if r.Obs.Report.r_max_sum_dev_pct > 1e-6 then
        QCheck.Test.fail_reportf "unexpected sum deviation %.17g"
          r.Obs.Report.r_max_sum_dev_pct;
      r.Obs.Report.r_attempts = List.length attempts)

(* ---- QCheck: overlapping awaits never double-count Suspend_wait ---- *)

(* Model of the engines' await attribution (database.ml await_sub /
   db.ml await_sub): the root fiber consumes futures one get at a time; a
   get on a future resolving at absolute time [c] past the cursor [t]
   blocks the fiber for [c - t] and advances the cursor to [c], while an
   already-resolved future is peeked for free. Futures whose in-flight
   windows overlap therefore contribute the *union* of their windows to
   Suspend_wait, never the sum — the fiber is physically blocked at most
   once at any instant. The property drives this fold over arbitrary
   overlapping windows and random consumption orders (collect consumes in
   list order; implicit sync in reverse issue order — both are covered by
   random permutations), then pushes the result through the real
   Trace/Collector arithmetic: the Exec residual (body minus waits, the
   engines' subtraction) must never go negative, Suspend_wait must fit
   inside the post-work body window, and phase sums must still partition
   the end-to-end latency exactly. A naive per-future sum would fail all
   three as soon as two windows overlap. *)
let gen_overlapping_waits =
  QCheck.Gen.(
    let* n = 1 -- 6 in
    let* spans =
      list_size (return n)
        (pair (float_bound_inclusive 500.) (float_bound_inclusive 300.))
    in
    let* order = shuffle_l (List.init n Fun.id) in
    let* work = float_bound_inclusive 200. in
    let* extra = float_bound_inclusive 50. in
    return (spans, order, work, extra))

let prop_no_suspend_double_count =
  QCheck.Test.make ~name:"overlapping waits: suspend is a union, not a sum"
    ~count:300
    (QCheck.make gen_overlapping_waits)
    (fun (spans, order, work, extra) ->
      (* absolute resolve time of each future: request offset + in-flight
         duration (offsets and durations overlap freely) *)
      let completions =
        List.map (fun (req, dur) -> req +. dur) spans |> Array.of_list
      in
      (* the engines' consumption fold: blocked window only past cursor *)
      let cursor, suspend =
        List.fold_left
          (fun (t, acc) i ->
            let c = completions.(i) in
            if c > t then (c, acc +. (c -. t)) else (t, acc))
          (work, 0.) order
      in
      let max_c = Array.fold_left Stdlib.max 0. completions in
      if suspend < 0. then QCheck.Test.fail_reportf "negative suspend";
      let eps = 1e-9 *. Stdlib.max 1. (work +. max_c) in
      (* cursor lands on the latest consumed completion (or stays at the
         end of the body work when everything already resolved) *)
      if cursor > Stdlib.max work max_c +. eps then
        QCheck.Test.fail_reportf "cursor %.17g beyond window end" cursor;
      (* union bound: all blocked segments are disjoint and live after the
         body work, so their total fits the post-work window — the naive
         per-future sum does not whenever windows overlap *)
      if suspend > cursor -. work +. eps then
        QCheck.Test.fail_reportf "suspend %.17g exceeds post-work window %.17g"
          suspend (cursor -. work);
      let exec = cursor -. suspend in
      if exec < -.eps then
        QCheck.Test.fail_reportf "negative exec residual %.17g" exec;
      (* the real collector arithmetic still partitions latency exactly *)
      let c = Obs.Collector.create ~clock:Obs.Virtual ~containers:1 () in
      let tr = Obs.Collector.trace c in
      Obs.Trace.add tr Obs.Phase.Suspend_wait suspend;
      Obs.Trace.add tr Obs.Phase.Exec exec;
      let latency_us = cursor +. extra in
      Obs.Collector.record_commit c ~container:0 ~participants:1 ~retry:0
        ~latency_us tr;
      let r = Obs.Report.summarize c in
      List.iter
        (fun p ->
          if p.Obs.Report.pr_sum_us < 0. then
            QCheck.Test.fail_reportf "negative phase sum %s"
              p.Obs.Report.pr_phase)
        r.Obs.Report.r_phases;
      if r.Obs.Report.r_max_sum_dev_pct > 1e-6 then
        QCheck.Test.fail_reportf "sum deviation %.17g"
          r.Obs.Report.r_max_sum_dev_pct;
      let sus =
        List.find
          (fun p -> p.Obs.Report.pr_phase = "suspend_wait")
          r.Obs.Report.r_phases
      in
      abs_float (sus.Obs.Report.pr_sum_us -. suspend) <= eps)

(* The JSON export round-trips exactly through the same printer/parser
   pair predictability.exe uses to read reports back. *)
let prop_json_roundtrip =
  QCheck.Test.make ~name:"report JSON round-trips through text" ~count:100
    (QCheck.make QCheck.Gen.(list_size (1 -- 40) gen_attempt))
    (fun attempts ->
      let r = Obs.Report.summarize (build_collector attempts) in
      let text = Obs.Json.to_string ~pretty:true (Obs.Report.to_json r) in
      match Obs.Json.of_string text with
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e
      | Ok j -> (
        match Obs.Report.of_json j with
        | Error e -> QCheck.Test.fail_reportf "of_json failed: %s" e
        | Ok r' -> r = r'))

(* ---- end-to-end: simulator backend ---- *)

let test_simulator_traced_run () =
  let n = 8 in
  Testlib.with_db ~n (Testlib.sn_config n) (fun db ->
      let c =
        Obs.Collector.create ~clock:Obs.Virtual
          ~containers:(Reactdb.Config.n_containers (DB.config db))
          ()
      in
      DB.attach_obs db c;
      Testlib.run_conflict_workload ~accounts:n db ~workers:4 ~per_worker:25;
      let r = Obs.Report.summarize c in
      check_int "every attempt traced"
        (DB.n_committed db + DB.n_aborted db)
        r.Obs.Report.r_attempts;
      check_int "commits agree" (DB.n_committed db) r.Obs.Report.r_commits;
      check_bool "phase sums within 1%" true
        (r.Obs.Report.r_max_sum_dev_pct <= 1.);
      check_bool "made progress" true (r.Obs.Report.r_commits > 0);
      let exec =
        List.find
          (fun p -> p.Obs.Report.pr_phase = "exec")
          r.Obs.Report.r_phases
      in
      check_bool "exec observed on every attempt" true
        (exec.Obs.Report.pr_count = r.Obs.Report.r_attempts))

(* ---- end-to-end: runtime backend, retry accounting ---- *)

(* High-contention YCSB multi-update across 2 domains: transient
   validation aborts occur, and with retries enabled the attempt-level
   counters must satisfy commits + aborts = logical + retries. *)
let test_runtime_retry_accounting () =
  let nk = 8 in
  let groups =
    let keys = Workloads.Ycsb.keys nk in
    let a = Array.of_list keys in
    let half = Array.length a / 2 in
    [ Array.to_list (Array.sub a 0 half);
      Array.to_list (Array.sub a half (Array.length a - half)) ]
  in
  let cfg = Reactdb.Config.shared_nothing groups in
  let db = RDb.start (Workloads.Ycsb.decl ~keys:nk ()) cfg in
  let c =
    Obs.Collector.create ~clock:Obs.Wall ~containers:(RDb.n_domains db) ()
  in
  RDb.attach_obs db c;
  let p = Workloads.Ycsb.params ~txn_keys:4 ~theta:0.9 nk in
  let logical = 4 * 60 in
  let retries =
    Harness.run_fixed ~max_retries:5 (Harness.runtime db)
      ~n_workers:4 ~per_worker:60 ~seed:5
      (fun _ rng ->
        Workloads.Ycsb.gen_multi_update rng p
          ~container_of:(RDb.container_of db))
  in
  check_int "attempts = logical + retries" (logical + retries)
    (RDb.n_committed db + RDb.n_aborted db);
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  let r = Obs.Report.summarize c in
  check_int "every attempt traced" (logical + retries)
    r.Obs.Report.r_attempts;
  check_int "retried attempts agree" retries r.Obs.Report.r_retries;
  check_bool "phase sums within 1%" true
    (r.Obs.Report.r_max_sum_dev_pct <= 1.);
  (* All aborts under retry exhaustion must be transient kinds here: the
     workload never calls Txn.abort and has no dangerous call pairs. *)
  List.iter
    (fun (kind, _) ->
      match Obs.Abort.kind_of_name kind with
      | Some k -> check_bool ("transient " ^ kind) true (Obs.Abort.transient k)
      | None -> Alcotest.failf "unknown kind %s" kind)
    r.Obs.Report.r_aborts_by_kind

(* With retries disabled, run_fixed reports zero retries and exact
   attempt counts (regression test for the accounting unification). *)
let test_runtime_no_retry_accounting () =
  let n = 16 in
  let groups =
    let a = Array.of_list (Workloads.Smallbank.customers n) in
    let half = Array.length a / 2 in
    [ Array.to_list (Array.sub a 0 half);
      Array.to_list (Array.sub a half (Array.length a - half)) ]
  in
  let db =
    RDb.start
      (Workloads.Smallbank.decl ~customers:n ())
      (Reactdb.Config.shared_nothing groups)
  in
  let retries =
    Harness.run_fixed (Harness.runtime db)
      ~n_workers:4 ~per_worker:25 ~seed:3 (fun _ rng ->
        Workloads.Smallbank.gen_conserving rng ~n)
  in
  check_int "no retries requested" 0 retries;
  check_int "exact attempts" 100 (RDb.n_committed db + RDb.n_aborted db);
  RDb.shutdown db

(* Harness.run with retries on a contended simulated bank: retried
   attempts carry transient causes only, and the retry counter moves. *)
let test_harness_retry_accounting () =
  let n = 4 in
  let eng = Sim.Engine.create () in
  let db =
    Reactdb.Database.create eng (Testlib.bank_decl n) (Testlib.sn_config n)
      Reactdb.Profile.default
  in
  let gen _w rng =
    let src = Rng.int rng n in
    let dst = Rng.pick_except rng n src in
    { Workloads.Wl.reactor = Printf.sprintf "acct%d" src;
      proc = "transfer_to";
      args =
        [ Value.Str (Printf.sprintf "acct%d" dst); Value.Float 1. ] }
  in
  let r =
    Harness.run (Harness.sim db)
      (Harness.spec ~epochs:5 ~epoch_us:5_000. ~warmup_epochs:1
         ~max_retries:3 ~n_workers:8 gen)
  in
  check_bool "contention produced retries" true (r.Harness.retries > 0);
  check_bool "retries bounded by aborts" true
    (r.Harness.retries <= r.Harness.aborted + 8 * 4)

let suite =
  ( "obs",
    [
      Alcotest.test_case "phase vocabulary" `Quick test_phase_names;
      Alcotest.test_case "abort taxonomy" `Quick test_abort_kinds;
      Alcotest.test_case "trace basics" `Quick test_trace_basics;
      Alcotest.test_case "json basics" `Quick test_json_basics;
      Alcotest.test_case "report summarize" `Quick test_report_summarize;
      Alcotest.test_case "overcount detected" `Quick test_overcount_detected;
      Alcotest.test_case "report json round-trip" `Quick
        test_report_json_roundtrip;
      Alcotest.test_case "v2 reports readable, v3 sched rows" `Quick
        test_report_v2_readable;
      QCheck_alcotest.to_alcotest prop_phase_partition;
      QCheck_alcotest.to_alcotest prop_no_suspend_double_count;
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      Alcotest.test_case "simulator traced run" `Quick
        test_simulator_traced_run;
      Alcotest.test_case "runtime retry accounting" `Quick
        test_runtime_retry_accounting;
      Alcotest.test_case "runtime no-retry accounting" `Quick
        test_runtime_no_retry_accounting;
      Alcotest.test_case "harness retry accounting" `Quick
        test_harness_retry_accounting;
    ] )
