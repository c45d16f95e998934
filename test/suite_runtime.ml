(* Tests for the real-parallel shared-nothing runtime (lib/runtime): domain
   execution semantics, cross-domain transactions and 2PC, abort
   classification, invariant audits under concurrency, and serial state
   equivalence against the simulator backend (the deterministic oracle). *)

open Util
module RDb = Runtime.Db
module SB = Workloads.Smallbank

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Cross-domain semantics on the tiny Account bank from Testlib: a transfer
   between reactors on different domains, user aborts, and the dynamic
   safety condition — all through real domains and real 2PC. *)

let balance db name =
  match RDb.exec_txn db ~reactor:name ~proc:"get_balance" ~args:[] with
  | { RDb.result = Ok (Value.Float f); _ } -> f
  | { RDb.result = Ok v; _ } -> Alcotest.fail ("unexpected " ^ Value.to_string v)
  | { RDb.result = Error m; _ } -> Alcotest.fail ("get_balance aborted: " ^ m)

let test_bank_cross_domain () =
  let db = RDb.start (Testlib.bank_decl 4) (Testlib.sn_config 4) in
  check_int "one domain per container" 4 (RDb.n_domains db);
  let out =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
      ~args:[ Value.Str "acct1"; Value.Float 25. ]
  in
  check_bool "transfer committed" true (Result.is_ok out.RDb.result);
  check_int "transfer spans two containers" 2 out.RDb.containers_touched;
  check_bool "latency measured" true (out.RDb.latency_us > 0.);
  check_float "source debited" 75. (balance db "acct0");
  check_float "destination credited" 125. (balance db "acct1");
  (* user abort *)
  let bad =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"deposit"
      ~args:[ Value.Float (-1000.) ]
  in
  check_bool "insufficient funds aborts" true (Result.is_error bad.RDb.result);
  check_float "abort rolled back" 75. (balance db "acct0");
  (* dangerous call structure: two concurrent activations of one reactor *)
  let dangerous =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"same_twice"
      ~args:[ Value.Str "acct2" ]
  in
  check_bool "same_twice aborts" true (Result.is_error dangerous.RDb.result);
  check_float "dangerous abort rolled back" 100. (balance db "acct2");
  check_int "aborted = 2" 2 (RDb.n_aborted db);
  check_int "user bucket" 1
    (List.assoc "user" (RDb.aborts_by_reason db));
  check_int "dangerous bucket" 1
    (List.assoc "dangerous-structure" (RDb.aborts_by_reason db));
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Concurrent Smallbank on 2 containers, driven by the one closed-loop
   driver on either backend: exact attempt count, money conservation,
   secondary-index audit, no internal errors. *)

type backend = Simulator | Runtime

let test_smallbank_parallel backend () =
  let n = 32 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let run b =
    Harness.run_fixed b ~n_workers:8 ~per_worker:50 ~seed:7 (fun _ rng ->
        SB.gen_conserving rng ~n)
  in
  let committed, attempts, cats =
    match backend with
    | Simulator ->
      let db = Harness.build decl cfg in
      check_int "no retries" 0 (run (Harness.sim db));
      let module DB = Reactdb.Database in
      (DB.n_committed db, DB.n_committed db + DB.n_aborted db, DB.catalogs db)
    | Runtime ->
      let db = RDb.start decl cfg in
      check_int "no retries" 0 (run (Harness.runtime db));
      Testlib.audit "no fatals" (Audit.fatal db);
      RDb.shutdown db;
      (RDb.n_committed db, RDb.n_committed db + RDb.n_aborted db, RDb.catalogs db)
  in
  check_int "every attempt accounted" 400 attempts;
  check_bool "made progress" true (committed > 0);
  Testlib.audit "money conserved" (Audit.money ~n cats);
  Testlib.audit "secondary indexes" (Audit.secondaries cats)

(* ------------------------------------------------------------------ *)
(* Concurrent YCSB multi-update on 2 domains: every key reactor keeps
   exactly its one loaded row; indexes stay consistent. *)

let test_ycsb_parallel () =
  let nk = 64 in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (Workloads.Ycsb.keys nk))) in
  let db = RDb.start (Workloads.Ycsb.decl ~keys:nk ()) cfg in
  let p = Workloads.Ycsb.params ~txn_keys:6 ~theta:0.7 nk in
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db)
      ~n_workers:4 ~per_worker:50 ~seed:11 (fun _ rng ->
        Workloads.Ycsb.gen_multi_update rng p
          ~container_of:(RDb.container_of db))
  in
  check_int "every attempt accounted" 200 (RDb.n_committed db + RDb.n_aborted db);
  check_bool "made progress" true (RDb.n_committed db > 0);
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "one row per key reactor" (Audit.ycsb_rows (RDb.catalogs db));
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Round-robin ingress routing: requests land on arbitrary domains and pay
   a forwarding hop to the owner; correctness must be unaffected. *)

let test_round_robin_routing () =
  let n = 16 in
  let names = SB.customers n in
  let placement = Hashtbl.create 16 in
  List.iteri (fun i nm -> Hashtbl.add placement nm (i mod 2)) names;
  let cfg =
    Reactdb.Config.custom
      ~executors_per_container:[| 1; 1 |]
      ~router:Reactdb.Config.Round_robin
      ~placement:(Hashtbl.find placement) ()
  in
  let db = RDb.start (SB.decl ~customers:n ()) cfg in
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db)
      ~n_workers:4 ~per_worker:50 ~seed:3 (fun _ rng ->
        SB.gen_conserving rng ~n)
  in
  check_int "every attempt accounted" 200 (RDb.n_committed db + RDb.n_aborted db);
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "money conserved" (Audit.money ~n (RDb.catalogs db));
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Serial equivalence: one transaction at a time, the parallel backend must
   produce exactly the simulator's results and physical state — the
   simulator is the deterministic oracle for execution semantics. *)

let test_serial_equivalence () =
  let n = 16 in
  let decl = SB.decl ~customers:n () in
  let names = SB.customers n in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 names)) in
  let reqs =
    let rng = Rng.stream ~seed:123 0 in
    List.init 150 (fun _ -> SB.gen_standard rng ~n)
  in
  (* oracle run *)
  let sim_db = Harness.build decl cfg in
  let sim_results = ref [] in
  let eng = Reactdb.Database.engine sim_db in
  Sim.Engine.spawn eng (fun () ->
      sim_results :=
        List.map
          (fun r ->
            (Reactdb.Database.exec_txn sim_db ~reactor:r.Workloads.Wl.reactor
               ~proc:r.Workloads.Wl.proc ~args:r.Workloads.Wl.args)
              .Reactdb.Database.result)
          reqs);
  ignore (Sim.Engine.run eng);
  (* parallel run, serialized through the blocking client *)
  let db = RDb.start decl cfg in
  let par_results =
    List.map
      (fun r ->
        (RDb.exec_txn db ~reactor:r.Workloads.Wl.reactor
           ~proc:r.Workloads.Wl.proc ~args:r.Workloads.Wl.args)
          .RDb.result)
      reqs
  in
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  List.iter2
    (fun s p ->
      match (s, p) with
      | Ok vs, Ok vp ->
        check_bool "same committed value" true (Value.equal vs vp)
      | Error ms, Error mp -> Alcotest.(check string) "same abort" ms mp
      | Ok _, Error m -> Alcotest.fail ("sim committed, parallel aborted: " ^ m)
      | Error m, Ok _ -> Alcotest.fail ("sim aborted, parallel committed: " ^ m))
    !sim_results par_results;
  let sim_state = Faultsim.snapshot (Reactdb.Database.catalogs sim_db) in
  let par_state = Faultsim.snapshot (RDb.catalogs db) in
  (match Faultsim.diff sim_state par_state with
  | None -> ()
  | Some d -> Alcotest.fail ("state diverged from simulator: " ^ d))

(* ------------------------------------------------------------------ *)
(* The closed-loop timed driver on both backends: sane counters, ordered
   percentiles, one utilization per executor, money conserved. Only the
   simulator's outcomes carry the Figure 6 breakdown. *)

let test_load_run () =
  let n = 16 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let gen _ rng = SB.gen_conserving rng ~n in
  let check name (r : Harness.run_result) cats =
    let check_bool what = check_bool (name ^ ": " ^ what) in
    check_bool "throughput > 0" true (r.throughput > 0.);
    check_bool "committed > 0" true (r.committed > 0);
    check_bool "p50 > 0" true (r.p50_latency > 0.);
    check_bool "percentiles ordered" true
      (r.p50_latency <= r.p95_latency && r.p95_latency <= r.p99_latency);
    check_bool "mean latency sane" true (r.avg_latency > 0.);
    check_bool "retries within aborts" true (r.retries <= r.aborted);
    check_bool "breakdown only on the simulator" (name = "simulator")
      (r.breakdown <> None);
    check_int (name ^ ": utilization per executor") 2
      (Array.length r.utilizations);
    Testlib.audit (name ^ ": money conserved") (Audit.money ~n cats)
  in
  let sim_db = Harness.build decl cfg in
  let r =
    Harness.run (Harness.sim sim_db)
      (Harness.spec ~epochs:3 ~epoch_us:1_000. ~warmup_epochs:1 ~seed:5
         ~n_workers:4 gen)
  in
  check "simulator" r (Reactdb.Database.catalogs sim_db);
  let db = RDb.start decl cfg in
  let r =
    Harness.run (Harness.runtime db)
      (Harness.spec ~epochs:10 ~epoch_us:25_000. ~warmup_epochs:2 ~seed:5
         ~n_workers:4 gen)
  in
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  check "runtime" r (RDb.catalogs db);
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Deadlines: an expired root aborts with the non-transient Timeout cause,
   leaves no state change behind, and releases every lock — checked by
   running the same transfer again without a deadline. *)

let abort_kind (out : RDb.outcome) =
  match out.RDb.abort_cause with
  | Some c -> Some c.Obs.Abort.kind
  | None -> None

let test_deadline_expired_at_admission () =
  let db = RDb.start (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  let out =
    RDb.exec_txn ~deadline_us:0. db ~reactor:"acct0" ~proc:"transfer_to"
      ~args:[ Value.Str "acct1"; Value.Float 25. ]
  in
  check_bool "expired root aborts" true (Result.is_error out.RDb.result);
  check_bool "cause is Timeout" true (abort_kind out = Some Obs.Abort.Timeout);
  check_int "timeout bucket counted" 1
    (match List.assoc_opt "timeout" (RDb.aborts_by_reason db) with
    | Some n -> n
    | None -> 0);
  check_float "source untouched" 100. (balance db "acct0");
  check_float "destination untouched" 100. (balance db "acct1");
  (* same transfer without a deadline commits: no lock was left behind *)
  let ok =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
      ~args:[ Value.Str "acct1"; Value.Float 25. ]
  in
  check_bool "subsequent transfer commits" true (Result.is_ok ok.RDb.result);
  check_float "then debited" 75. (balance db "acct0");
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* Deadline expiry mid-2PC: a prepare-stall injector (p = 1) stalls the
   home participant for >= 10 ms with its write locks held; the remote
   participant's prepare then sees the 5 ms deadline expired and votes
   C_timeout, so the coordinator rolls back the prepared home participant.
   The follow-up transfer proves both participants released their locks. *)
let test_deadline_during_2pc_prepare () =
  let chaos =
    Chaos.make ~seed:5 ~kind:Chaos.Stall_prepare ~p:1.0 ~delay_us:20_000. ()
  in
  let db = RDb.start ~chaos (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  (* root on container 0: containers are sorted, so the home prepare (and
     its stall) happens before the remote prepare is enqueued *)
  let out =
    RDb.exec_txn ~deadline_us:5_000. db ~reactor:"acct0" ~proc:"transfer_to"
      ~args:[ Value.Str "acct1"; Value.Float 25. ]
  in
  check_bool "2pc prepare timed out" true (Result.is_error out.RDb.result);
  check_bool "cause is Timeout" true (abort_kind out = Some Obs.Abort.Timeout);
  check_bool "injector fired" true (Chaos.injections chaos > 0);
  check_float "source untouched" 100. (balance db "acct0");
  check_float "destination untouched" 100. (balance db "acct1");
  let ok =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
      ~args:[ Value.Str "acct1"; Value.Float 25. ]
  in
  check_bool "participants released their locks" true
    (Result.is_ok ok.RDb.result);
  check_float "then debited" 75. (balance db "acct0");
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* Satellite: deadline expiry mid-collect with a fan-out of three futures
   outstanding. Each credit runs slow_deposit, busy-waiting 40 ms on its
   own domain; the 15 ms root deadline passes after the fan-out shipped
   (admission and sub-start checks see microseconds) but long before the
   slowest credit returns, so the expiry is observed at the collect
   boundary — with all three sub-transactions' effects pending — and must
   unwind through the ordinary release path on every callee. *)
let test_deadline_mid_collect_runtime () =
  let db = RDb.start (Testlib.bank_decl 4) (Testlib.sn_config 4) in
  let out =
    RDb.exec_txn ~deadline_us:15_000. db ~reactor:"acct0"
      ~proc:"multi_transfer_collect_slow"
      ~args:
        [ Value.Float 40_000.; Value.Float 10.; Value.Str "acct1";
          Value.Str "acct2"; Value.Str "acct3" ]
  in
  check_bool "root aborts" true (Result.is_error out.RDb.result);
  check_bool "cause is Timeout" true (abort_kind out = Some Obs.Abort.Timeout);
  check_bool "expired at the collect boundary" true
    (match out.RDb.result with
    | Error m -> Strutil.contains m ~sub:"collect boundary"
    | Ok _ -> false);
  check_int "timeout bucket counted" 1
    (match List.assoc_opt "timeout" (RDb.aborts_by_reason db) with
    | Some n -> n
    | None -> 0);
  List.iter
    (fun a -> check_float ("untouched " ^ a) 100. (balance db a))
    [ "acct0"; "acct1"; "acct2"; "acct3" ];
  (* all three callees released their locks: the same fan-out (without the
     spin, without a deadline) commits across all four containers *)
  let ok =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_collect"
      ~args:
        [ Value.Float 10.; Value.Str "acct1"; Value.Str "acct2";
          Value.Str "acct3" ]
  in
  check_bool "subsequent fan-out commits" true (Result.is_ok ok.RDb.result);
  check_int "fan-out spans four containers" 4 ok.RDb.containers_touched;
  check_float "then debited" 70. (balance db "acct0");
  List.iter
    (fun a -> check_float ("then credited " ^ a) 110. (balance db a))
    [ "acct1"; "acct2"; "acct3" ];
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* One abort taxonomy: the buckets sum to the abort count. A procedure
   raising something that is not an abort is counted once, in "internal",
   and recorded as a fatal error; a fenced refusal is "internal" too, but
   no fatal. *)
let test_abort_buckets_sum_runtime () =
  let db = RDb.start (Testlib.bank_decl 4) (Testlib.sn_config 4) in
  let kind ?deadline_us proc args =
    abort_kind (RDb.exec_txn ?deadline_us db ~reactor:"acct0" ~proc ~args)
  in
  let transfer = [ Value.Str "acct1"; Value.Float 1. ] in
  check_bool "user" true (kind "deposit" [ Value.Float (-1000.) ] = Some Obs.Abort.User);
  check_bool "dangerous" true
    (kind "same_twice" [ Value.Str "acct2" ] = Some Obs.Abort.Dangerous);
  check_bool "timeout" true
    (kind ~deadline_us:0. "transfer_to" transfer = Some Obs.Abort.Timeout);
  check_bool "raising procedure is internal" true
    (kind "boom" [] = Some Obs.Abort.Internal);
  RDb.fence db;
  check_bool "fenced is internal" true (kind "transfer_to" transfer = Some Obs.Abort.Internal);
  check_int "one fenced refusal" 1 (RDb.n_fenced_refusals db);
  let reasons = RDb.aborts_by_reason db in
  List.iter
    (fun b -> check_int (b ^ " bucket") 1 (List.assoc b reasons))
    [ "user"; "dangerous-structure"; "timeout" ];
  check_int "internal bucket" 2 (List.assoc "internal" reasons);
  check_int "buckets sum to n_aborted" (RDb.n_aborted db)
    (List.fold_left (fun a (_, n) -> a + n) 0 reasons);
  check_int "one fatal" 1 (RDb.n_fatal db);
  RDb.shutdown db

(* Each account's balance and whether its record is locked, read straight
   from the catalogs: a fenced primary admits no [get_balance]. Safe after
   shutdown. *)
let stored db =
  List.map
    (fun (name, cat) ->
      let bal = ref Float.nan and locked = ref false in
      Storage.Table.range (Storage.Catalog.table cat "acct") ~f:(fun r ->
          bal := Value.to_number r.Storage.Record.data.(1);
          locked := !locked || Storage.Record.is_locked r;
          true);
      (name, !bal, !locked))
    (RDb.catalogs db)

(* Fencing under load: two client domains keep depositing on their own
   domain's account while the test fences the primary, in six rounds on
   fresh runtimes. The fence drains every root admitted before it, so no
   commit is acknowledged after it returns, and every root after it is
   refused with the typed "fenced" abort, each counted once. *)
let test_fence_drains_and_refuses () =
  for _ = 1 to 6 do
    let db = RDb.start (Testlib.bank_decl 2) (Testlib.sn_config 2) in
    let fenced_at = Atomic.make false and stop = Atomic.make false in
    let client w =
      Domain.spawn (fun () ->
          let refused = ref 0 and late = ref 0 and late_ok = ref 0 in
          while not (Atomic.get stop) do
            let after = Atomic.get fenced_at in
            let out =
              RDb.exec_txn db ~reactor:(Printf.sprintf "acct%d" w) ~proc:"deposit"
                ~args:[ Value.Float 1. ]
            in
            let is_fenced =
              match out.RDb.result with
              | Error m ->
                Strutil.contains m ~sub:"fenced" && abort_kind out = Some Obs.Abort.Internal
              | Ok _ -> false
            in
            if is_fenced then incr refused;
            if after then begin
              incr late;
              if not is_fenced then incr late_ok
            end
          done;
          (!refused, !late, !late_ok))
    in
    let clients = [ client 0; client 1 ] in
    Unix.sleepf 0.01;
    RDb.fence db;
    let committed_at_fence = RDb.n_committed db in
    Atomic.set fenced_at true;
    Unix.sleepf 0.005;
    Atomic.set stop true;
    let counts = List.map Domain.join clients in
    RDb.shutdown db;
    let sum f = List.fold_left (fun a c -> a + f c) 0 counts in
    check_bool "roots committed before the fence" true (committed_at_fence > 0);
    check_int "no commit after the fence returned" committed_at_fence (RDb.n_committed db);
    check_bool "roots were submitted after the fence" true (sum (fun (_, l, _) -> l) > 0);
    check_int "every later attempt is a fenced abort" 0 (sum (fun (_, _, o) -> o));
    check_int "every refusal counted" (sum (fun (r, _, _) -> r)) (RDb.n_fenced_refusals db);
    check_float "one unit deposited per commit" (200. +. float_of_int committed_at_fence)
      (List.fold_left (fun a (_, b, _) -> a +. b) 0. (stored db))
  done

(* [Kill_primary] with p = 1: the primary dies between the phases of the
   first cross-domain transfer and fences itself. Both participants roll
   back: no balance moved and no record is left locked. *)
let test_kill_mid_2pc_rolls_back () =
  let chaos = Chaos.make ~seed:3 ~kind:Chaos.Kill_primary ~p:1. () in
  let db = RDb.start ~chaos (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  let out =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
      ~args:[ Value.Str "acct1"; Value.Float 25. ]
  in
  RDb.shutdown db;
  check_bool "killed mid-2pc is internal" true
    ((match out.RDb.result with Error m -> Strutil.contains m ~sub:"killed" | Ok _ -> false)
    && abort_kind out = Some Obs.Abort.Internal);
  check_bool "the primary fenced itself" true (RDb.fenced db);
  List.iter
    (fun (name, bal, locked) ->
      check_float (name ^ " unchanged") 100. bal;
      check_bool (name ^ " holds no lock") false locked)
    (stored db)

(* Cross-container write skew on real domains (DESIGN.md §5.2):
   [acct0.proc acct1] and [acct1.proc acct0] submitted together, round
   after round on one 2-domain runtime, must never both commit having read
   the balances from before the pair ([Testlib.skewed]), and the recorded
   history must certify. *)
let test_write_skew_runtime proc () =
  let db = RDb.start (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  RDb.enable_history db;
  let skews = ref 0 in
  for _ = 1 to 300 do
    let before = (balance db "acct0", balance db "acct1") in
    let out = [| Error "never ran"; Error "never ran" |] in
    List.iteri
      (fun i (self, other) ->
        RDb.submit db ~reactor:self ~proc ~args:[ Value.Str other ] ~k:(fun o ->
            out.(i) <- o.RDb.result))
      [ ("acct0", "acct1"); ("acct1", "acct0") ];
    RDb.quiesce db;
    if Testlib.skewed ~proc ~before out then incr skews
  done;
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  check_int "rounds where both read the other's old balance" 0 !skews;
  Testlib.audit "history serializable" (Audit.certify (RDb.history db))

(* A fenced primary ends its clients' chains: each closed-loop worker
   stops at its first abort after the fence, so it is refused at most
   once. Counted per worker from the generator, which runs once per
   logical transaction. *)
let test_fence_ends_worker_chains () =
  let db = RDb.start (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  let n_workers = 4 in
  let late = Array.init n_workers (fun _ -> Atomic.make 0) in
  let fencer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        RDb.fence db)
  in
  let (_ : int) =
    Harness.run_fixed ~max_retries:3 (Harness.runtime db) ~n_workers
      ~per_worker:1_000_000 ~seed:3 (fun w _ ->
        if RDb.fenced db then Atomic.incr late.(w);
        Workloads.Wl.request
          (Printf.sprintf "acct%d" (w mod 2))
          "deposit" [ Value.Float 1. ])
  in
  Domain.join fencer;
  let refusals = RDb.n_fenced_refusals db in
  RDb.shutdown db;
  check_bool "committed before the fence" true (RDb.n_committed db > 0);
  check_bool "refused after the fence" true (refusals > 0);
  check_bool "at most one refusal per worker" true (refusals <= n_workers);
  Array.iteri
    (fun w n ->
      check_bool
        (Printf.sprintf "worker %d starts at most one transaction after the fence" w)
        true
        (Atomic.get n <= 1))
    late

(* ------------------------------------------------------------------ *)
(* Posted installs: a decided 2PC root finishes without waiting for its
   remote installs (DESIGN.md §5.3). Its commit hold and its settlement
   wait for them, so snapshots, fences and quiescence never see half a
   commit. *)

(* [clients] completion-driven chains of [per] roots each; [next w]
   gives worker [w]'s next request and the check of its outcome. A check
   records failures instead of raising, since an exception in a
   continuation would end its chain. Returns when every chain ended. *)
let run_chains db ~clients ~per next =
  let live = Atomic.make clients in
  let rec go w i =
    if i = per then Atomic.decr live
    else begin
      let r, check = next w in
      RDb.submit db ~reactor:r.Workloads.Wl.reactor ~proc:r.Workloads.Wl.proc
        ~args:r.Workloads.Wl.args ~k:(fun out ->
          if check out then go w (i + 1) else Atomic.decr live)
    end
  in
  for w = 0 to clients - 1 do
    go w 0
  done;
  while Atomic.get live > 0 do
    Unix.sleepf 1e-3
  done

let rec note failures m =
  let cur = Atomic.get failures in
  if not (Atomic.compare_and_set failures cur (m :: cur)) then note failures m

(* A conserving transfer between customers on different domains. *)
let cross_transfer db rng ~n =
  let src = Rng.int rng n in
  let rec dst () =
    let d = Rng.int rng n in
    if RDb.container_of db (SB.customer_name d) = RDb.container_of db (SB.customer_name src)
    then dst ()
    else d
  in
  let d = dst () in
  if Rng.int rng 2 = 0 then
    Workloads.Wl.request (SB.customer_name src) "send_payment"
      [ Workloads.Wl.vs (SB.customer_name d); Workloads.Wl.vf 1. ]
  else
    Workloads.Wl.request (SB.customer_name src) "amalgamate"
      [ Workloads.Wl.vs (SB.customer_name d) ]

(* A smallbank runtime whose every message stalls 1 ms with probability
   [p], so posted installs wait in their participants' mailboxes across
   the 1 ms epoch boundaries. *)
let stalled_bank ~n ~p ~seed =
  let chaos = Chaos.make ~seed ~kind:Chaos.Stall_domain ~p ~delay_us:1_000. () in
  RDb.start ~chaos ~epoch_len_s:0.001 (SB.decl ~customers:n ())
    Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n)))

let locked_records db =
  List.fold_left
    (fun acc (_, cat) ->
      List.fold_left
        (fun acc (_, tbl) ->
          let k = ref acc in
          Storage.Table.range tbl ~f:(fun r ->
              if Storage.Record.is_locked r then incr k;
              true);
          !k)
        acc (Storage.Catalog.tables cat))
    0 (RDb.catalogs db)

(* Two chains of cross-domain transfers beside two chains of snapshot
   readers. A [sum_all] reads one frozen cut of every account, so it must
   see the loaded total exactly; a [balance] must commit on a snapshot. *)
let test_posted_installs_keep_snapshot_cuts () =
  let n = 8 in
  let db = stalled_bank ~n ~p:0.2 ~seed:5 in
  let expected = SB.loaded_money ~customers:n in
  let failures = Atomic.make [] and sums = Atomic.make 0 in
  let rngs = Array.init 4 (fun w -> Rng.create (101 + w)) in
  let read_ok what (out : RDb.outcome) =
    match out.RDb.result with
    | Error m ->
      note failures (what ^ " aborted: " ^ m);
      false
    | Ok _ when out.RDb.snapshot = None ->
      note failures (what ^ " ran without a snapshot");
      false
    | Ok _ -> true
  in
  run_chains db ~clients:4 ~per:150 (fun w ->
      let rng = rngs.(w) in
      if w < 2 then (cross_transfer db rng ~n, fun _ -> true)
      else if Rng.int rng 2 = 0 then
        ( Workloads.Wl.request (SB.customer_name (Rng.int rng n)) "balance" [],
          read_ok "balance" )
      else begin
        let root = Rng.int rng n in
        let others =
          List.filter_map
            (fun i -> if i = root then None else Some (Workloads.Wl.vs (SB.customer_name i)))
            (List.init n Fun.id)
        in
        ( Workloads.Wl.request (SB.customer_name root) "sum_all" others,
          fun out ->
            read_ok "sum_all" out
            && begin
                 Atomic.incr sums;
                 let total = Value.to_number (Result.get_ok out.RDb.result) in
                 if Float.abs (total -. expected) > 1e-6 then
                   note failures
                     (Printf.sprintf "half a transfer: read %.3f, loaded %.3f" total
                        expected);
                 true
               end )
      end);
  RDb.quiesce db;
  let failures = Atomic.get failures in
  Testlib.audit "no fatals" (Audit.fatal db);
  Testlib.audit "money conserved" (Audit.money ~n (RDb.catalogs db));
  RDb.shutdown db;
  (match failures with [] -> () | m :: _ -> Alcotest.fail m);
  check_bool "transfers committed" true (RDb.n_committed db > Atomic.get sums);
  check_bool "sums ran" true (Atomic.get sums > 0)

(* Right after [fence] or [quiesce] returns, with no shutdown first, every
   install posted by a root admitted before it has landed: money is
   conserved and no record is locked. Four quiesce rounds on one runtime,
   each catching the last roots' installs in flight, and four fences on
   fresh ones. *)
let test_posted_installs_land_before_fence_and_quiesce () =
  let n = 8 in
  let check_landed db what =
    Testlib.audit ("money conserved " ^ what) (Audit.money ~n (RDb.catalogs db));
    check_int ("no record locked " ^ what) 0 (locked_records db)
  in
  let transfers db seed =
    let rngs = Array.init 4 (fun w -> Rng.create (seed + w)) in
    fun w -> (cross_transfer db rngs.(w) ~n, fun _ -> not (RDb.fenced db))
  in
  let finish db =
    check_bool "transfers committed" true (RDb.n_committed db > 0);
    Testlib.audit "no fatals" (Audit.fatal db);
    RDb.shutdown db
  in
  let db = stalled_bank ~n ~p:0.3 ~seed:9 in
  for round = 1 to 4 do
    run_chains db ~clients:4 ~per:15 (transfers db (100 * round));
    RDb.quiesce db;
    check_landed db (Printf.sprintf "after quiesce %d" round)
  done;
  finish db;
  for round = 1 to 4 do
    let db = stalled_bank ~n ~p:0.3 ~seed:(9 + round) in
    let next = transfers db (1000 * round) in
    let chains = Domain.spawn (fun () -> run_chains db ~clients:4 ~per:1_000_000 next) in
    Unix.sleepf 0.05;
    RDb.fence db;
    check_landed db (Printf.sprintf "after fence %d" round);
    Domain.join chains;
    finish db
  done

(* A read-only snapshot root whose body has returned is final, even past
   its deadline. The deadline (20 ms) is long enough that it cannot run
   out while the root still waits in the mailbox, even on a loaded
   machine, and the body (60 ms) outlasts it by far. *)
let test_readonly_outlasts_deadline_runtime () =
  let db = RDb.start (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  let out =
    RDb.exec_txn ~deadline_us:20_000. db ~reactor:"acct0" ~proc:"slow_balance"
      ~args:[ Value.Float 60_000. ]
  in
  check_bool "body outlasted the deadline" true (out.RDb.latency_us > 60_000.);
  check_bool "read-only root commits" true (out.RDb.result = Ok (Value.Float 100.));
  check_bool "ran on a snapshot" true (out.RDb.snapshot <> None);
  check_int "no abort" 0 (RDb.n_aborted db);
  RDb.shutdown db

(* ------------------------------------------------------------------ *)
(* Satellite: the multi-future (collect) formulations are serially
   equivalent to their sequential counterparts — same per-request results
   and byte-identical physical state — one transaction at a time, on both
   backends. *)

let cause_kind = Option.map (fun c -> c.Obs.Abort.kind)

(* Both runners issue [reqs], then wait out one Silo epoch (40 ms: virtual
   on the simulator, wall clock on the runtime) before [tail]. A snapshot
   read in [tail] then freezes an epoch past every earlier commit, so what
   it reads does not depend on where the run's epoch boundaries fell. *)
let run_serial_sim ?(tail = []) decl cfg reqs =
  let db = Harness.build decl cfg in
  let results = ref [] in
  let eng = Reactdb.Database.engine db in
  let run =
    List.map (fun r ->
        let o =
          Reactdb.Database.exec_txn db ~reactor:r.Workloads.Wl.reactor
            ~proc:r.Workloads.Wl.proc ~args:r.Workloads.Wl.args
        in
        (o.Reactdb.Database.result, cause_kind o.Reactdb.Database.abort_cause))
  in
  Sim.Engine.spawn eng (fun () ->
      let head = run reqs in
      if tail <> [] then Sim.Engine.delay 40_000.;
      results := head @ run tail);
  ignore (Sim.Engine.run eng);
  let state = Faultsim.snapshot (Reactdb.Database.catalogs db) in
  (!results, state, List.sort compare (Reactdb.Database.aborts_by_reason db))

let run_serial_par ?(tail = []) decl cfg reqs =
  let db = RDb.start decl cfg in
  let run =
    List.map (fun r ->
        let o =
          RDb.exec_txn db ~reactor:r.Workloads.Wl.reactor
            ~proc:r.Workloads.Wl.proc ~args:r.Workloads.Wl.args
        in
        (o.RDb.result, cause_kind o.RDb.abort_cause))
  in
  let head = run reqs in
  if tail <> [] then Unix.sleepf 0.05;
  let results = head @ run tail in
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  ( results,
    Faultsim.snapshot (RDb.catalogs db),
    List.sort compare (RDb.aborts_by_reason db) )

let check_serial_equiv label (ra, sa, ba) (rb, sb, bb) =
  List.iter2
    (fun (a, ka) (b, kb) ->
      (match (a, b) with
      | Ok va, Ok vb ->
        check_bool (label ^ ": same committed value") true (Value.equal va vb)
      | Error ma, Error mb -> Alcotest.(check string) (label ^ ": same abort") ma mb
      | Ok _, Error m -> Alcotest.fail (label ^ ": committed vs aborted: " ^ m)
      | Error m, Ok _ -> Alcotest.fail (label ^ ": aborted vs committed: " ^ m));
      check_bool (label ^ ": same abort kind") true (ka = kb))
    ra rb;
  Alcotest.(check (list (pair string int))) (label ^ ": same abort buckets") ba bb;
  match Faultsim.diff sa sb with
  | None -> ()
  | Some d -> Alcotest.fail (label ^ ": state diverged: " ^ d)

let test_collect_serial_equivalence_smallbank () =
  let n = 12 in
  let decl = SB.decl ~customers:n () in
  let names = SB.customers n in
  let cfg = Reactdb.Config.(shared_nothing (chunk 3 names)) in
  (* request shapes drawn once, then instantiated per formulation, so both
     runs issue the same transfers; destinations are distinct (concurrent
     activations of one reactor would trip the safety condition only in
     the parallel formulation and break equivalence trivially) *)
  let shapes =
    let rng = Rng.stream ~seed:77 0 in
    List.init 40 (fun _ ->
        let src = Rng.int rng n in
        let rec pick acc k =
          if k = 0 then List.rev acc
          else
            let d = Rng.pick_except rng n src in
            if List.mem d acc then pick acc k else pick (d :: acc) (k - 1)
        in
        (src, pick [] 3, 1. +. float_of_int (Rng.int rng 5)))
  in
  (* then, identical for every formulation and run one epoch later: a
     user abort (overdraft), a dangerous call (a read-only fan-out naming
     one remote customer twice) and a read-only snapshot read across three
     containers, which sees every transfer *)
  let tail =
    let req proc args = { Workloads.Wl.reactor = "c0"; proc; args } in
    [ req "transact_saving" [ Value.Float (-1e9) ];
      req "sum_all" [ Value.Str "c1"; Value.Str "c1" ];
      req "sum_all" [ Value.Str "c1"; Value.Str "c2" ] ]
  in
  let reqs form =
    List.map
      (fun (src, dests, amount) ->
        SB.multi_transfer_request form ~src:(SB.customer_name src)
          ~dests:(List.map SB.customer_name dests) ~amount)
      shapes
  in
  let sim_seq = run_serial_sim ~tail decl cfg (reqs SB.Fully_sync) in
  let sim_col = run_serial_sim ~tail decl cfg (reqs SB.Collect) in
  (match (let r, _, _ = sim_col in List.rev r) with
  | (Ok _, None)
    :: (Error _, Some Obs.Abort.Dangerous)
    :: (Error _, Some Obs.Abort.User) :: _ -> ()
  | _ -> Alcotest.fail "tail: expected overdraft, dangerous call, snapshot read");
  let par_seq = run_serial_par ~tail decl cfg (reqs SB.Fully_sync) in
  let par_col = run_serial_par ~tail decl cfg (reqs SB.Collect) in
  check_serial_equiv "sim collect vs sequential" sim_seq sim_col;
  check_serial_equiv "parallel collect vs sequential" par_seq par_col;
  check_serial_equiv "collect across backends" sim_col par_col

let test_collect_serial_equivalence_tpcc () =
  let module T = Workloads.Tpcc in
  let nw = 3 in
  let decl = T.decl ~warehouses:nw ~sizes:T.small_sizes () in
  let names = T.warehouses nw in
  let cfg = Reactdb.Config.(shared_nothing (chunk 3 names)) in
  (* identical generator draws per variant: no_proc only renames the
     invoked procedure, so a fresh same-seed stream yields identical
     order lines for both *)
  let reqs proc =
    let p =
      T.params ~sizes:T.small_sizes ~remote_mode:(T.Per_item 0.9)
        ~new_order_proc:proc nw
    in
    let rng = Rng.stream ~seed:9 0 in
    List.init 25 (fun i ->
        T.gen_new_order rng p ~home:(1 + (i mod nw)) ~clock:(float_of_int i))
  in
  let sim_seq = run_serial_sim decl cfg (reqs "new_order_sync") in
  let sim_col = run_serial_sim decl cfg (reqs "new_order_collect") in
  let par_seq = run_serial_par decl cfg (reqs "new_order_sync") in
  let par_col = run_serial_par decl cfg (reqs "new_order_collect") in
  check_serial_equiv "sim collect vs sequential" sim_seq sim_col;
  check_serial_equiv "parallel collect vs sequential" par_seq par_col;
  check_serial_equiv "collect across backends" sim_col par_col

(* New-order's projected warehouse read ([SELECT w_tax]) against the
   whole-row read it replaced: one seeded client runs the full TPC-C mix
   one transaction at a time, and both formulations commit the same
   results and leave identical catalogs, on both backends. *)
let test_projected_serial_equivalence_tpcc () =
  let module T = Workloads.Tpcc in
  let nw = 2 in
  let names = T.warehouses nw in
  let cfg = Reactdb.Config.(shared_nothing (chunk 1 names)) in
  let reqs =
    let p =
      T.params ~sizes:T.small_sizes ~remote_mode:(T.Per_item 0.3)
        ~remote_payment_prob:0.3 nw
    in
    let rng = Rng.stream ~seed:41 0 and seq = ref 0 in
    List.init 60 (fun i -> T.gen_mix rng p ~home:(1 + (i mod nw)) ~seq)
  in
  let decl project_tax = T.decl ~warehouses:nw ~sizes:T.small_sizes ~project_tax () in
  let sim_cols = run_serial_sim (decl true) cfg reqs in
  let sim_row = run_serial_sim (decl false) cfg reqs in
  let par_cols = run_serial_par (decl true) cfg reqs in
  let par_row = run_serial_par (decl false) cfg reqs in
  check_serial_equiv "sim projected vs whole row" sim_cols sim_row;
  check_serial_equiv "parallel projected vs whole row" par_cols par_row;
  check_serial_equiv "projected across backends" sim_cols par_cols

(* A runtime TPC-C load of new orders and deliveries in rounds three epochs
   apart: each round's first install into a warehouse's new_order table
   reclaims every tombstone the earlier rounds left, and after the load the
   index holds exactly the live rows. The warehouses pass TPC-C's
   consistency audit. *)
let test_tpcc_new_order_bounded_runtime () =
  let module T = Workloads.Tpcc in
  let names = T.warehouses 2 in
  let epoch_len_s = 0.002 in
  let db =
    RDb.start ~epoch_len_s
      (T.decl ~warehouses:2 ~sizes:T.small_sizes ())
      Reactdb.Config.(shared_nothing (chunk 1 names))
  in
  let p = T.params ~sizes:T.small_sizes 2 in
  let new_order w = Storage.Catalog.table (RDb.catalog_of db w) "new_order" in
  let pause () = Unix.sleepf (3. *. epoch_len_s) in
  for round = 1 to 4 do
    let before =
      List.fold_left (fun m w -> max m (snd (Testlib.tombstone_epochs (new_order w)))) 0 names
    in
    let (_ : int) =
      Harness.run_fixed (Harness.runtime db) ~n_workers:2 ~per_worker:30 ~seed:round
        (fun _ rng ->
          let home = 1 + Rng.int rng 2 and clock = float_of_int round in
          (* new orders outpace deliveries, so a backlog builds up *)
          if Rng.int rng 4 > 0 then T.gen_new_order rng p ~home ~clock
          else T.gen_delivery rng ~home ~clock)
    in
    RDb.quiesce db;
    List.iter
      (fun w ->
        let tombs, _ = Testlib.tombstone_epochs (new_order w) in
        check_bool
          (Printf.sprintf "%s round %d: earlier rounds' tombstones reclaimed" w round)
          true
          (List.for_all (fun e -> e > before) tombs))
      names;
    pause ()
  done;
  List.iteri
    (fun i w ->
      let r = T.gen_new_order (Rng.create 1) p ~home:(i + 1) ~clock:0. in
      match
        (RDb.exec_txn db ~reactor:r.Workloads.Wl.reactor ~proc:r.Workloads.Wl.proc
           ~args:r.Workloads.Wl.args)
          .RDb.result
      with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "final new order on %s: %s" w m)
    names;
  RDb.quiesce db;
  List.iter
    (fun w ->
      check_int (w ^ ": index holds the live rows only") 0
        (List.length (fst (Testlib.tombstone_epochs (new_order w)))))
    names;
  Testlib.audit "no internal errors" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "tpcc consistency" (Audit.tpcc (RDb.catalogs db))

(* Admission control: with a stalling domain and a mailbox cap, a burst of
   submissions must shed — Overloaded, containers_touched = 0, and exactly
   one completion per submission (the quiescence invariant). *)
let test_overload_shed () =
  let chaos =
    Chaos.make ~seed:11 ~kind:Chaos.Stall_domain ~p:1.0 ~delay_us:2_000. ()
  in
  let db =
    RDb.start ~chaos ~mailbox_cap:2 (Testlib.bank_decl 1)
      (Testlib.sn_config 1)
  in
  let n = 20 in
  let sheds = ref 0 and done_ = Atomic.make 0 in
  let shed_ok = ref true in
  for _ = 1 to n do
    RDb.submit db ~reactor:"acct0" ~proc:"deposit"
      ~args:[ Value.Float 1. ]
      ~k:(fun out ->
        (match abort_kind out with
        | Some Obs.Abort.Overloaded ->
          incr sheds;
          if out.RDb.containers_touched <> 0 then shed_ok := false
        | _ -> ());
        Atomic.incr done_)
  done;
  RDb.quiesce db;
  check_int "every submission completed" n (Atomic.get done_);
  check_bool "some submissions shed" true (!sheds > 0);
  check_bool "sheds touched no container" true !shed_ok;
  check_int "overloaded bucket matches" !sheds
    (match List.assoc_opt "overloaded" (RDb.aborts_by_reason db) with
    | Some k -> k
    | None -> 0);
  check_int "commit/abort accounting" n (RDb.n_committed db + RDb.n_aborted db);
  let deposits = RDb.n_committed db in
  check_float "deposits applied exactly once each"
    (100. +. float_of_int deposits)
    (balance db "acct0");
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Cost router: roots may be admitted on a non-home domain (the body runs
   there; the commit re-pins); correctness and conservation must hold. *)
let test_cost_router () =
  let n = 16 in
  let names = SB.customers n in
  let placement = Hashtbl.create 16 in
  List.iteri (fun i nm -> Hashtbl.add placement nm (i mod 2)) names;
  let cfg =
    Reactdb.Config.custom
      ~executors_per_container:[| 1; 1 |]
      ~router:Reactdb.Config.Cost
      ~placement:(Hashtbl.find placement) ()
  in
  let db = RDb.start (SB.decl ~customers:n ()) cfg in
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db)
      ~n_workers:4 ~per_worker:50 ~seed:31 (fun _ rng ->
        SB.gen_conserving rng ~n)
  in
  check_int "every attempt accounted" 200 (RDb.n_committed db + RDb.n_aborted db);
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "money conserved under cost routing"
    (Audit.money ~n (RDb.catalogs db));
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* The load signals read the present, under the affinity router. Container
   0 runs a root that holds it until released, with 200 roots of 200 µs
   queued behind it; container 1 stays idle. While the backlog waits,
   container 0 reads busy, though it has completed no message and so has
   published no busy window, and backlogged; container 1 reads idle. Once
   all of it completed and container 0 has been parked for four 5 ms busy
   windows, it reads idle, though its last window was all busy. *)
let test_load_signals () =
  let go = Atomic.make false and started = Atomic.make false in
  let hold _ _ =
    Atomic.set started true;
    while not (Atomic.get go) do Domain.cpu_relax () done;
    Value.Null
  in
  let work _ _ =
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 200e-6 do () done;
    Value.Null
  in
  let rtype =
    Reactor.rtype ~name:"Account" ~schemas:[ Testlib.acct_schema ]
      ~procs:[ ("hold", hold); ("work", work) ] ()
  in
  let db = RDb.start (Testlib.bank_decl ~rtype 2) (Testlib.sn_config 2) in
  let submit proc = RDb.submit db ~reactor:"acct0" ~proc ~args:[] ~k:ignore in
  submit "hold";
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get started)) && Unix.gettimeofday () -. t0 < 5. do
    Domain.cpu_relax ()
  done;
  if not (Atomic.get started) then begin
    Atomic.set go true;
    RDb.shutdown db;
    Alcotest.fail "timed out waiting for the holding root"
  end;
  for _ = 1 to 200 do submit "work" done;
  let ld = RDb.load_stats db in
  Atomic.set go true;
  check_int "the backlog is queued" 200 ld.(0).RDb.ld_mailbox;
  check_float "a domain running a message reads busy" 1. ld.(0).RDb.ld_busy_frac;
  check_bool "a backlog shows in the queue-depth EWMA" true
    (ld.(0).RDb.ld_qdepth_ewma >= 1.);
  check_float "an idle domain reads idle" 0. ld.(1).RDb.ld_busy_frac;
  check_float "an empty mailbox reads no depth" 0. ld.(1).RDb.ld_qdepth_ewma;
  RDb.quiesce db;
  Unix.sleepf 0.02;
  let ld = RDb.load_stats db in
  RDb.shutdown db;
  check_int "the backlog drained" 0 ld.(0).RDb.ld_mailbox;
  check_float "a parked domain reads idle" 0. ld.(0).RDb.ld_busy_frac

(* An off-home root body against a frame shipped into its home. Roots on
   acct0..acct7 (container 0) credit another of them through [relay] on
   acct8 or acct9 (containers 1 and 2). After issuing the credit, a root
   body debits itself and keeps working for [spin_us] inside its home
   section, flagged by its token. With the cost router moving bodies off
   container 0, the credit runs on container 0's own domain
   while such a body runs on another; the root's frame lock must hold the
   credit back until the body suspends, so no credit ever sees its body's
   flag up. Every root commits or loses an OCC conflict, every balance is
   exact, and the history certifies. *)
let test_off_home_frame_lock () =
  let n_roots = 400 and spin_us = 100. in
  let inside = Array.init n_roots (fun _ -> Atomic.make false) in
  let overlaps = Atomic.make 0 in
  let proc = Reactor.find_proc Testlib.account_type in
  let deposit = proc "deposit" in
  let credit_checked ctx args =
    if Atomic.get inside.(Reactor.arg_int args 0) then Atomic.incr overlaps;
    deposit ctx [ List.nth args 1 ]
  in
  let spin_transfer ctx args =
    let token = Reactor.arg_int args 3 and amount = Reactor.arg_float args 2 in
    Atomic.set inside.(token) true;
    let f =
      ctx.Reactor.call ~reactor:(Reactor.arg_str args 0) ~proc:"relay"
        ~args:[ List.nth args 1; Value.Str "credit_checked"; Value.Int token;
                Value.Float amount ]
    in
    ignore (deposit ctx [ Value.Float (-.amount) ]);
    let t0 = Unix.gettimeofday () in
    while (Unix.gettimeofday () -. t0) *. 1e6 < spin_us do () done;
    Atomic.set inside.(token) false;
    ignore (f.Reactor.get ());
    Value.Null
  in
  let rtype =
    Reactor.rtype ~name:"Account" ~schemas:[ Testlib.acct_schema ]
      ~procs:
        [ ("get_balance", proc "get_balance"); ("deposit", deposit);
          ("relay", proc "relay"); ("credit_checked", credit_checked);
          ("spin_transfer", spin_transfer) ]
      ()
  in
  let home = function "acct8" -> 1 | "acct9" -> 2 | _ -> 0 in
  let cfg =
    Reactdb.Config.custom ~executors_per_container:[| 1; 1; 1 |]
      ~router:Reactdb.Config.Cost ~placement:home ()
  in
  let db = RDb.start (Testlib.bank_decl ~initial:1000. ~rtype 10) cfg in
  RDb.enable_history db;
  let net = Array.init 8 (fun _ -> Atomic.make 0) in
  let committed = Atomic.make 0 and lost = Atomic.make 0 and other = Atomic.make 0 in
  for round = 0 to 19 do
    for i = 0 to 19 do
      let src = i mod 8 and dst = (i + round + 1) mod 8 in
      let dst = if dst = src then (dst + 1) mod 8 else dst in
      let via = if i mod 2 = 0 then "acct8" else "acct9" in
      RDb.submit db ~reactor:(Printf.sprintf "acct%d" src) ~proc:"spin_transfer"
        ~args:[ Value.Str via; Value.Str (Printf.sprintf "acct%d" dst); Value.Float 1.;
                Value.Int ((20 * round) + i) ]
        ~k:(fun out ->
          match out.RDb.result, abort_kind out with
          | Ok _, _ ->
            Atomic.incr committed;
            Atomic.decr net.(src);
            Atomic.incr net.(dst)
          | Error _, Some (Obs.Abort.Conflict | Lock_busy | Stale_read | Node_changed) ->
            Atomic.incr lost
          | Error _, _ -> Atomic.incr other)
    done;
    RDb.quiesce db
  done;
  Testlib.audit "no fatals" (Audit.fatal db);
  let off_home =
    Array.fold_left (fun a s -> a + s.RDb.ss_routed_by_cost) 0 (RDb.sched_stats db)
  in
  RDb.shutdown db;
  check_bool "some bodies ran off home" true (off_home > 0);
  check_int "no credit ran beside its own body" 0 (Atomic.get overlaps);
  check_int "no other abort" 0 (Atomic.get other);
  check_int "every root accounted" n_roots (Atomic.get committed + Atomic.get lost);
  check_bool "made progress" true (Atomic.get committed > 0);
  let balances = List.map (fun (name, bal, _) -> (name, bal)) (stored db) in
  Array.iteri
    (fun k d ->
      let name = Printf.sprintf "acct%d" k in
      check_float name (1000. +. float_of_int (Atomic.get d)) (List.assoc name balances))
    net;
  check_float "acct8 untouched" 1000. (List.assoc "acct8" balances);
  check_float "acct9 untouched" 1000. (List.assoc "acct9" balances);
  check_float "money conserved" 10_000. (List.fold_left (fun a (_, b) -> a +. b) 0. balances);
  Testlib.audit "history serializable" (Audit.certify (RDb.history db))

(* The home domain of an off-home root body keeps draining while a frame
   of that root waits for the body's lock. Container 0 (acct0..acct3) is
   held busy by [block], so roots of [off_home] back up there until the
   cost router sends one to idle container 1; container 2 (acct5), also
   held busy, runs [ship], which sends a frame of the chosen off-home root
   into container 0. Once that frame is queued, a third root [peek] on
   acct2 is queued behind it and container 0 is let go. [peek] is
   declared read-only, so the router pins it to its home: a routed third
   root could land behind the spinning body instead. The off-home body
   holds its home section until that third root completes, for at most a
   second: a frame that blocked its domain on the lock would hold the
   third root back for the whole second. *)
let test_home_drains_beside_frame_lock () =
  let started = Array.init 2 (fun _ -> Atomic.make false) in
  let go = Array.init 2 (fun _ -> Atomic.make false) in
  let dom0 = Atomic.make (-1) and chosen = Atomic.make false in
  let spinning = Atomic.make false and shipped = Atomic.make false in
  let third_done = Atomic.make false and done_while_held = Atomic.make false in
  let spin_until ?(limit_s = 5.) flag =
    let t0 = Unix.gettimeofday () in
    while (not (Atomic.get flag)) && Unix.gettimeofday () -. t0 < limit_s do
      Domain.cpu_relax ()
    done
  in
  let self () = (Domain.self () :> int) in
  let block _ctx args =
    let gate = Reactor.arg_int args 0 in
    if gate = 0 then Atomic.set dom0 (self ());
    Atomic.set started.(gate) true;
    spin_until go.(gate);
    Value.Null
  in
  let off_home ctx _args =
    if self () <> Atomic.get dom0 && Atomic.compare_and_set chosen false true
    then begin
      let f = ctx.Reactor.call ~reactor:"acct5" ~proc:"ship" ~args:[] in
      Atomic.set spinning true;
      spin_until ~limit_s:1. third_done;
      Atomic.set done_while_held (Atomic.get third_done);
      ignore (f.Reactor.get ())
    end;
    Value.Null
  in
  let ship ctx _args =
    let f = ctx.Reactor.call ~reactor:"acct1" ~proc:"noop" ~args:[] in
    Atomic.set shipped true;
    f.Reactor.get ()
  in
  let rtype =
    Reactor.rtype ~name:"Account" ~schemas:[ Testlib.acct_schema ]
      ~procs:
        [ ("block", block); ("off_home", off_home); ("ship", ship);
          ("noop", fun _ _ -> Value.Null); ("peek", fun _ _ -> Value.Null) ]
      ~readonly:[ "peek" ] ()
  in
  let home = function "acct4" -> 1 | "acct5" -> 2 | _ -> 0 in
  let cfg =
    Reactdb.Config.custom ~executors_per_container:[| 1; 1; 1 |]
      ~router:Reactdb.Config.Cost ~placement:home ()
  in
  let db = RDb.start (Testlib.bank_decl ~rtype 6) cfg in
  let submit reactor proc args k = RDb.submit db ~reactor ~proc ~args ~k in
  let ignore_out (_ : RDb.outcome) = () in
  let await what flag =
    spin_until flag;
    if not (Atomic.get flag) then begin
      Array.iter (fun g -> Atomic.set g true) go;
      RDb.shutdown db;
      Alcotest.failf "timed out waiting until %s" what
    end
  in
  submit "acct0" "block" [ Value.Int 0 ] ignore_out;
  submit "acct5" "block" [ Value.Int 1 ] ignore_out;
  await "both containers are held" started.(0);
  await "both containers are held" started.(1);
  (* One root at a time, until the backlog at container 0 outweighs the
     off-home commit round trip in the router's score. *)
  let rec feed n =
    if n > 0 && not (Atomic.get spinning) then begin
      submit "acct3" "off_home" [] ignore_out;
      Unix.sleepf 1e-3;
      feed (n - 1)
    end
  in
  feed 200;
  await "a body runs off its home" spinning;
  Atomic.set go.(1) true;
  await "the frame into the home is queued" shipped;
  submit "acct2" "peek" [] (fun _ -> Atomic.set third_done true);
  Atomic.set go.(0) true;
  RDb.quiesce db;
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  check_bool "the third root completed while the body held its home" true
    (Atomic.get done_while_held)

(* A procedure raising in a frame on another container: the root suspends
   on the child, resumes on the handler it suspended under, and ends as an
   [Internal] abort counted once as a fatal, as a raising root body is in
   [test_abort_buckets_sum_runtime]; the database keeps committing. *)
let test_remote_raise_after_resume () =
  let db = RDb.start (Testlib.bank_decl 4) (Testlib.sn_config 4) in
  let out =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"relay"
      ~args:[ Value.Str "acct3"; Value.Str "boom" ]
  in
  check_bool "remote raise is internal" true (abort_kind out = Some Obs.Abort.Internal);
  check_int "internal bucket" 1 (List.assoc "internal" (RDb.aborts_by_reason db));
  check_int "one fatal" 1 (RDb.n_fatal db);
  let ok =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
      ~args:[ Value.Str "acct3"; Value.Float 5. ]
  in
  check_bool "then a transfer commits" true (Result.is_ok ok.RDb.result);
  check_float "debited" 95. (balance db "acct0");
  check_float "credited" 105. (balance db "acct3");
  RDb.shutdown db

(* ------------------------------------------------------------------ *)
(* Deferred admission: a root resubmitted after losing a conflict
   ([~retry:1]) waits until its executor has nothing else queued. The one
   executor is held busy by a root spinning on a flag; a retried root is
   submitted, then a fresh one, and the fresh one must complete first. *)

let test_retry_waits_for_idle () =
  let release = Atomic.make false in
  let hold _ctx _args =
    while not (Atomic.get release) do
      Domain.cpu_relax ()
    done;
    Value.Null
  in
  let held =
    Reactor.rtype ~name:"Held" ~schemas:[]
      ~procs:[ ("hold", hold); ("noop", fun _ _ -> Value.Null) ]
      ()
  in
  let decl = Reactor.decl ~types:[ held ] ~reactors:[ ("h0", "Held") ] () in
  let db = RDb.start decl (Reactdb.Config.shared_nothing [ [ "h0" ] ]) in
  (* every [k] runs on the one executor domain; [quiesce] orders it before
     the read below *)
  let order = ref [] in
  let note tag (out : RDb.outcome) =
    if Result.is_error out.RDb.result then order := "error" :: !order
    else order := tag :: !order
  in
  RDb.submit db ~reactor:"h0" ~proc:"hold" ~args:[] ~k:(note "hold");
  RDb.submit ~retry:1 db ~reactor:"h0" ~proc:"noop" ~args:[] ~k:(note "retried");
  RDb.submit db ~reactor:"h0" ~proc:"noop" ~args:[] ~k:(note "fresh");
  Atomic.set release true;
  RDb.quiesce db;
  Alcotest.(check (list string))
    "the fresh root overtakes the retried one" [ "hold"; "fresh"; "retried" ]
    (List.rev !order);
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db

(* A 2-domain θ = 0.99 YCSB closed loop that resubmits its transient
   aborts at once, so retried roots keep entering the deferred lane while
   fresh roots and 2PC steps use the main one: every attempt is counted
   once and every key keeps its one row. *)
let test_ycsb_hot_retries () =
  let nk = 64 and n_workers = 8 and per_worker = 100 in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (Workloads.Ycsb.keys nk))) in
  let db = RDb.start (Workloads.Ycsb.decl ~keys:nk ()) cfg in
  let p = Workloads.Ycsb.params ~txn_keys:10 ~theta:0.99 nk in
  let retries =
    Harness.run_fixed ~max_retries:1_000_000 ~backoff:None
      (Harness.runtime db) ~n_workers ~per_worker ~seed:29 (fun _ rng ->
        Workloads.Ycsb.gen_multi_update rng p
          ~container_of:(RDb.container_of db))
  in
  check_bool "conflicts were retried" true (retries > 0);
  check_int "every logical transaction committed" (n_workers * per_worker)
    (RDb.n_committed db);
  Testlib.audit "attempt accounting"
    (Audit.accounting ~committed:(RDb.n_committed db)
       ~aborted:(RDb.n_aborted db) ~logical:(n_workers * per_worker) ~retries);
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "one row per key reactor" (Audit.ycsb_rows (RDb.catalogs db));
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Durable mode: group-committed WAL must hold exactly the committed
   transactions' after-images; replaying it onto a freshly-loaded database
   reconstructs the same physical state. Flush_wait must appear in the
   lifecycle report and the scheduler rows must ride the v3 export. *)

let test_group_commit_durability () =
  let n = 16 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let log = Wal.in_memory () in
  let db = RDb.start ~wal:log decl cfg in
  let collector =
    Obs.Collector.create ~clock:Obs.Wall ~containers:(RDb.n_domains db) ()
  in
  RDb.attach_obs db collector;
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db)
      ~n_workers:4 ~per_worker:50 ~seed:13 (fun _ rng ->
        SB.gen_conserving rng ~n)
  in
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.publish_sched_obs db;
  RDb.shutdown db;
  Testlib.audit "money conserved" (Audit.money ~n (RDb.catalogs db));
  (* every committed writer is in the log exactly once (read-only commits
     append nothing) *)
  check_bool "log bounded by commits" true
    (Wal.length log <= RDb.n_committed db);
  check_bool "some transactions logged" true (Wal.length log > 0);
  check_bool "group commit flushed" true (Wal.n_flushes log > 0);
  (* replay onto a freshly-loaded copy reconstructs the same state *)
  let db2 = RDb.start decl cfg in
  RDb.shutdown db2;
  let applied =
    Wal.replay (Wal.entries log) ~catalog_of:(RDb.catalog_of db2)
  in
  check_bool "replay applied writes" true (applied > 0);
  (match
     Faultsim.diff
       (Faultsim.snapshot (RDb.catalogs db))
       (Faultsim.snapshot (RDb.catalogs db2))
   with
  | None -> ()
  | Some d -> Alcotest.fail ("replayed state diverged: " ^ d));
  (* Flush_wait shows up in the report, and the v3 export round-trips *)
  let report = Obs.Report.summarize collector in
  let fw =
    List.find
      (fun p -> p.Obs.Report.pr_phase = "flush_wait")
      report.Obs.Report.r_phases
  in
  check_bool "flush_wait attributed" true (fw.Obs.Report.pr_sum_us > 0.);
  (match Obs.Report.of_json (Obs.Report.to_json report) with
  | Ok r2 -> check_bool "v3 report round-trips" true (r2 = report)
  | Error m -> Alcotest.fail ("report round-trip: " ^ m));
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* Durable mode end-to-end through a real file: entries survive close and
   re-read framed and checksummed. *)
let test_group_commit_file () =
  let path = Filename.temp_file "reactdb_gc" ".wal" in
  let n = 8 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let log = Wal.to_file path in
  let db = RDb.start ~wal:log decl cfg in
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db)
      ~n_workers:2 ~per_worker:25 ~seed:41 (fun _ rng ->
        SB.gen_conserving rng ~n)
  in
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Wal.close log;
  let entries, tail = Wal.read_file_tolerant path in
  check_bool "file log clean" true (tail = Wal.Clean);
  check_int "file holds every logged entry" (Wal.length log)
    (List.length entries);
  Sys.remove path;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* A durable commit waits for its own epoch, not for another root's 2PC
   prepare. Every prepare stalls 250–750 ms with its locks held, so a
   transfer between the first two domains sits in prepare for at least
   500 ms; a single-container deposit on the third domain, submitted once
   the stall began, must be acknowledged durable while the transfer is
   still stalled. The epoch is taken at the commit decision, so the
   stalled root holds no epoch the deposit's flush has to wait for. *)
let test_durable_commit_not_behind_prepare () =
  let chaos =
    Chaos.make ~seed:7 ~kind:Chaos.Stall_prepare ~p:1.0 ~delay_us:500_000. ()
  in
  let log = Wal.in_memory () in
  let db =
    RDb.start ~chaos ~wal:log ~epoch_len_s:0.002 (Testlib.bank_decl 3)
      (Testlib.sn_config 3)
  in
  let transfer = Atomic.make None in
  RDb.submit db ~reactor:"acct0" ~proc:"transfer_to"
    ~args:[ Value.Str "acct1"; Value.Float 25. ]
    ~k:(fun out -> Atomic.set transfer (Some out));
  while Chaos.injections chaos = 0 do
    Unix.sleepf 1e-3
  done;
  let deposit =
    RDb.exec_txn db ~reactor:"acct2" ~proc:"deposit" ~args:[ Value.Float 5. ]
  in
  let stalled = Atomic.get transfer = None in
  check_bool "deposit committed" true (Result.is_ok deposit.RDb.result);
  check_bool "deposit acknowledged while the transfer is in prepare" true stalled;
  check_bool "deposit latency far below the stall" true
    (deposit.RDb.latency_us < 200_000.);
  RDb.quiesce db;
  (match Atomic.get transfer with
  | Some { RDb.result = Ok _; _ } -> ()
  | _ -> Alcotest.fail "stalled transfer did not commit");
  check_float "deposit applied" 105. (balance db "acct2");
  check_float "transfer applied" 125. (balance db "acct1");
  RDb.shutdown db;
  check_int "both commits logged" 2 (Wal.length log)

(* [durable_epoch] is a safe shipping bound: whenever it reads [d], every
   record whose TID epoch is <= d is already in the log — no later append
   lands below a bound a shipper has seen. After shutdown it is the last
   epoch of the run, not a sentinel. *)
let test_durable_epoch_bound () =
  let n = 16 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let log = Wal.in_memory () in
  let db = RDb.start ~wal:log ~epoch_len_s:0.002 decl cfg in
  let epoch_of e = Storage.Record.tid_epoch e.Wal.le_tid in
  let stop = Atomic.make false in
  let sampler =
    Domain.spawn (fun () ->
        let samples = ref [] and last = ref 0 and monotone = ref true in
        while not (Atomic.get stop) do
          let d = RDb.durable_epoch db in
          if d < !last then monotone := false;
          last := d;
          let seen =
            List.filter_map
              (fun e -> if epoch_of e <= d then Some e.Wal.le_txn else None)
              (Wal.entries log)
          in
          samples := (d, seen) :: !samples;
          Unix.sleepf 5e-4
        done;
        (!samples, !monotone))
  in
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db) ~n_workers:4 ~per_worker:100 ~seed:29
      (fun _ rng -> SB.gen_conserving rng ~n)
  in
  Atomic.set stop true;
  let samples, monotone = Domain.join sampler in
  RDb.shutdown db;
  let final = Wal.entries log in
  check_bool "sampled during the run" true (List.length samples > 1);
  check_bool "bound never moves back" true monotone;
  List.iter
    (fun (d, seen) ->
      List.iter
        (fun e ->
          if epoch_of e <= d && not (List.mem e.Wal.le_txn seen) then
            Alcotest.failf "txn %d of epoch %d appended after bound %d was read"
              e.Wal.le_txn (epoch_of e) d)
        final)
    samples;
  let last = RDb.durable_epoch db in
  check_int "after shutdown: the last epoch" (RDb.safe_snapshot_epoch db + 1) last;
  check_bool "covers every record" true
    (List.for_all (fun e -> epoch_of e <= last) final)

(* A durable commit is acknowledged by the flush that writes its record,
   not by the close of its epoch: with 1 s epochs, a deposit submitted
   right after start is acknowledged within 250 ms, and at that moment
   its record is already in the log file. *)
let test_ack_before_epoch_close () =
  let path = Filename.temp_file "reactdb_ack" ".wal" in
  let log = Wal.to_file path in
  let db =
    RDb.start ~wal:log ~epoch_len_s:1.0 (Testlib.bank_decl 1) (Testlib.sn_config 1)
  in
  let acked = Atomic.make None in
  RDb.submit db ~reactor:"acct0" ~proc:"deposit" ~args:[ Value.Float 5. ]
    ~k:(fun out -> Atomic.set acked (Some (out, Wal.read_file_tolerant path)));
  let t_end = Unix.gettimeofday () +. 0.25 in
  while Atomic.get acked = None && Unix.gettimeofday () < t_end do
    Unix.sleepf 1e-4
  done;
  let acked = Atomic.get acked in
  RDb.shutdown db;
  Wal.close log;
  Sys.remove path;
  match acked with
  | None -> Alcotest.fail "deposit not acknowledged within 250 ms"
  | Some (out, (entries, tail)) ->
    check_bool "deposit committed" true (out.RDb.result = Ok (Value.Float 105.));
    check_bool "log tail clean" true (tail = Wal.Clean);
    check_bool "its record is in the log" true
      (List.exists
         (fun e ->
           List.exists
             (function
               | Wal.Put { reactor = "acct0"; row; _ } -> row.(1) = Value.Float 105.
               | _ -> false)
             e.Wal.le_writes)
         entries)

(* A failed flush publishes no durable bound: on a log device that fails
   every write, [durable_epoch] stays where the first failed flush left it
   through a run of about fifteen 2 ms epochs and after shutdown. That is
   0 unless a loaded host delays the first commit past the first epoch (a
   bound over an epoch with no records is still true). The failing device
   degrades durability, not liveness: every root still completes, none
   of them is acknowledged, a writer refused after the failure installs
   nothing, and the failure is recorded once, as the WAL's error rather
   than a runtime fatal. *)
let test_failed_flush_no_durable_bound () =
  let log = Wal.to_file "/dev/full" in
  let db =
    RDb.start ~wal:log ~epoch_len_s:0.002 (Testlib.bank_decl 2) (Testlib.sn_config 2)
  in
  let roots = ref 0 and completed = ref 0 and acked = ref 0 in
  let deposit () =
    let reactor = Printf.sprintf "acct%d" (!roots mod 2) in
    incr roots;
    let out = RDb.exec_txn db ~reactor ~proc:"deposit" ~args:[ Value.Float 1. ] in
    incr completed;
    if Result.is_ok out.RDb.result then incr acked
  in
  (* the first root returns only after its own flush failed *)
  deposit ();
  let frozen = RDb.durable_epoch db in
  let t_end = Unix.gettimeofday () +. 0.03 and moved = ref frozen in
  while Unix.gettimeofday () < t_end do
    deposit ();
    let d = RDb.durable_epoch db in
    if d <> frozen then moved := d
  done;
  let balances () = List.map (balance db) [ "acct0"; "acct1" ] in
  let before = balances () in
  let late = RDb.exec_txn db ~reactor:"acct0" ~proc:"deposit" ~args:[ Value.Float 1. ] in
  let after = balances () in
  RDb.shutdown db;
  (try Wal.close log with Sys_error _ -> ());
  check_bool "a deposit after the failure is refused" true
    (match late.RDb.result with Error m -> Strutil.contains m ~sub:"wal" | Ok _ -> false);
  check_bool "and leaves every balance unchanged" true (after = before);
  check_int "every root completed" !roots !completed;
  check_int "no writing root acknowledged after the first failed flush" 0 !acked;
  check_bool "the failed flush is recorded" true
    (match RDb.wal_error db with Some m -> Strutil.contains m ~sub:"/dev/full" | None -> false);
  check_int "and is not a runtime fatal" 0 (RDb.n_fatal db);
  check_int "no durable bound published mid-run" frozen !moved;
  check_int "no durable bound published at shutdown" frozen (RDb.durable_epoch db)

(* A quiet durable runtime keeps its promises without a timer. A
   migration with a WAL attached and no other traffic returns within a
   second, its [Migrate] record already in the log: the caller runs the
   flush that writes it. The call runs on its own domain so a build in
   which nothing flushes the record fails the bound instead of hanging;
   [shutdown]'s final flush then releases it. *)
let test_quiet_migrate_returns () =
  let log = Wal.in_memory () in
  let db =
    RDb.start ~wal:log ~epoch_len_s:0.002 (Testlib.bank_decl 2) (Testlib.sn_config 2)
  in
  let returned = Atomic.make None in
  let admin =
    Domain.spawn (fun () ->
        ignore (RDb.migrate db ~reactor:"acct0" ~dst:1);
        Atomic.set returned (Some (Wal.entries log)))
  in
  let t_end = Unix.gettimeofday () +. 1.0 in
  while Atomic.get returned = None && Unix.gettimeofday () < t_end do
    Unix.sleepf 1e-4
  done;
  let seen = Atomic.get returned in
  RDb.shutdown db;
  Domain.join admin;
  match seen with
  | None -> Alcotest.fail "quiet migrate did not return within 1 s"
  | Some entries ->
    check_int "placement flipped" 1 (RDb.container_of db "acct0");
    check_bool "its Migrate record is in the log" true
      (List.exists
         (fun e -> List.mem (Wal.Migrate { reactor = "acct0"; dst = 1 }) e.Wal.le_writes)
         entries)

(* The durable bound keeps up in a quiet stretch: after one durable
   commit and at least three idle 2 ms epochs, with no flush since the
   commit's own, a single [durable_epoch] read covers the commit's TID
   epoch. *)
let test_quiet_bound_covers_commit () =
  let log = Wal.in_memory () in
  let db =
    RDb.start ~wal:log ~epoch_len_s:0.002 (Testlib.bank_decl 1) (Testlib.sn_config 1)
  in
  let out = RDb.exec_txn db ~reactor:"acct0" ~proc:"deposit" ~args:[ Value.Float 5. ] in
  check_bool "deposit committed" true (Result.is_ok out.RDb.result);
  let epoch =
    match Wal.entries log with
    | [ e ] -> Storage.Record.tid_epoch e.Wal.le_tid
    | es -> Alcotest.failf "%d records logged, expected 1" (List.length es)
  in
  Unix.sleepf 0.008;
  let d = RDb.durable_epoch db in
  RDb.shutdown db;
  if d < epoch then
    Alcotest.failf "durable bound %d read after idle epochs misses commit epoch %d" d epoch

(* The combining flush, on [Durability] alone: in every round two domains
   each register, queue one record and call [try_flush] once, and nothing
   else ever flushes. A caller whose try-lock fails relies on the holder's
   re-check, so once both calls returned every batch of the round must be
   filled; at the end the log holds every record once, round by round. *)
let test_combining_flush () =
  let module D = Reactdb.Durability in
  let n = 2 and rounds = 5000 in
  let log = Wal.in_memory () in
  let d = D.create ~epoch:(fun () -> 1) ~flushes:(Atomic.make 0) log in
  (* a barrier of the [n] workers: the [k]-th wait ends once all arrived *)
  let arrived = Atomic.make 0 in
  let barrier k =
    Atomic.incr arrived;
    while Atomic.get arrived < n * k do
      Domain.cpu_relax ()
    done
  in
  let worker i () =
    let unfilled = ref 0 in
    for r = 0 to rounds - 1 do
      barrier ((2 * r) + 1);
      let tag = D.register d in
      let entry =
        { Wal.le_txn = (r * n) + i; le_tid = Storage.Record.tid_make ~epoch:1 ~seq:r;
          le_writes = [] }
      in
      let b = Result.get_ok (D.queue d ~tag entry) in
      D.try_flush d;
      barrier ((2 * r) + 2);
      if Reactdb.Ivar.peek b = None then incr unfilled
    done;
    !unfilled
  in
  let workers = List.init n (fun i -> Domain.spawn (worker i)) in
  let unfilled = List.fold_left (fun a w -> a + Domain.join w) 0 workers in
  check_int "every returned batch filled" 0 unfilled;
  let txns = List.map (fun e -> e.Wal.le_txn) (Wal.entries log) in
  check_bool "every record logged once" true
    (List.sort Int.compare txns = List.init (n * rounds) Fun.id);
  let rounds_in_log = List.map (fun t -> t / n) txns in
  check_bool "in round order" true (List.sort Int.compare rounds_in_log = rounds_in_log)

(* Every prefix of the log file replays to a consistent state. A conserving
   Smallbank mix commits over eight hot customers while a sampler copies
   the file's bytes; each copy, read tolerantly and replayed onto fresh
   catalogs, must hold the loaded money and clean secondary indexes. So
   must every record prefix of the final file: a flush that wrote a record
   ahead of one it depends on would leave a prefix that fails the money
   audit, however short the window in which a copy could have seen it. *)
let test_flushed_prefixes_consistent () =
  let path = Filename.temp_file "reactdb_prefix" ".wal" in
  let copy = Filename.temp_file "reactdb_prefix_copy" ".wal" in
  let n = 8 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let log = Wal.to_file path in
  let db = RDb.start ~wal:log decl cfg in
  let stop = Atomic.make false in
  let sampler =
    Domain.spawn (fun () ->
        let copies = ref [] and last = ref (-1) in
        while not (Atomic.get stop) do
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          if String.length bytes <> !last then begin
            last := String.length bytes;
            copies := bytes :: !copies
          end;
          Unix.sleepf 2e-4
        done;
        !copies)
  in
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db) ~n_workers:8 ~per_worker:100 ~seed:17
      (fun _ rng -> SB.gen_conserving rng ~n)
  in
  Atomic.set stop true;
  let copies = Domain.join sampler in
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Wal.close log;
  let consistent what cats =
    Testlib.audit (what ^ ": money") (Audit.money ~n cats);
    Testlib.audit (what ^ ": secondary indexes") (Faultsim.check_secondaries cats)
  in
  check_bool "sampled several prefixes" true (List.length copies > 2);
  List.iter
    (fun bytes ->
      Out_channel.with_open_bin copy (fun oc -> output_string oc bytes);
      consistent
        (Printf.sprintf "copy of %d bytes" (String.length bytes))
        (Faultsim.recover ~log:copy decl).Faultsim.rc_catalogs)
    copies;
  let entries = Testlib.read_log path in
  List.iteri
    (fun i _ ->
      let cats = Faultsim.fresh_catalogs decl in
      ignore
        (Wal.replay (List.filteri (fun j _ -> j <= i) entries)
           ~catalog_of:(Faultsim.catalog_of cats));
      consistent (Printf.sprintf "first %d records" (i + 1)) cats)
    entries;
  Sys.remove path;
  Sys.remove copy

(* ------------------------------------------------------------------ *)
(* Parallel frames: a root's sub-transactions on other containers run at
   the same time as their caller (§2.2). Reactors "p0".."pN" of a
   data-less type, one per container; the procedures are closures over
   the test's own atomics. *)

let probe_decl n procs =
  let names = List.init n (Printf.sprintf "p%d") in
  let rt = Reactor.rtype ~name:"Probe" ~schemas:[] ~procs () in
  ( Reactor.decl ~types:[ rt ]
      ~reactors:(List.map (fun nm -> (nm, "Probe")) names)
      (),
    Reactdb.Config.shared_nothing (List.map (fun nm -> [ nm ]) names) )

(* Spin until [a] is set or about 2 s passed; whether it was set. *)
let wait_for a =
  let t0 = Unix.gettimeofday () in
  while (not (Atomic.get a)) && Unix.gettimeofday () -. t0 < 2. do
    Domain.cpu_relax ()
  done;
  Atomic.get a

(* The root's body on p0 ships a call to p1 and then waits, still inside
   its body, for the child to start; the child waits for the body's
   acknowledgement. Both see the other only if they run at the same time.
   A child that must wait for its caller's body to suspend sees neither. *)
let test_child_runs_beside_caller () =
  let started = Atomic.make false and acked = Atomic.make false in
  let child_saw_ack = Atomic.make false in
  let overlap (ctx : Reactor.ctx) _ =
    let f = ctx.call ~reactor:"p1" ~proc:"mark" ~args:[] in
    let seen = wait_for started in
    Atomic.set acked true;
    ignore (f.get ());
    Value.Bool seen
  in
  let mark _ _ =
    Atomic.set started true;
    Atomic.set child_saw_ack (wait_for acked);
    Value.Null
  in
  let decl, cfg = probe_decl 2 [ ("overlap", overlap); ("mark", mark) ] in
  let db = RDb.start decl cfg in
  let out = RDb.exec_txn db ~reactor:"p0" ~proc:"overlap" ~args:[] in
  RDb.shutdown db;
  check_bool "root committed" true (Result.is_ok out.RDb.result);
  check_bool "child started while the caller's body ran" true
    (out.RDb.result = Ok (Value.Bool true));
  check_bool "child saw the body's acknowledgement" true (Atomic.get child_saw_ack)

(* A root on p0 and its sub-call on p1 both call p2, whose procedure
   suspends (it calls p3) while it counts its live contexts. The dynamic
   safety condition (§2.2.4) admits at most one of the two contexts at a
   time, so the count never exceeds 1, and a root either commits (the two
   calls did not overlap) or aborts with a dangerous-call abort. Roots run
   one at a time: contexts of different roots may overlap legitimately. *)
let test_one_context_per_reactor () =
  let live = Atomic.make 0 and peak = Atomic.make 0 in
  let both (ctx : Reactor.ctx) _ =
    let f = ctx.call ~reactor:"p1" ~proc:"side" ~args:[] in
    let g = ctx.call ~reactor:"p2" ~proc:"count" ~args:[] in
    ignore (f.get ());
    g.get ()
  in
  let side (ctx : Reactor.ctx) _ =
    (ctx.call ~reactor:"p2" ~proc:"count" ~args:[]).get ()
  in
  let rec raise_peak n =
    let p = Atomic.get peak in
    if n > p && not (Atomic.compare_and_set peak p n) then raise_peak n
  in
  let count (ctx : Reactor.ctx) _ =
    raise_peak (1 + Atomic.fetch_and_add live 1);
    Fun.protect
      ~finally:(fun () -> Atomic.decr live)
      (fun () -> (ctx.call ~reactor:"p3" ~proc:"noop" ~args:[]).get ())
  in
  let noop _ _ = Value.Null in
  let decl, cfg =
    probe_decl 4 [ ("both", both); ("side", side); ("count", count); ("noop", noop) ]
  in
  let db = RDb.start decl cfg in
  let committed = ref 0 and dangerous = ref 0 in
  for _ = 1 to 400 do
    let out = RDb.exec_txn db ~reactor:"p0" ~proc:"both" ~args:[] in
    match (out.RDb.result, abort_kind out) with
    | Ok _, _ -> incr committed
    | Error _, Some Obs.Abort.Dangerous -> incr dangerous
    | Error m, _ -> Alcotest.failf "root aborted for another reason: %s" m
  done;
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  check_int "every root accounted" 400 (!committed + !dangerous);
  check_bool "at most one live context on p2" true (Atomic.get peak <= 1);
  check_int "no context left live" 0 (Atomic.get live)

let suite =
  ( "runtime",
    [
      Alcotest.test_case "bank across domains" `Quick test_bank_cross_domain;
      Alcotest.test_case "smallbank parallel audit" `Quick
        (test_smallbank_parallel Runtime);
      Alcotest.test_case "smallbank parallel audit (simulator)" `Quick
        (test_smallbank_parallel Simulator);
      Alcotest.test_case "ycsb parallel audit" `Quick test_ycsb_parallel;
      Alcotest.test_case "round-robin routing" `Quick test_round_robin_routing;
      Alcotest.test_case "serial equivalence vs simulator" `Quick
        test_serial_equivalence;
      Alcotest.test_case "closed-loop load run" `Quick test_load_run;
      Alcotest.test_case "deadline expired at admission" `Quick
        test_deadline_expired_at_admission;
      Alcotest.test_case "deadline during 2pc prepare" `Quick
        test_deadline_during_2pc_prepare;
      Alcotest.test_case "deadline mid-collect (runtime)" `Quick
        test_deadline_mid_collect_runtime;
      Alcotest.test_case "abort buckets sum (runtime)" `Quick
        test_abort_buckets_sum_runtime;
      Alcotest.test_case "runtime fence drains and refuses" `Quick
        test_fence_drains_and_refuses;
      Alcotest.test_case "runtime fence ends worker chains" `Quick
        test_fence_ends_worker_chains;
      Alcotest.test_case "posted installs keep snapshot cuts" `Quick
        test_posted_installs_keep_snapshot_cuts;
      Alcotest.test_case "posted installs land before fence and quiesce" `Quick
        test_posted_installs_land_before_fence_and_quiesce;
      Alcotest.test_case "write skew across containers (runtime)" `Quick
        (test_write_skew_runtime "skew");
      Alcotest.test_case "write skew across containers, remote read (runtime)" `Quick
        (test_write_skew_runtime "skew_remote_read");
      Alcotest.test_case "runtime kill mid-2pc rolls back every participant" `Quick
        test_kill_mid_2pc_rolls_back;
      Alcotest.test_case "read-only outlasts deadline (runtime)" `Quick
        test_readonly_outlasts_deadline_runtime;
      Alcotest.test_case "collect serial equivalence: smallbank" `Quick
        test_collect_serial_equivalence_smallbank;
      Alcotest.test_case "collect serial equivalence: tpcc" `Quick
        test_collect_serial_equivalence_tpcc;
      Alcotest.test_case "projected new-order serial equivalence: tpcc" `Quick
        test_projected_serial_equivalence_tpcc;
      Alcotest.test_case "tpcc deliveries keep new_order bounded (runtime)" `Quick
        test_tpcc_new_order_bounded_runtime;
      Alcotest.test_case "overload shed at mailbox cap" `Quick
        test_overload_shed;
      Alcotest.test_case "durable commit not behind a 2pc prepare" `Quick
        test_durable_commit_not_behind_prepare;
      Alcotest.test_case "durable epoch is a shipping bound" `Quick
        test_durable_epoch_bound;
      Alcotest.test_case "durable commit acknowledged before its epoch closes"
        `Quick test_ack_before_epoch_close;
      Alcotest.test_case "failed flush publishes no durable bound" `Quick
        test_failed_flush_no_durable_bound;
      Alcotest.test_case "every flushed log prefix is consistent" `Quick
        test_flushed_prefixes_consistent;
      Alcotest.test_case "quiet durable migrate returns" `Quick
        test_quiet_migrate_returns;
      Alcotest.test_case "quiet durable bound covers a commit" `Quick
        test_quiet_bound_covers_commit;
      Alcotest.test_case "combining flush fills every batch" `Quick
        test_combining_flush;
      Alcotest.test_case "cost router" `Quick test_cost_router;
      Alcotest.test_case "load signals track an idle and a backlogged domain"
        `Quick test_load_signals;
      Alcotest.test_case "off-home body against a frame into its home" `Quick
        test_off_home_frame_lock;
      Alcotest.test_case "home domain drains beside a frame awaiting its lock"
        `Quick test_home_drains_beside_frame_lock;
      Alcotest.test_case "remote raise resumes on its own handler" `Quick
        test_remote_raise_after_resume;
      Alcotest.test_case "retried root waits for an idle executor" `Quick
        test_retry_waits_for_idle;
      Alcotest.test_case "ycsb theta 0.99 with retries" `Quick
        test_ycsb_hot_retries;
      Alcotest.test_case "group-commit durability + replay" `Quick
        test_group_commit_durability;
      Alcotest.test_case "group-commit file log" `Quick test_group_commit_file;
      Alcotest.test_case "sub-call runs beside its caller" `Quick
        test_child_runs_beside_caller;
      Alcotest.test_case "one live context per reactor under parallel frames" `Quick
        test_one_context_per_reactor;
    ] )
