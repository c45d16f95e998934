(* Integration tests of the ReactDB runtime: reactor semantics, deployments,
   concurrency control, safety condition, breakdowns. *)

open Util
open Testlib
module DB = Reactdb.Database

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-6))

let ok_or_fail = function
  | { DB.result = Ok v; _ } -> v
  | { DB.result = Error m; _ } -> Alcotest.failf "unexpected abort: %s" m

let test_single_reactor_txn () =
  with_db (se_config 1 4) (fun db ->
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"deposit"
          ~args:[ Value.Float 50. ]
      in
      (match ok_or_fail out with
      | Value.Float f -> checkf "deposit returns new balance" 150. f
      | v -> Alcotest.failf "bad result %s" (Value.to_string v));
      checkf "committed balance" 150. (balance db "acct0");
      check_int "committed count" 2 (DB.n_committed db);
      check_bool "latency positive" true (out.DB.latency > 0.))

let test_user_abort_rolls_back () =
  with_db (se_config 1 4) (fun db ->
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"deposit"
          ~args:[ Value.Float (-500.) ]
      in
      (match out.DB.result with
      | Error m -> check_bool "abort reason" true (m = "insufficient funds")
      | Ok _ -> Alcotest.fail "expected abort");
      checkf "balance unchanged" 100. (balance db "acct0");
      check_int "aborted count" 1 (DB.n_aborted db))

let test_cross_reactor_sync_shared_everything () =
  with_db (se_config 2 4) (fun db ->
      ignore
        (ok_or_fail
           (DB.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
              ~args:[ Value.Str "acct1"; Value.Float 30. ]));
      checkf "source debited" 70. (balance db "acct0");
      checkf "dest credited" 130. (balance db "acct1"))

let test_cross_container_async () =
  with_db (sn_config 4) (fun db ->
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_async"
          ~args:[ Value.Float 10.; Value.Str "acct1"; Value.Str "acct2";
                  Value.Str "acct3" ]
      in
      ignore (ok_or_fail out);
      check_int "touched all four containers" 4 out.DB.containers_touched;
      checkf "source" 70. (balance db "acct0");
      checkf "d1" 110. (balance db "acct1");
      checkf "d2" 110. (balance db "acct2");
      checkf "d3" 110. (balance db "acct3"))

let test_sub_abort_aborts_root () =
  with_db (sn_config 4) (fun db ->
      (* acct1 has 100; transferring 200 in makes the source debit fail. *)
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_sync"
          ~args:[ Value.Float 200.; Value.Str "acct1" ]
      in
      (match out.DB.result with
      | Error m -> check_bool "reason" true (m = "insufficient funds")
      | Ok _ -> Alcotest.fail "expected abort");
      (* The credit on acct1 must NOT survive. *)
      checkf "no partial commit on acct1" 100. (balance db "acct1");
      checkf "source untouched" 100. (balance db "acct0"))

let test_remote_sub_abort_aborts_root () =
  with_db ~n:2 (sn_config 2) (fun db ->
      (* deposit on remote reactor aborts (negative balance there). *)
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
          ~args:[ Value.Str "acct1"; Value.Float (-500.) ]
      in
      (* transfer_to sends deposit(-(-500)) = +500 locally, deposit(-500)
         remotely: remote hits insufficient funds. *)
      check_bool "aborted" true (Result.is_error out.DB.result);
      checkf "local effect rolled back" 100. (balance db "acct0");
      checkf "remote unchanged" 100. (balance db "acct1"))

let test_dangerous_structure_detected () =
  with_db ~n:2 (sn_config 2) (fun db ->
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"same_twice"
          ~args:[ Value.Str "acct1" ]
      in
      match out.DB.result with
      | Error m ->
        check_bool "dangerous structure reported" true
          (String.length m >= 9 && String.sub m 0 9 = "dangerous");
        checkf "no effects" 100. (balance db "acct1")
      | Ok _ -> Alcotest.fail "expected dangerous-structure abort")

(* A root whose only container is not its coordinator's commits as one
   prepare-and-install step on that container's owner. Under an
   interfering commit its validation fails there like any other, and every
   attempt is counted once. *)
let test_remote_only_root () =
  with_db ~n:2 (sn_config 2) (fun db ->
      let relay proc args =
        DB.exec_txn db ~reactor:"acct0" ~proc:"relay"
          ~args:(Value.Str "acct1" :: Value.Str proc :: args)
      in
      let out = relay "deposit" [ Value.Float 10. ] in
      ignore (ok_or_fail out);
      check_int "one container, not the coordinator's" 1 out.DB.containers_touched;
      checkf "remote credited" 110. (balance db "acct1");
      checkf "coordinator untouched" 100. (balance db "acct0");
      let committed = DB.n_committed db and aborted = DB.n_aborted db in
      (* the relayed deposit reads acct1 and then works for 1 ms holding
         acct1's core; a direct deposit arriving meanwhile queues for that
         core and commits before the relayed root's commit step gets it *)
      let direct = ref None in
      Sim.Engine.spawn (DB.engine db) (fun () ->
          Sim.Engine.delay 100.;
          direct :=
            Some (DB.exec_txn db ~reactor:"acct1" ~proc:"deposit" ~args:[ Value.Float 5. ]));
      let slow = relay "deposit_after" [ Value.Float 1.; Value.Float 1_000. ] in
      (match slow.DB.abort_cause with
      | Some c ->
        check_bool "stale read at validation" true (c.Obs.Abort.kind = Obs.Abort.Stale_read)
      | None -> Alcotest.fail "expected a validation abort");
      check_bool "interfering commit" true
        (match !direct with Some o -> Result.is_ok o.DB.result | None -> false);
      ignore (ok_or_fail (relay "deposit_after" [ Value.Float 1.; Value.Float 1_000. ]));
      check_int "commits: the direct deposit and the retry" (committed + 2)
        (DB.n_committed db);
      check_int "aborts: the stale attempt" (aborted + 1) (DB.n_aborted db);
      check_bool "counted as validation" true
        (List.assoc_opt "validation" (DB.aborts_by_reason db) = Some 1);
      checkf "remote holds every commit" 116. (balance db "acct1");
      checkf "coordinator still untouched" 100. (balance db "acct0"))

let test_sequential_calls_same_reactor_ok () =
  (* Two transfers to the same destination, synchronously one after the
     other: the active set empties in between, so this is safe. *)
  with_db ~n:2 (sn_config 2) (fun db ->
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_sync"
          ~args:[ Value.Float 5.; Value.Str "acct1" ]
      in
      ignore (ok_or_fail out);
      let out2 =
        DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_sync"
          ~args:[ Value.Float 5.; Value.Str "acct1" ]
      in
      ignore (ok_or_fail out2);
      checkf "dest" 110. (balance db "acct1"))

let test_self_call_inlined () =
  with_db (se_config 1 1) (fun db ->
      (* transfer_to self: credit and debit cancel; must not deadlock or
         trip the safety condition. *)
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
          ~args:[ Value.Str "acct0"; Value.Float 10. ]
      in
      ignore (ok_or_fail out);
      checkf "unchanged" 100. (balance db "acct0"))

let total_balance db =
  List.fold_left (fun acc n -> acc +. balance db n) 0. (names 4)

let test_conservation_shared_everything () =
  with_db (se_config ~affinity:false 4 4) (fun db ->
      Testlib.run_conflict_workload db ~workers:6 ~per_worker:40;
      checkf "money conserved" 400. (total_balance db);
      check_bool "some commits" true (DB.n_committed db > 0))

let test_conservation_shared_nothing () =
  with_db (sn_config 4) (fun db ->
      Testlib.run_conflict_workload db ~workers:6 ~per_worker:40;
      checkf "money conserved" 400. (total_balance db);
      check_bool "some commits" true (DB.n_committed db > 0))

let test_conservation_affinity () =
  with_db (se_config ~affinity:true 4 4) (fun db ->
      Testlib.run_conflict_workload db ~workers:6 ~per_worker:40;
      checkf "money conserved" 400. (total_balance db))

let test_breakdown_sums_to_latency () =
  with_db (sn_config 4) (fun db ->
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_async"
          ~args:[ Value.Float 1.; Value.Str "acct1"; Value.Str "acct2" ]
      in
      ignore (ok_or_fail out);
      let b = out.DB.breakdown in
      let sum =
        b.DB.bd_sync_exec +. b.DB.bd_cs +. b.DB.bd_cr +. b.DB.bd_async_exec
        +. b.DB.bd_overhead
      in
      Alcotest.(check (float 1e-3)) "buckets sum to latency" out.DB.latency sum;
      check_bool "cs charged for 2 remote calls" true
        (b.DB.bd_cs >= 2. *. Reactdb.Profile.default.cost_send -. 1e-9))

let test_async_faster_than_sync () =
  (* The core latency claim (Fig. 5): overlapping remote work must beat
     sequential remote work on a shared-nothing deployment. *)
  let run proc =
    with_db ~n:6 (sn_config 6) (fun db ->
        let args =
          Value.Float 1.
          :: List.map (fun i -> Value.Str (Printf.sprintf "acct%d" i))
               [ 1; 2; 3; 4; 5 ]
        in
        let out = DB.exec_txn db ~reactor:"acct0" ~proc ~args in
        ignore (ok_or_fail out);
        out.DB.latency)
  in
  let sync = run "multi_transfer_sync" in
  let asyn = run "multi_transfer_async" in
  check_bool
    (Printf.sprintf "async (%.1f) < sync (%.1f)" asyn sync)
    true (asyn < sync)

let test_noop_overhead () =
  (* App F.3: empty transactions measure containerization overhead. *)
  with_db (se_config 1 1) (fun db ->
      let out = DB.exec_txn db ~reactor:"acct0" ~proc:"noop" ~args:[] in
      ignore (ok_or_fail out);
      let p = Reactdb.Profile.default in
      check_bool "latency at least dispatch+input+proc+commit" true
        (out.DB.latency
        >= p.cost_input_gen +. p.cost_client_dispatch +. p.cost_proc_base
           +. p.cost_commit_base -. 1e-6);
      check_bool "latency in the ~20µs ballpark of App F.3" true
        (out.DB.latency >= 15. && out.DB.latency <= 30.))

let test_occ_detects_conflicts () =
  (* Force a read-validate conflict: two concurrent transactions on the same
     reactor data from different executors of one container. With zero think
     time and identical access sets, at least one abort should eventually
     occur under round-robin routing; and committed state must be exact. *)
  with_db (se_config ~affinity:false 4 1) (fun db ->
      let eng = DB.engine db in
      for w = 0 to 3 do
        Sim.Engine.spawn eng (fun () ->
            ignore w;
            for _ = 1 to 50 do
              ignore
                (DB.exec_txn db ~reactor:"acct0" ~proc:"deposit"
                   ~args:[ Value.Float 1. ])
            done)
      done;
      ignore (Sim.Engine.run eng);
      let committed = DB.n_committed db and aborted = DB.n_aborted db in
      checkf "balance = 100 + commits" (100. +. float_of_int committed)
        (balance db "acct0");
      check_int "commits + aborts = 200" 200 (committed + aborted))

let test_utilizations_and_reset () =
  with_db (se_config 2 4) (fun db ->
      ignore
        (ok_or_fail
           (DB.exec_txn db ~reactor:"acct0" ~proc:"deposit"
              ~args:[ Value.Float 1. ]));
      let u = DB.utilizations db in
      check_int "one entry per executor" 2 (Array.length u);
      check_bool "some busy time" true (Array.exists (fun x -> x > 0.) u);
      DB.reset_stats db;
      check_int "committed reset" 0 (DB.n_committed db))

let test_cluster_deployment () =
  (* Same application, containers split across two machines: semantics
     unchanged, cross-machine latency strictly higher. *)
  let lat machines =
    with_db ~n:4
      (Reactdb.Config.on_machines (sn_config 4) (fun c -> c mod machines))
      (fun db ->
        let out =
          DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_async"
            ~args:[ Value.Float 5.; Value.Str "acct1"; Value.Str "acct2" ]
        in
        ignore (ok_or_fail out);
        checkf "d1 credited" 105. (balance db "acct1");
        checkf "d2 credited" 105. (balance db "acct2");
        checkf "source debited" 90. (balance db "acct0");
        out.DB.latency)
  in
  let local = lat 1 and spread = lat 2 in
  check_bool
    (Printf.sprintf "network adds latency (%.1f < %.1f)" local spread)
    true
    (local +. (2. *. Reactdb.Profile.default.cost_network) <= spread)

let test_config_spec_parsing () =
  let spec =
    Reactdb.Config.Spec.of_string
      "# a comment\nstrategy shared-nothing\nmpl 4\ngroups auto 2\n"
  in
  let cfg = Reactdb.Config.Spec.build spec [ "a"; "b"; "c" ] in
  check_int "containers" 2 (Reactdb.Config.n_containers cfg);
  check_int "mpl" 4 cfg.Reactdb.Config.mpl;
  check_int "a in container 0" 0 (cfg.Reactdb.Config.placement "a");
  check_int "b in container 1" 1 (cfg.Reactdb.Config.placement "b");
  check_int "c in container 0" 0 (cfg.Reactdb.Config.placement "c");
  let spec2 =
    Reactdb.Config.Spec.of_string
      "strategy shared-everything\nexecutors 3\naffinity off\n"
  in
  let cfg2 = Reactdb.Config.Spec.build spec2 [ "a" ] in
  check_int "one container" 1 (Reactdb.Config.n_containers cfg2);
  check_int "three executors" 3 (Reactdb.Config.total_executors cfg2);
  check_bool "round robin" true
    (cfg2.Reactdb.Config.router = Reactdb.Config.Round_robin)

(* ------------------------------------------------------------------ *)
(* Deadlines on the simulator backend: virtual-time budget, checked at
   phase boundaries; expiry aborts with the Timeout cause, rolls back
   cleanly and releases locks for subsequent transactions. *)

let test_deadline_timeout_sim () =
  with_db ~n:2 (sn_config 2) (fun db ->
      let out =
        DB.exec_txn ~deadline_us:0.001 db ~reactor:"acct0" ~proc:"transfer_to"
          ~args:[ Value.Str "acct1"; Value.Float 25. ]
      in
      check_bool "expired root aborts" true (Result.is_error out.DB.result);
      check_bool "cause is Timeout" true
        (match out.DB.abort_cause with
        | Some c -> c.Obs.Abort.kind = Obs.Abort.Timeout
        | None -> false);
      check_int "timeout bucket counted" 1
        (match List.assoc_opt "timeout" (DB.aborts_by_reason db) with
        | Some n -> n
        | None -> 0);
      checkf "source untouched" 100. (balance db "acct0");
      checkf "destination untouched" 100. (balance db "acct1");
      (* locks released: the same 2PC transfer commits without a deadline *)
      let ok =
        DB.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
          ~args:[ Value.Str "acct1"; Value.Float 25. ]
      in
      check_bool "subsequent transfer commits" true (Result.is_ok ok.DB.result);
      checkf "then debited" 75. (balance db "acct0");
      checkf "then credited" 125. (balance db "acct1"))

(* Collect barrier: a fan-out of three credits joined by ctx.collect
   commits with the same effects as the sequential formulations, and a
   failing credit surfaces only after every sibling completed. *)
let test_collect_fan_out_commits () =
  with_db (sn_config 4) (fun db ->
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_collect"
          ~args:[ Value.Float 10.; Value.Str "acct1"; Value.Str "acct2";
                  Value.Str "acct3" ]
      in
      ignore (ok_or_fail out);
      check_int "touched all four containers" 4 out.DB.containers_touched;
      checkf "source debited" 70. (balance db "acct0");
      List.iter
        (fun a -> checkf ("credited " ^ a) 110. (balance db a))
        [ "acct1"; "acct2"; "acct3" ])

let test_collect_sub_abort_aborts_root () =
  with_db (sn_config 4) (fun db ->
      (* negative amount: every remote credit hits insufficient funds; the
         collect barrier re-raises the first error only after all three
         siblings completed, and the root rolls back everywhere *)
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_collect"
          ~args:[ Value.Float (-200.); Value.Str "acct1"; Value.Str "acct2";
                  Value.Str "acct3" ]
      in
      (match out.DB.result with
      | Error m -> check_bool "credit abort surfaced" true
          (m = "insufficient funds")
      | Ok _ -> Alcotest.fail "expected abort");
      List.iter
        (fun a -> checkf ("untouched " ^ a) 100. (balance db a))
        [ "acct0"; "acct1"; "acct2"; "acct3" ])

(* Satellite: a root that times out with a fan-out of three futures
   outstanding must unwind through the ordinary release path on every
   callee. Virtual time is deterministic, so sweeping deadlines across the
   transaction's measured lifetime is exact: every aborting fraction must
   abort with Timeout and leave no state behind, at least one must land
   inside the collect window (message names the collect boundary), and a
   fraction may legally commit only when the deadline falls past the last
   2PC prepare check — in which case its effects must be exactly those of
   an untimed run. *)
let test_deadline_mid_collect_sim () =
  let args =
    [ Value.Float 10.; Value.Str "acct1"; Value.Str "acct2"; Value.Str "acct3" ]
  in
  let lat =
    with_db (sn_config 4) (fun db ->
        let out =
          DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_collect" ~args
        in
        ignore (ok_or_fail out);
        out.DB.latency)
  in
  with_db (sn_config 4) (fun db ->
      let hit_collect = ref false in
      let expected = Array.make 4 100. in
      let apply_commit () =
        expected.(0) <- expected.(0) -. 30.;
        for i = 1 to 3 do
          expected.(i) <- expected.(i) +. 10.
        done
      in
      let check_balances what =
        Array.iteri
          (fun i e ->
            let a = Printf.sprintf "acct%d" i in
            checkf (what ^ " " ^ a) e (balance db a))
          expected
      in
      List.iter
        (fun frac ->
          let out =
            DB.exec_txn ~deadline_us:(frac *. lat) db ~reactor:"acct0"
              ~proc:"multi_transfer_collect" ~args
          in
          (match out.DB.result with
          | Error m ->
            if Strutil.contains m ~sub:"collect boundary" then
              hit_collect := true;
            check_bool "cause is Timeout" true
              (match out.DB.abort_cause with
              | Some c -> c.Obs.Abort.kind = Obs.Abort.Timeout
              | None -> false)
          | Ok _ ->
            (* legal only past the last deadline check (post-prepare) *)
            check_bool "early deadline must not commit" true (frac >= 0.5);
            apply_commit ());
          check_balances "state after run")
        [ 0.2; 0.35; 0.5; 0.65; 0.8; 0.9 ];
      check_bool "some deadline expired mid-collect" true !hit_collect;
      (* every callee released its locks: the same fan-out then commits *)
      let ok =
        DB.exec_txn db ~reactor:"acct0" ~proc:"multi_transfer_collect" ~args
      in
      check_bool "subsequent fan-out commits" true (Result.is_ok ok.DB.result);
      apply_commit ();
      check_balances "final state")

let test_generous_deadline_commits () =
  with_db ~n:2 (sn_config 2) (fun db ->
      let out =
        DB.exec_txn ~deadline_us:1e9 db ~reactor:"acct0" ~proc:"transfer_to"
          ~args:[ Value.Str "acct1"; Value.Float 10. ]
      in
      check_bool "generous deadline commits" true (Result.is_ok out.DB.result);
      checkf "debited" 90. (balance db "acct0"))

(* One abort taxonomy: every aborted attempt lands in exactly one bucket,
   so the buckets sum to the abort count — here a user abort, a dangerous
   call, an expired deadline, an admission shed and a fenced refusal (an
   internal abort). *)
let test_abort_buckets_sum_sim () =
  with_db (sn_config 4) (fun db ->
      let kind ?deadline_us proc args =
        match
          (DB.exec_txn ?deadline_us db ~reactor:"acct0" ~proc ~args).DB.abort_cause
        with
        | Some c -> c.Obs.Abort.kind
        | None -> Alcotest.failf "%s committed" proc
      in
      let transfer = [ Value.Str "acct1"; Value.Float 1. ] in
      check_bool "user" true (kind "deposit" [ Value.Float (-1000.) ] = Obs.Abort.User);
      check_bool "dangerous" true
        (kind "same_twice" [ Value.Str "acct2" ] = Obs.Abort.Dangerous);
      check_bool "timeout" true
        (kind ~deadline_us:0.001 "transfer_to" transfer = Obs.Abort.Timeout);
      DB.set_mailbox_cap db (Some 0);
      check_bool "overloaded" true (kind "transfer_to" transfer = Obs.Abort.Overloaded);
      DB.set_mailbox_cap db None;
      DB.fence db;
      check_bool "fenced is internal" true
        (kind "transfer_to" transfer = Obs.Abort.Internal);
      let reasons = DB.aborts_by_reason db in
      List.iter
        (fun b -> check_int (b ^ " bucket") 1 (List.assoc b reasons))
        [ "user"; "dangerous-structure"; "timeout"; "overloaded"; "internal" ];
      check_int "buckets sum to n_aborted" (DB.n_aborted db)
        (List.fold_left (fun a (_, n) -> a + n) 0 reasons))

(* A read-only snapshot root whose body has returned is final: its body
   outlasting the deadline does not abort it at commit entry. *)
let test_readonly_outlasts_deadline_sim () =
  with_db ~n:2 (sn_config 2) (fun db ->
      let out =
        DB.exec_txn ~deadline_us:50. db ~reactor:"acct0" ~proc:"slow_balance"
          ~args:[ Value.Float 1000. ]
      in
      check_bool "body outlasted the deadline" true (out.DB.latency > 1000.);
      checkf "read-only root commits" 100. (Value.to_number (ok_or_fail out));
      check_bool "ran on a snapshot" true (out.DB.snapshot <> None);
      check_int "no abort" 0 (DB.n_aborted db))

(* A programming error escapes the engine, as the SQL shell relies on, but
   leaves the executor usable: a later root on the same reactor commits
   instead of waiting forever for the core. *)
let test_fatal_error_frees_core () =
  let eng = Sim.Engine.create () in
  let db = DB.create eng (bank_decl 2) (sn_config 2) Reactdb.Profile.default in
  let run f =
    let out = ref None in
    Sim.Engine.spawn eng (fun () -> out := Some (f ()));
    (match Sim.Engine.run eng with
    | _ -> ()
    | exception Failure m -> Alcotest.(check string) "escaped" "boom" m);
    !out
  in
  check_bool "boom never returns" true
    (run (fun () -> DB.exec_txn db ~reactor:"acct0" ~proc:"boom" ~args:[]) = None);
  match
    run (fun () ->
        DB.exec_txn db ~reactor:"acct0" ~proc:"deposit" ~args:[ Value.Float 5. ])
  with
  | Some out -> checkf "next root commits" 105. (Value.to_number (ok_or_fail out))
  | None -> Alcotest.fail "next root never completed"

(* Cross-container write skew (DESIGN.md §5.2): [acct0.proc acct1] and
   [acct1.proc acct0] start together on two containers, the second one
   [round] tenths of a µs later, and must not both commit having read the
   balances from before the pair. [skew] has each remote participant write
   what it reads (the coordinator prepares last); [skew_remote_read] has it
   only read. The recorded history must certify as well. *)
let test_write_skew_sim proc () =
  let eng = Sim.Engine.create () in
  let db = DB.create eng (bank_decl 2) (sn_config 2) Reactdb.Profile.default in
  DB.enable_history db;
  let skews = ref 0 in
  for round = 0 to 39 do
    let before = in_sim db (fun db -> (balance db "acct0", balance db "acct1")) in
    let out = [| Error "never ran"; Error "never ran" |] in
    List.iteri
      (fun i (self, other) ->
        Sim.Engine.spawn eng (fun () ->
            Sim.Engine.delay (0.1 *. float_of_int (i * round));
            out.(i) <-
              (DB.exec_txn db ~reactor:self ~proc ~args:[ Value.Str other ]).DB.result))
      [ ("acct0", "acct1"); ("acct1", "acct0") ];
    ignore (Sim.Engine.run eng);
    if skewed ~proc ~before out then incr skews
  done;
  check_int "rounds where both read the other's old balance" 0 !skews;
  audit "history serializable" (Audit.certify (DB.history db))

(* WAL device failure surfaces as a typed Internal abort through the commit
   path, and fails the log for the rest of the run: the failed root's
   record never reaches the file, a later writer is refused before it
   installs, and a read-only root still commits. *)
let test_wal_failure_typed_abort () =
  let path = Filename.temp_file "reactdb_walfail" ".log" in
  let log = Wal.to_file path in
  with_db ~n:2 (sn_config 2) (fun db ->
      DB.attach_wal db log;
      let ok =
        DB.exec_txn db ~reactor:"acct0" ~proc:"deposit"
          ~args:[ Value.Float 5. ]
      in
      check_bool "append works while device is up" true
        (Result.is_ok ok.DB.result);
      (* revoke the device: the next commit's write raises Wal.Io_error,
         which the commit path must turn into a typed Internal abort *)
      Wal.close log;
      let out =
        DB.exec_txn db ~reactor:"acct0" ~proc:"deposit"
          ~args:[ Value.Float 5. ]
      in
      check_bool "wal failure aborts the writer" true
        (Result.is_error out.DB.result);
      check_bool "abort message names the wal" true
        (match out.DB.result with
        | Error m -> Strutil.contains m ~sub:"wal"
        | Ok _ -> false);
      check_bool "cause is Internal" true
        (match out.DB.abort_cause with
        | Some c -> c.Obs.Abort.kind = Obs.Abort.Internal
        | None -> false);
      checkf "failed write rolled back" 100. (balance db "acct1");
      check_bool "the failure is recorded" true
        (match DB.wal_error db with Some m -> Strutil.contains m ~sub:"wal" | None -> false);
      (match Wal.read_file_tolerant path with
      | [ e ], Wal.Clean -> check_int "only the acknowledged record" 1 e.Wal.le_txn
      | es, _ -> Alcotest.failf "log holds %d records" (List.length es));
      let later =
        DB.exec_txn db ~reactor:"acct1" ~proc:"deposit" ~args:[ Value.Float 5. ]
      in
      check_bool "a later writer is refused too" true
        ((match later.DB.result with Error m -> Strutil.contains m ~sub:"wal" | Ok _ -> false)
        && match later.DB.abort_cause with
           | Some c -> c.Obs.Abort.kind = Obs.Abort.Internal
           | None -> false);
      (* read-only transactions log nothing and still commit; the later
         writer was refused before its install *)
      checkf "a read-only root still commits" 100. (balance db "acct1"));
  Sys.remove path

(* The simulator's side of the failure rule, on a device that fails every
   flush: no writing root is acknowledged, not even the first, the durable
   bound is never published, and the run keeps going. Only the first
   deposit, queued in the batch that failed, is installed: every later one
   is refused before its install. *)
let test_failed_flush_sim () =
  let log = Wal.to_file "/dev/full" in
  with_db ~n:2 (sn_config 2) (fun db ->
      DB.attach_wal db log;
      let eng = DB.engine db in
      let acked = ref 0 and refused = ref 0 in
      for i = 0 to 19 do
        let out =
          DB.exec_txn db ~reactor:(Printf.sprintf "acct%d" (i mod 2)) ~proc:"deposit"
            ~args:[ Value.Float 1. ]
        in
        (match out.DB.result with
        | Ok _ -> incr acked
        | Error m -> if Strutil.contains m ~sub:"wal" then incr refused);
        Sim.Engine.delay 10_000.
      done;
      check_int "no writing root comes back Ok" 0 !acked;
      check_int "every writer refused naming the wal" 20 !refused;
      check_bool "the run spans several epochs" true (Sim.Engine.now eng > 160_000.);
      check_int "no durable bound published" 0 (DB.durable_epoch db);
      check_bool "the failure is recorded" true (DB.wal_error db <> None);
      checkf "a read-only root still commits" 101. (balance db "acct0");
      let balances () = List.map (balance db) [ "acct0"; "acct1" ] in
      let before = balances () in
      let deposit =
        DB.exec_txn db ~reactor:"acct1" ~proc:"deposit" ~args:[ Value.Float 1. ]
      in
      check_bool "a deposit after the failure is refused" true
        (match deposit.DB.result with Error m -> Strutil.contains m ~sub:"wal" | Ok _ -> false);
      check_bool "and leaves every balance unchanged" true (balances () = before));
  try Wal.close log with Sys_error _ -> ()

(* Bootstrap and the engine-free image resolve each loader's catalog by
   name through one index. With thousands of reactors every loader must
   still reach its own catalog, and unknown names keep their errors. *)
let test_bootstrap_catalog_lookup () =
  let n = 3000 in
  let nms = names n in
  let loader i catalog =
    ignore
      (Storage.Table.insert
         (Storage.Catalog.table catalog "acct")
         (Storage.Record.fresh ~absent:false
            [| Value.Int 0; Value.Float (float_of_int i) |]))
  in
  let decl =
    Reactor.decl ~types:[ account_type ]
      ~reactors:(List.map (fun nm -> (nm, "Account")) nms)
      ~loaders:(List.mapi (fun i nm -> (nm, loader i)) nms)
      ()
  in
  let balance catalog =
    match
      Storage.Table.find (Storage.Catalog.table catalog "acct") [| Value.Int 0 |]
    with
    | Some r -> Value.to_float r.Storage.Record.data.(1)
    | None -> nan
  in
  let own cats =
    List.for_all2 (fun i (_, c) -> balance c = float_of_int i) (List.init n Fun.id) cats
  in
  let entries, _ =
    Reactdb.Bootstrap.build decl
      (Reactdb.Config.shared_everything ~executors:1 ~affinity:false nms)
  in
  check_bool "bootstrap: each loader got its own catalog" true
    (own
       (List.map
          (fun e -> (e.Reactdb.Bootstrap.bs_name, e.Reactdb.Bootstrap.bs_catalog))
          entries));
  let cats = Faultsim.fresh_catalogs decl in
  check_bool "fresh_catalogs: each loader got its own catalog" true (own cats);
  let cat = Faultsim.catalog_of cats in
  check_bool "catalog_of finds the last reactor" true
    (balance (cat "acct2999") = 2999.);
  Alcotest.check_raises "catalog_of unknown reactor"
    (Invalid_argument "Faultsim: unknown reactor \"nope\"") (fun () ->
      ignore (cat "nope"));
  Alcotest.check_raises "loader for an unknown reactor"
    (Invalid_argument "Reactor: unknown reactor \"nope\"") (fun () ->
      ignore
        (Reactdb.Bootstrap.build
           { decl with Reactor.loaders = [ ("nope", loader 0) ] }
           (Reactdb.Config.shared_everything ~executors:1 ~affinity:false nms)))

let suite =
  ( "reactdb",
    [
      Alcotest.test_case "single-reactor txn" `Quick test_single_reactor_txn;
      Alcotest.test_case "bootstrap catalog lookup" `Quick
        test_bootstrap_catalog_lookup;
      Alcotest.test_case "user abort rolls back" `Quick test_user_abort_rolls_back;
      Alcotest.test_case "cross-reactor sync (SE)" `Quick
        test_cross_reactor_sync_shared_everything;
      Alcotest.test_case "cross-container async (SN)" `Quick
        test_cross_container_async;
      Alcotest.test_case "sub abort aborts root" `Quick test_sub_abort_aborts_root;
      Alcotest.test_case "remote sub abort aborts root" `Quick
        test_remote_sub_abort_aborts_root;
      Alcotest.test_case "dangerous structure detected" `Quick
        test_dangerous_structure_detected;
      Alcotest.test_case "remote-only root" `Quick test_remote_only_root;
      Alcotest.test_case "sequential same-reactor calls ok" `Quick
        test_sequential_calls_same_reactor_ok;
      Alcotest.test_case "self-call inlined" `Quick test_self_call_inlined;
      Alcotest.test_case "conservation SE-no-affinity" `Quick
        test_conservation_shared_everything;
      Alcotest.test_case "conservation SN" `Quick test_conservation_shared_nothing;
      Alcotest.test_case "conservation SE-affinity" `Quick
        test_conservation_affinity;
      Alcotest.test_case "breakdown sums to latency" `Quick
        test_breakdown_sums_to_latency;
      Alcotest.test_case "async beats sync" `Quick test_async_faster_than_sync;
      Alcotest.test_case "noop overhead ~F.3" `Quick test_noop_overhead;
      Alcotest.test_case "occ detects conflicts" `Quick test_occ_detects_conflicts;
      Alcotest.test_case "utilizations & reset" `Quick test_utilizations_and_reset;
      Alcotest.test_case "cluster deployment" `Quick test_cluster_deployment;
      Alcotest.test_case "config spec parsing" `Quick test_config_spec_parsing;
      Alcotest.test_case "deadline timeout (sim)" `Quick
        test_deadline_timeout_sim;
      Alcotest.test_case "collect fan-out commits" `Quick
        test_collect_fan_out_commits;
      Alcotest.test_case "collect sub abort aborts root" `Quick
        test_collect_sub_abort_aborts_root;
      Alcotest.test_case "deadline mid-collect (sim)" `Quick
        test_deadline_mid_collect_sim;
      Alcotest.test_case "generous deadline commits" `Quick
        test_generous_deadline_commits;
      Alcotest.test_case "wal failure is a typed abort" `Quick
        test_wal_failure_typed_abort;
      Alcotest.test_case "failed flush publishes no durable bound (sim)" `Quick
        test_failed_flush_sim;
      Alcotest.test_case "abort buckets sum (sim)" `Quick
        test_abort_buckets_sum_sim;
      Alcotest.test_case "read-only outlasts deadline (sim)" `Quick
        test_readonly_outlasts_deadline_sim;
      Alcotest.test_case "fatal error frees the core" `Quick
        test_fatal_error_frees_core;
      Alcotest.test_case "write skew across containers (sim)" `Quick
        (test_write_skew_sim "skew");
      Alcotest.test_case "write skew across containers, remote read (sim)" `Quick
        (test_write_skew_sim "skew_remote_read");
    ] )
