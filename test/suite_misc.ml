(* Edge-case tests for the reactor declarations, deployment configs,
   profiles and harness plumbing. *)

open Util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let nop _ctx _args = Value.Null

let sch =
  Storage.Schema.make ~name:"t" ~columns:[ ("k", Value.TInt) ] ~key:[ "k" ]

let ty ?indexes name procs =
  Reactor.rtype ~name ~schemas:[ sch ] ?indexes
    ~procs:(List.map (fun p -> (p, nop)) procs)
    ()

(* --- Reactor.validate --- *)

let invalidates f = try f (); false with Invalid_argument _ -> true

let test_validate_duplicates () =
  check_bool "duplicate type" true
    (invalidates (fun () ->
         Reactor.validate
           (Reactor.decl ~types:[ ty "A" []; ty "A" [] ] ~reactors:[] ())));
  check_bool "duplicate reactor" true
    (invalidates (fun () ->
         Reactor.validate
           (Reactor.decl ~types:[ ty "A" [] ]
              ~reactors:[ ("x", "A"); ("x", "A") ]
              ())));
  check_bool "duplicate proc" true
    (invalidates (fun () ->
         Reactor.validate
           (Reactor.decl ~types:[ ty "A" [ "p"; "p" ] ] ~reactors:[] ())))

let test_validate_references () =
  check_bool "unknown reactor type" true
    (invalidates (fun () ->
         Reactor.validate
           (Reactor.decl ~types:[ ty "A" [] ] ~reactors:[ ("x", "B") ] ())));
  check_bool "loader on unknown reactor" true
    (invalidates (fun () ->
         Reactor.validate
           (Reactor.decl ~types:[ ty "A" [] ] ~reactors:[ ("x", "A") ]
              ~loaders:[ ("y", fun _ -> ()) ]
              ())));
  check_bool "index on unknown table" true
    (invalidates (fun () ->
         Reactor.validate
           (Reactor.decl
              ~types:[ ty ~indexes:[ ("zzz", [ ("i", [ "k" ]) ]) ] "A" [] ]
              ~reactors:[] ())))

let test_find_helpers () =
  let d = Reactor.decl ~types:[ ty "A" [ "p" ] ] ~reactors:[ ("x", "A") ] () in
  check_bool "find_type" true ((Reactor.find_type d "A").Reactor.rt_name = "A");
  check_bool "type_of_reactor" true
    ((Reactor.type_of_reactor d "x").Reactor.rt_name = "A");
  check_bool "unknown type raises" true
    (invalidates (fun () -> ignore (Reactor.find_type d "Z")));
  check_bool "unknown proc raises" true
    (invalidates (fun () ->
         let (_ : Reactor.proc) = Reactor.find_proc (ty "A" []) "q" in
         ()))

let test_arg_helpers () =
  let args = [ Value.Int 3; Value.Str "s"; Value.Float 2.5 ] in
  check_int "arg_int" 3 (Reactor.arg_int args 0);
  check_bool "arg_str" true (Reactor.arg_str args 1 = "s");
  check_bool "arg_float widens int" true (Reactor.arg_float args 0 = 3.);
  check_bool "missing arg raises" true
    (invalidates (fun () -> ignore (Reactor.arg args 5)))

(* --- Config --- *)

let test_config_errors () =
  check_bool "zero executors" true
    (invalidates (fun () ->
         ignore (Reactdb.Config.shared_everything ~executors:0 ~affinity:true [])));
  check_bool "empty groups" true
    (invalidates (fun () -> ignore (Reactdb.Config.shared_nothing [])));
  check_bool "unplaced reactor" true
    (invalidates (fun () ->
         let cfg = Reactdb.Config.shared_nothing [ [ "a" ] ] in
         ignore (cfg.Reactdb.Config.placement "b")));
  check_bool "bad spec line" true
    (invalidates (fun () ->
         ignore (Reactdb.Config.Spec.of_string "strategy bogus thing\n")))

let test_config_spec_comments_and_explicit_groups () =
  let spec =
    Reactdb.Config.Spec.of_string
      "# leading comment\nstrategy shared-nothing # trailing\ngroups a,b;c\n"
  in
  let cfg = Reactdb.Config.Spec.build spec [ "a"; "b"; "c" ] in
  check_int "two containers" 2 (Reactdb.Config.n_containers cfg);
  check_int "a" 0 (cfg.Reactdb.Config.placement "a");
  check_int "c" 1 (cfg.Reactdb.Config.placement "c")

(* --- Profile --- *)

let test_profile_pp_and_free () =
  let s = Fmt.str "%a" Reactdb.Profile.pp Reactdb.Profile.default in
  check_bool "pp renders" true (String.length s > 20);
  (* With the free profile, virtual time never advances. *)
  Testlib.with_db ~n:2 ~profile:Reactdb.Profile.free (Testlib.se_config 1 2)
    (fun db ->
      let out =
        Reactdb.Database.exec_txn db ~reactor:"acct0" ~proc:"deposit"
          ~args:[ Value.Float 1. ]
      in
      Alcotest.(check (float 1e-9)) "zero latency" 0. out.Reactdb.Database.latency)

(* --- Harness --- *)

let test_measure_txns_warmup_excluded () =
  let db = Harness.build (Testlib.bank_decl 1) (Testlib.se_config 1 1) in
  let count = ref 0 in
  let outs =
    Harness.measure_txns db ~warmup:5 ~n:7 (fun _rng ->
        incr count;
        Workloads.Wl.request "acct0" "get_balance" [])
  in
  check_int "generator called warmup+n times" 12 !count;
  check_int "only measured outcomes returned" 7 (List.length outs)

let test_run_load_counts () =
  let db = Harness.build (Testlib.bank_decl 2) (Testlib.se_config 1 2) in
  let r =
    Harness.run (Harness.sim db)
      (Harness.spec ~epochs:3 ~epoch_us:1_000. ~warmup_epochs:1 ~n_workers:2
         (fun w _rng ->
           Workloads.Wl.request (Printf.sprintf "acct%d" w) "deposit"
             [ Value.Float 1. ]))
  in
  check_bool "throughput positive" true (r.Harness.throughput > 0.);
  check_bool "no aborts" true (r.Harness.aborted = 0);
  check_bool "latency sane" true
    (r.Harness.avg_latency > 0. && r.Harness.avg_latency < 1000.);
  check_int "two executors... one" 1 (Array.length r.Harness.utilizations)

(* One seed, one simulated run: two runs return equal results. *)
let test_run_deterministic () =
  let n = 16 in
  let run () =
    let db =
      Harness.build
        (Workloads.Smallbank.decl ~customers:n ())
        Reactdb.Config.(shared_nothing (chunk 2 (Workloads.Smallbank.customers n)))
    in
    Harness.run (Harness.sim db)
      (Harness.spec ~epochs:3 ~epoch_us:2_000. ~warmup_epochs:1 ~seed:9
         ~max_retries:2 ~n_workers:4 (fun _ rng ->
           Workloads.Smallbank.gen_standard rng ~n))
  in
  let a = run () and b = run () in
  check_bool "committed work" true (a.Harness.committed > 0);
  check_bool "equal results" true (compare a b = 0)

(* --- Values --- *)

let test_value_hash_consistent_with_equal () =
  let vals =
    [ Value.Null; Value.Bool true; Value.Int 42; Value.Float 1.5;
      Value.Str "x" ]
  in
  List.iter
    (fun v -> check_bool "hash self-consistent" true (Value.hash v = Value.hash v))
    vals;
  check_bool "distinct hashes mostly" true
    (List.length (List.sort_uniq compare (List.map Value.hash vals)) >= 4)

let suite =
  ( "misc",
    [
      Alcotest.test_case "decl duplicate detection" `Quick test_validate_duplicates;
      Alcotest.test_case "decl reference checks" `Quick test_validate_references;
      Alcotest.test_case "find helpers" `Quick test_find_helpers;
      Alcotest.test_case "arg helpers" `Quick test_arg_helpers;
      Alcotest.test_case "config errors" `Quick test_config_errors;
      Alcotest.test_case "config spec groups" `Quick
        test_config_spec_comments_and_explicit_groups;
      Alcotest.test_case "profiles" `Quick test_profile_pp_and_free;
      Alcotest.test_case "measure_txns warmup" `Quick
        test_measure_txns_warmup_excluded;
      Alcotest.test_case "run_load counters" `Quick test_run_load_counts;
      Alcotest.test_case "run deterministic per seed" `Quick
        test_run_deterministic;
      Alcotest.test_case "value hash" `Quick test_value_hash_consistent_with_equal;
    ] )
