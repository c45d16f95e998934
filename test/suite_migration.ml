(* Live reconfiguration (DESIGN.md §11): online reactor migration on both
   backends, WAL placement records and their recovery, and the autoscaler
   policy. The simulator tests double as the oracle for the virtualization
   claim — placement changes must never change transaction results. *)

open Util
module DB = Reactdb.Database
module RDb = Runtime.Db
module AS = Runtime.Autoscaler
module SB = Workloads.Smallbank

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

(* Physical sum of account balances over the Testlib bank. *)
let bank_total cats =
  List.fold_left
    (fun acc (_, _, rows) ->
      List.fold_left (fun a row -> a +. Value.to_float row.(1)) acc rows)
    0. (Faultsim.snapshot cats)

(* ------------------------------------------------------------------ *)
(* WAL Migrate record: framed encoding round-trip; replay routes the move
   to [on_move] and counts only data writes. *)

let test_wal_migrate_roundtrip () =
  let move = Wal.Migrate { reactor = "acct0"; dst = 3 } in
  let put =
    Wal.Put
      { reactor = "acct0"; table = "acct";
        row = [| Value.Int 0; Value.Float 77. |] }
  in
  let e = { Wal.le_txn = -1; le_tid = 42; le_writes = [ move; put ] } in
  (match Wal.decode_framed (Wal.encode_framed e) with
  | Ok e' -> check_bool "framed round-trip" true (e' = e)
  | Error m -> Alcotest.fail ("decode_framed: " ^ m));
  let cats = Faultsim.fresh_catalogs (Testlib.bank_decl 1) in
  let moves = ref [] in
  let applied =
    Wal.replay
      ~on_move:(fun ~reactor ~dst -> moves := (reactor, dst) :: !moves)
      [ e ]
      ~catalog_of:(Faultsim.catalog_of cats)
  in
  check_int "only the data write is applied" 1 applied;
  check_bool "move surfaced to on_move" true (!moves = [ ("acct0", 3) ]);
  check_float "put applied" 77. (bank_total cats);
  (* without on_move the placement record is silently skipped *)
  let cats2 = Faultsim.fresh_catalogs (Testlib.bank_decl 1) in
  check_int "default on_move ignores placement" 1
    (Wal.replay [ e ] ~catalog_of:(Faultsim.catalog_of cats2))

(* ------------------------------------------------------------------ *)
(* Faultsim placement recovery: Migrate records fold in TID order (not
   append order), last move per reactor wins, and placement records are
   excluded from the replay count. *)

let test_placement_recovery_synthetic () =
  let decl = Testlib.bank_decl 2 in
  let path = Filename.temp_file "mig_rec" ".wal" in
  let log = Wal.to_file path in
  (* appended out of TID order on purpose: the TID-largest move (epoch 2)
     is written first and must still win the fold *)
  Wal.append log
    { Wal.le_txn = -2; le_tid = Storage.Record.tid_make ~epoch:2 ~seq:5;
      le_writes = [ Wal.Migrate { reactor = "acct0"; dst = 1 } ] };
  Wal.append log
    { Wal.le_txn = 1; le_tid = Storage.Record.tid_make ~epoch:1 ~seq:3;
      le_writes =
        [ Wal.Put
            { reactor = "acct0"; table = "acct";
              row = [| Value.Int 0; Value.Float 55. |] } ] };
  Wal.append log
    { Wal.le_txn = -1; le_tid = Storage.Record.tid_make ~epoch:1 ~seq:9;
      le_writes = [ Wal.Migrate { reactor = "acct0"; dst = 0 } ] };
  Wal.flush log;
  Wal.close log;
  let rc = Faultsim.recover ~log:path decl in
  Sys.remove path;
  check_int "one migrated reactor" 1 (List.length rc.Faultsim.rc_placements);
  check_bool "last move in TID order wins" true
    (List.assoc_opt "acct0" rc.Faultsim.rc_placements = Some 1);
  check_int "replay excludes placement records" 1 rc.Faultsim.rc_replayed;
  let acct0_rows =
    List.filter_map
      (fun (r, t, rows) ->
        if r = "acct0" && t = "acct" then Some rows else None)
      (Faultsim.snapshot rc.Faultsim.rc_catalogs)
  in
  (match acct0_rows with
  | [ [ row ] ] -> check_float "data write recovered" 55. (Value.to_float row.(1))
  | _ -> Alcotest.fail "acct0 row missing after recovery")

(* ------------------------------------------------------------------ *)
(* Virtualization claim, simulator: a serial workload interleaved with
   migrations produces byte-identical results and physical state to the
   same workload on a static deployment. *)

let serial_reqs =
  List.concat
    (List.init 8 (fun i ->
         let src = i mod 4 and dst = (i + 1) mod 4 in
         [ ( Printf.sprintf "acct%d" src,
             "transfer_to",
             [ Value.Str (Printf.sprintf "acct%d" dst);
               Value.Float (2. +. float_of_int i) ] );
           (Printf.sprintf "acct%d" dst, "deposit", [ Value.Float 1. ]) ]))

let run_serial_sim plan =
  Testlib.with_db ~n:4 (Testlib.sn_config 4) (fun db ->
      let results =
        List.mapi
          (fun i (r, p, a) ->
            (match List.assoc_opt i plan with
            | Some (mr, md) -> ignore (DB.migrate db ~reactor:mr ~dst:md)
            | None -> ());
            (DB.exec_txn db ~reactor:r ~proc:p ~args:a).DB.result)
          serial_reqs
      in
      let st = Faultsim.snapshot (DB.catalogs db) in
      (results, st, DB.n_migrations db, DB.placements db))

let test_sim_byte_identity () =
  let plan = [ (3, ("acct0", 2)); (7, ("acct2", 0)); (11, ("acct0", 1)) ] in
  let r_static, st_static, m_static, _ = run_serial_sim [] in
  let r_mig, st_mig, m_mig, placements = run_serial_sim plan in
  check_int "static run migrated nothing" 0 m_static;
  check_int "three migrations applied" 3 m_mig;
  check_bool "acct0 re-homed" true (List.assoc "acct0" placements = 1);
  check_bool "acct2 re-homed" true (List.assoc "acct2" placements = 0);
  List.iter2
    (fun a b ->
      match (a, b) with
      | Ok va, Ok vb ->
        check_bool "same committed value" true (Value.equal va vb)
      | Error ma, Error mb -> Alcotest.(check string) "same abort" ma mb
      | _ -> Alcotest.fail "commit/abort divergence across placements")
    r_static r_mig;
  match Faultsim.diff st_static st_mig with
  | None -> ()
  | Some d -> Alcotest.fail ("state diverged from static placement: " ^ d)

(* ------------------------------------------------------------------ *)
(* Simulator under concurrent load: migrations interleave with a conflict
   workload; every attempt is accounted, money is conserved, the stub
   parks and replays without losing a root. *)

let test_sim_migration_under_load () =
  let db = Harness.build (Testlib.bank_decl 4) (Testlib.sn_config 4) in
  let eng = DB.engine db in
  let plan = [ ("acct0", 1); ("acct2", 3); ("acct0", 0); ("acct1", 2) ] in
  let done_migs = ref 0 in
  Sim.Engine.spawn eng (fun () ->
      List.iter
        (fun (r, d) ->
          Sim.Engine.delay 800.;
          let p = DB.migrate db ~reactor:r ~dst:d in
          check_bool "pause non-negative" true (p >= 0.);
          incr done_migs)
        plan);
  Testlib.run_conflict_workload db ~workers:6 ~per_worker:25;
  check_int "all migrations completed" 4 !done_migs;
  check_int "n_migrations" 4 (DB.n_migrations db);
  check_int "placement epoch advanced" 4 (DB.placement_epoch db);
  check_int "every attempt accounted" 150
    (DB.n_committed db + DB.n_aborted db);
  let cats = DB.catalogs db in
  check_float "money conserved across migrations" 400. (bank_total cats);
  Testlib.audit "secondary indexes" (Audit.secondaries cats)

(* ------------------------------------------------------------------ *)
(* End-to-end placement durability, simulator: a run with WAL-logged
   migrations recovers to the same data image, and [rc_placements] resumes
   the pre-crash deployment on a freshly booted database. *)

let test_sim_wal_placement_e2e () =
  let decl = Testlib.bank_decl 4 in
  let cfg = Testlib.sn_config 4 in
  let db = Harness.build decl cfg in
  let path = Filename.temp_file "mig_e2e" ".wal" in
  let log = Wal.to_file path in
  DB.attach_wal db log;
  let eng = DB.engine db in
  Sim.Engine.spawn eng (fun () ->
      Sim.Engine.delay 300.;
      ignore (DB.migrate db ~reactor:"acct0" ~dst:2);
      Sim.Engine.delay 300.;
      ignore (DB.migrate db ~reactor:"acct3" ~dst:1);
      Sim.Engine.delay 300.;
      ignore (DB.migrate db ~reactor:"acct0" ~dst:3));
  Testlib.run_conflict_workload db ~workers:4 ~per_worker:20;
  Wal.flush log;
  Wal.close log;
  let rc = Faultsim.recover ~log:path decl in
  Sys.remove path;
  check_bool "acct0 placement recovered (last wins)" true
    (List.assoc_opt "acct0" rc.Faultsim.rc_placements = Some 3);
  check_bool "acct3 placement recovered" true
    (List.assoc_opt "acct3" rc.Faultsim.rc_placements = Some 1);
  check_bool "unmigrated reactors absent" true
    (List.assoc_opt "acct1" rc.Faultsim.rc_placements = None);
  (* recovered data image equals the live one *)
  let live = Faultsim.snapshot (DB.catalogs db) in
  (match Faultsim.diff live (Faultsim.snapshot rc.Faultsim.rc_catalogs) with
  | None -> ()
  | Some d -> Alcotest.fail ("recovered image diverged: " ^ d));
  (* a fresh boot resumes the recovered deployment *)
  let db2 = Harness.build decl cfg in
  DB.apply_placements db2 rc.Faultsim.rc_placements;
  check_int "resumed placement acct0" 3 (DB.container_of db2 "acct0");
  check_int "resumed placement acct3" 1 (DB.container_of db2 "acct3");
  check_int "config placement kept for acct1" 1 (DB.container_of db2 "acct1")

(* ------------------------------------------------------------------ *)
(* Runtime: basic migration semantics — placement accessors, traffic after
   the flip, no-op moves. *)

let balance db name =
  match RDb.exec_txn db ~reactor:name ~proc:"get_balance" ~args:[] with
  | { RDb.result = Ok (Value.Float f); _ } -> f
  | { RDb.result = Ok v; _ } -> Alcotest.fail ("unexpected " ^ Value.to_string v)
  | { RDb.result = Error m; _ } -> Alcotest.fail ("get_balance aborted: " ^ m)

let test_runtime_migrate_basic () =
  let db = RDb.start (Testlib.bank_decl 4) (Testlib.sn_config 4) in
  check_int "config placement" 0 (RDb.container_of db "acct0");
  let p = RDb.migrate db ~reactor:"acct0" ~dst:2 in
  check_bool "pause measured" true (p >= 0.);
  check_float "last pause published" p (RDb.migration_pause_last_us db);
  check_int "re-homed" 2 (RDb.container_of db "acct0");
  check_int "one migration" 1 (RDb.n_migrations db);
  check_int "placement epoch bumped" 1 (RDb.placement_epoch db);
  check_bool "placements reflect the move" true
    (List.assoc "acct0" (RDb.placements db) = 2);
  check_bool "destination hosts both reactors" true
    (List.sort String.compare (RDb.reactors_on db 2) = [ "acct0"; "acct2" ]);
  (* traffic lands on the new home; cross-container semantics intact *)
  let out =
    RDb.exec_txn db ~reactor:"acct0" ~proc:"transfer_to"
      ~args:[ Value.Str "acct1"; Value.Float 25. ]
  in
  check_bool "post-flip transfer commits" true (Result.is_ok out.RDb.result);
  check_float "debited" 75. (balance db "acct0");
  check_float "credited" 125. (balance db "acct1");
  (* moving to the current home is a no-op: no mark, no pause, no epoch *)
  check_float "no-op move" 0. (RDb.migrate db ~reactor:"acct0" ~dst:2);
  check_int "no-op not counted" 1 (RDb.n_migrations db);
  ignore (RDb.migrate db ~reactor:"acct0" ~dst:0);
  check_float "state survives the round trip" 75. (balance db "acct0");
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Runtime: migrating a hot Smallbank reactor mid-load. Zero lost or
   duplicated roots, money conserved, snapshot readers unbroken across the
   flip, and the WAL carries the placement history. *)

let test_runtime_migration_mid_load () =
  let n = 16 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 4 (SB.customers n))) in
  let log = Wal.in_memory () in
  let db = RDb.start ~wal:log decl cfg in
  let victim = SB.customer_name 0 in
  let total = 400 in
  let done_ = Atomic.make 0 in
  let rng = Rng.stream ~seed:19 0 in
  let reqs = List.init total (fun _ -> SB.gen_conserving rng ~n) in
  List.iteri
    (fun i r ->
      RDb.submit db ~reactor:r.Workloads.Wl.reactor ~proc:r.Workloads.Wl.proc
        ~args:r.Workloads.Wl.args
        ~k:(fun _ -> Atomic.incr done_);
      if i mod 100 = 50 then begin
        (* migrate the hot reactor while its traffic is in flight *)
        let dst = (RDb.container_of db victim + 1) mod 4 in
        let p = RDb.migrate db ~reactor:victim ~dst in
        check_bool "pause measured" true (p >= 0.);
        check_int "flip visible" dst (RDb.container_of db victim);
        (* a read-only root submitted right after the flip still runs as
           an abort-free snapshot read *)
        let ro = RDb.exec_txn db ~reactor:victim ~proc:"balance" ~args:[] in
        check_bool "snapshot reader survives the flip" true
          (Result.is_ok ro.RDb.result && ro.RDb.snapshot <> None)
      end)
    reqs;
  RDb.quiesce db;
  check_int "zero lost roots" total (Atomic.get done_);
  check_int "four migrations" 4 (RDb.n_migrations db);
  (* the 4 snapshot reads above are extra committed roots *)
  check_int "every attempt accounted" (total + 4)
    (RDb.n_committed db + RDb.n_aborted db);
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "money conserved across migrations"
    (Audit.money ~n (RDb.catalogs db));
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db));
  (* the redo log carries the placement history, in order *)
  let moves =
    List.concat_map
      (fun e ->
        List.filter_map
          (function
            | Wal.Migrate { reactor; dst } -> Some (reactor, dst)
            | Wal.Put _ | Wal.Del _ -> None)
          e.Wal.le_writes)
      (Wal.entries log)
  in
  check_int "placement records logged" 4 (List.length moves);
  (match List.rev moves with
  | (r, d) :: _ ->
    Alcotest.(check string) "last move is the victim" victim r;
    check_int "log's final placement matches" d (RDb.container_of db victim)
  | [] -> Alcotest.fail "no placement records")

(* ------------------------------------------------------------------ *)
(* Runtime: chaos Stall_domain while migrating — stalls during drain and
   handoff must not lose or duplicate a root. *)

let test_runtime_chaos_migration () =
  let chaos =
    Chaos.make ~seed:29 ~kind:Chaos.Stall_domain ~p:0.25 ~delay_us:1_000. ()
  in
  let db = RDb.start ~chaos (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  let nsub = 60 in
  let done_ = Atomic.make 0 in
  for i = 1 to nsub do
    RDb.submit db ~reactor:"acct0" ~proc:"deposit"
      ~args:[ Value.Float 1. ]
      ~k:(fun _ -> Atomic.incr done_);
    if i mod 20 = 10 then
      ignore
        (RDb.migrate db ~reactor:"acct0"
           ~dst:(1 - RDb.container_of db "acct0"))
  done;
  RDb.quiesce db;
  check_int "every submission completed" nsub (Atomic.get done_);
  check_int "migrations under chaos" 3 (RDb.n_migrations db);
  check_bool "injector fired" true (Chaos.injections chaos > 0);
  Testlib.audit "no fatals" (Audit.fatal db);
  let deposits = RDb.n_committed db in
  check_float "deposits applied exactly once each"
    (100. +. float_of_int deposits)
    (balance db "acct0");
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Autoscaler policy: pure decision function over synthetic signals. *)

let ld ?(q = 0.) busy =
  { RDb.ld_busy_frac = busy; ld_qdepth_ewma = q; ld_mailbox = 0; ld_sheds = 0 }

let test_autoscaler_decide () =
  let pol = AS.default in
  (* split: hottest splittable domain sheds its lexicographically first
     reactor to the coolest spare one *)
  let acts =
    AS.decide pol
      ~load:[| ld 0.9; ld 0.1 |]
      ~placements:[ ("a0", 0); ("a1", 0); ("a2", 1) ]
  in
  (match acts with
  | [ a ] ->
    Alcotest.(check string) "splits first reactor" "a0" a.AS.ac_reactor;
    check_int "from hot" 0 a.AS.ac_src;
    check_int "to cold" 1 a.AS.ac_dst;
    check_bool "split" true (a.AS.ac_why = `Split)
  | _ -> Alcotest.fail "expected exactly one split");
  (* a single-reactor domain is the unit of placement: nothing to split *)
  check_int "single reactor never split" 0
    (List.length
       (AS.decide pol
          ~load:[| ld 0.95; ld 0.05 |]
          ~placements:[ ("a0", 0); ("a1", 1) ]));
  (* no idle destination: hold rather than shuffle load between busy domains *)
  check_int "no spare capacity, no split" 0
    (List.length
       (AS.decide pol
          ~load:[| ld 0.9; ld 0.5 |]
          ~placements:[ ("a0", 0); ("a1", 0); ("a2", 1) ]));
  (* hysteresis band: neither hot nor all-cold, no action *)
  check_int "hysteresis holds" 0
    (List.length
       (AS.decide pol
          ~load:[| ld 0.5; ld 0.1 |]
          ~placements:[ ("a0", 0); ("a1", 0); ("a2", 1) ]));
  (* queue-depth trigger catches a burst the busy window hasn't integrated;
     it must also veto merging into the backlog *)
  let burst =
    AS.decide pol
      ~load:[| ld ~q:20. 0.1; ld 0.05 |]
      ~placements:[ ("a0", 0); ("a1", 0); ("a2", 1) ]
  in
  (match burst with
  | [ a ] -> check_bool "burst splits, not merges" true (a.AS.ac_why = `Split)
  | _ -> Alcotest.fail "expected a queue-triggered split");
  (* merge: everything cold — smallest non-empty domain donates to the
     largest, consolidating stragglers *)
  let merged =
    AS.decide pol
      ~load:[| ld 0.1; ld 0.05 |]
      ~placements:[ ("a0", 0); ("a1", 1); ("a2", 1) ]
  in
  (match merged with
  | [ a ] ->
    Alcotest.(check string) "straggler donates" "a0" a.AS.ac_reactor;
    check_int "into the largest" 1 a.AS.ac_dst;
    check_bool "merge" true (a.AS.ac_why = `Merge)
  | _ -> Alcotest.fail "expected exactly one merge");
  (* deterministic: equal inputs, equal decisions *)
  check_bool "deterministic" true
    (AS.decide pol
       ~load:[| ld 0.9; ld 0.1 |]
       ~placements:[ ("a0", 0); ("a1", 0); ("a2", 1) ]
    = acts)

(* Controller integration: an idle deployment consolidates through real
   migrations — one [step] applies one merge, and the background loop
   settles without further moves once consolidated. *)
let test_autoscaler_consolidates_idle () =
  let db = RDb.start (Testlib.bank_decl 2) (Testlib.sn_config 2) in
  let acts = AS.step db in
  (match acts with
  | [ a ] -> check_bool "idle deployment merges" true (a.AS.ac_why = `Merge)
  | _ -> Alcotest.fail "expected exactly one merge step");
  check_int "migration applied" 1 (RDb.n_migrations db);
  check_int "consolidated onto one domain" 1
    (List.length
       (List.sort_uniq Int.compare (List.map snd (RDb.placements db))));
  check_int "settled: no further moves" 0 (List.length (AS.step db));
  check_float "traffic fine after consolidation" 100. (balance db "acct0");
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

let test_autoscaler_background_loop () =
  let db = RDb.start (Testlib.bank_decl 4) (Testlib.sn_config 4) in
  let ctl = AS.start ~interval_s:0.005 db in
  Unix.sleepf 0.08;
  AS.stop ctl;
  AS.stop ctl (* idempotent *);
  let splits, merges = AS.moves ctl in
  check_bool "controller made moves" true (splits + merges >= 1);
  check_int "moves match migrations" (splits + merges) (RDb.n_migrations db);
  check_bool "idle deployment consolidating" true
    (List.length
       (List.sort_uniq Int.compare (List.map snd (RDb.placements db)))
    <= 3);
  Testlib.audit "no fatals" (Audit.fatal db);
  RDb.shutdown db;
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

let suite =
  ( "migration",
    [
      Alcotest.test_case "wal migrate record round-trip" `Quick
        test_wal_migrate_roundtrip;
      Alcotest.test_case "faultsim placement recovery" `Quick
        test_placement_recovery_synthetic;
      Alcotest.test_case "sim: byte-identity vs static placement" `Quick
        test_sim_byte_identity;
      Alcotest.test_case "sim: migration under concurrent load" `Quick
        test_sim_migration_under_load;
      Alcotest.test_case "sim: wal placement end-to-end" `Quick
        test_sim_wal_placement_e2e;
      Alcotest.test_case "runtime: migrate basic" `Quick
        test_runtime_migrate_basic;
      Alcotest.test_case "runtime: hot reactor mid-load" `Quick
        test_runtime_migration_mid_load;
      Alcotest.test_case "runtime: chaos stall during migration" `Quick
        test_runtime_chaos_migration;
      Alcotest.test_case "autoscaler: decide policy" `Quick
        test_autoscaler_decide;
      Alcotest.test_case "autoscaler: consolidates idle deployment" `Quick
        test_autoscaler_consolidates_idle;
      Alcotest.test_case "autoscaler: background loop" `Quick
        test_autoscaler_background_loop;
    ] )
