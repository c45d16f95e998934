(* Recovery-equivalence property suite: seeded Smallbank / TPC-C histories
   are redo-logged to disk with a checkpoint taken at the quiescent
   midpoint, then crashed at seeded fault points (torn log tails, byte
   corruption, checkpoints damaged between checkpoint write and log flush).
   Each crash point recovers from checkpoint + log tail and must reproduce
   exactly the committed-prefix state, with clean secondary indexes and —
   for Smallbank — money conserved. *)

open Util
module DB = Reactdb.Database
module W = Workloads

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let exec db (req : W.Wl.request) =
  ignore
    (DB.exec_txn db ~reactor:req.W.Wl.reactor ~proc:req.W.Wl.proc
       ~args:req.W.Wl.args)

(* Build a two-phase history on disk: phase one of the workload, a
   checkpoint at the quiescent midpoint (recording the log position it
   covers), phase two, close. Returns the live final state so intact
   recovery can be compared against it. [run_phase db phase] runs one
   phase's workers to completion ([Sim.Engine.run] inclusive). *)
let build_history ~decl ~config ~names ~log_path ~ck_path run_phase =
  let db = Harness.build decl config in
  let log = Wal.to_file log_path in
  DB.attach_wal db log;
  run_phase db 0;
  Wal.flush log;
  let logged, tail = Wal.read_file_tolerant log_path in
  (match tail with
  | Wal.Clean -> ()
  | Wal.Torn { reason; _ } -> Alcotest.failf "reference log torn: %s" reason);
  check_bool "phase 1 logged commits" true (logged <> []);
  let max_tid =
    List.fold_left (fun m e -> Stdlib.max m e.Wal.le_tid) 0 logged
  in
  let cats = List.map (fun n -> (n, DB.catalog_of db n)) names in
  Checkpoint.write_file ck_path
    (Checkpoint.capture ~tid:max_tid ~covers:(List.length logged) cats);
  run_phase db 1;
  Wal.flush log;
  Wal.close log;
  check_bool "phase 2 logged more commits" true
    (List.length (Testlib.read_log log_path) > List.length logged);
  Faultsim.snapshot cats

let with_history build f =
  let log_path = Filename.temp_file "faultsim" ".log" in
  let ck_path = Filename.temp_file "faultsim" ".ckpt" in
  let scratch = Filename.temp_file "faultsim" ".scratch" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ log_path; ck_path; scratch ])
    (fun () ->
      let final = build ~log_path ~ck_path in
      f ~log_path ~ck_path ~scratch ~final)

let assert_report ?(fallback = true) ~points report =
  (match report.Faultsim.rp_failures with
  | [] -> ()
  | (seed, m) :: _ ->
    Alcotest.failf "%d crash points failed; first: seed %d: %s"
      (List.length report.Faultsim.rp_failures) seed m);
  check_int "crash points exercised" points report.Faultsim.rp_points;
  check_bool "some crashes left a clean tail" true
    (report.Faultsim.rp_clean_tail > 0);
  check_bool "some crashes tore the tail" true
    (report.Faultsim.rp_torn_tail > 0);
  if fallback then
    check_bool "some crashes forced log-only fallback" true
      (report.Faultsim.rp_ckpt_fallback > 0)

(* ---------------- Smallbank ---------------- *)

let sb_customers = 6
let sb_decl () = W.Smallbank.decl ~customers:sb_customers ()
let sb_names = W.Smallbank.customers sb_customers

(* Multi-transfer-only mix (§4.1.4 formulations): transfers conserve total
   money, giving the sweep an application-level invariant on top of state
   equality. Integral amounts keep float arithmetic exact. *)
let sb_run_phase db phase =
  let eng = DB.engine db in
  let formulations =
    [| W.Smallbank.Fully_sync; W.Smallbank.Partially_async;
       W.Smallbank.Fully_async; W.Smallbank.Opt |]
  in
  for w = 0 to 2 do
    Sim.Engine.spawn eng (fun () ->
        let rng = Rng.create (411 + (100 * phase) + w) in
        for _ = 1 to 12 do
          let src = Rng.int rng sb_customers in
          let d1 = Rng.pick_except rng sb_customers src in
          let dests =
            if Rng.bool rng then [ d1 ]
            else begin
              let d2 = ref (Rng.pick_except rng sb_customers src) in
              while !d2 = d1 do
                d2 := Rng.pick_except rng sb_customers src
              done;
              [ d1; !d2 ]
            end
          in
          exec db
            (W.Smallbank.multi_transfer_request (Rng.pick rng formulations)
               ~src:(W.Smallbank.customer_name src)
               ~dests:(List.map W.Smallbank.customer_name dests)
               ~amount:(float_of_int (1 + Rng.int rng 8)))
        done)
  done;
  ignore (Sim.Engine.run eng);
  check_bool "phase committed work" true (DB.n_committed db > 0)

let sb_build ~log_path ~ck_path =
  build_history ~decl:(sb_decl ())
    ~config:
      (Reactdb.Config.shared_everything ~executors:2 ~affinity:true sb_names)
    ~names:sb_names ~log_path ~ck_path sb_run_phase

let test_smallbank_intact_recovery () =
  with_history sb_build (fun ~log_path ~ck_path ~scratch:_ ~final ->
      let r = Faultsim.recover ~checkpoint:ck_path ~log:log_path (sb_decl ()) in
      check_bool "checkpoint restored" true
        (r.Faultsim.rc_checkpoint <> None);
      check_bool "rows restored" true (r.Faultsim.rc_restored > 0);
      (match Faultsim.diff final (Faultsim.snapshot r.Faultsim.rc_catalogs) with
      | None -> ()
      | Some m -> Alcotest.failf "intact recovery diverges: %s" m);
      Testlib.audit "secondary indexes"
        (Audit.secondaries r.Faultsim.rc_catalogs);
      Testlib.audit "money conserved"
        (Audit.money ~n:sb_customers r.Faultsim.rc_catalogs))

let test_smallbank_crash_sweep () =
  with_history sb_build (fun ~log_path ~ck_path ~scratch ~final:_ ->
      let report =
        Faultsim.crash_sweep ~checkpoint:ck_path
          ~extra_check:(Audit.money ~n:sb_customers) ~log:log_path ~scratch
          ~decl:(sb_decl ())
          ~seeds:(List.init 60 (fun i -> 7_000 + i))
          ()
      in
      assert_report ~points:60 report)

let test_smallbank_log_only_sweep () =
  (* No checkpoint at all: recovery is pure tolerant replay. *)
  with_history sb_build (fun ~log_path ~ck_path:_ ~scratch ~final:_ ->
      let report =
        Faultsim.crash_sweep
          ~extra_check:(Audit.money ~n:sb_customers) ~log:log_path ~scratch
          ~decl:(sb_decl ())
          ~seeds:(List.init 20 (fun i -> 21_000 + i))
          ()
      in
      assert_report ~fallback:false ~points:20 report)

(* ---------------- TPC-C ---------------- *)

let tpcc_warehouses = 2
let tpcc_names = W.Tpcc.warehouses tpcc_warehouses

let tpcc_decl () =
  W.Tpcc.decl ~warehouses:tpcc_warehouses ~sizes:W.Tpcc.small_sizes ()

let tpcc_run_phase seq db phase =
  let p =
    W.Tpcc.params ~sizes:W.Tpcc.small_sizes
      ~remote_mode:(W.Tpcc.Per_item 0.3) ~remote_payment_prob:0.3
      tpcc_warehouses
  in
  let eng = DB.engine db in
  for w = 0 to 1 do
    Sim.Engine.spawn eng (fun () ->
        let rng = Rng.create (5_500 + (100 * phase) + w) in
        let home = 1 + (w mod tpcc_warehouses) in
        for _ = 1 to 10 do
          exec db (W.Tpcc.gen_mix rng p ~home ~seq)
        done)
  done;
  ignore (Sim.Engine.run eng);
  check_bool "phase committed work" true (DB.n_committed db > 0)

let tpcc_build ~log_path ~ck_path =
  build_history ~decl:(tpcc_decl ())
    ~config:
      (Reactdb.Config.shared_everything ~executors:2 ~affinity:true
         tpcc_names)
    ~names:tpcc_names ~log_path ~ck_path
    (tpcc_run_phase (ref 0))

let test_tpcc_crash_sweep () =
  with_history tpcc_build (fun ~log_path ~ck_path ~scratch ~final ->
      (* Intact recovery first (checkpoint + full tail = live final state),
         then the seeded sweep. TPC-C exercises inserts (orders, history)
         and deletes (delivery's new-order consumption) that Smallbank's
         update-only mix cannot. *)
      let r =
        Faultsim.recover ~checkpoint:ck_path ~log:log_path (tpcc_decl ())
      in
      (match Faultsim.diff final (Faultsim.snapshot r.Faultsim.rc_catalogs) with
      | None -> ()
      | Some m -> Alcotest.failf "intact recovery diverges: %s" m);
      let report =
        Faultsim.crash_sweep ~checkpoint:ck_path ~log:log_path ~scratch
          ~decl:(tpcc_decl ())
          ~seeds:(List.init 45 (fun i -> 13_000 + i))
          ()
      in
      assert_report ~points:45 report)

let suite =
  ( "faultsim",
    [
      Alcotest.test_case "smallbank intact recovery" `Quick
        test_smallbank_intact_recovery;
      Alcotest.test_case "smallbank crash sweep (60 points)" `Quick
        test_smallbank_crash_sweep;
      Alcotest.test_case "smallbank log-only sweep (20 points)" `Quick
        test_smallbank_log_only_sweep;
      Alcotest.test_case "tpcc crash sweep (45 points)" `Quick
        test_tpcc_crash_sweep;
    ] )
