(* Fast fault-injection sweep for the bench smoke run: build seeded
   Smallbank and TPC-C histories with a midpoint checkpoint, crash each at
   seeded fault points (torn tails, byte corruption, damaged checkpoints)
   and verify recovery equivalence. Exits non-zero on any failure, so the
   smoke script doubles as a crash-safety regression gate.

     dune exec bench/crash_sweep.exe -- [--seeds N] [--fast]

   [--seeds N] sets the total number of crash points (default 150, split
   60/40 between Smallbank and TPC-C); [--fast] is shorthand for 50. *)

open Util
module DB = Reactdb.Database
module W = Workloads

let exec db (req : W.Wl.request) =
  ignore
    (DB.exec_txn db ~reactor:req.W.Wl.reactor ~proc:req.W.Wl.proc
       ~args:req.W.Wl.args)

(* Two-phase history: workload, quiescent checkpoint (recording the log
   position covered), more workload, close. *)
let build_history ~decl ~config ~names ~log_path ~ck_path run_phase =
  let db = Harness.build decl config in
  let log = Wal.to_file log_path in
  DB.attach_wal db log;
  run_phase db 0;
  Wal.flush log;
  let logged, tail = Wal.read_file_tolerant log_path in
  (match tail with
  | Wal.Clean -> ()
  | Wal.Torn { reason; _ } -> failwith ("reference log torn: " ^ reason));
  let max_tid =
    List.fold_left (fun m e -> Stdlib.max m e.Wal.le_tid) 0 logged
  in
  Checkpoint.write_file ck_path
    (Checkpoint.capture ~tid:max_tid ~covers:(List.length logged)
       (List.map (fun n -> (n, DB.catalog_of db n)) names));
  run_phase db 1;
  Wal.flush log;
  Wal.close log

let sb_customers = 6
let sb_names = W.Smallbank.customers sb_customers
let sb_decl () = W.Smallbank.decl ~customers:sb_customers ()

let sb_run_phase db phase =
  let eng = DB.engine db in
  let formulations =
    [| W.Smallbank.Fully_sync; W.Smallbank.Partially_async;
       W.Smallbank.Fully_async; W.Smallbank.Opt |]
  in
  for w = 0 to 2 do
    Sim.Engine.spawn eng (fun () ->
        let rng = Rng.create (611 + (100 * phase) + w) in
        for _ = 1 to 12 do
          let src = Rng.int rng sb_customers in
          let dst = Rng.pick_except rng sb_customers src in
          exec db
            (W.Smallbank.multi_transfer_request (Rng.pick rng formulations)
               ~src:(W.Smallbank.customer_name src)
               ~dests:[ W.Smallbank.customer_name dst ]
               ~amount:(float_of_int (1 + Rng.int rng 8)))
        done)
  done;
  ignore (Sim.Engine.run eng)

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
        let rng = Rng.create (8_800 + (100 * phase) + w) in
        let home = 1 + (w mod tpcc_warehouses) in
        for _ = 1 to 10 do
          exec db (W.Tpcc.gen_mix rng p ~home ~seq)
        done)
  done;
  ignore (Sim.Engine.run eng)

let sweep ~label ~decl ~config ~names ~run_phase ?extra_check ~seed0 n_seeds =
  let log_path = Filename.temp_file "crash_sweep" ".log" in
  let ck_path = Filename.temp_file "crash_sweep" ".ckpt" in
  let scratch = Filename.temp_file "crash_sweep" ".scratch" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ log_path; ck_path; scratch ])
    (fun () ->
      build_history ~decl:(decl ()) ~config ~names ~log_path ~ck_path
        run_phase;
      let report =
        Faultsim.crash_sweep ~checkpoint:ck_path ?extra_check ~log:log_path
          ~scratch ~decl:(decl ())
          ~seeds:(List.init n_seeds (fun i -> seed0 + i))
          ()
      in
      Printf.printf
        "%-10s %4d crash points: %d clean tails, %d torn tails, %d \
         checkpoint fallbacks, %d failures\n"
        label report.Faultsim.rp_points report.Faultsim.rp_clean_tail
        report.Faultsim.rp_torn_tail report.Faultsim.rp_ckpt_fallback
        (List.length report.Faultsim.rp_failures);
      List.iter
        (fun (seed, m) -> Printf.printf "  FAIL seed %d: %s\n" seed m)
        report.Faultsim.rp_failures;
      report.Faultsim.rp_failures = [])

let () =
  let seeds = ref 150 in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: n :: rest ->
      seeds := int_of_string n;
      parse rest
    | "--fast" :: rest ->
      seeds := 50;
      parse rest
    | a :: _ ->
      Printf.eprintf "crash_sweep: unknown argument %s\n" a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let sb_seeds = !seeds * 3 / 5 in
  let tpcc_seeds = !seeds - sb_seeds in
  let ok_sb =
    sweep ~label:"smallbank" ~decl:sb_decl
      ~config:
        (Reactdb.Config.shared_everything ~executors:2 ~affinity:true
           sb_names)
      ~names:sb_names ~run_phase:sb_run_phase
      ~extra_check:(Audit.money ~n:sb_customers) ~seed0:40_000 sb_seeds
  in
  let ok_tpcc =
    sweep ~label:"tpcc" ~decl:tpcc_decl
      ~config:
        (Reactdb.Config.shared_everything ~executors:2 ~affinity:true
           tpcc_names)
      ~names:tpcc_names
      ~run_phase:(tpcc_run_phase (ref 0))
      ~seed0:50_000 tpcc_seeds
  in
  if not (ok_sb && ok_tpcc) then exit 1
