(* Intra-transaction parallelism sweep: sequential vs fan-out/collect
   formulations, morphed by the deployment (shared-nothing vs
   shared-nothing-async), at 1/2/4 containers on the simulator's virtual
   clock. Emits `BENCH_intra_txn.json`.

   Each row runs the Smallbank multi-transfer with the formulation the
   deployment's morph knob selects (Config.morph -> Smallbank.formulation_for),
   with an [Obs.Collector] attached and history recording enabled, next to
   the §2.4 cost-model prediction calibrated fig6-style from a size-1 run
   on the same deployment. A separate concurrent phase runs a multi-worker
   closed loop on the 4-container async deployment so the certified
   histories contain genuinely interleaved parallel schedules.

   Hard gates (non-zero exit on failure):

   - audits: money conservation on every run (sequential and concurrent);
   - serializability: `lib/histories` certifies every recorded history;
   - phase-partition: per-attempt phase sums within 1% of latency
     ([Obs.Report.r_max_sum_dev_pct], as in bench/predictability.exe);
   - speedup: at 4 containers the fan-out formulation must show >= 1.5x
     lower virtual latency than the sequential one, both measured and
     predicted.

   Usage:
     dune exec bench/intra_txn.exe                   full run
     dune exec bench/intra_txn.exe -- --fast         shrunken (smoke)
     dune exec bench/intra_txn.exe -- --out F.json *)

module SB = Workloads.Smallbank
module J = Obs.Json
module Config = Reactdb.Config
module DB = Reactdb.Database

let n_cust = 24
let txn_size = 4

(* Customer index j lives in group (j mod c): round-robin placement, so
   the same declaration spreads over 1, 2 or 4 containers. *)
let groups_for c =
  List.init c (fun g ->
      List.filteri (fun j _ -> j mod c = g) (List.init n_cust Fun.id))
  |> List.map (List.map SB.customer_name)

(* Fan-out destinations: [txn_size] customers dealt over the remote
   containers (1..c-1), so at c = 4 the fan-out spans three remote
   executors (one takes two sub-calls) and at c = 1 everything is local. *)
let dest_indices c =
  List.init txn_size (fun i ->
      if c = 1 then i + 1 else (1 + (i mod (c - 1))) + (c * (i / (c - 1))))

let dests c = List.map SB.customer_name (dest_indices c)
let src = SB.customer_name 0

let config_for ~containers morph =
  Config.with_morph (Config.shared_nothing (groups_for containers)) morph

(* --- measured run --- *)

type row = {
  rw_containers : int;
  rw_morph : Config.morph;
  rw_form : SB.formulation;
  rw_report : Obs.Report.t;
  rw_measured_us : float;
  rw_predicted_us : float;
  rw_money : (unit, string) result;
  rw_cert : (int, string) result;  (* certified history length *)
}

let run_measured ~n ~containers morph =
  let config = config_for ~containers morph in
  let form = SB.formulation_for config in
  let db = Harness.build (SB.decl ~customers:n_cust ()) config in
  let collector =
    Obs.Collector.create ~clock:Obs.Virtual
      ~containers:(Config.n_containers config)
      ()
  in
  DB.attach_obs db collector;
  DB.enable_history db;
  let outs =
    Harness.measure_txns db ~n (fun _rng ->
        SB.multi_transfer_request form ~src ~dests:(dests containers)
          ~amount:1.)
  in
  let report = Obs.Report.summarize collector in
  ( config, form, report, Harness.mean_breakdown outs,
    Audit.money ~n:n_cust (DB.catalogs db), Audit.certify (DB.history db) )

(* Cost-model prediction, calibrated as in Figure 6 (§4.2.2) from a
   fully-sync size-1 run on the same deployment; the commit+input-gen
   bucket is added back from the measured breakdown. The fan-out tree's
   async children carry the destination containers, so the queueing term
   of [Costmodel.latency] models two sub-calls sharing one executor. *)
let predict ~n_calib ~containers morph form overhead_us =
  let config = config_for ~containers morph in
  let db = Harness.build (SB.decl ~customers:n_cust ()) config in
  let calib_dest = SB.customer_name (if containers = 1 then 1 else 1) in
  let outs =
    Harness.measure_txns db ~n:n_calib (fun _rng ->
        SB.multi_transfer_request SB.Fully_sync ~src ~dests:[ calib_dest ]
          ~amount:1.)
  in
  let bd1 = Harness.mean_breakdown outs in
  let costs =
    Costmodel.uniform_costs ~cs:bd1.Harness.avg_cs ~cr:bd1.Harness.avg_cr
  in
  let p_total = bd1.Harness.avg_sync_exec in
  let p_credit = p_total /. 2. in
  let dest_containers =
    List.map (fun j -> j mod containers) (dest_indices containers)
  in
  let tree =
    match form with
    | SB.Opt | SB.Collect ->
      (* Fan-out: one async credit per destination (placed on its actual
         container), the combined debit overlapped before the barrier. *)
      Costmodel.node ~at:0 ~p_ovp:p_credit
        ~async:(List.map (fun c -> Costmodel.leaf ~at:c p_credit) dest_containers)
        ()
    | SB.Fully_sync | SB.Partially_async | SB.Fully_async ->
      Costmodel.node ~at:0
        ~p_seq:(float_of_int txn_size *. (p_total -. p_credit))
        ~sync_seq:(List.map (fun c -> Costmodel.leaf ~at:c p_credit) dest_containers)
        ()
  in
  Costmodel.latency costs tree +. overhead_us

(* --- concurrent certification phase --- *)

(* Multi-worker closed loop on the parallel deployment: random fan-outs
   with distinct destinations (offset walk, never the source), so the
   recorded history interleaves parallel sub-calls across the domains. *)
let run_concurrent ~fast ~containers =
  let config = config_for ~containers Config.Parallel in
  let form = SB.formulation_for config in
  let db = Harness.build (SB.decl ~customers:n_cust ()) config in
  DB.enable_history db;
  let gen _w rng =
    let s = Util.Rng.int rng n_cust in
    let o = 1 + Util.Rng.int rng (n_cust - txn_size) in
    let dests =
      List.init txn_size (fun i ->
          SB.customer_name ((s + o + i) mod n_cust))
    in
    SB.multi_transfer_request form ~src:(SB.customer_name s) ~dests ~amount:1.
  in
  let spec =
    Harness.spec ~n_workers:4 ~max_retries:3
      ~epochs:(if fast then 6 else 20)
      gen
  in
  let res = Harness.run (Harness.sim db) spec in
  (res, Audit.money ~n:n_cust (DB.catalogs db), Audit.certify (DB.history db))

(* --- output --- *)

(* Transactions in a certified history; a violation certifies none. *)
let certified = Result.value ~default:0

let row_json r =
  J.Obj
    [
      ("containers", J.Num (float_of_int r.rw_containers));
      ("morph", J.Str (Config.morph_name r.rw_morph));
      ("formulation", J.Str (SB.formulation_name r.rw_form));
      ("txn_size", J.Num (float_of_int txn_size));
      ("measured_mean_us", J.Num r.rw_measured_us);
      ("predicted_us", J.Num r.rw_predicted_us);
      ( "model_dev_pct",
        J.Num
          (if r.rw_measured_us = 0. then 0.
           else
             abs_float (r.rw_predicted_us -. r.rw_measured_us)
             /. r.rw_measured_us *. 100.) );
      ("max_sum_dev_pct", J.Num r.rw_report.Obs.Report.r_max_sum_dev_pct);
      ("history_len", J.Num (float_of_int (certified r.rw_cert)));
      ("money_ok", J.Bool (Result.is_ok r.rw_money));
      ("serializable", J.Bool (Result.is_ok r.rw_cert));
      ("report", Obs.Report.to_json r.rw_report);
    ]

let () =
  let fast = ref false in
  let out = ref "BENCH_intra_txn.json" in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      parse rest
    | "--out" :: path :: rest ->
      out := path;
      parse rest
    | arg :: _ when arg <> Sys.argv.(0) ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
    | _ :: rest -> parse rest
  in
  parse (Array.to_list Sys.argv);
  let n = if !fast then 60 else 300 in
  let n_calib = if !fast then 20 else 60 in
  Printf.printf
    "Intra-transaction parallelism sweep (%d txns/row, virtual clock)\n%!" n;
  let rows =
    List.concat_map
      (fun containers ->
        List.map
          (fun morph ->
            let config, form, report, bd, money, cert =
              run_measured ~n ~containers morph
            in
            ignore config;
            let predicted =
              predict ~n_calib ~containers morph form bd.Harness.avg_overhead
            in
            let measured = report.Obs.Report.r_mean_latency_us in
            Printf.printf
              "  %d containers  %-10s (%-10s)  measured %8.1f us  predicted %8.1f us  sumdev %.3f%%  %s %s\n%!"
              containers
              (Config.morph_name morph)
              (SB.formulation_name form)
              measured predicted report.Obs.Report.r_max_sum_dev_pct
              (match money with Ok () -> "money-ok" | Error _ -> "MONEY-FAIL")
              (match cert with Ok _ -> "serializable" | Error _ -> "NOT-SERIALIZABLE");
            { rw_containers = containers; rw_morph = morph; rw_form = form;
              rw_report = report; rw_measured_us = measured;
              rw_predicted_us = predicted; rw_money = money; rw_cert = cert })
          [ Config.Sequential; Config.Parallel ])
      [ 1; 2; 4 ]
  in
  let find c m =
    List.find (fun r -> r.rw_containers = c && r.rw_morph = m) rows
  in
  let speedups =
    List.map
      (fun c ->
        let s = find c Config.Sequential and p = find c Config.Parallel in
        let meas =
          if p.rw_measured_us <= 0. then 0.
          else s.rw_measured_us /. p.rw_measured_us
        in
        let pred =
          if p.rw_predicted_us <= 0. then 0.
          else s.rw_predicted_us /. p.rw_predicted_us
        in
        Printf.printf
          "  %d containers: fan-out speedup measured %.2fx, predicted %.2fx\n%!"
          c meas pred;
        (c, meas, pred))
      [ 1; 2; 4 ]
  in
  Printf.printf "\n== concurrent certification (4 containers, parallel) ==\n%!";
  let conc_res, conc_money, conc_cert =
    run_concurrent ~fast:!fast ~containers:4
  in
  Printf.printf
    "  committed %d aborted %d  history %d  %s %s\n%!" conc_res.Harness.committed
    conc_res.Harness.aborted (certified conc_cert)
    (match conc_money with Ok () -> "money-ok" | Error e -> "MONEY-FAIL: " ^ e)
    (match conc_cert with
    | Ok _ -> "serializable"
    | Error e -> "NOT-SERIALIZABLE: " ^ e);
  let _, meas4, pred4 =
    List.find (fun (c, _, _) -> c = 4) speedups
  in
  let sum_ok =
    List.for_all (fun r -> r.rw_report.Obs.Report.r_max_sum_dev_pct <= 1.) rows
  in
  let audit_ok =
    List.for_all (fun r -> Result.is_ok r.rw_money) rows
    && Result.is_ok conc_money
  in
  let cert_ok =
    List.for_all (fun r -> Result.is_ok r.rw_cert) rows
    && Result.is_ok conc_cert
    && certified conc_cert > 0
  in
  let speedup_ok = meas4 >= 1.5 && pred4 >= 1.5 in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "intra_txn");
        ("schema_version", J.Num (float_of_int Obs.Report.schema_version));
        ("clock", J.Str (Obs.clock_name Obs.Virtual));
        ("txn_size", J.Num (float_of_int txn_size));
        ("customers", J.Num (float_of_int n_cust));
        ("rows", J.List (List.map row_json rows));
        ( "speedups",
          J.List
            (List.map
               (fun (c, m, p) ->
                 J.Obj
                   [
                     ("containers", J.Num (float_of_int c));
                     ("measured", J.Num m);
                     ("predicted", J.Num p);
                   ])
               speedups) );
        ( "concurrent",
          J.Obj
            [
              ("containers", J.Num 4.);
              ("workers", J.Num 4.);
              ("committed", J.Num (float_of_int conc_res.Harness.committed));
              ("aborted", J.Num (float_of_int conc_res.Harness.aborted));
              ("history_len", J.Num (float_of_int (certified conc_cert)));
              ("money_ok", J.Bool (Result.is_ok conc_money));
              ("serializable", J.Bool (Result.is_ok conc_cert));
            ] );
        ( "gates",
          J.Obj
            [
              ("sum_ok", J.Bool sum_ok);
              ("audit_ok", J.Bool audit_ok);
              ("serializable_ok", J.Bool cert_ok);
              ("speedup_ok", J.Bool speedup_ok);
              ("measured_speedup_4c", J.Num meas4);
              ("predicted_speedup_4c", J.Num pred4);
            ] );
      ]
  in
  let oc = open_out !out in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" !out;
  if not sum_ok then
    prerr_endline "FAIL: phase sums deviate from latency by more than 1%";
  if not audit_ok then prerr_endline "FAIL: money conservation audit";
  if not cert_ok then
    prerr_endline "FAIL: history certification (serializability)";
  if not speedup_ok then
    Printf.eprintf
      "FAIL: fan-out speedup at 4 containers below 1.5x (measured %.2fx, predicted %.2fx)\n"
      meas4 pred4;
  if not (sum_ok && audit_ok && cert_ok && speedup_ok) then exit 1
