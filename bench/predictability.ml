(* Predictability report: phase-level lifecycle tracing vs the cost model.

   Runs the smallbank multi-transfer workload through the simulator under
   the paper's four deployment strategies (shared-everything ± affinity,
   shared-nothing with the fully-sync and opt formulations), with an
   [Obs.Collector] attached, and emits `BENCH_predictability.json`:
   per-deployment phase breakdowns (virtual µs) side by side with the
   §2.4 cost-model prediction calibrated fig6-style from a size-1 run on
   the same deployment.

   Two hard gates (non-zero exit on failure):

   - phase-partition: every attempt's phase durations must sum to its
     end-to-end latency within 1% (worst case per deployment, as tracked
     by [Obs.Report.r_max_sum_dev_pct]);
   - commit-path drift, historically called the no-op-sink overhead:
     re-running the direct commit-path scenarios (see commitpath.ml) must
     stay within 3% of the committed `BENCH_commit_path.json` baseline
     (best of 3 runs, ops/sec and p50). Those scenarios call Occ and
     Storage directly and run no Obs code, so this gate catches a slower
     commit path, not tracing cost (DESIGN.md §6.5).

   Usage:
     dune exec bench/predictability.exe                   full run
     dune exec bench/predictability.exe -- --fast         shrunken (smoke)
     dune exec bench/predictability.exe -- --out F.json
     dune exec bench/predictability.exe -- --baseline B.json *)

module SB = Workloads.Smallbank
module J = Obs.Json

let n_groups = 7
let group_size = 8
let n_cust = n_groups * group_size
let txn_size = 4

let cust g k = SB.customer_name ((g * group_size) + k)

let groups =
  List.init n_groups (fun g -> List.init group_size (fun k -> cust g k))

let customers = List.concat groups

(* Destinations for a transfer of [txn_size], each on a different group. *)
let dests = List.init txn_size (fun i -> cust ((i + 1) mod n_groups) 1)

type deployment = {
  dp_name : string;
  dp_config : unit -> Reactdb.Config.t;
  dp_form : SB.formulation;
}

let deployments =
  [
    { dp_name = "shared-everything";
      dp_config =
        (fun () ->
          Reactdb.Config.shared_everything ~executors:n_groups ~affinity:false
            customers);
      dp_form = SB.Fully_sync };
    { dp_name = "shared-everything-affinity";
      dp_config =
        (fun () ->
          Reactdb.Config.shared_everything ~executors:n_groups ~affinity:true
            customers);
      dp_form = SB.Fully_sync };
    { dp_name = "shared-nothing-sync";
      dp_config = (fun () -> Reactdb.Config.shared_nothing groups);
      dp_form = SB.Fully_sync };
    { dp_name = "shared-nothing-async";
      dp_config = (fun () -> Reactdb.Config.shared_nothing groups);
      dp_form = SB.Opt };
    (* The morphed deployment: the config's Parallel morph selects the
       collect fan-out formulation (Smallbank.formulation_for), so the
       same request stream runs parallel purely by deployment choice. *)
    { dp_name = "shared-nothing-async-collect";
      dp_config = (fun () -> Reactdb.Config.shared_nothing_async groups);
      dp_form = SB.Collect };
  ]

(* One measured run with a collector attached; returns the report and the
   mean Figure-6 breakdown of committed transactions. *)
let run_measured ~n config form =
  let db = Harness.build (SB.decl ~customers:n_cust ()) config in
  let collector =
    Obs.Collector.create ~clock:Obs.Virtual
      ~containers:(Reactdb.Config.n_containers config)
      ()
  in
  Reactdb.Database.attach_obs db collector;
  let outs =
    Harness.measure_txns db ~n (fun _rng ->
        SB.multi_transfer_request form ~src:(cust 0 0) ~dests ~amount:1.)
  in
  (Obs.Report.summarize collector, Harness.mean_breakdown outs)

(* Cost-model prediction, calibrated as in Figure 6 (§4.2.2): cs/cr and
   per-hop processing come from a fully-sync size-1 run on the same
   deployment; the commit+input-gen bucket, which the Figure 3 equation
   excludes, is added back from the measured breakdown. *)
let predict ~n_calib config form overhead_us =
  let db = Harness.build (SB.decl ~customers:n_cust ()) config in
  let outs =
    Harness.measure_txns db ~n:n_calib (fun _rng ->
        SB.multi_transfer_request SB.Fully_sync ~src:(cust 0 0)
          ~dests:[ cust 1 1 ] ~amount:1.)
  in
  let bd1 = Harness.mean_breakdown outs in
  let costs =
    Costmodel.uniform_costs ~cs:bd1.Harness.avg_cs ~cr:bd1.Harness.avg_cr
  in
  let p_total = bd1.Harness.avg_sync_exec in
  let p_credit = p_total /. 2. in
  let tree =
    match form with
    | SB.Opt | SB.Collect ->
      Costmodel.node ~at:0 ~p_ovp:p_credit
        ~async:
          (List.init txn_size (fun i -> Costmodel.leaf ~at:(i + 1) p_credit))
        ()
    | _ ->
      Costmodel.node ~at:0
        ~p_seq:(float_of_int txn_size *. (p_total -. p_credit))
        ~sync_seq:
          (List.init txn_size (fun i -> Costmodel.leaf ~at:(i + 1) p_credit))
        ()
  in
  Costmodel.latency costs tree +. overhead_us

(* ---- no-op-sink overhead gate ---- *)

type overhead_row = {
  ov_name : string;
  ov_base_ops : float;
  ov_now_ops : float;
  ov_base_p50 : float;
  ov_now_p50 : float;
  ov_pct : float;
}

let baseline_scenarios path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match J.of_string text with
  | Error e -> failwith (Printf.sprintf "%s: unparsable baseline: %s" path e)
  | Ok j -> (
    match J.member "scenarios" j with
    | Some (J.List l) ->
      List.filter_map
        (fun s ->
          match
            ( Option.bind (J.member "name" s) J.to_str,
              Option.bind (J.member "ops_per_sec" s) J.to_float,
              Option.bind (J.member "p50_us" s) J.to_float )
          with
          | Some n, Some ops, Some p50 -> Some (n, (ops, p50))
          | _ -> None)
        l
    | _ -> failwith (path ^ ": baseline has no \"scenarios\" list"))

(* Per scenario: best of 3 runs, and the better of the throughput and p50
   deltas. Wall-clock microbenchmarks on a shared machine are noisy in
   ways a constant per-transaction cost is not: a true commit-path
   regression depresses both the best-case throughput and the best-case
   median, while transient contention rarely spares either across three
   runs — so gating on the smaller delta rejects noise, not regressions. *)
let overhead_gate ~iters ~baseline =
  let base = baseline_scenarios baseline in
  let best_of_3 run =
    let one () =
      let r = run ~iters in
      (r.Commitpath.sr_ops_per_sec, r.Commitpath.sr_p50_us)
    in
    let (o1, p1), (o2, p2), (o3, p3) = (one (), one (), one ()) in
    (Stdlib.max o1 (Stdlib.max o2 o3), Stdlib.min p1 (Stdlib.min p2 p3))
  in
  List.filter_map
    (fun (name, run) ->
      match List.assoc_opt name base with
      | None ->
        Printf.printf "  (baseline has no %s scenario; skipped)\n" name;
        None
      | Some (base_ops, base_p50) ->
        let now_ops, now_p50 = best_of_3 run in
        let ops_pct = (base_ops -. now_ops) /. base_ops *. 100. in
        let p50_pct =
          if base_p50 <= 0. then 0.
          else (now_p50 -. base_p50) /. base_p50 *. 100.
        in
        let pct = Stdlib.max 0. (Stdlib.min ops_pct p50_pct) in
        Some
          { ov_name = name; ov_base_ops = base_ops; ov_now_ops = now_ops;
            ov_base_p50 = base_p50; ov_now_p50 = now_p50; ov_pct = pct })
    [
      ("read_heavy", fun ~iters -> Commitpath.read_heavy ~iters);
      ("write_heavy", fun ~iters -> Commitpath.write_heavy ~iters);
      ("cross_container_2pc", fun ~iters -> Commitpath.cross_2pc ~iters);
    ]

(* ---- output ---- *)

let deployment_json (d, report, measured_mean, predicted) =
  J.Obj
    [
      ("name", J.Str d.dp_name);
      ("formulation", J.Str (SB.formulation_name d.dp_form));
      ("txn_size", J.Num (float_of_int txn_size));
      ("measured_mean_us", J.Num measured_mean);
      ("predicted_us", J.Num predicted);
      ( "model_dev_pct",
        J.Num
          (if measured_mean = 0. then 0.
           else abs_float (predicted -. measured_mean) /. measured_mean *. 100.)
      );
      ("max_sum_dev_pct", J.Num report.Obs.Report.r_max_sum_dev_pct);
      ("report", Obs.Report.to_json report);
    ]

let overhead_json rows =
  J.Obj
    [
      ( "scenarios",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("name", J.Str r.ov_name);
                   ("baseline_ops_per_sec", J.Num r.ov_base_ops);
                   ("ops_per_sec", J.Num r.ov_now_ops);
                   ("baseline_p50_us", J.Num r.ov_base_p50);
                   ("p50_us", J.Num r.ov_now_p50);
                   ("overhead_pct", J.Num r.ov_pct);
                 ])
             rows) );
      ( "max_overhead_pct",
        J.Num (List.fold_left (fun a r -> Stdlib.max a r.ov_pct) 0. rows) );
    ]

let () =
  let fast = ref false in
  let out = ref "BENCH_predictability.json" in
  let baseline = ref "BENCH_commit_path.json" in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      parse rest
    | "--out" :: path :: rest ->
      out := path;
      parse rest
    | "--baseline" :: path :: rest ->
      baseline := path;
      parse rest
    | arg :: _ when arg <> Sys.argv.(0) ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
    | _ :: rest -> parse rest
  in
  parse (Array.to_list Sys.argv);
  let n = if !fast then 60 else 300 in
  let n_calib = if !fast then 20 else 60 in
  let iters = if !fast then 2_000 else 10_000 in
  Printf.printf "Predictability report (%d txns/deployment, virtual clock)\n%!"
    n;
  let rows =
    List.map
      (fun d ->
        let config = d.dp_config () in
        let report, bd = run_measured ~n config d.dp_form in
        let predicted =
          predict ~n_calib (d.dp_config ()) d.dp_form bd.Harness.avg_overhead
        in
        Printf.printf "\n== %s (%s, size %d) ==\n%s%!" d.dp_name
          (SB.formulation_name d.dp_form) txn_size
          (Obs.Report.to_table report);
        Printf.printf "cost model: measured %.1f us, predicted %.1f us\n%!"
          report.Obs.Report.r_mean_latency_us predicted;
        (d, report, report.Obs.Report.r_mean_latency_us, predicted))
      deployments
  in
  Printf.printf "\n== no-op-sink overhead vs %s ==\n%!" !baseline;
  let ov = overhead_gate ~iters ~baseline:!baseline in
  List.iter
    (fun r ->
      Printf.printf
        "  %-22s %9.0f ops/s (base %9.0f)  p50 %7.3f us (base %7.3f)  +%.2f%%\n"
        r.ov_name r.ov_now_ops r.ov_base_ops r.ov_now_p50 r.ov_base_p50
        r.ov_pct)
    ov;
  let sum_ok =
    List.for_all
      (fun (_, report, _, _) -> report.Obs.Report.r_max_sum_dev_pct <= 1.)
      rows
  in
  let ov_ok = List.for_all (fun r -> r.ov_pct <= 3.) ov in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "predictability");
        ("schema_version", J.Num (float_of_int Obs.Report.schema_version));
        ("clock", J.Str (Obs.clock_name Obs.Virtual));
        ("deployments", J.List (List.map deployment_json rows));
        ("overhead_gate", overhead_json ov);
        ( "gates",
          J.Obj [ ("sum_ok", J.Bool sum_ok); ("overhead_ok", J.Bool ov_ok) ] );
      ]
  in
  let oc = open_out !out in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" !out;
  if not sum_ok then
    prerr_endline "FAIL: phase sums deviate from latency by more than 1%";
  if not ov_ok then
    prerr_endline "FAIL: no-op tracing sink overhead exceeds 3% on commit path";
  if not (sum_ok && ov_ok) then exit 1
