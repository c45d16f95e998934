(* Snapshot-read sweep: abort-free read-only transactions vs the OCC read
   path, on both backends. Emits `BENCH_snapshot.json`.

   Each row drives a zipf-skewed, money-conserving Smallbank mix over a
   4-container deployment: with probability [read_frac] a full-sweep
   [sum_all] read (root zipf-chosen, one balance sub-call per other
   customer — the read set spans every account, so OCC contention is
   maximal), otherwise a conserving writer (amalgamate / send_payment)
   rooted at a zipf-chosen customer. The sweep crosses

     backend in {sim, runtime} x theta in {0, 0.8, 0.99}
       x read_frac in {0.5, 0.9} x {snapshot, occ_baseline}

   where occ_baseline disables snapshots ([set_snapshots false]), so the
   same declared-read-only procedures fall back to ordinary OCC execution
   with validation and retries. Reads retry until committed (bounded);
   writers are single-attempt.

   Hard gates (non-zero exit on failure):

   - zero read-only aborts: in snapshot mode every read commits on its
     first attempt, carries a snapshot epoch, and the backend's read-only
     commit counter matches;
   - snapshot consistency audit: every committed sum_all observes exactly
     the loaded total (a frozen epoch is a consistent cut), the final
     physical state conserves money, and the runtime raised no internal
     error;
   - phase partition: per-attempt phase sums within 1% of latency
     ([Obs.Report.r_max_sum_dev_pct]);
   - predictability win: at theta = 0.99 the snapshot read p99 is strictly
     below the OCC baseline read p99 at the same mix, per backend and
     read fraction (with the baseline actually committing reads).

   Usage:
     dune exec bench/snapshot.exe                   full run
     dune exec bench/snapshot.exe -- --fast         shrunken (smoke)
     dune exec bench/snapshot.exe -- --out F.json *)

open Util
module SB = Workloads.Smallbank
module W = Workloads
module J = Obs.Json
module Config = Reactdb.Config
module DB = Reactdb.Database
module RDb = Runtime.Db

let n_cust = 16
let n_containers = 4
let n_workers = 4
let max_attempts = 25
let expected_money = SB.loaded_money ~customers:n_cust

(* Customer j lives in group (j mod 4): round-robin placement. *)
let groups =
  List.init n_containers (fun g ->
      List.filteri (fun j _ -> j mod n_containers = g) (List.init n_cust Fun.id))
  |> List.map (List.map SB.customer_name)

let config = Config.shared_nothing groups

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let i = int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) i))
  end

let sum_all_req rng zipf =
  let root = Rng.Zipf.next rng zipf in
  W.Wl.request (SB.customer_name root) "sum_all"
    (List.filter_map
       (fun i ->
         if i = root then None else Some (W.Wl.vs (SB.customer_name i)))
       (List.init n_cust Fun.id))

let gen rng zipf ~read_frac =
  if Rng.float rng 1. < read_frac then (true, sum_all_req rng zipf)
  else (false, SB.gen_conserving_zipf rng ~zipf ~n:n_cust ~read_frac:0.)

(* Per-worker tally, merged after the run. [read] latencies are per logical
   read — the sum over its attempts until commit. *)
type tally = {
  mutable read_lats : float list;
  mutable write_lats : float list;
  mutable read_attempt_aborts : int;
  mutable reads_lost : int;  (* retry budget exhausted *)
  mutable writes_aborted : int;
  mutable missing_snapshot : int;  (* snapshot mode read committed without an epoch *)
  mutable audit_bad : int;  (* committed sum_all saw an unconserved total *)
}

let fresh_tally () =
  { read_lats = []; write_lats = []; read_attempt_aborts = 0; reads_lost = 0;
    writes_aborted = 0; missing_snapshot = 0; audit_bad = 0 }

let merge ts =
  let acc = fresh_tally () in
  List.iter
    (fun t ->
      acc.read_lats <- t.read_lats @ acc.read_lats;
      acc.write_lats <- t.write_lats @ acc.write_lats;
      acc.read_attempt_aborts <- acc.read_attempt_aborts + t.read_attempt_aborts;
      acc.reads_lost <- acc.reads_lost + t.reads_lost;
      acc.writes_aborted <- acc.writes_aborted + t.writes_aborted;
      acc.missing_snapshot <- acc.missing_snapshot + t.missing_snapshot;
      acc.audit_bad <- acc.audit_bad + t.audit_bad)
    ts;
  acc

(* One logical operation against either backend; [exec] returns
   [(result, latency_us, snapshot)]. *)
let drive t ~snapshots ~is_read exec =
  if is_read then begin
    let lat = ref 0. and committed = ref false and attempts = ref 0 in
    while (not !committed) && !attempts < max_attempts do
      incr attempts;
      let result, latency, snap = exec () in
      lat := !lat +. latency;
      match result with
      | Ok v ->
        committed := true;
        if Float.abs (Value.to_number v -. expected_money) > 1e-6 then
          t.audit_bad <- t.audit_bad + 1;
        if snapshots && snap = None then
          t.missing_snapshot <- t.missing_snapshot + 1
      | Error _ -> t.read_attempt_aborts <- t.read_attempt_aborts + 1
    done;
    if !committed then t.read_lats <- !lat :: t.read_lats
    else t.reads_lost <- t.reads_lost + 1
  end
  else begin
    let result, latency, _ = exec () in
    match result with
    | Ok _ -> t.write_lats <- latency :: t.write_lats
    | Error _ -> t.writes_aborted <- t.writes_aborted + 1
  end

type row = {
  r_backend : string;
  r_theta : float;
  r_read_frac : float;
  r_mode : string;  (* "snapshot" | "occ_baseline" *)
  r_reads : int;
  r_writes : int;
  r_read_attempt_aborts : int;
  r_reads_lost : int;
  r_writes_aborted : int;
  r_ro_commits : int;
  r_read_p50 : float;
  r_read_p99 : float;
  r_write_p50 : float;
  r_write_p99 : float;
  r_sum_dev_pct : float;
  r_money : (unit, string) result;  (* runtime fatals, then money *)
  r_audit_bad : int;
  r_missing_snapshot : int;
  r_clock : string;
}

let finish ~backend ~theta ~read_frac ~snapshots ~ro_commits ~money tally
    report =
  let pct lats p =
    let a = Array.of_list lats in
    Array.sort Float.compare a;
    percentile a p
  in
  {
    r_backend = backend;
    r_theta = theta;
    r_read_frac = read_frac;
    r_mode = (if snapshots then "snapshot" else "occ_baseline");
    r_reads = List.length tally.read_lats;
    r_writes = List.length tally.write_lats;
    r_read_attempt_aborts = tally.read_attempt_aborts;
    r_reads_lost = tally.reads_lost;
    r_writes_aborted = tally.writes_aborted;
    r_ro_commits = ro_commits;
    r_read_p50 = pct tally.read_lats 50.;
    r_read_p99 = pct tally.read_lats 99.;
    r_write_p50 = pct tally.write_lats 50.;
    r_write_p99 = pct tally.write_lats 99.;
    r_sum_dev_pct = report.Obs.Report.r_max_sum_dev_pct;
    r_money = money;
    r_audit_bad = tally.audit_bad;
    r_missing_snapshot = tally.missing_snapshot;
    r_clock = report.Obs.Report.r_clock;
  }

(* --- simulator backend: closed-loop workers as engine processes, virtual
   latencies --- *)

let run_sim ~ops_per_worker ~theta ~read_frac ~snapshots =
  let db = Harness.build (SB.decl ~customers:n_cust ()) config in
  let collector =
    Obs.Collector.create ~clock:Obs.Virtual ~containers:n_containers ()
  in
  DB.attach_obs db collector;
  DB.set_snapshots db snapshots;
  let eng = DB.engine db in
  let tallies =
    List.init n_workers (fun w ->
        let t = fresh_tally () in
        Sim.Engine.spawn eng (fun () ->
            let rng =
              Rng.create
                (1 + w + (1000 * int_of_float (theta *. 100.))
                + int_of_float (read_frac *. 10.)
                + if snapshots then 0 else 7)
            in
            let zipf = Rng.Zipf.create ~n:n_cust ~theta in
            for _ = 1 to ops_per_worker do
              let is_read, req = gen rng zipf ~read_frac in
              drive t ~snapshots ~is_read (fun () ->
                  let o =
                    DB.exec_txn db ~reactor:req.W.Wl.reactor
                      ~proc:req.W.Wl.proc ~args:req.W.Wl.args
                  in
                  (o.DB.result, o.DB.latency, o.DB.snapshot));
              Sim.Engine.delay (float_of_int (1 + Rng.int rng 5_000))
            done);
        t)
  in
  ignore (Sim.Engine.run eng);
  let money = Audit.money ~n:n_cust (DB.catalogs db) in
  finish ~backend:"sim" ~theta ~read_frac ~snapshots
    ~ro_commits:(DB.n_readonly_commits db) ~money (merge tallies)
    (Obs.Report.summarize collector)

(* --- runtime backend: one client domain per worker, wall-clock
   latencies --- *)

let run_runtime ~ops_per_worker ~theta ~read_frac ~snapshots =
  let db = RDb.start (SB.decl ~customers:n_cust ()) config in
  let collector =
    Obs.Collector.create ~clock:Obs.Wall ~containers:(RDb.n_domains db) ()
  in
  RDb.attach_obs db collector;
  RDb.set_snapshots db snapshots;
  let doms =
    List.init n_workers (fun w ->
        Domain.spawn (fun () ->
            let t = fresh_tally () in
            let rng =
              Rng.create
                (101 + w + (1000 * int_of_float (theta *. 100.))
                + int_of_float (read_frac *. 10.)
                + if snapshots then 0 else 7)
            in
            let zipf = Rng.Zipf.create ~n:n_cust ~theta in
            for _ = 1 to ops_per_worker do
              let is_read, req = gen rng zipf ~read_frac in
              drive t ~snapshots ~is_read (fun () ->
                  let o =
                    RDb.exec_txn db ~reactor:req.W.Wl.reactor
                      ~proc:req.W.Wl.proc ~args:req.W.Wl.args
                  in
                  (o.RDb.result, o.RDb.latency_us, o.RDb.snapshot))
            done;
            t))
  in
  let tallies = List.map Domain.join doms in
  let ro_commits = RDb.n_readonly_commits db in
  RDb.shutdown db;
  let money =
    Audit.(fatal db >>= fun () -> money ~n:n_cust (RDb.catalogs db))
  in
  finish ~backend:"runtime" ~theta ~read_frac ~snapshots ~ro_commits ~money
    (merge tallies)
    (Obs.Report.summarize collector)

(* --- output + gates --- *)

let row_json r =
  J.Obj
    [
      ("backend", J.Str r.r_backend);
      ("theta", J.Num r.r_theta);
      ("read_frac", J.Num r.r_read_frac);
      ("mode", J.Str r.r_mode);
      ("reads_committed", J.Num (float_of_int r.r_reads));
      ("writes_committed", J.Num (float_of_int r.r_writes));
      ("read_attempt_aborts", J.Num (float_of_int r.r_read_attempt_aborts));
      ("reads_lost", J.Num (float_of_int r.r_reads_lost));
      ("writes_aborted", J.Num (float_of_int r.r_writes_aborted));
      ("readonly_commits", J.Num (float_of_int r.r_ro_commits));
      ("read_p50_us", J.Num r.r_read_p50);
      ("read_p99_us", J.Num r.r_read_p99);
      ("write_p50_us", J.Num r.r_write_p50);
      ("write_p99_us", J.Num r.r_write_p99);
      ("max_sum_dev_pct", J.Num r.r_sum_dev_pct);
      ("money_ok", J.Bool (Result.is_ok r.r_money));
      ("audit_bad_reads", J.Num (float_of_int r.r_audit_bad));
      ("missing_snapshot", J.Num (float_of_int r.r_missing_snapshot));
      ("clock", J.Str r.r_clock);
    ]

let () =
  let fast = ref false in
  let out = ref "BENCH_snapshot.json" in
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
  let sim_ops = if !fast then 40 else 150 in
  let rt_ops = if !fast then 25 else 100 in
  let thetas = [ 0.0; 0.8; 0.99 ] in
  let fracs = [ 0.5; 0.9 ] in
  Printf.printf
    "Snapshot-read sweep: %d customers / %d containers, %d workers (%d sim + \
     %d runtime ops/worker per row)\n%!"
    n_cust n_containers n_workers sim_ops rt_ops;
  let rows = ref [] in
  List.iter
    (fun (_backend, run) ->
      List.iter
        (fun theta ->
          List.iter
            (fun read_frac ->
              List.iter
                (fun snapshots ->
                  let r = run ~theta ~read_frac ~snapshots in
                  Printf.printf
                    "  %-7s theta %.2f read %.1f %-12s  read p50 %9.1f p99 \
                     %9.1f us  ro-aborts %d  sumdev %.3f%%  %s\n%!"
                    r.r_backend r.r_theta r.r_read_frac r.r_mode r.r_read_p50
                    r.r_read_p99 r.r_read_attempt_aborts r.r_sum_dev_pct
                    (match r.r_money with
                    | Error m -> "AUDIT-FAIL: " ^ m
                    | Ok () when r.r_audit_bad = 0 -> "audit-ok"
                    | Ok () -> "AUDIT-FAIL");
                  rows := r :: !rows)
                [ true; false ])
            fracs)
        thetas)
    [
      ("sim", fun ~theta ~read_frac ~snapshots ->
          run_sim ~ops_per_worker:sim_ops ~theta ~read_frac ~snapshots);
      ("runtime", fun ~theta ~read_frac ~snapshots ->
          run_runtime ~ops_per_worker:rt_ops ~theta ~read_frac ~snapshots);
    ];
  let rows = List.rev !rows in
  (* gates *)
  let snap_rows = List.filter (fun r -> r.r_mode = "snapshot") rows in
  let abort_free =
    List.for_all
      (fun r ->
        r.r_read_attempt_aborts = 0 && r.r_reads_lost = 0
        && r.r_missing_snapshot = 0
        && r.r_ro_commits >= r.r_reads)
      snap_rows
  in
  let audit_ok =
    List.for_all (fun r -> Result.is_ok r.r_money && r.r_audit_bad = 0) rows
  in
  let sum_ok = List.for_all (fun r -> r.r_sum_dev_pct <= 1.) rows in
  let find backend frac mode =
    List.find
      (fun r ->
        r.r_backend = backend && r.r_theta = 0.99 && r.r_read_frac = frac
        && r.r_mode = mode)
      rows
  in
  let contention =
    List.concat_map
      (fun backend ->
        List.map
          (fun frac ->
            let snap = find backend frac "snapshot" in
            let occ = find backend frac "occ_baseline" in
            let ok =
              occ.r_reads > 0 && snap.r_read_p99 < occ.r_read_p99
            in
            Printf.printf
              "  theta 0.99 %-7s read %.1f: snapshot p99 %9.1f vs occ p99 \
               %9.1f us  %s\n%!"
              backend frac snap.r_read_p99 occ.r_read_p99
              (if ok then "ok" else "FAIL");
            (backend, frac, snap.r_read_p99, occ.r_read_p99, ok))
          fracs)
      [ "sim"; "runtime" ]
  in
  let contention_ok = List.for_all (fun (_, _, _, _, ok) -> ok) contention in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "snapshot");
        ("schema_version", J.Num (float_of_int Obs.Report.schema_version));
        ("customers", J.Num (float_of_int n_cust));
        ("containers", J.Num (float_of_int n_containers));
        ("workers", J.Num (float_of_int n_workers));
        ("rows", J.List (List.map row_json rows));
        ( "contention_p99",
          J.List
            (List.map
               (fun (backend, frac, sp, op, ok) ->
                 J.Obj
                   [
                     ("backend", J.Str backend);
                     ("read_frac", J.Num frac);
                     ("snapshot_p99_us", J.Num sp);
                     ("occ_p99_us", J.Num op);
                     ("ok", J.Bool ok);
                   ])
               contention) );
        ( "gates",
          J.Obj
            [
              ("abort_free_ok", J.Bool abort_free);
              ("audit_ok", J.Bool audit_ok);
              ("sum_ok", J.Bool sum_ok);
              ("contention_p99_ok", J.Bool contention_ok);
            ] );
      ]
  in
  let oc = open_out !out in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" !out;
  if not abort_free then
    prerr_endline "FAIL: read-only transactions aborted or lost snapshots";
  if not audit_ok then
    prerr_endline "FAIL: snapshot consistency / money conservation audit";
  if not sum_ok then
    prerr_endline "FAIL: phase sums deviate from latency by more than 1%";
  if not contention_ok then
    prerr_endline
      "FAIL: snapshot read p99 not below OCC baseline at theta 0.99";
  if not (abort_free && audit_ok && sum_ok && contention_ok) then exit 1
