(* Elasticity bench: live reconfiguration under load (DESIGN.md §11). Emits
   `BENCH_elasticity.json`.

   Three scenarios:

   1. Migration timeline (runtime): a closed-loop conserving Smallbank mix
      over 4 domains, bucketed into fixed wall-clock windows; a hot
      reactor is force-migrated at two window boundaries. Reports
      per-window throughput and p99, and the pause of each migration.
   2. Virtualization oracle (simulator): the same serial workload run on a
      static deployment and with migrations interleaved must produce
      byte-identical results and physical state (Faultsim.diff).
   3. Autoscaler (runtime): every reactor starts on one domain of four;
      the signal-driven controller must split the hot domain under load.

   Hard gates (non-zero exit on failure):

   - zero lost or duplicated transactions: every attempt yields exactly
     one outcome, committed + aborted = attempts, in every scenario;
   - money conserved (physical audit) after every scenario, and the
     secondary-index audit stays clean;
   - throughput recovery: the mean post-migration window throughput is at
     least 90% of the pre-migration steady state (migration windows
     themselves excluded);
   - migration pause bounded: the worst observed pause stays under
     [pause_bound_us];
   - sim byte-identity: migrated and static serial runs are identical;
   - autoscaler acts: at least one split is applied and the deployment
     ends on more than one domain.

   Usage:
     dune exec bench/elasticity.exe                   full run
     dune exec bench/elasticity.exe -- --fast         shrunken (smoke)
     dune exec bench/elasticity.exe -- --out F.json *)

open Util
module SB = Workloads.Smallbank
module W = Workloads
module J = Obs.Json
module Config = Reactdb.Config
module DB = Reactdb.Database
module RDb = Runtime.Db
module AS = Runtime.Autoscaler

let n_cust = 16
let n_containers = 4
let n_workers = 4
let pause_bound_us = 250_000.

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let i = int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) i))
  end

let pct lats p =
  let a = Array.of_list lats in
  Array.sort Float.compare a;
  percentile a p

(* ------------------------------------------------------------------ *)
(* Scenario 1: migration timeline. Closed-loop workers tag every attempt
   with its wall-clock window; the main thread migrates the hot reactor at
   the configured window boundaries. *)

type window = {
  w_idx : int;
  w_attempts : int;
  w_committed : int;
  w_throughput : float;  (* commits per second *)
  w_p50_us : float;
  w_p99_us : float;
  w_migration : (string * int * float) option;  (* reactor, dst, pause µs *)
}

type timeline = {
  t_windows : window list;
  t_attempts : int;  (* worker-side count: one per submitted root *)
  t_committed : int;
  t_aborted : int;
  t_outcomes : int;  (* worker-side count of outcomes observed *)
  t_pauses : float list;
  t_money_ok : bool;
  t_audit_ok : bool;
  t_fatal_ok : bool;
  t_recovery : float;  (* post/pre steady-state throughput ratio *)
}

let run_timeline ~windows ~window_s ~migrate_at =
  let decl = SB.decl ~customers:n_cust () in
  let cfg =
    Config.shared_nothing (Config.chunk n_containers (SB.customers n_cust))
  in
  let db = RDb.start decl cfg in
  let victim = SB.customer_name 0 in
  let stop = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init n_workers (fun w ->
        Domain.spawn (fun () ->
            (* per-attempt (window, latency_us, committed) samples *)
            let samples = ref [] and attempts = ref 0 in
            let rng = Rng.create (71 + w) in
            while not (Atomic.get stop) do
              let req = SB.gen_conserving rng ~n:n_cust in
              incr attempts;
              let o =
                RDb.exec_txn db ~reactor:req.W.Wl.reactor ~proc:req.W.Wl.proc
                  ~args:req.W.Wl.args
              in
              let wi =
                int_of_float ((Unix.gettimeofday () -. t0) /. window_s)
              in
              samples :=
                (wi, o.RDb.latency_us, Result.is_ok o.RDb.result) :: !samples
            done;
            (!attempts, !samples)))
  in
  (* window clock + forced migrations on the main thread *)
  let migs = ref [] in
  for wi = 0 to windows - 1 do
    let target = t0 +. (float_of_int (wi + 1) *. window_s) in
    (match List.assoc_opt wi migrate_at with
    | Some () ->
      let dst = (RDb.container_of db victim + 1) mod n_containers in
      let pause = RDb.migrate db ~reactor:victim ~dst in
      migs := (wi, victim, dst, pause) :: !migs
    | None -> ());
    let remaining = target -. Unix.gettimeofday () in
    if remaining > 0. then Unix.sleepf remaining
  done;
  Atomic.set stop true;
  let per_worker = List.map Domain.join doms in
  RDb.quiesce db;
  let attempts = List.fold_left (fun a (n, _) -> a + n) 0 per_worker in
  let samples = List.concat_map snd per_worker in
  let committed = RDb.n_committed db and aborted = RDb.n_aborted db in
  let fatal_ok = Result.is_ok (Audit.fatal db) in
  RDb.shutdown db;
  let money_ok = Result.is_ok (Audit.money ~n:n_cust (RDb.catalogs db)) in
  let audit_ok = Result.is_ok (Audit.secondaries (RDb.catalogs db)) in
  let wins =
    List.init windows (fun wi ->
        let mine = List.filter (fun (i, _, _) -> i = wi) samples in
        let commits =
          List.filter (fun (_, _, ok) -> ok) mine |> List.length
        in
        let lats = List.map (fun (_, l, _) -> l) mine in
        {
          w_idx = wi;
          w_attempts = List.length mine;
          w_committed = commits;
          w_throughput = float_of_int commits /. window_s;
          w_p50_us = pct lats 50.;
          w_p99_us = pct lats 99.;
          w_migration =
            List.find_map
              (fun (i, r, d, p) -> if i = wi then Some (r, d, p) else None)
              !migs;
        })
  in
  (* steady state: windows strictly before the first / after the last
     migration window (those windows absorb the pause itself) *)
  let mig_wins = List.map (fun (i, _, _, _) -> i) !migs in
  let recovery =
    match (mig_wins, wins) with
    | [], _ -> 1.
    | _ ->
      let first = List.fold_left Stdlib.min max_int mig_wins in
      let last = List.fold_left Stdlib.max 0 mig_wins in
      let mean sel =
        let xs = List.filter sel wins in
        if xs = [] then 0.
        else
          List.fold_left (fun a w -> a +. w.w_throughput) 0. xs
          /. float_of_int (List.length xs)
      in
      let pre = mean (fun w -> w.w_idx < first) in
      let post = mean (fun w -> w.w_idx > last) in
      if pre <= 0. then 0. else post /. pre
  in
  {
    t_windows = wins;
    t_attempts = attempts;
    t_committed = committed;
    t_aborted = aborted;
    t_outcomes = List.length samples;
    t_pauses = List.map (fun (_, _, _, p) -> p) !migs;
    t_money_ok = money_ok;
    t_audit_ok = audit_ok;
    t_fatal_ok = fatal_ok;
    t_recovery = recovery;
  }

(* ------------------------------------------------------------------ *)
(* Scenario 2: virtualization oracle. A serial conserving workload on the
   simulator, static vs migration-interleaved: results and final physical
   state must be byte-identical (placement is virtualized). *)

let run_byte_identity ~ops =
  let decl = SB.decl ~customers:n_cust () in
  let cfg =
    Config.shared_nothing (Config.chunk n_containers (SB.customers n_cust))
  in
  let reqs =
    let rng = Rng.stream ~seed:907 0 in
    List.init ops (fun _ -> SB.gen_conserving rng ~n:n_cust)
  in
  let plan =
    [ (ops / 4, (SB.customer_name 0, 2));
      (ops / 2, (SB.customer_name 5, 0));
      (3 * ops / 4, (SB.customer_name 0, 3)) ]
  in
  let run migrations =
    let db = Harness.build decl cfg in
    let results = ref [] in
    let eng = DB.engine db in
    Sim.Engine.spawn eng (fun () ->
        results :=
          List.mapi
            (fun i r ->
              (if migrations then
                 match List.assoc_opt i plan with
                 | Some (mr, md) -> ignore (DB.migrate db ~reactor:mr ~dst:md)
                 | None -> ());
              (DB.exec_txn db ~reactor:r.W.Wl.reactor ~proc:r.W.Wl.proc
                 ~args:r.W.Wl.args)
                .DB.result)
            reqs);
    ignore (Sim.Engine.run eng);
    (!results, Faultsim.snapshot (DB.catalogs db), DB.n_migrations db)
  in
  let r_static, st_static, _ = run false in
  let r_mig, st_mig, n_migs = run true in
  let results_equal =
    List.for_all2
      (fun a b ->
        match (a, b) with
        | Ok va, Ok vb -> Value.equal va vb
        | Error ma, Error mb -> ma = mb
        | _ -> false)
      r_static r_mig
  in
  let state_diff = Faultsim.diff st_static st_mig in
  (results_equal, state_diff, n_migs)

(* ------------------------------------------------------------------ *)
(* Scenario 3: autoscaler. Everything starts on domain 0 of 4; under a
   closed-loop load the controller must split the hot domain. *)

let run_autoscaler ~duration_s =
  let customers = 8 in
  let decl = SB.decl ~customers () in
  let cfg =
    Config.custom
      ~executors_per_container:(Array.make n_containers 1)
      ~router:Config.Affinity
      ~placement:(fun _ -> 0)
      ()
  in
  let db = RDb.start decl cfg in
  let ctl = AS.start ~interval_s:0.02 db in
  let stop = Atomic.make false in
  let doms =
    List.init n_workers (fun w ->
        Domain.spawn (fun () ->
            let attempts = ref 0 and outcomes = ref 0 in
            let rng = Rng.create (211 + w) in
            while not (Atomic.get stop) do
              let req = SB.gen_conserving rng ~n:customers in
              incr attempts;
              let o =
                RDb.exec_txn db ~reactor:req.W.Wl.reactor ~proc:req.W.Wl.proc
                  ~args:req.W.Wl.args
              in
              ignore o.RDb.result;
              incr outcomes
            done;
            (!attempts, !outcomes)))
  in
  Unix.sleepf duration_s;
  Atomic.set stop true;
  let per_worker = List.map Domain.join doms in
  AS.stop ctl;
  RDb.quiesce db;
  let attempts = List.fold_left (fun a (n, _) -> a + n) 0 per_worker in
  let outcomes = List.fold_left (fun a (_, n) -> a + n) 0 per_worker in
  let committed = RDb.n_committed db and aborted = RDb.n_aborted db in
  let fatal_ok = Result.is_ok (Audit.fatal db) in
  let splits, merges = AS.moves ctl in
  let domains_used =
    List.sort_uniq Int.compare (List.map snd (RDb.placements db))
  in
  RDb.shutdown db;
  let money_ok = Result.is_ok (Audit.money ~n:customers (RDb.catalogs db)) in
  let audit_ok = Result.is_ok (Audit.secondaries (RDb.catalogs db)) in
  ( attempts, outcomes, committed, aborted, fatal_ok, splits, merges,
    List.length domains_used, money_ok, audit_ok )

(* ------------------------------------------------------------------ *)

let window_json w =
  J.Obj
    ([
       ("window", J.Num (float_of_int w.w_idx));
       ("attempts", J.Num (float_of_int w.w_attempts));
       ("committed", J.Num (float_of_int w.w_committed));
       ("throughput_tps", J.Num w.w_throughput);
       ("p50_us", J.Num w.w_p50_us);
       ("p99_us", J.Num w.w_p99_us);
     ]
    @
    match w.w_migration with
    | None -> []
    | Some (r, d, p) ->
      [
        ( "migration",
          J.Obj
            [
              ("reactor", J.Str r);
              ("dst", J.Num (float_of_int d));
              ("pause_us", J.Num p);
            ] );
      ])

let () =
  let fast = ref false in
  let out = ref "BENCH_elasticity.json" in
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
  let windows = if !fast then 6 else 10 in
  let window_s = if !fast then 0.15 else 0.4 in
  let sim_ops = if !fast then 200 else 800 in
  let auto_s = if !fast then 0.5 else 1.5 in
  let migrate_at = [ (windows / 3, ()); (2 * windows / 3, ()) ] in
  Printf.printf
    "Elasticity: %d customers / %d containers, %d workers, %d windows x %.2fs\n%!"
    n_cust n_containers n_workers windows window_s;

  Printf.printf "\n== migration timeline (runtime) ==\n%!";
  let tl = run_timeline ~windows ~window_s ~migrate_at in
  List.iter
    (fun w ->
      Printf.printf "  window %2d  %8.0f tps  p99 %9.1f us%s\n%!" w.w_idx
        w.w_throughput w.w_p99_us
        (match w.w_migration with
        | Some (r, d, p) ->
          Printf.sprintf "  [migrated %s -> %d, pause %.0f us]" r d p
        | None -> ""))
    tl.t_windows;
  Printf.printf
    "  attempts %d = committed %d + aborted %d; outcomes %d; recovery %.2f\n%!"
    tl.t_attempts tl.t_committed tl.t_aborted tl.t_outcomes tl.t_recovery;
  let accounting_ok =
    tl.t_attempts = tl.t_outcomes
    && tl.t_attempts = tl.t_committed + tl.t_aborted
    && tl.t_fatal_ok
  in
  let recovery_ok = tl.t_recovery >= 0.9 in
  let pause_worst = List.fold_left Float.max 0. tl.t_pauses in
  let pause_ok =
    List.length tl.t_pauses = List.length migrate_at
    && pause_worst < pause_bound_us
  in

  Printf.printf "\n== virtualization oracle (simulator) ==\n%!";
  let results_equal, state_diff, sim_migs = run_byte_identity ~ops:sim_ops in
  let byte_identity_ok = results_equal && state_diff = None && sim_migs = 3 in
  Printf.printf "  %d serial ops, %d migrations: results %s, state %s\n%!"
    sim_ops sim_migs
    (if results_equal then "identical" else "DIVERGED")
    (match state_diff with None -> "byte-identical" | Some d -> "DIFF: " ^ d);

  Printf.printf "\n== autoscaler (runtime) ==\n%!";
  let ( a_attempts, a_outcomes, a_committed, a_aborted, a_fatal_ok, splits,
        merges, a_domains, a_money_ok, a_audit_ok ) =
    run_autoscaler ~duration_s:auto_s
  in
  Printf.printf
    "  attempts %d = committed %d + aborted %d; splits %d merges %d; %d \
     domains in use\n%!"
    a_attempts a_committed a_aborted splits merges a_domains;
  let auto_accounting_ok =
    a_attempts = a_outcomes
    && a_attempts = a_committed + a_aborted
    && a_fatal_ok
  in
  let autoscaler_ok = splits >= 1 && a_domains > 1 in

  let money_ok = tl.t_money_ok && a_money_ok in
  let audit_ok = tl.t_audit_ok && a_audit_ok in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "elasticity");
        ("schema_version", J.Num (float_of_int Obs.Report.schema_version));
        ("customers", J.Num (float_of_int n_cust));
        ("containers", J.Num (float_of_int n_containers));
        ("workers", J.Num (float_of_int n_workers));
        ("window_s", J.Num window_s);
        ("windows", J.List (List.map window_json tl.t_windows));
        ( "timeline",
          J.Obj
            [
              ("attempts", J.Num (float_of_int tl.t_attempts));
              ("committed", J.Num (float_of_int tl.t_committed));
              ("aborted", J.Num (float_of_int tl.t_aborted));
              ("outcomes", J.Num (float_of_int tl.t_outcomes));
              ("recovery_ratio", J.Num tl.t_recovery);
              ("pause_worst_us", J.Num pause_worst);
              ( "pauses_us",
                J.List (List.map (fun p -> J.Num p) (List.rev tl.t_pauses)) );
            ] );
        ( "byte_identity",
          J.Obj
            [
              ("serial_ops", J.Num (float_of_int sim_ops));
              ("migrations", J.Num (float_of_int sim_migs));
              ("results_equal", J.Bool results_equal);
              ( "state_diff",
                match state_diff with None -> J.Null | Some d -> J.Str d );
            ] );
        ( "autoscaler",
          J.Obj
            [
              ("attempts", J.Num (float_of_int a_attempts));
              ("committed", J.Num (float_of_int a_committed));
              ("aborted", J.Num (float_of_int a_aborted));
              ("splits", J.Num (float_of_int splits));
              ("merges", J.Num (float_of_int merges));
              ("domains_in_use", J.Num (float_of_int a_domains));
            ] );
        ( "gates",
          J.Obj
            [
              ("accounting_ok", J.Bool (accounting_ok && auto_accounting_ok));
              ("money_ok", J.Bool money_ok);
              ("audit_ok", J.Bool audit_ok);
              ("recovery_ok", J.Bool recovery_ok);
              ("pause_ok", J.Bool pause_ok);
              ("byte_identity_ok", J.Bool byte_identity_ok);
              ("autoscaler_ok", J.Bool autoscaler_ok);
            ] );
      ]
  in
  let oc = open_out !out in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" !out;
  if not (accounting_ok && auto_accounting_ok) then
    prerr_endline "FAIL: lost or duplicated transactions (accounting)";
  if not money_ok then prerr_endline "FAIL: money not conserved";
  if not audit_ok then prerr_endline "FAIL: secondary-index audit";
  if not recovery_ok then
    prerr_endline "FAIL: throughput did not recover to 90% of steady state";
  if not pause_ok then prerr_endline "FAIL: migration pause unbounded";
  if not byte_identity_ok then
    prerr_endline "FAIL: migrated sim run diverged from static placement";
  if not autoscaler_ok then
    prerr_endline "FAIL: autoscaler applied no split under hot load";
  if
    not
      (accounting_ok && auto_accounting_ok && money_ok && audit_ok
     && recovery_ok && pause_ok && byte_identity_ok && autoscaler_ok)
  then exit 1
