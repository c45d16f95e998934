(* Log-shipping replication bench: gates the replica/failover machinery
   (DESIGN.md §12) on end-to-end correctness audits.

   Scenarios:
   - steady: simulator backend in durable group-commit mode shipping its
     WAL to two replicas in epoch-tagged batches while a conserving
     Smallbank mix runs. Replica reads ([sum_all], declared read-only)
     are audited at every shipping round: served at the replica's
     watermark epoch they must sum to the loaded total *exactly*, every
     time — lag is visible as staleness, never as inconsistency. At
     quiescence the replicas must converge byte-for-byte to the primary
     (Faultsim.diff), pass the secondary-index audit, and publish
     zero-lag rows through Obs.
   - failover: a seeded [Chaos.Kill_primary] probe crashes the primary
     mid-2PC (the coordinator fences; its in-flight decision rolls
     back); every subsequent submission is refused at admission. The
     surviving durable log is handed to the replicas ([final_ship]) and
     the freshest one is promoted through the recovery-equivalence
     oracle under a bumped generation. Gates: exact attempt accounting
     (committed + aborted + fenced refusals = attempts), zero lost
     committed transactions (every positive-TID entry in the primary's
     durable log is present in the promoted replica's log, and their
     count equals the committed write transactions observed by the
     load), money conserved on the promoted state, bounded wall-clock
     failover pause, and a resumed engine seeded from the promoted log
     serving a fresh conserving load that still conserves money.
   - shipment-chaos: [Drop_shipment] (batch lost in flight; the
     replica's unchanged watermark re-requests it next round) and
     [Delay_shipment] (batch held one round) against the shipper. Gates:
     the injector fired, and the replicas still converge to the durable
     epoch with money conserved after the final hand-off.

   Usage:
     dune exec bench/replication.exe                    full run
     dune exec bench/replication.exe -- --fast          shrunken run
     dune exec bench/replication.exe -- --seed N        chaos/load seed
     dune exec bench/replication.exe -- --out F.json    write elsewhere *)

module DB = Reactdb.Database
module SB = Workloads.Smallbank
module Wl = Workloads.Wl
module J = Obs.Json
module Value = Util.Value

(* Committed write transactions log exactly one entry each, stamped with
   the transaction's positive OCC id; migrations log negative ids. The
   positive-id count is therefore the committed-write count — the unit of
   the zero-lost-committed gate. *)
let committed_entries entries =
  List.length (List.filter (fun e -> e.Wal.le_txn > 0) entries)

let is_write_proc proc = proc <> "balance" && proc <> "sum_all"

(* One shipping round followed by a replica-read audit: [sum_all] fans
   out over every customer at the replica's frozen watermark epoch, so
   the grand total must equal the loaded total exactly — at every lag. *)
let audit_replica_reads ~n replicas served bad =
  let args = List.map (fun c -> Value.Str c) (List.tl (SB.customers n)) in
  List.iter
    (fun r ->
      incr served;
      match
        Replica.exec_ro r ~reactor:(SB.customer_name 0) ~proc:"sum_all" ~args
      with
      | Ok v ->
        let total = Value.to_number v in
        if Float.abs (total -. SB.loaded_money ~customers:n) > 1e-6 then
          incr bad
      | Error _ -> incr bad)
    replicas

type steady = {
  st_txns : int;
  st_committed : int;
  st_aborted : int;
  st_rounds : int;
  st_ro_reads : int;
  st_ro_bad : int;
  st_durable_epoch : int;
  st_watermarks : int list;
  st_bytes : int list;
  st_obs_rows : int;
  st_converged : bool;
  st_identical : bool;
  st_money_ok : bool;
  st_audit_ok : bool;
  st_reads_ok : bool;
}

let run_steady ~seed ~fast =
  let n = if fast then 32 else 128 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let db = Harness.build decl cfg in
  let log = Wal.in_memory () in
  DB.attach_wal db log;
  let replicas = [ Replica.create ~id:0 decl; Replica.create ~id:1 decl ] in
  let sh =
    Replica.Shipper.create
      ~log
      ~durable_epoch:(fun () -> DB.durable_epoch db)
      ~gen:(fun () -> DB.generation db)
      replicas
  in
  let txns = if fast then 150 else 600 in
  let rng = Util.Rng.create seed in
  let ok = ref 0 and err = ref 0 in
  let served = ref 0 and bad = ref 0 in
  let eng = DB.engine db in
  Sim.Engine.spawn eng (fun () ->
      for i = 1 to txns do
        let r = SB.gen_conserving rng ~n in
        (match
           (DB.exec_txn db ~reactor:r.Wl.reactor ~proc:r.Wl.proc
              ~args:r.Wl.args)
             .DB.result
         with
        | Ok _ -> incr ok
        | Error _ -> incr err);
        if i mod 10 = 0 then begin
          Replica.Shipper.round sh;
          audit_replica_reads ~n replicas served bad
        end
      done);
  ignore (Sim.Engine.run eng);
  Replica.Shipper.final_ship sh;
  let durable = DB.durable_epoch db in
  let converged =
    List.for_all (fun r -> Replica.watermark r = durable) replicas
  in
  let prim = Faultsim.snapshot (DB.catalogs db) in
  let identical =
    List.for_all
      (fun r -> Faultsim.diff prim (Faultsim.snapshot (Replica.catalogs r))
                = None)
      replicas
  in
  let money =
    List.for_all
      (fun r -> Result.is_ok (Audit.money ~n (Replica.catalogs r)))
      replicas
  in
  let audit =
    List.for_all
      (fun r -> Result.is_ok (Audit.secondaries (Replica.catalogs r)))
      replicas
  in
  let coll = Obs.Collector.create ~clock:Obs.Virtual ~containers:2 () in
  Replica.Shipper.publish_obs sh coll;
  let report = Obs.Report.summarize coll in
  let obs_rows = List.length report.Obs.Report.r_repl in
  let obs_zero_lag =
    List.for_all
      (fun rr -> rr.Obs.rr_epochs_behind = 0 && rr.Obs.rr_bytes_behind = 0)
      report.Obs.Report.r_repl
  in
  {
    st_txns = txns;
    st_committed = !ok;
    st_aborted = !err;
    st_rounds = Replica.Shipper.rounds sh;
    st_ro_reads = !served;
    st_ro_bad = !bad;
    st_durable_epoch = durable;
    st_watermarks = List.map Replica.watermark replicas;
    st_bytes = List.map Replica.bytes_applied replicas;
    st_obs_rows = obs_rows;
    st_converged = converged && obs_zero_lag;
    st_identical = identical;
    st_money_ok = money;
    st_audit_ok = audit;
    st_reads_ok = (!served > 0 && !bad = 0);
  }

type failover = {
  fo_attempts : int;
  fo_committed : int;
  fo_aborted : int;
  fo_fenced : int;
  fo_committed_writes : int;
  fo_kills : int;
  fo_fenced_flag : bool;
  fo_accounting_ok : bool;
  fo_promoted : int;
  fo_promoted_gen : int;
  fo_promoted_epoch : int;
  fo_log_entries : int;
  fo_pause_ms : float;
  fo_promotion_ok : bool;
  fo_no_lost_ok : bool;
  fo_money_ok : bool;
  fo_pause_ok : bool;
  fo_resume_committed : int;
  fo_resume_money_ok : bool;
}

let run_failover ~seed ~fast =
  let n = if fast then 32 else 128 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let db = Harness.build decl cfg in
  let log = Wal.in_memory () in
  DB.attach_wal db log;
  let chaos = Chaos.make ~seed ~kind:Chaos.Kill_primary ~p:0.05 () in
  DB.attach_chaos db chaos;
  let replicas = [ Replica.create ~id:0 decl; Replica.create ~id:1 decl ] in
  let sh =
    Replica.Shipper.create
      ~log
      ~durable_epoch:(fun () -> DB.durable_epoch db)
      ~gen:(fun () -> DB.generation db)
      replicas
  in
  let txns = if fast then 200 else 800 in
  let rng = Util.Rng.create seed in
  let ok = ref 0 and err = ref 0 and ok_writes = ref 0 in
  let eng = DB.engine db in
  Sim.Engine.spawn eng (fun () ->
      for i = 1 to txns do
        let r = SB.gen_conserving rng ~n in
        (match
           (DB.exec_txn db ~reactor:r.Wl.reactor ~proc:r.Wl.proc
              ~args:r.Wl.args)
             .DB.result
         with
        | Ok _ ->
          incr ok;
          if is_write_proc r.Wl.proc then incr ok_writes
        | Error _ -> incr err);
        if i mod 10 = 0 then Replica.Shipper.round sh
      done);
  ignore (Sim.Engine.run eng);
  let fenced = DB.fenced db in
  let refusals = DB.n_fenced_refusals db in
  let kills = Chaos.injections chaos in
  (* The failover pause: hand the surviving durable log to the replicas
     and run the promotion oracle. Wall clock, not virtual — this is the
     orchestrator's own work, not simulated execution. *)
  let t0 = Unix.gettimeofday () in
  Replica.Shipper.final_ship sh;
  let promoted = Option.get (Replica.freshest replicas) in
  let promo = Replica.promote ~gen:(DB.generation db + 1) promoted in
  let pause_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let committed_primary = committed_entries (Wal.entries log) in
  let committed_replica = committed_entries (Replica.log promoted) in
  let no_lost =
    committed_replica = committed_primary && committed_primary = !ok_writes
  in
  let money = Result.is_ok (Audit.money ~n (Replica.catalogs promoted)) in
  (* Resume a fresh engine from the promoted log: recovery-by-replay
     into new catalogs plus the shipped placements, admitting under the
     promoted generation. A fresh engine's epoch clock restarts at 1, so
     snapshot reads (which would run below the replayed records' epochs)
     are disabled on the resumed node — DESIGN.md §12. *)
  let db2 = Harness.build decl cfg in
  DB.set_snapshots db2 false;
  (match promo with
  | Ok pm -> DB.set_generation db2 pm.Replica.pm_gen
  | Error _ -> ());
  ignore
    (Wal.replay (Replica.log promoted)
       ~catalog_of:(fun nm -> DB.catalog_of db2 nm));
  DB.apply_placements db2 (Replica.placements promoted);
  let resume_txns = txns / 4 in
  let ok2 = ref 0 in
  let eng2 = DB.engine db2 in
  Sim.Engine.spawn eng2 (fun () ->
      for _ = 1 to resume_txns do
        let r = SB.gen_conserving rng ~n in
        match
          (DB.exec_txn db2 ~reactor:r.Wl.reactor ~proc:r.Wl.proc
             ~args:r.Wl.args)
            .DB.result
        with
        | Ok _ -> incr ok2
        | Error _ -> ()
      done);
  ignore (Sim.Engine.run eng2);
  let resume_money = Result.is_ok (Audit.money ~n (DB.catalogs db2)) in
  {
    fo_attempts = txns;
    fo_committed = !ok;
    fo_aborted = !err;
    fo_fenced = refusals;
    fo_committed_writes = !ok_writes;
    fo_kills = kills;
    fo_fenced_flag = fenced;
    fo_accounting_ok = (!ok + !err = txns && refusals <= !err && kills = 1);
    fo_promoted = Replica.id promoted;
    fo_promoted_gen =
      (match promo with Ok pm -> pm.Replica.pm_gen | Error _ -> -1);
    fo_promoted_epoch =
      (match promo with Ok pm -> pm.Replica.pm_epoch | Error _ -> -1);
    fo_log_entries = List.length (Replica.log promoted);
    fo_pause_ms = pause_ms;
    fo_promotion_ok =
      (match promo with
      | Ok pm -> fenced && pm.Replica.pm_gen > DB.generation db
      | Error _ -> false);
    fo_no_lost_ok = no_lost;
    fo_money_ok = money;
    fo_pause_ok = pause_ms < 1000.;
    fo_resume_committed = !ok2;
    fo_resume_money_ok = (resume_money && !ok2 > 0);
  }

type shipfault = {
  sf_fault : string;
  sf_injections : int;
  sf_dropped : int;
  sf_delayed : int;
  sf_refused : int;
  sf_rounds : int;
  sf_converged : bool;
  sf_money_ok : bool;
  sf_fired_ok : bool;
}

let run_ship_chaos ~seed ~fast ~kind =
  let n = if fast then 32 else 96 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let db = Harness.build decl cfg in
  let log = Wal.in_memory () in
  DB.attach_wal db log;
  let chaos = Chaos.make ~seed ~kind ~p:0.4 () in
  let replicas = [ Replica.create ~id:0 decl; Replica.create ~id:1 decl ] in
  let sh =
    Replica.Shipper.create ~chaos
      ~log
      ~durable_epoch:(fun () -> DB.durable_epoch db)
      ~gen:(fun () -> DB.generation db)
      replicas
  in
  let txns = if fast then 150 else 500 in
  let rng = Util.Rng.create seed in
  let eng = DB.engine db in
  Sim.Engine.spawn eng (fun () ->
      for i = 1 to txns do
        let r = SB.gen_conserving rng ~n in
        ignore
          (DB.exec_txn db ~reactor:r.Wl.reactor ~proc:r.Wl.proc ~args:r.Wl.args);
        if i mod 5 = 0 then Replica.Shipper.round sh
      done);
  ignore (Sim.Engine.run eng);
  Replica.Shipper.final_ship sh;
  let durable = DB.durable_epoch db in
  let converged =
    List.for_all (fun r -> Replica.watermark r = durable) replicas
  in
  let money =
    List.for_all
      (fun r -> Result.is_ok (Audit.money ~n (Replica.catalogs r)))
      replicas
  in
  {
    sf_fault = Chaos.kind_name kind;
    sf_injections = Chaos.injections chaos;
    sf_dropped = Replica.Shipper.dropped sh;
    sf_delayed = Replica.Shipper.delayed sh;
    sf_refused = List.fold_left (fun a r -> a + Replica.n_refused r) 0 replicas;
    sf_rounds = Replica.Shipper.rounds sh;
    sf_converged = converged;
    sf_money_ok = money;
    sf_fired_ok = Chaos.injections chaos > 0;
  }

(* ------------------------------------------------------------------ *)

let () =
  let fast = ref false in
  let seed = ref 42 in
  let out = ref "BENCH_replication.json" in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      parse rest
    | "--seed" :: s :: rest ->
      seed := int_of_string s;
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
  let fast = !fast and seed = !seed in
  Printf.printf "Replication bench (seed %d)\n%!" seed;
  let st = run_steady ~seed ~fast in
  Printf.printf
    "  steady:   %d txns (%d ok), %d rounds, %d replica reads (%d bad), \
     durable epoch %d, watermarks [%s]\n%!"
    st.st_txns st.st_committed st.st_rounds st.st_ro_reads st.st_ro_bad
    st.st_durable_epoch
    (String.concat "; " (List.map string_of_int st.st_watermarks));
  let fo = run_failover ~seed ~fast in
  Printf.printf
    "  failover: %d attempts = %d ok + %d aborted (%d fenced refusals), %d \
     kill, promoted replica %d gen %d epoch %d (%d entries, pause %.1f ms), \
     resumed %d ok\n%!"
    fo.fo_attempts fo.fo_committed fo.fo_aborted fo.fo_fenced fo.fo_kills
    fo.fo_promoted fo.fo_promoted_gen fo.fo_promoted_epoch fo.fo_log_entries
    fo.fo_pause_ms fo.fo_resume_committed;
  let drop = run_ship_chaos ~seed ~fast ~kind:Chaos.Drop_shipment in
  let delay = run_ship_chaos ~seed ~fast ~kind:Chaos.Delay_shipment in
  List.iter
    (fun sf ->
      Printf.printf
        "  %s: %d injections (%d dropped, %d delayed), %d rounds, converged \
         %b\n%!"
        sf.sf_fault sf.sf_injections sf.sf_dropped sf.sf_delayed sf.sf_rounds
        sf.sf_converged)
    [ drop; delay ];
  let shipfault_json sf =
    J.Obj
      [
        ("fault", J.Str sf.sf_fault);
        ("injections", J.Num (float_of_int sf.sf_injections));
        ("dropped", J.Num (float_of_int sf.sf_dropped));
        ("delayed", J.Num (float_of_int sf.sf_delayed));
        ("refused", J.Num (float_of_int sf.sf_refused));
        ("rounds", J.Num (float_of_int sf.sf_rounds));
        ("converged", J.Bool sf.sf_converged);
        ("money_ok", J.Bool sf.sf_money_ok);
        ("fired", J.Bool sf.sf_fired_ok);
      ]
  in
  let steady_ok =
    st.st_converged && st.st_identical && st.st_money_ok && st.st_audit_ok
    && st.st_reads_ok && st.st_obs_rows = 2
  in
  let failover_ok =
    fo.fo_fenced_flag && fo.fo_accounting_ok && fo.fo_promotion_ok
    && fo.fo_no_lost_ok && fo.fo_money_ok && fo.fo_pause_ok
    && fo.fo_resume_money_ok
  in
  let chaos_ok =
    drop.sf_fired_ok && drop.sf_converged && drop.sf_money_ok
    && delay.sf_fired_ok && delay.sf_converged && delay.sf_money_ok
  in
  let doc =
    J.Obj
      [
        ("benchmark", J.Str "replication");
        ("schema_version", J.Num (float_of_int Obs.Report.schema_version));
        ("seed", J.Num (float_of_int seed));
        ( "steady",
          J.Obj
            [
              ("txns", J.Num (float_of_int st.st_txns));
              ("committed", J.Num (float_of_int st.st_committed));
              ("aborted", J.Num (float_of_int st.st_aborted));
              ("shipping_rounds", J.Num (float_of_int st.st_rounds));
              ("replica_reads", J.Num (float_of_int st.st_ro_reads));
              ("replica_reads_bad", J.Num (float_of_int st.st_ro_bad));
              ("durable_epoch", J.Num (float_of_int st.st_durable_epoch));
              ( "watermarks",
                J.List
                  (List.map (fun w -> J.Num (float_of_int w)) st.st_watermarks)
              );
              ( "bytes_applied",
                J.List
                  (List.map (fun b -> J.Num (float_of_int b)) st.st_bytes) );
              ("obs_repl_rows", J.Num (float_of_int st.st_obs_rows));
            ] );
        ( "failover",
          J.Obj
            [
              ("attempts", J.Num (float_of_int fo.fo_attempts));
              ("committed", J.Num (float_of_int fo.fo_committed));
              ("aborted", J.Num (float_of_int fo.fo_aborted));
              ("fenced_refusals", J.Num (float_of_int fo.fo_fenced));
              ("committed_writes", J.Num (float_of_int fo.fo_committed_writes));
              ("kill_injections", J.Num (float_of_int fo.fo_kills));
              ("promoted_replica", J.Num (float_of_int fo.fo_promoted));
              ("promoted_generation", J.Num (float_of_int fo.fo_promoted_gen));
              ("promoted_epoch", J.Num (float_of_int fo.fo_promoted_epoch));
              ("log_entries", J.Num (float_of_int fo.fo_log_entries));
              ("pause_ms", J.Num fo.fo_pause_ms);
              ("resume_committed", J.Num (float_of_int fo.fo_resume_committed));
            ] );
        ("shipment_faults", J.List [ shipfault_json drop; shipfault_json delay ]);
        ( "gates",
          J.Obj
            [
              ("steady_converged", J.Bool st.st_converged);
              ("steady_identical_to_primary", J.Bool st.st_identical);
              ("steady_replica_reads_consistent", J.Bool st.st_reads_ok);
              ("steady_money_ok", J.Bool st.st_money_ok);
              ("steady_secondary_audit_ok", J.Bool st.st_audit_ok);
              ("failover_fenced", J.Bool fo.fo_fenced_flag);
              ("failover_accounting_ok", J.Bool fo.fo_accounting_ok);
              ("failover_promotion_ok", J.Bool fo.fo_promotion_ok);
              ("failover_zero_lost_committed", J.Bool fo.fo_no_lost_ok);
              ("failover_money_ok", J.Bool fo.fo_money_ok);
              ("failover_pause_ok", J.Bool fo.fo_pause_ok);
              ("failover_resume_ok", J.Bool fo.fo_resume_money_ok);
              ("shipment_chaos_ok", J.Bool chaos_ok);
            ] );
      ]
  in
  let oc = open_out !out in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" !out;
  if not steady_ok then
    prerr_endline "FAIL: steady-state replication gates violated";
  if not failover_ok then prerr_endline "FAIL: failover gates violated";
  if not chaos_ok then prerr_endline "FAIL: shipment-chaos gates violated";
  if not (steady_ok && failover_ok && chaos_ok) then exit 1
