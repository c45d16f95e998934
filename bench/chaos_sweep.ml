(* Chaos-injection sweep: drives the overload-safe runtime through every
   fault class and gates the numbers on correctness audits.

   Scenarios:
   - matrix: Smallbank (conserving mix) and YCSB multi-update on 1 and 4
     domains under each runtime fault class (none, delivery-delay,
     domain-stall, prepare-stall), fixed transaction counts with retries.
   - deadline: Smallbank under heavy delivery delay with a tight
     per-transaction deadline — timeouts must occur and unwind cleanly.
   - fanout-delay: the multi-transfer fan-out/collect formulation on a
     shared-nothing-async deployment under seeded delivery delay — the
     parallel sub-calls of each root ship concurrently, so a delayed
     delivery must neither reorder any producer's FIFO nor drop a collect
     waker (checked by the accounting identity and quiescence).
   - overload: a saturating closed-loop run against a small --mailbox-cap;
     admission sheds must occur and p99 latency must stay bounded.
   - flush-stall: the simulator backend in durable group-commit mode with a
     stalling WAL flusher (virtual-time injection).
   - shipping: the durable simulator backend shipping its WAL to two
     replicas under seeded shipment faults (batches dropped in flight or
     delayed a round); replicas must still converge to the durable epoch
     with money conserved.

   Every scenario is gated: zero internal errors, exact money conservation
   (Smallbank) / one row per key reactor (YCSB), secondary-index audit,
   the attempt-accounting identity commits + aborts = logical + retries,
   and bounded wall-clock progress; the runtime scenarios' recorded
   histories must also certify as conflict-serializable. Any violated
   audit makes the process exit non-zero — throughput under faults is
   only meaningful if the faulted execution was still correct.

   Usage:
     dune exec bench/chaos_sweep.exe                    full run
     dune exec bench/chaos_sweep.exe -- --fast          shrunken run
     dune exec bench/chaos_sweep.exe -- --seed N        fault schedule seed
     dune exec bench/chaos_sweep.exe -- --out F.json    write elsewhere *)

module RDb = Runtime.Db
module SDb = Reactdb.Database
module SB = Workloads.Smallbank
module Config = Reactdb.Config
open Audit

type row = {
  rw_scenario : string;  (** "matrix" | "deadline" | "overload" | "flush-stall" *)
  rw_workload : string;
  rw_fault : string;  (** Chaos kind name or "none" *)
  rw_domains : int;
  rw_committed : int;
  rw_aborted : int;
  rw_retries : int;
  rw_timeouts : int;
  rw_sheds : int;
  rw_injections : int;
  rw_p99_us : float;
  rw_elapsed_s : float;
  rw_audit : (unit, string) result;
}

let count_reason reasons name =
  match List.assoc_opt name reasons with Some n -> n | None -> 0

let bounded_audit ~elapsed_s ~ceiling_s =
  if elapsed_s < ceiling_s then Ok ()
  else
    Error
      (Printf.sprintf "wall-clock progress not bounded: %.1fs >= %.1fs ceiling"
         elapsed_s ceiling_s)

(* The runtime's history, recorded from [start], certifies. *)
let certified db () = Result.map ignore (certify (RDb.history db))

(* --- scenarios --- *)

type workload = Smallbank of int | Ycsb of int

let workload_name = function
  | Smallbank _ -> "smallbank-conserving"
  | Ycsb _ -> "ycsb-multi-update"

(* Fixed-count closed-loop run of one workload on [d] domains under one
   fault class, with transient-abort retries and default backoff. *)
let run_matrix ~seed ~fast ~wl ~d ~fault =
  let decl, names =
    match wl with
    | Smallbank n -> (SB.decl ~customers:n (), SB.customers n)
    | Ycsb n -> (Workloads.Ycsb.decl ~keys:n (), Workloads.Ycsb.keys n)
  in
  let cfg = Config.shared_nothing (Config.chunk d names) in
  let chaos =
    match fault with
    | None -> Chaos.none
    | Some kind -> Chaos.make ~seed ~kind ~p:0.05 ~delay_us:1000. ()
  in
  let db = RDb.start ~chaos decl cfg in
  RDb.enable_history db;
  let gen =
    match wl with
    | Smallbank n -> fun _ rng -> SB.gen_conserving rng ~n
    | Ycsb n ->
      let p = Workloads.Ycsb.params ~txn_keys:10 ~theta:0.5 n in
      fun _ rng ->
        Workloads.Ycsb.gen_multi_update rng p
          ~container_of:(RDb.container_of db)
  in
  let n_workers = 8 and per_worker = if fast then 25 else 150 in
  let t0 = Unix.gettimeofday () in
  let retries =
    Harness.run_fixed ~max_retries:3 (Harness.runtime db) ~n_workers
      ~per_worker ~seed gen
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  RDb.shutdown db;
  let committed = RDb.n_committed db and aborted = RDb.n_aborted db in
  let reasons = RDb.aborts_by_reason db in
  let invariant_audit () =
    match wl with
    | Smallbank n -> money ~n (RDb.catalogs db)
    | Ycsb _ -> ycsb_rows (RDb.catalogs db)
  in
  let audit =
    fatal db >>= invariant_audit
    >>= (fun () ->
          accounting ~committed ~aborted
            ~logical:(n_workers * per_worker) ~retries)
    >>= (fun () -> bounded_audit ~elapsed_s ~ceiling_s:120.)
    >>= (fun () -> secondaries (RDb.catalogs db))
    >>= certified db
  in
  {
    rw_scenario = "matrix";
    rw_workload = workload_name wl;
    rw_fault =
      (match fault with None -> "none" | Some k -> Chaos.kind_name k);
    rw_domains = d;
    rw_committed = committed;
    rw_aborted = aborted;
    rw_retries = retries;
    rw_timeouts = count_reason reasons "timeout";
    rw_sheds = count_reason reasons "overloaded";
    rw_injections = Chaos.injections chaos;
    rw_p99_us = 0.;
    rw_elapsed_s = elapsed_s;
    rw_audit = audit;
  }

(* Tight per-transaction deadlines under heavy delivery delay: timeouts
   must fire, and a timed-out root must unwind cleanly (locks released,
   2PC participants aborted) — checked indirectly by money conservation
   and by the runtime staying fatal-free. *)
let run_deadline ~seed ~fast =
  let n = if fast then 64 else 256 in
  let decl = SB.decl ~customers:n () in
  let cfg = Config.shared_nothing (Config.chunk 2 (SB.customers n)) in
  let chaos =
    Chaos.make ~seed ~kind:Chaos.Delay_delivery ~p:0.5 ~delay_us:5000. ()
  in
  let db = RDb.start ~chaos decl cfg in
  RDb.enable_history db;
  let n_workers = 8 and per_worker = if fast then 25 else 100 in
  let t0 = Unix.gettimeofday () in
  let retries =
    Harness.run_fixed ~deadline_us:1000. (Harness.runtime db) ~n_workers
      ~per_worker ~seed
      (fun _ rng -> SB.gen_conserving rng ~n)
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  RDb.shutdown db;
  let committed = RDb.n_committed db and aborted = RDb.n_aborted db in
  let reasons = RDb.aborts_by_reason db in
  let timeouts = count_reason reasons "timeout" in
  let audit =
    fatal db
    >>= (fun () -> money ~n (RDb.catalogs db))
    >>= (fun () ->
          accounting ~committed ~aborted
            ~logical:(n_workers * per_worker) ~retries)
    >>= (fun () ->
          if timeouts > 0 then Ok ()
          else Error "expected deadline timeouts under 5ms delivery delay, saw none")
    >>= certified db
  in
  {
    rw_scenario = "deadline";
    rw_workload = "smallbank-conserving";
    rw_fault = "delivery-delay";
    rw_domains = 2;
    rw_committed = committed;
    rw_aborted = aborted;
    rw_retries = retries;
    rw_timeouts = timeouts;
    rw_sheds = count_reason reasons "overloaded";
    rw_injections = Chaos.injections chaos;
    rw_p99_us = 0.;
    rw_elapsed_s = elapsed_s;
    rw_audit = audit;
  }

(* Seeded delivery delay against the fan-out/collect formulation on a
   shared-nothing-async deployment (the morph knob selects Collect): each
   root has up to three sub-calls in flight at once, so a delayed delivery
   lands between concurrently outstanding futures. The audits require that
   every attempt still completes exactly once (no dropped collect waker),
   money is conserved (no partial fan-out commits), and the run quiesces
   within the ceiling (no producer FIFO wedged by reordering). *)
let run_fanout_delay ~seed ~fast =
  let n = if fast then 64 else 256 in
  let decl = SB.decl ~customers:n () in
  let cfg = Config.shared_nothing_async (Config.chunk 4 (SB.customers n)) in
  let form = SB.formulation_for cfg in
  let chaos =
    Chaos.make ~seed ~kind:Chaos.Delay_delivery ~p:0.2 ~delay_us:2000. ()
  in
  let db = RDb.start ~chaos decl cfg in
  RDb.enable_history db;
  let gen _ rng =
    let src = Util.Rng.int rng n in
    let rec pick acc k =
      if k = 0 then List.rev acc
      else
        let d = Util.Rng.pick_except rng n src in
        if List.mem d acc then pick acc k else pick (d :: acc) (k - 1)
    in
    SB.multi_transfer_request form
      ~src:(SB.customer_name src)
      ~dests:(List.map SB.customer_name (pick [] 3))
      ~amount:1.
  in
  let n_workers = 8 and per_worker = if fast then 25 else 100 in
  let t0 = Unix.gettimeofday () in
  let retries =
    Harness.run_fixed ~max_retries:3 (Harness.runtime db) ~n_workers
      ~per_worker ~seed gen
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  RDb.shutdown db;
  let committed = RDb.n_committed db and aborted = RDb.n_aborted db in
  let reasons = RDb.aborts_by_reason db in
  let audit =
    fatal db
    >>= (fun () -> money ~n (RDb.catalogs db))
    >>= (fun () ->
          accounting ~committed ~aborted
            ~logical:(n_workers * per_worker) ~retries)
    >>= (fun () ->
          if committed > 0 then Ok ()
          else Error "no fan-out commits under delivery delay")
    >>= (fun () ->
          if Chaos.injections chaos > 0 then Ok ()
          else Error "delivery-delay injector never fired")
    >>= (fun () -> bounded_audit ~elapsed_s ~ceiling_s:120.)
    >>= (fun () -> secondaries (RDb.catalogs db))
    >>= certified db
  in
  {
    rw_scenario = "fanout-delay";
    rw_workload = "smallbank-multi-transfer-" ^ SB.formulation_name form;
    rw_fault = "delivery-delay";
    rw_domains = 4;
    rw_committed = committed;
    rw_aborted = aborted;
    rw_retries = retries;
    rw_timeouts = count_reason reasons "timeout";
    rw_sheds = count_reason reasons "overloaded";
    rw_injections = Chaos.injections chaos;
    rw_p99_us = 0.;
    rw_elapsed_s = elapsed_s;
    rw_audit = audit;
  }

(* Saturating closed-loop run against a small admission cap: sheds must
   occur (backpressure is engaged) and committed-transaction p99 must stay
   bounded — shedding keeps the queues, hence the latencies, short. *)
let run_overload ~seed ~fast =
  let n = if fast then 64 else 256 in
  let decl = SB.decl ~customers:n () in
  let cfg = Config.shared_nothing (Config.chunk 2 (SB.customers n)) in
  let db = RDb.start ~mailbox_cap:4 decl cfg in
  RDb.enable_history db;
  let s =
    Harness.spec
      ~warmup_epochs:(if fast then 1 else 4)
      ~epochs:(if fast then 6 else 20)
      ~epoch_us:50_000. ~seed ~n_workers:32
      (fun _ rng -> SB.gen_conserving rng ~n)
  in
  let t0 = Unix.gettimeofday () in
  let r = Harness.run (Harness.runtime db) s in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  RDb.shutdown db;
  let sheds = count_reason r.Harness.aborts_by_reason "overloaded" in
  let p99_ceiling_us = 100_000. in
  let audit =
    fatal db
    >>= (fun () -> money ~n (RDb.catalogs db))
    >>= (fun () ->
          if sheds > 0 then Ok ()
          else Error "expected admission sheds at mailbox_cap=4, saw none")
    >>= (fun () ->
          if r.Harness.p99_latency < p99_ceiling_us then Ok ()
          else
            Error
              (Printf.sprintf "p99 not bounded under overload: %.0fus >= %.0fus"
                 r.Harness.p99_latency p99_ceiling_us))
    >>= certified db
  in
  {
    rw_scenario = "overload";
    rw_workload = "smallbank-conserving";
    rw_fault = "none";
    rw_domains = 2;
    rw_committed = r.Harness.committed;
    rw_aborted = r.Harness.aborted;
    rw_retries = r.Harness.retries;
    rw_timeouts = count_reason r.Harness.aborts_by_reason "timeout";
    rw_sheds = sheds;
    rw_injections = 0;
    rw_p99_us = r.Harness.p99_latency;
    rw_elapsed_s = elapsed_s;
    rw_audit = audit;
  }

(* Each group-commit flush draws one [Stall_flush] probe, which fires
   with p = 0.5. One short run draws only a few, so the scenario repeats
   its run until at least this many have been drawn: a row with no
   injection is then a 2^-20 (about 1e-6) event for every seed. *)
let min_flush_probes = 20

(* Simulator backend, durable group commit, stalling WAL flusher: the
   stall is charged as virtual delay inside the flusher, so every epoch's
   waiters feel it; commits must still conserve money and flushes must
   still happen. *)
let run_flush_stall ~seed ~fast =
  let n = if fast then 64 else 256 in
  let decl = SB.decl ~customers:n () in
  let cfg = Config.shared_nothing (Config.chunk 2 (SB.customers n)) in
  let db = Harness.build decl cfg in
  let log = Wal.in_memory () in
  SDb.attach_wal db log;
  let chaos =
    Chaos.make ~seed ~kind:Chaos.Stall_flush ~p:0.5 ~delay_us:10_000. ()
  in
  SDb.attach_chaos db chaos;
  let s =
    Harness.spec
      ~epochs:(if fast then 5 else 15)
      ~epoch_us:20_000. ~warmup_epochs:1 ~seed ~n_workers:8
      (fun _ rng -> SB.gen_conserving rng ~n)
  in
  let t0 = Unix.gettimeofday () in
  (* Bounded, so a flusher that never probes fails the gate below rather
     than looping. *)
  let rec go runs =
    let runs = Harness.run (Harness.sim db) s :: runs in
    if Chaos.probes chaos >= min_flush_probes || List.length runs >= 50 then runs
    else go runs
  in
  let runs = go [] in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let sum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let committed = sum (fun r -> r.Harness.committed) in
  Printf.printf "  flush-stall drew %d flush probes in %d runs\n%!" (Chaos.probes chaos)
    (List.length runs);
  let audit =
    money ~n (SDb.catalogs db)
    >>= (fun () ->
          if committed > 0 then Ok ()
          else Error "no commits under flush stall")
    >>= (fun () ->
          if SDb.n_log_flushes db > 0 then Ok ()
          else Error "durable mode performed no group-commit flushes")
    >>= (fun () ->
          if Chaos.probes chaos >= min_flush_probes then Ok ()
          else
            Error
              (Printf.sprintf "flush-stall drew %d flush probes, fewer than %d"
                 (Chaos.probes chaos) min_flush_probes))
    >>= (fun () ->
          if Chaos.injections chaos > 0 then Ok ()
          else Error "flush-stall injector never fired")
    >>= fun () ->
    match SDb.wal_error db with
    | None -> Ok ()
    | Some m -> Error ("unexpected wal error: " ^ m)
  in
  {
    rw_scenario = "flush-stall";
    rw_workload = "smallbank-conserving";
    rw_fault = "flush-stall";
    rw_domains = 2;
    rw_committed = committed;
    rw_aborted = sum (fun r -> r.Harness.aborted);
    rw_retries = sum (fun r -> r.Harness.retries);
    rw_timeouts = 0;
    rw_sheds = 0;
    rw_injections = Chaos.injections chaos;
    rw_p99_us = List.fold_left (fun a r -> Float.max a r.Harness.p99_latency) 0. runs;
    rw_elapsed_s = elapsed_s;
    rw_audit = audit;
  }

(* Shipment faults against the log shipper: the simulator backend in
   durable mode ships its WAL to two replicas while a conserving mix
   runs, with a seeded probe dropping batches in flight (the replica's
   unchanged watermark re-requests them next round) or delaying them one
   round. Gated on the injector actually firing, both replicas
   converging to the durable epoch after the final hand-off, and money
   conserved on the replicated state. *)
let run_shipping ~seed ~fast ~kind =
  let n = if fast then 64 else 128 in
  let decl = SB.decl ~customers:n () in
  let cfg = Config.shared_nothing (Config.chunk 2 (SB.customers n)) in
  let db = Harness.build decl cfg in
  let log = Wal.in_memory () in
  SDb.attach_wal db log;
  let chaos = Chaos.make ~seed ~kind ~p:0.4 () in
  let replicas = [ Replica.create ~id:0 decl; Replica.create ~id:1 decl ] in
  let sh =
    Replica.Shipper.create ~chaos
      ~log
      ~durable_epoch:(fun () -> SDb.durable_epoch db)
      ~gen:(fun () -> SDb.generation db)
      replicas
  in
  let txns = if fast then 150 else 400 in
  let rng = Util.Rng.create seed in
  let ok = ref 0 and err = ref 0 in
  let t0 = Unix.gettimeofday () in
  let eng = SDb.engine db in
  Sim.Engine.spawn eng (fun () ->
      for i = 1 to txns do
        let r = SB.gen_conserving rng ~n in
        (match
           (SDb.exec_txn db ~reactor:r.Workloads.Wl.reactor
              ~proc:r.Workloads.Wl.proc ~args:r.Workloads.Wl.args)
             .SDb.result
         with
        | Ok _ -> incr ok
        | Error _ -> incr err);
        if i mod 5 = 0 then Replica.Shipper.round sh
      done);
  ignore (Sim.Engine.run eng);
  Replica.Shipper.final_ship sh;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let durable = SDb.durable_epoch db in
  let audit =
    (if Chaos.injections chaos > 0 then Ok ()
     else Error "shipment-fault injector never fired")
    >>= (fun () ->
          if List.for_all (fun r -> Replica.watermark r = durable) replicas
          then Ok ()
          else Error "replicas did not converge to the durable epoch")
    >>= (fun () ->
          if
            List.for_all
              (fun r ->
                money ~n (Replica.catalogs r) = Ok ())
              replicas
          then Ok ()
          else Error "money not conserved on replicated state")
    >>= fun () ->
    List.fold_left
      (fun acc r ->
        acc >>= fun () -> Faultsim.check_secondaries (Replica.catalogs r))
      (Ok ()) replicas
  in
  {
    rw_scenario = "shipping";
    rw_workload = "smallbank-conserving";
    rw_fault = Chaos.kind_name kind;
    rw_domains = 2;
    rw_committed = !ok;
    rw_aborted = !err;
    rw_retries = 0;
    rw_timeouts = 0;
    rw_sheds = 0;
    rw_injections = Chaos.injections chaos;
    rw_p99_us = 0.;
    rw_elapsed_s = elapsed_s;
    rw_audit = audit;
  }

(* --- output --- *)

let emit_json path ~seed rows =
  let host = Host.json () in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"chaos_sweep\",\n";
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  Printf.fprintf oc "  \"host\": %s,\n" host;
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"workload\": %S, \"fault\": %S, \
         \"domains\": %d, \"committed\": %d, \"aborted\": %d, \"retries\": \
         %d, \"timeouts\": %d, \"sheds\": %d, \"injections\": %d, \
         \"p99_us\": %.1f, \"elapsed_s\": %.2f, \"audit\": %S}%s\n"
        r.rw_scenario r.rw_workload r.rw_fault r.rw_domains r.rw_committed
        r.rw_aborted r.rw_retries r.rw_timeouts r.rw_sheds r.rw_injections
        r.rw_p99_us r.rw_elapsed_s
        (match r.rw_audit with Ok () -> "ok" | Error m -> m)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let () =
  let fast = ref false in
  let seed = ref 42 in
  let out = ref "BENCH_chaos.json" in
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
  let faults =
    [
      None;
      Some Chaos.Delay_delivery;
      Some Chaos.Stall_domain;
      Some Chaos.Stall_prepare;
    ]
  in
  let workloads =
    [ Smallbank (if fast then 64 else 256); Ycsb (if fast then 64 else 128) ]
  in
  Printf.printf "Chaos sweep (seed %d, host recommends %d domains)\n%!" seed
    (Domain.recommended_domain_count ());
  let report r =
    Printf.printf
      "  %-11s %-20s %-14s %d domains: %5d ok %5d ab %4d retry %4d to %4d \
       shed %4d inj  %.1fs  [%s]\n%!"
      r.rw_scenario r.rw_workload r.rw_fault r.rw_domains r.rw_committed
      r.rw_aborted r.rw_retries r.rw_timeouts r.rw_sheds r.rw_injections
      r.rw_elapsed_s
      (match r.rw_audit with Ok () -> "audit ok" | Error _ -> "AUDIT FAILED");
    r
  in
  let matrix =
    List.concat_map
      (fun wl ->
        List.concat_map
          (fun d ->
            List.map
              (fun fault -> report (run_matrix ~seed ~fast ~wl ~d ~fault))
              faults)
          [ 1; 4 ])
      workloads
  in
  let deadline = report (run_deadline ~seed ~fast) in
  let fanout = report (run_fanout_delay ~seed ~fast) in
  let overload = report (run_overload ~seed ~fast) in
  let flush_stall = report (run_flush_stall ~seed ~fast) in
  let ship_drop =
    report (run_shipping ~seed ~fast ~kind:Chaos.Drop_shipment)
  in
  let ship_delay =
    report (run_shipping ~seed ~fast ~kind:Chaos.Delay_shipment)
  in
  let rows =
    matrix @ [ deadline; fanout; overload; flush_stall; ship_drop; ship_delay ]
  in
  emit_json !out ~seed rows;
  Printf.printf "wrote %s\n" !out;
  let failures =
    List.filter_map
      (fun r ->
        match r.rw_audit with
        | Ok () -> None
        | Error m ->
          Some
            (Printf.sprintf "%s/%s/%s/%d domains: %s" r.rw_scenario
               r.rw_workload r.rw_fault r.rw_domains m))
      rows
  in
  if failures <> [] then begin
    List.iter (Printf.eprintf "AUDIT FAILURE: %s\n") failures;
    exit 1
  end
