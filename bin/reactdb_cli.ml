(* reactdb_cli — run ReactDB workloads under configurable deployments.

   The virtualization story of §3.3 as a command line: the workload fixes
   the application (reactor types, procedures, generators); the deployment
   comes from a config file or from named-strategy flags, with no change to
   application code.

   Examples:
     reactdb_cli run -w tpcc -s 4 --workers 8 --strategy shared-nothing
     reactdb_cli run -w smallbank --workers 4 --config deploy.cfg --certify
     reactdb_cli run -w ycsb --theta 0.99 --workers 4
     reactdb_cli show-config deploy.cfg abc,def,ghi
     reactdb_cli list *)

open Cmdliner
module DB = Reactdb.Database
module W = Workloads

type workload = Tpcc | Smallbank | Ycsb | Exchange

let workload_conv =
  let parse = function
    | "tpcc" -> Ok Tpcc
    | "smallbank" -> Ok Smallbank
    | "ycsb" -> Ok Ycsb
    | "exchange" -> Ok Exchange
    | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
  in
  let print ppf w =
    Fmt.string ppf
      (match w with
      | Tpcc -> "tpcc"
      | Smallbank -> "smallbank"
      | Ycsb -> "ycsb"
      | Exchange -> "exchange")
  in
  Arg.conv (parse, print)

(* Build (decl, reactor names, generator) for a workload at a scale. *)
let build_workload workload ~scale ~theta =
  match workload with
  | Tpcc ->
    let sizes = W.Tpcc.default_sizes in
    let decl = W.Tpcc.decl ~warehouses:scale ~sizes () in
    let params = W.Tpcc.params ~sizes scale in
    let seq = ref 0 in
    let gen w rng = W.Tpcc.gen_mix rng params ~home:(1 + (w mod scale)) ~seq in
    (decl, W.Tpcc.warehouses scale, gen)
  | Smallbank ->
    let n = Stdlib.max 2 (scale * 8) in
    let decl = W.Smallbank.decl ~customers:n () in
    let gen _w rng = W.Smallbank.gen_standard rng ~n in
    (decl, W.Smallbank.customers n, gen)
  | Ycsb ->
    let n = Stdlib.max 10 (scale * 1000) in
    let decl = W.Ycsb.decl ~keys:n () in
    let params = W.Ycsb.params ~theta n in
    let containers = Stdlib.max 1 scale in
    let container_of k =
      int_of_string (String.sub k 1 (String.length k - 1)) * containers / n
    in
    let gen _w rng = W.Ycsb.gen_multi_update rng params ~container_of in
    (decl, W.Ycsb.keys n, gen)
  | Exchange ->
    let providers = Stdlib.max 2 (scale * 4) in
    let decl = W.Exchange.decl ~providers ~orders_per_provider:500 () in
    let seq = ref 0 in
    let gen _w rng =
      W.Exchange.gen_auth_pay rng ~strategy:`Procedure_par
        ~n_providers:providers ~window:100 ~sim_cost:50. ~seq
    in
    (decl, "exchange" :: W.Exchange.providers providers, gen)

let deployment_of ~config_file ~strategy ~executors ~mpl reactors =
  match config_file with
  | Some path -> Reactdb.Config.Spec.build (Reactdb.Config.Spec.of_file path) reactors
  | None -> (
    match strategy with
    | "shared-nothing" ->
      Reactdb.Config.Spec.build
        (Reactdb.Config.Spec.of_string
           (Printf.sprintf "strategy shared-nothing\nmpl %d\ngroups auto %d\n"
              mpl executors))
        reactors
    | "shared-everything" ->
      Reactdb.Config.shared_everything ~executors ~affinity:true ~mpl reactors
    | "shared-everything-no-affinity" ->
      Reactdb.Config.shared_everything ~executors ~affinity:false ~mpl reactors
    | s -> failwith (Printf.sprintf "unknown strategy %S" s))

let chaos_of_spec = function
  | None -> Chaos.none
  | Some s -> (
    match Chaos.of_string s with Ok c -> c | Error m -> failwith m)

(* Both commands: 10 measured epochs over the duration after 2 warm-up
   epochs, in the backend's clock (virtual or wall µs). *)
let load_spec ~duration_ms ?max_retries ~deadline_ms ~workers gen =
  Harness.spec ~epochs:10 ~epoch_us:(duration_ms *. 100.) ~warmup_epochs:2
    ?max_retries
    ?deadline_us:(Option.map (fun ms -> ms *. 1000.) deadline_ms)
    ~n_workers:workers gen

let report (r : Harness.run_result) =
  Printf.printf "throughput      %12.1f txn/s (±%.1f)\n" r.throughput
    r.throughput_std;
  Printf.printf "latency         %12.1f µs (±%.1f)\n" r.avg_latency
    r.latency_std;
  Printf.printf "percentiles     p50 %.1f µs, p95 %.1f µs, p99 %.1f µs\n"
    r.p50_latency r.p95_latency r.p99_latency;
  Printf.printf "committed       %12d\n" r.committed;
  Printf.printf "aborted         %12d (%.2f%%)\n" r.aborted
    (100. *. r.abort_rate);
  List.iter
    (fun (reason, n) -> Printf.printf "  %-14s %12d\n" reason n)
    r.aborts_by_reason;
  Printf.printf "retries         %12d\n" r.retries;
  Printf.printf "utilization     %s\n"
    (String.concat " "
       (Array.to_list
          (Array.map
             (fun u -> Printf.sprintf "%.0f%%" (100. *. u))
             r.utilizations)))

(* Certify a recorded history: print the verdict, exit 1 on a violation. *)
let certify_history h =
  match Audit.certify h with
  | Ok n -> Printf.printf "history         serializable (%d transactions)\n" n
  | Error m ->
    Printf.printf "history         VIOLATION: %s\n" m;
    exit 1

let run_cmd workload scale theta workers strategy executors mpl config_file
    duration_ms certify profile_name wal_path trace trace_json
    deadline_ms mailbox_cap chaos_spec =
  let profile =
    match profile_name with
    | "default" | "xeon" -> Reactdb.Profile.default
    | "opteron" -> Reactdb.Profile.opteron
    | s -> failwith (Printf.sprintf "unknown profile %S" s)
  in
  let decl, reactors, gen = build_workload workload ~scale ~theta in
  let executors = if executors = 0 then scale else executors in
  let config = deployment_of ~config_file ~strategy ~executors ~mpl reactors in
  let db = Harness.build ~profile decl config in
  let chaos = chaos_of_spec chaos_spec in
  if Chaos.is_active chaos then DB.attach_chaos db chaos;
  DB.set_mailbox_cap db mailbox_cap;
  let log =
    match wal_path with
    | None -> None
    | Some path ->
      let log = Wal.to_file path in
      DB.attach_wal db log;
      Some log
  in
  if certify then DB.enable_history db;
  let collector =
    if trace || trace_json <> None then begin
      let c =
        Obs.Collector.create ~clock:Obs.Virtual
          ~containers:(Reactdb.Config.n_containers config)
          ()
      in
      DB.attach_obs db c;
      Some c
    end
    else None
  in
  Printf.printf
    "reactors=%d containers=%d executors=%d mpl=%d workers=%d profile=%s\n%!"
    (List.length reactors)
    (Reactdb.Config.n_containers config)
    (Reactdb.Config.total_executors config)
    config.Reactdb.Config.mpl workers profile_name;
  report
    (Harness.run (Harness.sim db)
       (load_spec ~duration_ms ~deadline_ms ~workers gen));
  if Chaos.is_active chaos then
    Printf.printf "chaos           %12s (%d injections / %d probes)\n"
      (Chaos.to_string chaos) (Chaos.injections chaos) (Chaos.probes chaos);
  (match collector with
  | None -> ()
  | Some c ->
    let report = Obs.Report.summarize c in
    if trace then begin
      print_newline ();
      print_string (Obs.Report.to_table report)
    end;
    match trace_json with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Obs.Json.to_string ~pretty:true (Obs.Report.to_json report));
      output_char oc '\n';
      close_out oc;
      Printf.printf "trace report    %12s\n" path);
  (match log with
  | None -> ()
  | Some log ->
    Printf.printf "log entries     %12d  (%d group-commit flushes)\n" (Wal.length log)
      (DB.n_log_flushes db);
    Wal.close log);
  if certify then certify_history (DB.history db)

(* Real-parallel backend: one OCaml 5 domain per container, wall-clock
   time. Overload knobs (--deadline-ms, --mailbox-cap, --chaos) apply per
   run; the closed-loop load harness retries transient aborts with seeded
   exponential backoff. With --replicas N the run redo-logs to an
   in-memory WAL and a background shipper keeps N log-shipping replicas
   current (DESIGN.md §12); --failover-at-ms T additionally runs a
   failover drill T ms into the run — fence the primary, final-ship the
   durable log, promote the freshest replica through the
   recovery-equivalence oracle and bump the shipping generation. From the
   fence on the primary refuses every root, and each worker stops at its
   first abort after the fence, so the rest of the run counts at most one
   fenced abort per worker and no commit. *)
let run_parallel_cmd workload scale theta workers domains duration_ms retries
    deadline_ms mailbox_cap chaos_spec router replicas failover_at_ms
    certify =
  let decl, reactors, gen = build_workload workload ~scale ~theta in
  let config =
    Reactdb.Config.(of_groups ~router (chunk domains reactors))
  in
  let chaos = chaos_of_spec chaos_spec in
  let wal = if replicas > 0 then Some (Wal.in_memory ()) else None in
  let db = Runtime.Db.start ~chaos ?mailbox_cap ?wal decl config in
  if certify then Runtime.Db.enable_history db;
  Printf.printf "reactors=%d domains=%d workers=%d router=%s%s%s%s\n%!"
    (List.length reactors) (Runtime.Db.n_domains db) workers
    (Reactdb.Config.router_name router)
    (match deadline_ms with
    | Some d -> Printf.sprintf " deadline=%.1fms" d
    | None -> "")
    (match mailbox_cap with
    | Some c -> Printf.sprintf " mailbox-cap=%d" c
    | None -> "")
    (if Chaos.is_active chaos then " chaos=" ^ Chaos.to_string chaos else "");
  (* Replication: the shipper runs on its own domain, ticking every 5 ms.
     Only durable epochs are ever shipped: the bound is the runtime's last
     flushed boundary, below which every record is in the log. (The
     highest epoch present is not: a flush writes every queued record,
     so the log can hold a record of an epoch while other commits of
     that epoch are still in flight.) *)
  let repl =
    match wal with
    | None -> None
    | Some w ->
      let prim_gen = ref 0 in
      let rs = List.init replicas (fun i -> Replica.create ~id:i decl) in
      let sh =
        Replica.Shipper.create ~chaos
          ~log:w
          ~durable_epoch:(fun () -> Runtime.Db.durable_epoch db)
          ~gen:(fun () -> !prim_gen)
          rs
      in
      Some (prim_gen, rs, sh)
  in
  let stop_ship = Atomic.make false in
  let promotion = ref None in
  let drill_pause_us = ref 0. in
  let committed_at_fence = ref 0 in
  let ship_dom =
    match repl with
    | None -> None
    | Some (prim_gen, rs, sh) ->
      Some
        (Domain.spawn (fun () ->
             let t0 = Unix.gettimeofday () in
             let drilled = ref false in
             while not (Atomic.get stop_ship) do
               Unix.sleepf 0.005;
               Replica.Shipper.round sh;
               match failover_at_ms with
               | Some t
                 when (not !drilled)
                      && (Unix.gettimeofday () -. t0) *. 1000. >= t -> (
                 drilled := true;
                 let d0 = Unix.gettimeofday () in
                 (* no commit is acknowledged after the fence returns, so
                    the final ship below holds every acknowledged commit *)
                 Runtime.Db.fence db;
                 committed_at_fence := Runtime.Db.n_committed db;
                 Replica.Shipper.final_ship sh;
                 match Replica.freshest rs with
                 | None -> ()
                 | Some fr ->
                   let g = !prim_gen + 1 in
                   (match Replica.promote ~gen:g fr with
                   | Ok p ->
                     (* the whole deployment moves to the new generation,
                        so shipping resumes under the promoted stamp *)
                     prim_gen := g;
                     promotion := Some (Ok p)
                   | Error e -> promotion := Some (Error e));
                   drill_pause_us := (Unix.gettimeofday () -. d0) *. 1e6)
               | _ -> ()
             done))
  in
  let r =
    Harness.run (Harness.runtime db)
      (load_spec ~duration_ms ~max_retries:retries ~deadline_ms ~workers gen)
  in
  Atomic.set stop_ship true;
  (match ship_dom with Some d -> Domain.join d | None -> ());
  Runtime.Db.shutdown db;
  report r;
  if router = Reactdb.Config.Cost then
    Printf.printf "cost-routed     %12d\n"
      (Array.fold_left
         (fun a s -> a + s.Runtime.Db.ss_routed_by_cost)
         0 (Runtime.Db.sched_stats db));
  if Chaos.is_active chaos then
    Printf.printf "chaos           %12s (%d injections / %d probes)\n"
      (Chaos.to_string chaos) (Chaos.injections chaos) (Chaos.probes chaos);
  (match repl with
  | None -> ()
  | Some (_, rs, sh) ->
    (* post-run catch-up: the primary is quiesced, so one chaos-free ship
       drains the remaining durable suffix before the lag report *)
    Replica.Shipper.final_ship sh;
    Printf.printf "replication     %12d replicas  %d rounds  %d dropped  %d delayed\n"
      (List.length rs)
      (Replica.Shipper.rounds sh)
      (Replica.Shipper.dropped sh)
      (Replica.Shipper.delayed sh);
    List.iter2
      (fun rp (rid, behind, bytes) ->
        Printf.printf
          "  replica %-6d watermark %-8d %d epochs / %d bytes behind  \
           (%d batches, %d torn, %d refused, %d ro served)\n"
          rid (Replica.watermark rp) behind bytes (Replica.n_batches rp)
          (Replica.n_torn rp) (Replica.n_refused rp) (Replica.ro_served rp))
      rs (Replica.Shipper.lag sh);
    match !promotion with
    | Some (Ok p) ->
      Printf.printf
        "failover drill  promoted replica %d at epoch %d (generation %d, %d \
         log entries, pause %.1f ms), %d commits after fence\n"
        p.Replica.pm_replica p.Replica.pm_epoch p.Replica.pm_gen
        p.Replica.pm_entries (!drill_pause_us /. 1000.)
        (Runtime.Db.n_committed db - !committed_at_fence)
    | Some (Error e) -> Printf.printf "failover drill  REFUSED: %s\n" e
    | None -> ());
  if certify then certify_history (Runtime.Db.history db);
  match Audit.fatal db with
  | Ok () -> ()
  | Error m ->
    Printf.eprintf "FATAL: %s\n" m;
    exit 1

(* Interactive SQL shell over a loaded workload: every statement runs as
   one ACID transaction on the chosen reactor. *)
let sql_cmd workload scale theta strategy executors mpl config_file reactor =
  let decl, reactors, _gen = build_workload workload ~scale ~theta in
  (* Expose the generic "sql" procedure on every reactor type. *)
  let decl = { decl with Reactor.types = List.map Sql.Proc.with_sql decl.Reactor.types } in
  let executors = if executors = 0 then scale else executors in
  let config = deployment_of ~config_file ~strategy ~executors ~mpl reactors in
  let db = Harness.build decl config in
  let current = ref (match reactor with Some r -> r | None -> List.hd reactors) in
  Printf.printf
    "ReactDB SQL shell — statements run as transactions on reactor %s.\n\
     Commands: \\r NAME (switch reactor), \\l (list reactors), \\q (quit).\n"
    !current;
  let rec loop () =
    Printf.printf "%s> %!" !current;
    match try Some (input_line stdin) with End_of_file -> None with
    | None -> print_newline ()
    | Some "" -> loop ()
    | Some "\\q" -> ()
    | Some "\\l" ->
      List.iter print_endline reactors;
      loop ()
    | Some line when String.length line > 3 && String.sub line 0 3 = "\\r " ->
      let r = String.trim (String.sub line 3 (String.length line - 3)) in
      if List.mem r reactors then current := r
      else Printf.printf "unknown reactor %S\n" r;
      loop ()
    | Some stmt ->
      let eng = DB.engine db in
      Sim.Engine.spawn eng (fun () ->
          match
            DB.exec_txn db ~reactor:!current ~proc:"sql"
              ~args:[ Util.Value.Str stmt ]
          with
          | { result = Ok (Util.Value.Str rendered); latency; _ } ->
            Printf.printf "%s(%.1f µs)\n" rendered latency
          | { result = Ok v; latency; _ } ->
            Printf.printf "%s\n(%.1f µs)\n" (Util.Value.to_string v) latency
          | { result = Error m; _ } -> Printf.printf "ABORTED: %s\n" m);
      (try ignore (Sim.Engine.run eng) with
      | Sql.Parser.Parse_error m -> Printf.printf "parse error: %s\n" m
      | Sql.Run.Sql_error m -> Printf.printf "error: %s\n" m
      | Invalid_argument m -> Printf.printf "error: %s\n" m);
      loop ()
  in
  loop ()

let show_config_cmd path reactors =
  let reactors = String.split_on_char ',' reactors in
  let cfg = Reactdb.Config.Spec.build (Reactdb.Config.Spec.of_file path) reactors in
  Printf.printf "containers: %d\nexecutors:  %s\nmpl:        %d\nrouter:     %s\n"
    (Reactdb.Config.n_containers cfg)
    (String.concat " "
       (Array.to_list (Array.map string_of_int cfg.Reactdb.Config.executors_per_container)))
    cfg.Reactdb.Config.mpl
    (Reactdb.Config.router_name cfg.Reactdb.Config.router);
  List.iter
    (fun r -> Printf.printf "  %-12s -> container %d\n" r (cfg.Reactdb.Config.placement r))
    reactors

let list_cmd () =
  print_endline "workloads: tpcc smallbank ycsb exchange";
  print_endline
    "strategies: shared-nothing shared-everything shared-everything-no-affinity";
  print_endline "profiles: default (xeon) | opteron"

(* --- cmdliner plumbing --- *)

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"WORKLOAD" ~doc:"Workload to run.")

let scale_arg =
  Arg.(value & opt int 4 & info [ "s"; "scale" ] ~doc:"Scale factor.")

let theta_arg =
  Arg.(value & opt float 0.5 & info [ "theta" ] ~doc:"YCSB zipfian constant.")

let workers_arg =
  Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Closed-loop client workers.")

let strategy_arg =
  Arg.(
    value & opt string "shared-nothing"
    & info [ "strategy" ] ~doc:"Deployment strategy (ignored with --config).")

let executors_arg =
  Arg.(
    value & opt int 0
    & info [ "executors" ] ~doc:"Transaction executors (0 = scale factor).")

let mpl_arg =
  Arg.(value & opt int 8 & info [ "mpl" ] ~doc:"Multiprogramming level per executor.")

let config_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "config" ] ~doc:"Deployment configuration file.")

let duration_arg =
  Arg.(
    value & opt float 100.
    & info [ "duration" ] ~doc:"Measured virtual duration in ms.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Record the execution history and certify serializability; exit 1 \
           on a violation.")

let profile_arg =
  Arg.(value & opt string "default" & info [ "profile" ] ~doc:"Hardware profile.")

let wal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"FILE"
        ~doc:
          "Redo-log committed transactions to $(docv) by epoch group commit: a \
           result is released once the flush that writes its record ran.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Attach the transaction-lifecycle tracer and print the phase \
           breakdown and abort taxonomy after the run (virtual-clock \
           microseconds).")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "Attach the transaction-lifecycle tracer and write the versioned \
           JSON report to $(docv) (see EXPERIMENTS.md for the schema).")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-transaction latency budget in milliseconds; expired attempts \
           abort with the non-transient timeout cause (locks released, 2PC \
           participants rolled back).")

let mailbox_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mailbox-cap" ] ~docv:"N"
        ~doc:
          "Bound each container's admission queue at $(docv) messages; \
           roots arriving at a full queue are shed with the overloaded \
           abort cause instead of queuing.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SEED:KIND"
        ~doc:
          "Attach a seeded fault injector, e.g. 7:prepare-stall or \
           3:flush-stall:0.1:5000 (kinds: delivery-delay, domain-stall, \
           prepare-stall, flush-stall, kill-primary, drop-shipment, \
           delay-shipment; optional :P hit probability and :DELAY_US \
           scale).")

let run_term =
  Term.(
    const run_cmd $ workload_arg $ scale_arg $ theta_arg $ workers_arg
    $ strategy_arg $ executors_arg $ mpl_arg $ config_arg $ duration_arg
    $ certify_arg $ profile_arg $ wal_arg $ trace_arg
    $ trace_json_arg $ deadline_arg $ mailbox_cap_arg $ chaos_arg)

let run_info = Cmd.info "run" ~doc:"Run a workload under a deployment."

let domains_arg =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~doc:"Containers (= OCaml domains) to spawn.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ]
        ~doc:"Max in-loop resubmissions of transient aborts (with backoff).")

let wall_duration_arg =
  Arg.(
    value & opt float 500.
    & info [ "duration" ] ~doc:"Measured wall-clock duration in ms.")

let router_arg =
  let router_conv =
    Arg.enum
      (List.map
         (fun r -> (Reactdb.Config.router_name r, r))
         Reactdb.Config.[ Affinity; Round_robin; Cost ])
  in
  Arg.(
    value
    & opt router_conv Reactdb.Config.Affinity
    & info [ "router" ] ~docv:"POLICY"
        ~doc:
          "Ingress routing policy: $(b,affinity) (home domain), \
           $(b,round-robin) (distribute, pay a forwarding hop), or \
           $(b,cost) (cost-model estimate blended with live load signals \
           picks the least-loaded admissible domain; single-container \
           commits re-pin to the owner).")

let replicas_arg =
  Arg.(
    value & opt int 0
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Attach $(docv) log-shipping replicas (DESIGN.md §12): the run \
           redo-logs to an in-memory WAL and a background shipper keeps \
           each replica's durable epoch watermark current; per-replica \
           lag and promotion counters print after the run.")

let failover_at_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "failover-at-ms" ] ~docv:"T"
        ~doc:
          "Failover drill (requires --replicas): $(docv) ms into the run, \
           fence the primary, final-ship the durable log, promote the \
           freshest replica through the recovery-equivalence oracle and \
           bump the shipping generation. The pause printed runs from the \
           fence to the promotion; the fenced primary refuses every root \
           for the rest of the run, and the drill line counts the commits \
           acknowledged after the fence returned (0 unless fencing is \
           broken).")

let run_parallel_term =
  Term.(
    const run_parallel_cmd $ workload_arg $ scale_arg $ theta_arg
    $ workers_arg $ domains_arg $ wall_duration_arg $ retries_arg
    $ deadline_arg $ mailbox_cap_arg $ chaos_arg $ router_arg
    $ replicas_arg $ failover_at_arg $ certify_arg)

let run_parallel_info =
  Cmd.info "run-parallel"
    ~doc:
      "Run a workload on the real-parallel backend (one domain per \
       container, wall-clock time)."

let show_config_term =
  Term.(
    const show_config_cmd
    $ Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG")
    $ Arg.(required & pos 1 (some string) None & info [] ~docv:"REACTORS"))

let show_config_info =
  Cmd.info "show-config" ~doc:"Parse a config file against a reactor list."

let reactor_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "reactor" ] ~doc:"Reactor the shell starts on.")

let sql_term =
  Term.(
    const sql_cmd $ workload_arg $ scale_arg $ theta_arg $ strategy_arg
    $ executors_arg $ mpl_arg $ config_arg $ reactor_arg)

let sql_info =
  Cmd.info "sql" ~doc:"Interactive SQL shell over a loaded workload."

let list_term = Term.(const list_cmd $ const ())
let list_info = Cmd.info "list" ~doc:"List workloads, strategies and profiles."

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "reactdb_cli" ~version:"1.0.0"
             ~doc:"ReactDB: a predictable, virtualized actor database system.")
          [
            Cmd.v run_info run_term;
            Cmd.v run_parallel_info run_parallel_term;
            Cmd.v sql_info sql_term;
            Cmd.v show_config_info show_config_term;
            Cmd.v list_info list_term;
          ]))
