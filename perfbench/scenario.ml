(* The four benchmark workloads, each run as fixed-work rounds: set up,
   warm up, run the measured requests, shut down, check the results, and
   compute the end-to-end metrics (plus the per-layer ones when traced). *)

module Db = Runtime.Db
module DB = Reactdb.Database
module Wl = Workloads.Wl
module Sb = Workloads.Smallbank
module Ycsb = Workloads.Ycsb
module Tpcc = Workloads.Tpcc
module J = Obs.Json

type backend =
  | Runtime of { domains : int; wal : bool; epoch_len_s : float option }
  | Simulator of { containers : int }

type workload = {
  name : string;
  backend : backend;
  clients : int;
  warmup : int;  (* logical transactions run before measuring *)
  txns : int;  (* measured logical transactions *)
  reactors : string list;
  decl : unit -> Reactor.decl;
  gen : Reactdb.Config.t -> Util.Rng.t -> int -> Wl.request array;
      (* [gen config rng n]: a round's [n] requests (warm-up first), all
         made before it starts *)
  readonly : string -> bool;
  audit :
    (string * Storage.Catalog.t) list ->
    (Wl.request array * Driver.result) list ->
    string list;
      (* workload-specific checks of the final state; the errors found *)
  sizes : (string * J.t) list;
}

let num i = J.Num (float_of_int i)

(* --- the workloads ------------------------------------------------------ *)

let sb_customers = 4_000

(* Money enters and leaves only through deposit_checking, transact_saving
   and write_check (amalgamate and send_payment move it between
   customers). write_check may add a 1.00 overdraft penalty, so the final
   total lies in [expected - write_checks, expected]. Every amount is a
   whole number, so the float sums are exact. *)
let smallbank_audit catalogs runs =
  let expected = ref (float_of_int sb_customers *. 20_000.) and checks = ref 0 in
  List.iter
    (fun (reqs, r) ->
      Array.iteri
        (fun i (req : Wl.request) ->
          if r.Driver.status.(i) = Driver.Committed then
            match (req.Wl.proc, req.Wl.args) with
            | ("deposit_checking" | "transact_saving"), [ a ] ->
              expected := !expected +. Util.Value.to_number a
            | "write_check", [ a ] ->
              expected := !expected -. Util.Value.to_number a;
              incr checks
            | _ -> ())
        reqs)
    runs;
  let total = Sb.total_money (List.map snd catalogs) in
  let lo = !expected -. float_of_int !checks in
  if total <= !expected && total >= lo then []
  else [ Printf.sprintf "money: total %.2f outside [%.2f, %.2f]" total lo !expected ]

let smallbank =
  {
    name = "smallbank";
    backend = Runtime { domains = 2; wal = false; epoch_len_s = None };
    clients = 8;
    warmup = 10_000;
    txns = 100_000;
    reactors = Sb.customers sb_customers;
    decl = (fun () -> Sb.decl ~customers:sb_customers ());
    gen = (fun _ rng n -> Array.init n (fun _ -> Sb.gen_standard rng ~n:sb_customers));
    readonly = (fun p -> p = "balance");
    audit = smallbank_audit;
    sizes = [ ("customers", num sb_customers) ];
  }

let sim_smallbank =
  {
    smallbank with
    name = "sim_smallbank";
    backend = Simulator { containers = 2 };
    warmup = 5_000;
    clients = 32;
    txns = 80_000;
  }

let ycsb_keys = 4_000

let ycsb_requests (config : Reactdb.Config.t) rng n =
  let p = Ycsb.params ~txn_keys:10 ~theta:0.99 ycsb_keys in
  let container_of = config.Reactdb.Config.placement in
  Array.init n (fun _ ->
      if Util.Rng.bool rng then Ycsb.gen_multi_read rng p config ~container_of
      else Ycsb.gen_multi_update rng p ~container_of)

let ycsb_audit catalogs runs =
  let rows =
    List.fold_left (fun a (_, c) -> a + Storage.Catalog.total_records c) 0 catalogs
  in
  let ro = List.fold_left (fun a (_, r) -> a + r.Driver.ro_aborts) 0 runs in
  (if rows = ycsb_keys then []
   else [ Printf.sprintf "ycsb: %d rows, expected %d" rows ycsb_keys ])
  @ if ro = 0 then [] else [ Printf.sprintf "ycsb: %d read-only aborts" ro ]

let ycsb_hot =
  {
    name = "ycsb_hot";
    backend = Runtime { domains = 2; wal = false; epoch_len_s = None };
    clients = 8;
    warmup = 2_000;
    txns = 20_000;
    reactors = Ycsb.keys ycsb_keys;
    decl = (fun () -> Ycsb.decl ~keys:ycsb_keys ());
    gen = ycsb_requests;
    readonly = (fun p -> p = "read" || p = "multi_read_seq" || p = "multi_read_par");
    audit = ycsb_audit;
    sizes =
      [ ("keys", num ycsb_keys); ("record_bytes", num 100); ("theta", J.Num 0.99);
        ("keys_per_txn", num 10) ];
  }

let tpcc_warehouses = 4

let tpcc_sizes =
  { Tpcc.districts = 10; customers_per_district = 300; items = 5_000;
    preloaded_orders = 200 }

(* One history-id/clock sequence for the round's requests, so history ids
   are unique; request [i]'s home warehouse is [1 + i mod warehouses]. *)
let tpcc_requests _config rng n =
  let params = Tpcc.params ~sizes:tpcc_sizes tpcc_warehouses in
  let seq = ref 0 in
  Array.init n (fun i ->
      Tpcc.gen_mix rng params ~home:(1 + (i mod tpcc_warehouses)) ~seq)

let tpcc_durable =
  {
    name = "tpcc_durable";
    backend = Runtime { domains = 2; wal = true; epoch_len_s = Some 0.002 };
    clients = 32;
    warmup = 1_000;
    txns = 10_000;
    reactors = Tpcc.warehouses tpcc_warehouses;
    decl = (fun () -> Tpcc.decl ~warehouses:tpcc_warehouses ~sizes:tpcc_sizes ());
    gen = tpcc_requests;
    readonly = (fun p -> p = "order_status" || p = "stock_level");
    audit = (fun _ _ -> []);
    sizes =
      [ ("warehouses", num tpcc_warehouses); ("districts", num tpcc_sizes.districts);
        ("customers_per_district", num tpcc_sizes.customers_per_district);
        ("items", num tpcc_sizes.items);
        ("preloaded_orders", num tpcc_sizes.preloaded_orders) ];
  }

let all = [ smallbank; ycsb_hot; tpcc_durable; sim_smallbank ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- one round ------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

type round = {
  errors : string list;  (* empty iff every correctness check passed *)
  attempted : int;  (* measured logical transactions *)
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;  (* empty unless traced *)
  envelope : (string * J.t) list;
  spans : Span.span list;
}

let m m_name m_value m_unit = { m_name; m_value; m_unit }
let now = Unix.gettimeofday
let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let mib words = words *. float_of_int (Sys.word_size / 8) /. 1048576.

(* Peak resident set of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Reactors dealt round-robin over [n] containers. *)
let groups reactors n =
  let g = Array.make n [] in
  List.iteri (fun i r -> g.(i mod n) <- r :: g.(i mod n)) reactors;
  Array.to_list (Array.map List.rev g)

(* What the common round logic needs from a backend. *)
type engine = {
  run : Wl.request array -> Driver.result;
  catalogs : unit -> (string * Storage.Catalog.t) list;
  attempts : unit -> int;  (* committed + aborted attempts since start *)
  commits : unit -> int;
  readonly_commits : unit -> int;
  attach : Obs.Collector.t -> unit;
  busy_frac : unit -> float;  (* executor utilisation during the last run *)
  stop : unit -> string list;  (* shut down; the errors found *)
  sim_layer : Driver.result -> metric list;  (* sim.* metrics of the last run *)
}

let sim_layer_zero =
  [ ("sim.wall_us_per_txn", "us"); ("sim.events_per_txn", "count");
    ("sim.virtual_tps", "1/s"); ("sim.sync_exec_us", "us"); ("sim.cs_us", "us");
    ("sim.cr_us", "us") ]

let runtime_engine ?wal ?epoch_len_s (w : workload) decl config =
  let db = Db.start ?wal ?epoch_len_s decl config in
  let busy = ref 0. in
  {
    run =
      (fun reqs ->
        let b0 = Db.busy_times db in
        let r = Driver.runtime db ~clients:w.clients ~readonly:w.readonly reqs in
        let b1 = Db.busy_times db in
        let d = Array.fold_left ( +. ) 0. (Array.map2 ( -. ) b1 b0) in
        busy := d /. (float_of_int (Array.length b1) *. r.Driver.wall_s);
        r);
    catalogs = (fun () -> Db.catalogs db);
    attempts = (fun () -> Db.n_committed db + Db.n_aborted db);
    commits = (fun () -> Db.n_committed db);
    readonly_commits = (fun () -> Db.n_readonly_commits db);
    attach = Db.attach_obs db;
    busy_frac = (fun () -> !busy);
    stop =
      (fun () ->
        Db.shutdown db;
        if Db.n_fatal db = 0 then []
        else
          [ Printf.sprintf "runtime: %d fatal errors: %s" (Db.n_fatal db)
              (String.concat "; " (Db.fatal_messages db)) ]);
    sim_layer = (fun _ -> List.map (fun (n, u) -> m n 0. u) sim_layer_zero);
  }

let sim_engine ~trace (w : workload) decl config =
  let db = Harness.build decl config in
  let eng = DB.engine db in
  let events = ref 0 and virtual_us = ref 0. in
  {
    run =
      (fun reqs ->
        let e0 = Sim.Engine.events_executed eng and v0 = Sim.Engine.now eng in
        let r =
          Driver.sim ~keep_outcomes:trace db ~clients:w.clients ~readonly:w.readonly reqs
        in
        events := Sim.Engine.events_executed eng - e0;
        virtual_us := Sim.Engine.now eng -. v0;
        r);
    catalogs = (fun () -> List.map (fun r -> (r, DB.catalog_of db r)) w.reactors);
    attempts = (fun () -> DB.n_committed db + DB.n_aborted db);
    commits = (fun () -> DB.n_committed db);
    readonly_commits = (fun () -> DB.n_readonly_commits db);
    attach = DB.attach_obs db;
    busy_frac =
      (fun () ->
        let u = DB.utilizations db in
        Array.fold_left ( +. ) 0. u /. float_of_int (Stdlib.max 1 (Array.length u)));
    stop = (fun () -> []);
    sim_layer =
      (fun r ->
        let n = Driver.logical r in
        let bd = Harness.mean_breakdown r.Driver.outcomes in
        [ m "sim.wall_us_per_txn" (r.Driver.wall_s *. 1e6 /. float_of_int n) "us";
          m "sim.events_per_txn" (per !events n) "count";
          m "sim.virtual_tps" (float_of_int (Driver.committed r) /. (!virtual_us /. 1e6)) "1/s";
          m "sim.sync_exec_us" bd.Harness.avg_sync_exec "us";
          m "sim.cs_us" bd.Harness.avg_cs "us";
          m "sim.cr_us" bd.Harness.avg_cr "us" ]);
  }

let phase_mean report phase =
  match
    List.find_opt
      (fun r -> r.Obs.Report.pr_phase = Obs.Phase.name phase)
      report.Obs.Report.r_phases
  with
  | Some r -> r.Obs.Report.pr_mean_us
  | None -> 0.

let abort_per_1k (r : Driver.result) kind =
  1000. *. per r.Driver.abort_kinds.(Obs.Abort.kind_index kind) (Driver.attempts r)

(* The durable workload's log: flush counts and times, size, and the
   recovery check — recovering the log file alone must rebuild exactly
   the live catalogs, so every acknowledged write is durable. *)
type wal_stats = { flushes : int; flush_us : float; bytes : int; entries : Wal.entry list }

let check_wal ~path ~log decl live =
  let flushes = Wal.n_flushes log and flush_us = Wal.flush_time_us log in
  Wal.close log;
  let bytes = (Unix.stat path).Unix.st_size in
  let rc = Faultsim.recover ~log:path decl in
  let errors =
    (match rc.Faultsim.rc_tail with
    | Wal.Clean -> []
    | Wal.Torn { reason; _ } -> [ "wal: torn tail after clean shutdown: " ^ reason ])
    @ (match Faultsim.diff (Faultsim.snapshot live) (Faultsim.snapshot rc.Faultsim.rc_catalogs) with
      | None -> []
      | Some d -> [ "wal: recovered state differs from live state: " ^ d ])
    @
    match Faultsim.check_secondaries rc.Faultsim.rc_catalogs with
    | Ok () -> []
    | Error e -> [ "wal: recovered secondary index: " ^ e ]
  in
  ({ flushes; flush_us; bytes; entries = rc.Faultsim.rc_entries }, errors)

let run_round (w : workload) ~seed ~trace =
  let sp = Span.create () in
  let errors = ref [] in
  let error es = errors := !errors @ es in
  let decl = w.decl () in
  let n_groups, wal_on, epoch_len_s =
    match w.backend with
    | Runtime r -> (r.domains, r.wal, r.epoch_len_s)
    | Simulator s -> (s.containers, false, None)
  in
  let config = Reactdb.Config.shared_nothing (groups w.reactors n_groups) in
  let wal_path = Printf.sprintf ".perfbench-tmp/%s-%d.wal" w.name (Unix.getpid ()) in
  let log =
    if wal_on then begin
      (try Unix.mkdir ".perfbench-tmp" 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      if Sys.file_exists wal_path then Sys.remove wal_path;
      Some (Wal.to_file wal_path)
    end
    else None
  in
  let cleanup () = if wal_on && Sys.file_exists wal_path then Sys.remove wal_path in
  Fun.protect ~finally:cleanup @@ fun () ->
  let body () =
    let p0 = Probe.median_time 5 in
    let t0 = now () in
    let eng =
      Span.record sp "setup" (fun () ->
          match w.backend with
          | Runtime _ -> runtime_engine ?wal:log ?epoch_len_s w decl config
          | Simulator _ -> sim_engine ~trace w decl config)
    in
    let setup_wall_s = now () -. t0 in
    (* At the reference host speed, as the probes before and after saw it. *)
    let setup_s = setup_wall_s *. Probe.ref_s /. ((p0 +. Probe.median_time 5) /. 2.) in
    let rows =
      List.fold_left (fun a (_, c) -> a + Storage.Catalog.total_records c) 0 (eng.catalogs ())
    in
    let load_mb = mib (float_of_int (Gc.quick_stat ()).Gc.heap_words) in
    let warm_reqs, reqs =
      Span.record sp "generate" (fun () ->
          let all = w.gen config (Util.Rng.create seed) (w.warmup + w.txns) in
          (Array.sub all 0 w.warmup, Array.sub all w.warmup w.txns))
    in
    let gc0 = Gc.quick_stat () in
    let wr = Span.record sp "warmup" (fun () -> eng.run warm_reqs) in
    let collector =
      if trace then begin
        let clock = match w.backend with Runtime _ -> Obs.Wall | Simulator _ -> Obs.Virtual in
        let c = Obs.Collector.create ~clock ~containers:n_groups () in
        eng.attach c;
        Some c
      end
      else None
    in
    let r = Span.record sp "measure" (fun () -> eng.run reqs) in
    let busy_frac = eng.busy_frac () and sim_layer = eng.sim_layer r in
    error (Span.record sp "shutdown" eng.stop);
    let gc1 = Gc.quick_stat () in
    let rss = peak_rss_mb () in
    let wal_stats =
      Span.record sp "check" (fun () ->
          let catalogs = eng.catalogs () in
          let logical = Driver.logical wr + Driver.logical r in
          let retries = Driver.retries wr + Driver.retries r in
          if eng.attempts () <> logical + retries then
            error
              [ Printf.sprintf "accounting: commits + aborts = %d, logical + retries = %d"
                  (eng.attempts ()) (logical + retries) ];
          let internal =
            List.fold_left
              (fun a (x : Driver.result) ->
                a + x.Driver.abort_kinds.(Obs.Abort.kind_index Obs.Abort.Internal))
              0 [ wr; r ]
          in
          if internal > 0 then error [ Printf.sprintf "%d internal aborts" internal ];
          (match Faultsim.check_secondaries catalogs with
          | Ok () -> ()
          | Error e -> error [ "secondary index: " ^ e ]);
          error (w.audit catalogs [ (warm_reqs, wr); (reqs, r) ]);
          match log with
          | None -> None
          | Some log ->
            let st, es = check_wal ~path:wal_path ~log decl catalogs in
            error es;
            Some st)
    in
    let lat = Driver.committed_latencies r in
    let pct name p =
      match Pstats.percentile lat p with
      | Some v -> v
      | None ->
        error
          [ Printf.sprintf "%s: fewer than %d committed samples beyond it" name
              Pstats.min_beyond ];
        Float.nan
    in
    let end_to_end =
      [ m "throughput_tps" (float_of_int (Driver.committed r) /. r.Driver.ref_wall_s) "1/s";
        m "p50_us" (pct "p50_us" 50.) "us";
        m "p95_us" (pct "p95_us" 95.) "us";
        m "setup_s" setup_s "s";
        m "peak_rss_mb" rss "MiB" ]
    in
    let per_layer =
      match collector with
      | None -> []
      | Some c ->
        let report = Obs.Report.summarize c in
        let phase = phase_mean report in
        let useful = Driver.committed r + Driver.count Driver.User_abort r in
        let all_txns = Driver.logical wr + Driver.logical r in
        let bt =
          Span.record sp "replay.btree" (fun () ->
              Replay.btree ~seed (Replay.table_keys (eng.catalogs ())))
        in
        let hop =
          match w.backend with
          | Runtime _ -> Span.record sp "replay.mailbox" (fun () -> Replay.mailbox_hop ())
          | Simulator _ -> { Replay.ns = 0.; words = 0. }
        in
        let wal_layer =
          match wal_stats with
          | None ->
            [ m "wal.flushes_per_1k_commits" 0. "per_1k"; m "wal.flush_us" 0. "us";
              m "wal.bytes_per_commit" 0. "bytes"; m "wal.encode_ns_per_entry" 0. "ns";
              m "wal.encode_words_per_entry" 0. "words" ]
          | Some st ->
            let enc =
              Span.record sp "replay.wal" (fun () -> Replay.wal_encode st.entries)
            in
            let commits = eng.commits () in
            [ m "wal.flushes_per_1k_commits" (1000. *. per st.flushes commits) "per_1k";
              m "wal.flush_us" (st.flush_us /. float_of_int (Stdlib.max 1 st.flushes)) "us";
              m "wal.bytes_per_commit" (per st.bytes commits) "bytes";
              m "wal.encode_ns_per_entry" enc.Replay.ns "ns";
              m "wal.encode_words_per_entry" enc.Replay.words "words" ]
        in
        [ m "runtime.busy_frac" busy_frac "ratio";
          m "runtime.queue_wait_us" (phase Obs.Phase.Queue_wait) "us";
          m "runtime.suspend_wait_us" (phase Obs.Phase.Suspend_wait) "us";
          m "runtime.multi_container_frac" (per (Driver.multi_attempts r) (Driver.attempts r)) "ratio";
          m "mailbox.hop_ns" hop.Replay.ns "ns";
          m "mailbox.hop_words" hop.Replay.words "words";
          m "occ.validation_us" (phase Obs.Phase.Validation) "us";
          m "occ.commit_us" (phase Obs.Phase.Commit) "us";
          m "occ.attempts_per_commit" (per (Driver.attempts r) useful) "ratio";
          m "occ.abort_conflict_per_1k" (abort_per_1k r Obs.Abort.Conflict) "per_1k";
          m "occ.abort_lock_busy_per_1k" (abort_per_1k r Obs.Abort.Lock_busy) "per_1k";
          m "occ.abort_stale_read_per_1k" (abort_per_1k r Obs.Abort.Stale_read) "per_1k";
          m "occ.abort_node_changed_per_1k" (abort_per_1k r Obs.Abort.Node_changed) "per_1k";
          m "query.exec_us" (phase Obs.Phase.Exec) "us";
          m "storage.readonly_commit_frac" (per (eng.readonly_commits ()) (eng.commits ())) "ratio";
          m "btree.find_ns" bt.Replay.find.Replay.ns "ns";
          m "btree.find_words" bt.Replay.find.Replay.words "words";
          m "btree.insert_ns" bt.Replay.insert.Replay.ns "ns";
          m "btree.insert_words" bt.Replay.insert.Replay.words "words";
          m "btree.range_ns_per_key" bt.Replay.range_ns_per_key "ns";
          m "wal.flush_wait_us" (phase Obs.Phase.Flush_wait) "us" ]
        @ wal_layer @ sim_layer
        @ [ m "gc.minor_words_per_txn"
              ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int all_txns)
              "words";
            m "gc.major_collections_per_1k_txn"
              (1000. *. per (gc1.Gc.major_collections - gc0.Gc.major_collections) all_txns)
              "per_1k";
            m "gc.top_heap_mb" (mib (float_of_int gc1.Gc.top_heap_words)) "MiB";
            m "obs.phase_sum_dev_pct" report.Obs.Report.r_max_sum_dev_pct "%";
            m "lat.p99_us" (pct "lat.p99_us" 99.) "us" ]
    in
    let envelope =
      [ ("workload", J.Str w.name); ("seed", num seed);
        ("backend",
          J.Str (match w.backend with Runtime _ -> "runtime" | Simulator _ -> "simulator"));
        ("containers", num n_groups); ("clients", num w.clients);
        ("warmup_txns", num w.warmup); ("measured_txns", num w.txns);
        ("epoch_len_s",
          match epoch_len_s with Some e -> J.Num e | None -> J.Str "default");
        ("wal", J.Bool wal_on); ("rows", num rows); ("heap_mb_after_load", J.Num load_mb);
        ("recommended_domain_count", num (Domain.recommended_domain_count ()));
        ("ocaml_version", J.Str Sys.ocaml_version); ("setup_wall_s", J.Num setup_wall_s) ]
      @ (match w.backend with
        | Runtime _ -> []
        | Simulator _ -> [ ("host_speed", J.Num (r.Driver.ref_wall_s /. r.Driver.wall_s)) ])
      @ w.sizes
    in
    {
      errors = !errors;
      attempted = Driver.logical r;
      failed = Driver.failed r;
      end_to_end;
      per_layer;
      envelope;
      spans = [];
    }
  in
  let round = Span.record sp "round" body in
  { round with spans = Span.spans sp }
