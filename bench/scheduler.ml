(* Dynamic-scheduling bench: static affinity placement vs work stealing
   and cost-aware routing on the real-parallel backend, under uniform and
   Zipfian-skewed YCSB at a fixed domain count, plus a Smallbank
   cross-check.

   Each scenario drives a FIXED amount of work (run_fixed) and reports the
   makespan — wall-clock seconds to finish all of it — rather than
   open-window throughput: with skew, a static schedule leaves the cold
   domains idle while the hot domain grinds through its backlog, and
   makespan is exactly the number that exposes it. Alongside: per-domain
   busy seconds (utilization = busy / makespan), steal and cost-routing
   counters, and latency percentiles from an attached Obs collector.

   Every run is audit-gated, same policy as parallel_scaling.exe: zero
   internal errors, exact attempt accounting
   (committed + aborted = logical + retries), one row per YCSB key reactor
   / exact money conservation for Smallbank, and a full secondary-index
   audit. A failed audit exits non-zero — the numbers mean nothing if the
   dynamic schedule broke execution.

   Usage:
     dune exec bench/scheduler.exe                  full run
     dune exec bench/scheduler.exe -- --fast        shrunken run
     dune exec bench/scheduler.exe -- --out F.json  write elsewhere *)

module RDb = Runtime.Db
module SB = Workloads.Smallbank

type mode = { m_name : string; m_router : Reactdb.Config.router; m_steal : bool }

let modes =
  [
    { m_name = "static"; m_router = Reactdb.Config.Affinity; m_steal = false };
    { m_name = "steal"; m_router = Reactdb.Config.Affinity; m_steal = true };
    { m_name = "cost"; m_router = Reactdb.Config.Cost; m_steal = false };
    { m_name = "dynamic"; m_router = Reactdb.Config.Cost; m_steal = true };
  ]

type row = {
  rw_workload : string;
  rw_mode : string;
  rw_domains : int;
  rw_txns : int;  (** logical transactions driven *)
  rw_makespan_s : float;
  rw_throughput : float;  (** logical committed / makespan *)
  rw_p50 : float;
  rw_p99 : float;
  rw_util_mean : float;
  rw_util_min : float;  (** coldest domain's utilization *)
  rw_steals : int;
  rw_cost_routed : int;
  rw_sheds : int;
  rw_retries : int;
  rw_audit : (unit, string) result;
}

(* Contiguous placement: the first |xs|/k reactors on domain 0, the next
   on domain 1, … Zipfian popularity decreases with key index, so under
   skew the whole hot set lands on domain 0 — the domain-level imbalance a
   static schedule cannot fix (round-robin dealing would spread the hot
   keys one per domain and hide it). *)
let contiguous k xs =
  let n = List.length xs in
  let per = (n + k - 1) / k in
  let groups = Array.make k [] in
  List.iteri (fun i x -> groups.(i / per) <- x :: groups.(i / per)) xs;
  Array.to_list (Array.map List.rev groups)

type workload = Ycsb of { keys : int; theta : float } | Smallbank of int

let workload_name = function
  | Ycsb { theta; _ } ->
    if theta = 0. then "ycsb-uniform" else Printf.sprintf "ycsb-zipf-%.2f" theta
  | Smallbank _ -> "smallbank-conserving"

let run_scenario ~wl ~mode ~d ~workers ~per_worker =
  let decl, names =
    match wl with
    | Ycsb { keys; _ } -> (Workloads.Ycsb.decl ~keys (), Workloads.Ycsb.keys keys)
    | Smallbank n -> (SB.decl ~customers:n (), SB.customers n)
  in
  let cfg = Reactdb.Config.of_groups ~router:mode.m_router (contiguous d names) in
  let db = RDb.start ~steal:mode.m_steal decl cfg in
  let collector =
    Obs.Collector.create ~clock:Obs.Wall ~containers:(RDb.n_domains db) ()
  in
  RDb.attach_obs db collector;
  let gen =
    match wl with
    | Ycsb { keys; theta } ->
      let p = Workloads.Ycsb.params ~txn_keys:8 ~theta keys in
      fun _ rng ->
        Workloads.Ycsb.gen_multi_update rng p
          ~container_of:(RDb.container_of db)
    | Smallbank n -> fun _ rng -> SB.gen_conserving rng ~n
  in
  let busy0 = RDb.busy_times db in
  let t0 = Unix.gettimeofday () in
  let retries =
    Harness.run_fixed (Harness.runtime db) ~max_retries:3 ~n_workers:workers
      ~per_worker ~seed:42 gen
  in
  let makespan = Unix.gettimeofday () -. t0 in
  let busy1 = RDb.busy_times db in
  let stats = RDb.sched_stats db in
  RDb.shutdown db;
  let logical = workers * per_worker in
  let report = Obs.Report.summarize collector in
  let audit =
    let open Audit in
    fatal db
    >>= (fun () ->
          accounting ~committed:(RDb.n_committed db)
            ~aborted:(RDb.n_aborted db) ~logical ~retries)
    >>= (fun () ->
          match wl with
          | Ycsb _ -> ycsb_rows (RDb.catalogs db)
          | Smallbank n -> money ~n (RDb.catalogs db))
    >>= fun () -> secondaries (RDb.catalogs db)
  in
  let utils =
    Array.init d (fun i ->
        Float.min 1. ((busy1.(i) -. busy0.(i)) /. Float.max 1e-9 makespan))
  in
  let mean a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  {
    rw_workload = workload_name wl;
    rw_mode = mode.m_name;
    rw_domains = d;
    rw_txns = logical;
    rw_makespan_s = makespan;
    rw_throughput = float_of_int (RDb.n_committed db) /. makespan;
    rw_p50 = report.Obs.Report.r_lat_p50_us;
    rw_p99 = report.Obs.Report.r_lat_p99_us;
    rw_util_mean = mean utils;
    rw_util_min = Array.fold_left Float.min 1. utils;
    rw_steals = RDb.n_steals db;
    rw_cost_routed =
      Array.fold_left (fun a s -> a + s.RDb.ss_routed_by_cost) 0 stats;
    rw_sheds = Array.fold_left (fun a s -> a + s.RDb.ss_sheds) 0 stats;
    rw_retries = retries;
    rw_audit = audit;
  }

let emit_json path rows =
  let host = Host.json () in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"scheduler\",\n";
  Printf.fprintf oc "  \"host\": %s,\n" host;
  Printf.fprintf oc
    "  \"note\": \"fixed-work makespan comparison; dynamic scheduling \
     (stealing + cost routing) only pays off when skew leaves some domains \
     idle, so compare modes within one workload row group\",\n";
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"mode\": %S, \"domains\": %d, \"txns\": %d, \
         \"makespan_s\": %.4f, \"throughput\": %.1f, \"p50_us\": %.1f, \
         \"p99_us\": %.1f, \"util_mean\": %.3f, \"util_min\": %.3f, \
         \"steals\": %d, \"cost_routed\": %d, \"sheds\": %d, \"retries\": \
         %d, \"audit\": %S}%s\n"
        r.rw_workload r.rw_mode r.rw_domains r.rw_txns r.rw_makespan_s
        r.rw_throughput r.rw_p50 r.rw_p99 r.rw_util_mean r.rw_util_min
        r.rw_steals r.rw_cost_routed r.rw_sheds r.rw_retries
        (match r.rw_audit with Ok () -> "ok" | Error m -> m)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let () =
  let fast = ref false in
  let out = ref "BENCH_scheduler.json" in
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
  let d = 4 in
  let workers = 16 in
  let per_worker = if !fast then 150 else 800 in
  let keys = if !fast then 128 else 512 in
  let workloads =
    [
      Ycsb { keys; theta = 0. };
      Ycsb { keys; theta = 0.99 };
      Smallbank (if !fast then 128 else 512);
    ]
  in
  Printf.printf
    "Scheduler sweep (%d domains, %d workers x %d txns, host recommends %d \
     domains)\n%!"
    d workers per_worker
    (Domain.recommended_domain_count ());
  let rows =
    List.concat_map
      (fun wl ->
        List.map
          (fun mode ->
            let r = run_scenario ~wl ~mode ~d ~workers ~per_worker in
            Printf.printf
              "  %-16s %-8s makespan %6.3fs  %8.0f txn/s  p99 %8.1fus  util \
               %4.2f (min %4.2f)  steals %5d  cost-routed %5d  [%s]\n%!"
              r.rw_workload r.rw_mode r.rw_makespan_s r.rw_throughput r.rw_p99
              r.rw_util_mean r.rw_util_min r.rw_steals r.rw_cost_routed
              (match r.rw_audit with
              | Ok () -> "audit ok"
              | Error _ -> "AUDIT FAILED");
            r)
          modes)
      workloads
  in
  emit_json !out rows;
  Printf.printf "wrote %s\n" !out;
  let failures =
    List.filter_map
      (fun r ->
        match r.rw_audit with
        | Ok () -> None
        | Error m ->
          Some (Printf.sprintf "%s/%s: %s" r.rw_workload r.rw_mode m))
      rows
  in
  (* The headline claim is also gated: under Zipfian skew the dynamic mode
     must actually steal. (Makespan improvement is asserted softly — wall
     clock on a shared host is too noisy for a hard exit — but printed so
     regressions are visible in the committed JSON.) *)
  let zipf_dynamic =
    List.find_opt
      (fun r ->
        r.rw_mode = "dynamic"
        && String.length r.rw_workload >= 9
        && String.sub r.rw_workload 0 9 = "ycsb-zipf")
      rows
  in
  (match zipf_dynamic with
  | Some r when r.rw_steals = 0 ->
    Printf.eprintf "GATE FAILURE: dynamic mode never stole under skew\n";
    exit 1
  | _ -> ());
  if failures <> [] then begin
    List.iter (Printf.eprintf "AUDIT FAILURE: %s\n") failures;
    exit 1
  end
