(* Parallel-runtime scaling bench: throughput vs number of domains for the
   real-parallel shared-nothing backend (lib/runtime), Smallbank and YCSB,
   affinity vs round-robin ingress routing.

   Every run is gated on the equivalence audit: no internal errors, exact
   money conservation (Smallbank, conserving mix), one row per key reactor
   (YCSB), and a full secondary-index audit. A failed audit makes the
   process exit non-zero — the numbers are only meaningful if the parallel
   execution was correct.

   Throughput scaling across domains requires as many physical cores; the
   emitted JSON records the host's available parallelism
   (`recommended_domains`) so a reader can tell a runtime limitation from a
   hardware one.

   Usage:
     dune exec bench/parallel_scaling.exe                  full run
     dune exec bench/parallel_scaling.exe -- --fast        shrunken run
     dune exec bench/parallel_scaling.exe -- --out F.json  write elsewhere *)

module RDb = Runtime.Db
module SB = Workloads.Smallbank

type row = {
  rw_workload : string;
  rw_router : string;
  rw_domains : int;
  rw_workers : int;
  rw_throughput : float;
  rw_p50 : float;
  rw_p95 : float;
  rw_p99 : float;
  rw_abort_rate : float;
  rw_committed : int;
  rw_util_mean : float;
  rw_audit : (unit, string) result;
}

type workload = Smallbank of int | Ycsb of int

let workload_name = function
  | Smallbank _ -> "smallbank-conserving"
  | Ycsb _ -> "ycsb-multi-update"

(* Wall-clock epochs of the closed loop (DESIGN.md §6.2). *)
let epoch_us = 50_000.

let run_scenario ~wl ~router ~d ~workers ~warmup_epochs ~epochs =
  let decl, names =
    match wl with
    | Smallbank n -> (SB.decl ~customers:n (), SB.customers n)
    | Ycsb n -> (Workloads.Ycsb.decl ~keys:n (), Workloads.Ycsb.keys n)
  in
  let cfg = Reactdb.Config.of_groups ~router (Reactdb.Config.chunk d names) in
  let db = RDb.start decl cfg in
  let gen =
    match wl with
    | Smallbank n -> fun _ rng -> SB.gen_conserving rng ~n
    | Ycsb n ->
      let p = Workloads.Ycsb.params ~txn_keys:10 ~theta:0.5 n in
      fun _ rng ->
        Workloads.Ycsb.gen_multi_update rng p
          ~container_of:(RDb.container_of db)
  in
  let r =
    Harness.run (Harness.runtime db)
      (Harness.spec ~epochs ~epoch_us ~warmup_epochs ~seed:42 ~n_workers:workers
         gen)
  in
  RDb.shutdown db;
  let invariant_audit () =
    match wl with
    | Smallbank n -> Audit.money ~n (RDb.catalogs db)
    | Ycsb _ -> Audit.ycsb_rows (RDb.catalogs db)
  in
  let audit =
    Audit.(
      fatal db >>= invariant_audit >>= fun () -> secondaries (RDb.catalogs db))
  in
  let um =
    let u = r.Harness.utilizations in
    if Array.length u = 0 then 0.
    else Array.fold_left ( +. ) 0. u /. float_of_int (Array.length u)
  in
  {
    rw_workload = workload_name wl;
    rw_router = Reactdb.Config.router_name router;
    rw_domains = d;
    rw_workers = workers;
    rw_throughput = r.Harness.throughput;
    rw_p50 = r.Harness.p50_latency;
    rw_p95 = r.Harness.p95_latency;
    rw_p99 = r.Harness.p99_latency;
    rw_abort_rate = r.Harness.abort_rate;
    rw_committed = r.Harness.committed;
    rw_util_mean = um;
    rw_audit = audit;
  }

(* Speedup relative to the same workload+router at 1 domain. *)
let speedup rows r =
  match
    List.find_opt
      (fun b ->
        b.rw_workload = r.rw_workload && b.rw_router = r.rw_router
        && b.rw_domains = 1)
      rows
  with
  | Some b when b.rw_throughput > 0. -> r.rw_throughput /. b.rw_throughput
  | _ -> 1.

let emit_json path rows =
  let host = Host.json () in
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"parallel_scaling\",\n";
  Printf.fprintf oc "  \"host\": %s,\n" host;
  Printf.fprintf oc
    "  \"note\": \"throughput scaling across domains requires as many \
     physical cores as domains; on a host with recommended_domains < 4 the \
     4-domain numbers measure correctness and overhead, not speedup\",\n";
  Printf.fprintf oc "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"workload\": %S, \"router\": %S, \"domains\": %d, \"workers\": \
         %d, \"throughput\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, \
         \"p99_us\": %.1f, \"abort_rate\": %.4f, \"committed\": %d, \
         \"util_mean\": %.3f, \"speedup_vs_1\": %.3f, \"audit\": %S}%s\n"
        r.rw_workload r.rw_router r.rw_domains r.rw_workers r.rw_throughput
        r.rw_p50 r.rw_p95 r.rw_p99 r.rw_abort_rate r.rw_committed
        r.rw_util_mean (speedup rows r)
        (match r.rw_audit with Ok () -> "ok" | Error m -> m)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let () =
  let fast = ref false in
  let out = ref "BENCH_parallel_scaling.json" in
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
  let domains = if !fast then [ 1; 2 ] else [ 1; 2; 4 ] in
  let workers = 16 in
  let warmup_epochs = if !fast then 2 else 10 in
  let epochs = if !fast then 8 else 40 in
  let workloads =
    [ Smallbank (if !fast then 128 else 1024); Ycsb (if !fast then 128 else 512) ]
  in
  Printf.printf
    "Parallel scaling (%d workers, %.1fs measure, host recommends %d domains)\n%!"
    workers
    (float_of_int epochs *. epoch_us *. 1e-6)
    (Domain.recommended_domain_count ());
  let rows =
    List.concat_map
      (fun wl ->
        List.concat_map
          (fun router ->
            List.map
              (fun d ->
                let r =
                  run_scenario ~wl ~router ~d ~workers ~warmup_epochs ~epochs
                in
                Printf.printf
                  "  %-20s %-12s %d domains: %9.0f txn/s  p50 %7.1fus  p99 \
                   %8.1fus  aborts %5.2f%%  util %4.2f  [%s]\n%!"
                  r.rw_workload r.rw_router d r.rw_throughput r.rw_p50 r.rw_p99
                  (100. *. r.rw_abort_rate) r.rw_util_mean
                  (match r.rw_audit with Ok () -> "audit ok" | Error _ -> "AUDIT FAILED");
                r)
              domains)
          [ Reactdb.Config.Affinity; Reactdb.Config.Round_robin ])
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
          Some
            (Printf.sprintf "%s/%s/%d domains: %s" r.rw_workload r.rw_router
               r.rw_domains m))
      rows
  in
  if failures <> [] then begin
    List.iter (Printf.eprintf "AUDIT FAILURE: %s\n") failures;
    exit 1
  end
