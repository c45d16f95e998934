(* Virtualized database architecture on TPC-C (§3.3, §4.3): the same TPC-C
   application code deployed as a shared-everything engine (with and without
   affinity routing) and as a shared-nothing engine, by changing only the
   deployment configuration.

   The demo runs the standard mix under each deployment, prints throughput,
   latency and abort rates, and certifies every execution's recorded history
   for conflict-serializability.

   Run with: dune exec examples/tpcc_demo.exe *)

open Workloads

let warehouses = 4
let sizes = Tpcc.default_sizes

let deployments =
  let ws = Tpcc.warehouses warehouses in
  [
    ( "shared-everything-without-affinity",
      Reactdb.Config.shared_everything ~executors:warehouses ~affinity:false ws );
    ( "shared-everything-with-affinity",
      Reactdb.Config.shared_everything ~executors:warehouses ~affinity:true ws );
    ( "shared-nothing",
      Reactdb.Config.shared_nothing (List.map (fun w -> [ w ]) ws) );
  ]

let certify db =
  match Audit.certify (Reactdb.Database.history db) with
  | Ok n -> Printf.sprintf "serializable (%d txns certified)" n
  | Error m -> "NOT SERIALIZABLE: " ^ m

let () =
  let params = Tpcc.params ~sizes warehouses in
  let t =
    Util.Tablefmt.create
      [ "deployment"; "tput [Ktxn/s]"; "latency [ms]"; "abort %"; "history" ]
  in
  List.iter
    (fun (name, config) ->
      let db = Harness.build (Tpcc.decl ~warehouses ~sizes ()) config in
      Reactdb.Database.enable_history db;
      let seq = ref 0 in
      let spec =
        Harness.spec ~epochs:6 ~epoch_us:10_000. ~warmup_epochs:2 ~n_workers:8
          (fun w rng -> Tpcc.gen_mix rng params ~home:(1 + (w mod warehouses)) ~seq)
      in
      let r = Harness.run (Harness.sim db) spec in
      Util.Tablefmt.row t
        [ name;
          Printf.sprintf "%.1f" (r.Harness.throughput /. 1000.);
          Printf.sprintf "%.3f" (r.Harness.avg_latency /. 1000.);
          Printf.sprintf "%.2f" (100. *. r.Harness.abort_rate);
          certify db ])
    deployments;
  Printf.printf
    "TPC-C standard mix, %d warehouses (as reactors), 8 workers.\n\
     Application code identical across rows; only the deployment config\n\
     differs.\n\n" warehouses;
  Util.Tablefmt.print t
