(* Ablation experiments beyond the paper: sensitivity of its conclusions to
   the design knobs ReactDB exposes (multiprogramming level, send/receive
   asymmetry, cache-affinity penalty, hardware profile). These quantify the
   design choices DESIGN.md calls out rather than reproduce a figure. *)

open Workloads

(* ---- MPL: cooperative multitasking under load ---- *)

let abl_mpl ~fast =
  let warehouses = 4 in
  let sizes = { Tpcc.default_sizes with Tpcc.items = 20_000 } in
  let params =
    Tpcc.params ~sizes ~remote_mode:(Tpcc.Per_item 1.0) ~delay_lo:100.
      ~delay_hi:150. warehouses
  in
  let mpls = if fast then [ 1; 8 ] else [ 1; 2; 4; 8; 16 ] in
  let t =
    Util.Tablefmt.create ~title:"new-order-delay, 8 workers on 4 warehouses (SN)"
      [ "MPL"; "tput [txn/s]"; "latency [ms]"; "abort %" ]
  in
  List.iter
    (fun mpl ->
      let cfg =
        Reactdb.Config.shared_nothing ~mpl
          (List.map (fun w -> [ w ]) (Tpcc.warehouses warehouses))
      in
      let db = Harness.build (Tpcc.decl ~warehouses ~sizes ()) cfg in
      let seq = ref 0 in
      let r =
        Harness.run (Harness.sim db)
          (Bexp.load_spec ~fast ~n_workers:8 (fun w rng ->
               incr seq;
               Tpcc.gen_new_order rng params
                 ~home:(1 + (w mod warehouses))
                 ~clock:(float_of_int !seq)))
      in
      Util.Tablefmt.row t
        [ string_of_int mpl;
          Util.Tablefmt.fcell ~digits:0 r.Harness.throughput;
          Bexp.fmt_lat r;
          Util.Tablefmt.fcell ~digits:2 (100. *. r.Harness.abort_rate) ])
    mpls;
  Util.Tablefmt.print t;
  Printf.printf
    "Expected: MPL 1 admits one root per executor at a time — no overlap,\n\
     but near-serial validation windows (low aborts). MPL >= 2 lets the\n\
     executor run a second root while the first waits on remote stock\n\
     work: committed-transaction latency drops and throughput rises\n\
     slightly, while concurrent windows multiply the abort rate by\n\
     3.4-4.6x (a ~10x growth does not reproduce on this sweep).\n\
     Past the number of workers per executor, MPL is inert.\n\
     This is the §3.2.3 knob: cooperative multitasking trades isolation\n\
     pressure for utilization.\n"

(* ---- Cr sensitivity: the receive-path asymmetry ---- *)

let abl_cr ~fast =
  let crs = if fast then [ 2.; 14. ] else [ 2.; 7.; 14.; 28. ] in
  let t =
    Util.Tablefmt.create
      ~title:"size-7 multi-transfer latency [ms] vs receive cost Cr"
      [ "Cr [µs]"; "fully-sync"; "opt"; "sync/opt" ]
  in
  List.iter
    (fun cr ->
      let profile = { Reactdb.Profile.default with cost_recv = cr } in
      let measure form =
        let db =
          Harness.build ~profile
            (Smallbank.decl ~customers:56 ())
            (Reactdb.Config.shared_nothing
               (List.init 7 (fun g ->
                    List.init 8 (fun k -> Smallbank.customer_name ((g * 8) + k)))))
        in
        let dests =
          List.init 7 (fun i ->
              Smallbank.customer_name ((((i + 1) mod 7) * 8) + 1 + (i / 7)))
        in
        let outs =
          Harness.measure_txns db ~n:30 (fun _ ->
              Smallbank.multi_transfer_request form
                ~src:(Smallbank.customer_name 0) ~dests ~amount:1.)
        in
        Harness.mean_latency outs
      in
      let fs = measure Smallbank.Fully_sync in
      let opt = measure Smallbank.Opt in
      Util.Tablefmt.row t
        [ Util.Tablefmt.fcell ~digits:0 cr;
          Util.Tablefmt.fcell (Bexp.ms fs);
          Util.Tablefmt.fcell (Bexp.ms opt);
          Util.Tablefmt.fcell ~digits:2 (fs /. opt) ])
    crs;
  Util.Tablefmt.print t;
  Printf.printf
    "Expected: fully-sync pays Cr once per transfer (latency grows ~7*Cr);\n\
     opt hides all but ~one Cr behind the overlap window, so the\n\
     formulation gap widens with the receive-path cost — asynchrony matters\n\
     most on exactly the hardware where cross-core wakeups are expensive.\n"

(* ---- hardware profile: do the architecture conclusions transfer? ---- *)

let abl_profile ~fast =
  let warehouses = 4 in
  let params = Tpcc.params 4 in
  let t =
    Util.Tablefmt.create ~title:"TPC-C mix, SF 4, 8 workers"
      [ "profile"; "deployment"; "tput [Ktxn/s]"; "latency [ms]" ]
  in
  List.iter
    (fun (pname, profile) ->
      List.iter
        (fun (dname, cfg) ->
          let db = Harness.build ~profile (Tpcc.decl ~warehouses ()) cfg in
          let seq = ref 0 in
          let r =
            Harness.run (Harness.sim db)
              (Bexp.load_spec ~fast ~n_workers:8 (fun w rng ->
                   Tpcc.gen_mix rng params ~home:(1 + (w mod warehouses)) ~seq))
          in
          Util.Tablefmt.row t
            [ pname; dname; Bexp.fmt_tput r; Bexp.fmt_lat r ])
        [
          ( "shared-everything-with-affinity",
            Reactdb.Config.shared_everything ~executors:warehouses ~affinity:true
              (Tpcc.warehouses warehouses) );
          ( "shared-nothing-async",
            Reactdb.Config.shared_nothing
              (List.map (fun w -> [ w ]) (Tpcc.warehouses warehouses)) );
          ( "shared-everything-without-affinity",
            Reactdb.Config.shared_everything ~executors:warehouses
              ~affinity:false (Tpcc.warehouses warehouses) );
        ])
    [ ("xeon", Reactdb.Profile.default); ("opteron", Reactdb.Profile.opteron) ];
  Util.Tablefmt.print t;
  Printf.printf
    "Expected: absolute numbers shift with the profile, the deployment\n\
     ranking does not — the virtualization conclusion is hardware-robust\n\
     (the gaps widen on the opteron profile's pricier cross-core paths).\n"

(* ---- cache-affinity penalty ---- *)

let abl_cache ~fast =
  ignore fast;
  let params = Tpcc.params 1 in
  let t =
    Util.Tablefmt.create
      ~title:"SF-1 TPC-C, 1 worker, round-robin over 8 executors"
      [ "miss penalty [µs/op]"; "tput [Ktxn/s]"; "vs 1 executor" ]
  in
  List.iter
    (fun miss ->
      let profile = { Reactdb.Profile.default with cost_cache_miss = miss } in
      let run executors =
        let db =
          Harness.build ~profile (Tpcc.decl ~warehouses:1 ())
            (Reactdb.Config.shared_everything ~executors ~affinity:false
               (Tpcc.warehouses 1))
        in
        let seq = ref 0 in
        (Harness.run (Harness.sim db)
           (Bexp.load_spec ~fast:true ~n_workers:1 (fun _ rng ->
                Tpcc.gen_mix rng params ~home:1 ~seq)))
          .Harness.throughput
      in
      let base = run 1 and spread = run 8 in
      Util.Tablefmt.row t
        [ Util.Tablefmt.fcell ~digits:1 miss;
          Util.Tablefmt.fcell ~digits:1 (spread /. 1000.);
          Printf.sprintf "%.0f%%" (100. *. spread /. base) ])
    [ 0.; 0.4; 0.8; 1.6; 3.2 ];
  Util.Tablefmt.print t;
  Printf.printf
    "Expected: with a free cache model, routing would not matter; the\n\
     affinity story of App. F.2 appears as soon as misses cost anything and\n\
     dominates on machines with expensive coherence traffic.\n"

(* ---- cluster deployments: the paper's future-work direction ---- *)

let abl_cluster ~fast =
  ignore fast;
  let groups =
    List.init 7 (fun g -> List.init 8 (fun k -> Smallbank.customer_name ((g * 8) + k)))
  in
  let dests =
    List.init 6 (fun i -> Smallbank.customer_name (((i + 1) mod 7) * 8))
  in
  let t =
    Util.Tablefmt.create
      ~title:"size-6 multi-transfer, 7 containers spread over k machines"
      [ "machines"; "fully-sync [ms]"; "opt [ms]"; "sync/opt" ]
  in
  List.iter
    (fun machines ->
      let cfg =
        Reactdb.Config.on_machines
          (Reactdb.Config.shared_nothing groups)
          (fun container -> container mod machines)
      in
      let measure form =
        let db = Harness.build (Smallbank.decl ~customers:56 ()) cfg in
        Harness.mean_latency
          (Harness.measure_txns db ~n:30 (fun _ ->
               Smallbank.multi_transfer_request form
                 ~src:(Smallbank.customer_name 0) ~dests ~amount:1.))
      in
      let fs = measure Smallbank.Fully_sync in
      let opt = measure Smallbank.Opt in
      Util.Tablefmt.row t
        [ string_of_int machines;
          Util.Tablefmt.fcell (Bexp.ms fs);
          Util.Tablefmt.fcell (Bexp.ms opt);
          Util.Tablefmt.fcell ~digits:2 (fs /. opt) ])
    [ 1; 2; 4; 7 ];
  Util.Tablefmt.print t;
  Printf.printf
    "Expected: spreading containers over machines (no application change —\n\
     §6's cluster direction) adds a network round trip per cross-machine\n\
     message. The ABSOLUTE asynchrony saving grows (opt still hides the\n\
     remote executions and receive paths), but the RELATIVE ratio\n\
     compresses: invocation sends are issued serially by the caller and\n\
     the 2PC fan-out crosses the network too, and those costs hit both\n\
     formulations alike. Distribution shifts the bottleneck from the\n\
     receive path to messaging itself — the quantified version of why the\n\
     paper leaves cluster mapping as future work.\n"

let register () =
  Bexp.register ~id:"abl-mpl" ~paper:"(ablation)"
    ~title:"Multiprogramming level under asynchronous load" abl_mpl;
  Bexp.register ~id:"abl-cr" ~paper:"(ablation)"
    ~title:"Sensitivity to the send/receive asymmetry" abl_cr;
  Bexp.register ~id:"abl-profile" ~paper:"(ablation)"
    ~title:"Deployment ranking across hardware profiles" abl_profile;
  Bexp.register ~id:"abl-cache" ~paper:"(ablation)"
    ~title:"Cache-affinity penalty vs routing" abl_cache;
  Bexp.register ~id:"abl-cluster" ~paper:"(ablation / §6 future work)"
    ~title:"Cluster deployments: containers over machines" abl_cluster
