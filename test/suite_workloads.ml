(* Integration tests for the benchmark workloads: Smallbank formulations,
   TPC-C transactions + consistency conditions, YCSB, Exchange. *)

open Util
module DB = Reactdb.Database
module W = Workloads

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-6))

let run_in decl config = Testlib.in_sim (Harness.build decl config)

let exec db (req : W.Wl.request) =
  DB.exec_txn db ~reactor:req.W.Wl.reactor ~proc:req.W.Wl.proc ~args:req.W.Wl.args

let exec_ok db req =
  match exec db req with
  | { DB.result = Ok v; _ } -> v
  | { DB.result = Error m; _ } ->
    Alcotest.failf "txn %s/%s aborted: %s" req.W.Wl.reactor req.W.Wl.proc m

(* Raw scan helper over a reactor's physical catalog. *)
let rows db reactor table =
  let catalog = DB.catalog_of db reactor in
  let tbl = Storage.Catalog.table catalog table in
  let out = ref [] in
  Storage.Table.range tbl ~f:(fun r ->
      if not r.Storage.Record.absent then out := r.Storage.Record.data :: !out;
      true);
  List.rev !out

let cell db reactor table key col =
  let catalog = DB.catalog_of db reactor in
  let tbl = Storage.Catalog.table catalog table in
  match Storage.Table.find tbl key with
  | Some r when not r.Storage.Record.absent -> r.Storage.Record.data.(col)
  | _ -> Alcotest.failf "missing row in %s.%s" reactor table

(* ---------------- Smallbank ---------------- *)

let sb_sn n = Reactdb.Config.shared_nothing (List.map (fun c -> [ c ]) (W.Smallbank.customers n))

let savings db c = Value.to_number (cell db c "savings" [| Value.Int (int_of_string (String.sub c 1 (String.length c - 1))) |] 1)

let test_smallbank_formulations_effects () =
  List.iter
    (fun form ->
      run_in (W.Smallbank.decl ~customers:8 ()) (sb_sn 8) (fun db ->
          let req =
            W.Smallbank.multi_transfer_request form ~src:"c0"
              ~dests:[ "c1"; "c2"; "c3" ] ~amount:10.
          in
          ignore (exec_ok db req);
          checkf
            (W.Smallbank.formulation_name form ^ " source debited")
            9970. (savings db "c0");
          List.iter
            (fun c ->
              checkf
                (W.Smallbank.formulation_name form ^ " dest credited")
                10010. (savings db c))
            [ "c1"; "c2"; "c3" ];
          checkf "others untouched" 10000. (savings db "c4")))
    [ W.Smallbank.Fully_sync; W.Smallbank.Partially_async;
      W.Smallbank.Fully_async; W.Smallbank.Opt ]

let test_smallbank_latency_ordering () =
  (* Fig. 5's qualitative claim at size 7 over a 8-container shared-nothing
     deployment: fully-sync slowest, opt fastest. *)
  let latency form =
    run_in (W.Smallbank.decl ~customers:8 ()) (sb_sn 8) (fun db ->
        let req =
          W.Smallbank.multi_transfer_request form ~src:"c0"
            ~dests:(List.map W.Smallbank.customer_name [ 1; 2; 3; 4; 5; 6; 7 ])
            ~amount:1.
        in
        ignore (exec db req);
        (* measure the second run (warm caches) *)
        let out = exec db req in
        (match out.DB.result with Ok _ -> () | Error m -> Alcotest.fail m);
        out.DB.latency)
  in
  let fs = latency W.Smallbank.Fully_sync in
  let pa = latency W.Smallbank.Partially_async in
  let fa = latency W.Smallbank.Fully_async in
  let opt = latency W.Smallbank.Opt in
  check_bool
    (Printf.sprintf "ordering fs=%.1f pa=%.1f fa=%.1f opt=%.1f" fs pa fa opt)
    true
    (fs > pa && pa > fa && fa > opt)

let test_smallbank_overdraft_aborts () =
  run_in (W.Smallbank.decl ~customers:2 ~initial:5. ()) (sb_sn 2) (fun db ->
      let req =
        W.Smallbank.multi_transfer_request W.Smallbank.Fully_sync ~src:"c0"
          ~dests:[ "c1" ] ~amount:50.
      in
      (match (exec db req).DB.result with
      | Error m -> check_bool "overdraft" true (m = "savings overdraft")
      | Ok _ -> Alcotest.fail "expected abort");
      checkf "no partial effect" 5. (savings db "c1"))

let test_smallbank_standard_mix () =
  run_in (W.Smallbank.decl ~customers:8 ())
    (Reactdb.Config.shared_everything ~executors:2 ~affinity:true
       (W.Smallbank.customers 8))
    (fun db ->
      DB.enable_history db;
      let eng = DB.engine db in
      for w = 0 to 3 do
        Sim.Engine.spawn eng (fun () ->
            let rng = Rng.create (50 + w) in
            for _ = 1 to 50 do
              ignore (exec db (W.Smallbank.gen_standard rng ~n:8))
            done)
      done;
      ignore (Sim.Engine.run eng);
      check_bool "most commit" true (DB.n_committed db > 150);
      (* serializability of the full run *)
      Testlib.audit "not serializable" (Audit.certify (DB.history db)))

(* ---------------- TPC-C ---------------- *)

let tpcc_sizes = W.Tpcc.small_sizes

let tpcc_db ?(warehouses = 2) config_of =
  let decl = W.Tpcc.decl ~warehouses ~sizes:tpcc_sizes () in
  Harness.build decl (config_of (W.Tpcc.warehouses warehouses))

let tpcc_sn ws = Reactdb.Config.shared_nothing (List.map (fun w -> [ w ]) ws)

(* TPC-C's consistency conditions on warehouse [w] ([Audit.tpcc]). *)
let check_tpcc_consistency db w =
  Testlib.audit (w ^ " consistency") (Audit.tpcc [ (w, DB.catalog_of db w) ])

let test_tpcc_loader () =
  let db = tpcc_db tpcc_sn in
  check_tpcc_consistency db "w1";
  check_tpcc_consistency db "w2";
  check_int "items loaded" tpcc_sizes.W.Tpcc.items
    (List.length (rows db "w1" "item"));
  check_int "stock loaded" tpcc_sizes.W.Tpcc.items
    (List.length (rows db "w1" "stock"));
  check_int "customers loaded"
    (tpcc_sizes.W.Tpcc.districts * tpcc_sizes.W.Tpcc.customers_per_district)
    (List.length (rows db "w1" "customer"))

let no_args ~d_id ~c_id ~items =
  W.Wl.vi d_id :: W.Wl.vi c_id :: W.Wl.vf 0. :: W.Wl.vf 1.
  :: W.Wl.vi (List.length items)
  :: List.concat_map
       (fun (i, s, q) -> [ W.Wl.vi i; W.Wl.vs s; W.Wl.vi q ])
       items

let test_tpcc_new_order_local () =
  let db = tpcc_db tpcc_sn in
  let qty_before = Value.to_int (cell db "w1" "stock" [| Value.Int 1 |] 1) in
  let o_id =
    Testlib.in_sim db (fun db ->
        let v =
          exec_ok db
            (W.Wl.request "w1" "new_order"
               (no_args ~d_id:1 ~c_id:1 ~items:[ (1, "w1", 3); (2, "w1", 4) ]))
        in
        Value.to_int v)
  in
  check_int "o_id allocated" (tpcc_sizes.W.Tpcc.preloaded_orders + 1) o_id;
  check_tpcc_consistency db "w1";
  let qty_after = Value.to_int (cell db "w1" "stock" [| Value.Int 1 |] 1) in
  check_bool "stock decremented" true
    (qty_after = qty_before - 3 || qty_after = qty_before - 3 + 91);
  (* order lines inserted with amounts *)
  let lines =
    List.filter
      (fun l -> Value.to_int l.(0) = 1 && Value.to_int l.(1) = o_id)
      (rows db "w1" "order_line")
  in
  check_int "two lines" 2 (List.length lines);
  List.iter
    (fun l -> check_bool "amount positive" true (Value.to_number l.(7) > 0.))
    lines

let test_tpcc_new_order_remote () =
  let db = tpcc_db tpcc_sn in
  let remote_cnt_before =
    Value.to_int (cell db "w2" "stock" [| Value.Int 5 |] 4)
  in
  ignore
    (Testlib.in_sim db (fun db ->
         exec_ok db
           (W.Wl.request "w1" "new_order"
              (no_args ~d_id:1 ~c_id:2
                 ~items:[ (1, "w1", 1); (5, "w2", 2); (6, "w2", 1) ]))));
  check_tpcc_consistency db "w1";
  let remote_cnt_after =
    Value.to_int (cell db "w2" "stock" [| Value.Int 5 |] 4)
  in
  check_int "remote stock counted" (remote_cnt_before + 1) remote_cnt_after;
  (* order_line for the remote item carries the remote dist_info *)
  let lines = rows db "w1" "order_line" in
  let remote_line =
    List.find
      (fun l ->
        Value.to_int l.(3) = 5 && Value.to_str l.(4) = "w2"
        && Value.to_number l.(5) = 0.)
      lines
  in
  check_bool "dist info present" true
    (String.length (Value.to_str remote_line.(8)) > 0)

let test_tpcc_payment_local_and_remote () =
  let db = tpcc_db tpcc_sn in
  let bal0 = Value.to_number (cell db "w2" "customer" [| Value.Int 1; Value.Int 3 |] 4) in
  let ytd0 = Value.to_number (cell db "w1" "warehouse" [| Value.Int 1 |] 3) in
  Testlib.in_sim db (fun db ->
      ignore
        (exec_ok db
           (W.Wl.request "w1" "payment"
              [ W.Wl.vi 900001; W.Wl.vi 1; W.Wl.vi 3; W.Wl.vs ""; W.Wl.vf 25.;
                W.Wl.vs "w2" ])));
  checkf "remote customer debited" (bal0 -. 25.)
    (Value.to_number (cell db "w2" "customer" [| Value.Int 1; Value.Int 3 |] 4));
  checkf "warehouse ytd credited" (ytd0 +. 25.)
    (Value.to_number (cell db "w1" "warehouse" [| Value.Int 1 |] 3));
  check_int "history row at home" 1 (List.length (rows db "w1" "history"))

let test_tpcc_payment_by_last_name () =
  let db = tpcc_db tpcc_sn in
  let last = W.Tpcc.last_name 0 in
  Testlib.in_sim db (fun db ->
      ignore
        (exec_ok db
           (W.Wl.request "w1" "payment"
              [ W.Wl.vi 900002; W.Wl.vi 1; W.Wl.vi 1; W.Wl.vs last; W.Wl.vf 10.;
                W.Wl.vs "w1" ])));
  (* customer 1 has last_name 0; with one match it must be the one paid *)
  let cnt =
    Value.to_int (cell db "w1" "customer" [| Value.Int 1; Value.Int 1 |] 6)
  in
  check_int "payment_cnt bumped" 2 cnt

let test_tpcc_order_status () =
  let db = tpcc_db tpcc_sn in
  Testlib.in_sim db (fun db ->
      let v =
        exec_ok db (W.Wl.request "w1" "order_status"
          [ W.Wl.vi 1; W.Wl.vi 1; W.Wl.vs "" ])
      in
      checkf "returns balance" (-10.) (Value.to_number v))

let test_tpcc_delivery () =
  let db = tpcc_db tpcc_sn in
  let undelivered_before = List.length (rows db "w1" "new_order") in
  check_bool "loader left undelivered orders" true (undelivered_before > 0);
  let delivered =
    Testlib.in_sim db (fun db ->
        Value.to_int
          (exec_ok db (W.Wl.request "w1" "delivery" [ W.Wl.vi 5; W.Wl.vf 2. ])))
  in
  check_bool "delivered some" true (delivered > 0);
  check_int "new_order rows consumed" (undelivered_before - delivered)
    (List.length (rows db "w1" "new_order"));
  check_tpcc_consistency db "w1"

let test_tpcc_stock_level () =
  let db = tpcc_db tpcc_sn in
  Testlib.in_sim db (fun db ->
      let v =
        exec_ok db (W.Wl.request "w1" "stock_level" [ W.Wl.vi 1; W.Wl.vi 200 ])
      in
      (* threshold 200 exceeds max stock (100): every recent item is low *)
      check_bool "counts low stock" true (Value.to_int v > 0))

let run_tpcc_mix config_of =
  let warehouses = 2 in
  let db = tpcc_db ~warehouses config_of in
  DB.enable_history db;
  let p =
    W.Tpcc.params ~sizes:tpcc_sizes ~remote_mode:(W.Tpcc.Per_item 0.3)
      ~remote_payment_prob:0.3 warehouses
  in
  let seq = ref 0 in
  let eng = DB.engine db in
  for w = 0 to 3 do
    Sim.Engine.spawn eng (fun () ->
        let rng = Rng.create (99 + w) in
        let home = 1 + (w mod warehouses) in
        for _ = 1 to 40 do
          ignore (exec db (W.Tpcc.gen_mix rng p ~home ~seq))
        done)
  done;
  ignore (Sim.Engine.run eng);
  check_int "all attempts accounted" 160 (DB.n_committed db + DB.n_aborted db);
  check_bool "most commit" true (DB.n_committed db > 90);
  check_tpcc_consistency db "w1";
  check_tpcc_consistency db "w2";
  Testlib.audit "not serializable" (Audit.certify (DB.history db))

let test_tpcc_mix_shared_nothing () = run_tpcc_mix tpcc_sn

let test_tpcc_mix_cluster () =
  (* Shared-nothing split across two machines: same consistency and
     serializability guarantees, network costs included. *)
  run_tpcc_mix (fun ws ->
      Reactdb.Config.on_machines
        (Reactdb.Config.shared_nothing (List.map (fun w -> [ w ]) ws))
        (fun c -> c mod 2))

let test_tpcc_mix_shared_everything_affinity () =
  run_tpcc_mix (Reactdb.Config.shared_everything ~executors:2 ~affinity:true)

let test_tpcc_mix_shared_everything_rr () =
  run_tpcc_mix (Reactdb.Config.shared_everything ~executors:2 ~affinity:false)

(* Deliveries delete new-order rows; the tombstones they leave are
   reclaimed once the GC horizon passes their epoch, so a district's scan
   for its oldest new order walks the live rows plus at most the last two
   epochs' tombstones, not every order ever delivered. *)
let test_tpcc_new_order_bounded_sim () =
  let db = tpcc_db tpcc_sn in
  let p = W.Tpcc.params ~sizes:tpcc_sizes 2 in
  let delivered = ref 0 in
  Testlib.in_sim db (fun db ->
      let rng = Rng.create 5 in
      for i = 1 to 40 do
        let home = 1 + (i mod 2) and clock = float_of_int i in
        ignore (exec_ok db (W.Tpcc.gen_new_order rng p ~home ~clock));
        ignore (exec_ok db (W.Tpcc.gen_new_order rng p ~home ~clock));
        delivered :=
          !delivered + Value.to_int (exec_ok db (W.Tpcc.gen_delivery rng ~home ~clock));
        (* a quarter epoch between rounds: the run spans ten epochs *)
        Sim.Engine.delay 10_000.
      done);
  check_bool "deliveries ran across epochs" true (!delivered > 40);
  List.iter
    (fun w ->
      let tbl = Storage.Catalog.table (DB.catalog_of db w) "new_order" in
      let tombs, newest = Testlib.tombstone_epochs tbl in
      check_bool (w ^ " tombstones only from the last two epochs") true
        (List.for_all (fun e -> e >= newest - 1) tombs);
      check_tpcc_consistency db w)
    [ "w1"; "w2" ]

(* ---------------- YCSB ---------------- *)

let test_ycsb_multi_update () =
  let n = 16 in
  let decl = W.Ycsb.decl ~keys:n () in
  let cfg =
    Reactdb.Config.shared_nothing
      (List.init 4 (fun c ->
           List.filteri (fun i _ -> i mod 4 = c) (W.Ycsb.keys n)))
  in
  let db = Harness.build decl cfg in
  Testlib.in_sim db (fun db ->
      let req =
        W.Wl.request "k0" "multi_update"
          [ W.Wl.vs "NEW"; W.Wl.vs "k1"; W.Wl.vs "k2"; W.Wl.vs "k5" ]
      in
      ignore (exec_ok db req));
  List.iter
    (fun k ->
      check_bool (k ^ " updated") true
        (Value.to_str (cell db k "usertable" [| Value.Int 0 |] 1) = "NEW"))
    [ "k0"; "k1"; "k2"; "k5" ];
  check_bool "others untouched" true
    (Value.to_str (cell db "k3" "usertable" [| Value.Int 0 |] 1) <> "NEW")

let test_ycsb_generator_sorts_remote_first () =
  let n = 40 in
  let p = W.Ycsb.params ~txn_keys:6 ~theta:0.5 n in
  let container_of k = int_of_string (String.sub k 1 (String.length k - 1)) mod 4 in
  let rng = Rng.create 4 in
  for _ = 1 to 30 do
    let req = W.Ycsb.gen_multi_update rng p ~container_of in
    let home = container_of req.W.Wl.reactor in
    let keys = List.tl req.W.Wl.args in
    let remote_flags =
      List.map (fun k -> container_of (Value.to_str k) <> home) keys
    in
    (* once a local key appears, no remote key may follow *)
    let rec ok = function
      | true :: rest -> ok rest
      | false :: rest -> List.for_all not rest
      | [] -> true
    in
    check_bool "remote keys first" true (ok remote_flags);
    check_int "distinct keys" (List.length keys)
      (List.length (List.sort_uniq compare (List.map Value.to_str keys)))
  done

(* ---------------- Exchange ---------------- *)

let exchange_cfg n =
  Reactdb.Config.shared_nothing
    ([ "exchange" ] :: List.map (fun p -> [ p ]) (W.Exchange.providers n))

let test_exchange_auth_pay () =
  let n = 4 in
  let db = Harness.build (W.Exchange.decl ~providers:n ~orders_per_provider:20 ()) (exchange_cfg n) in
  let seq = ref 0 in
  Testlib.in_sim db (fun db ->
      let rng = Rng.create 7 in
      ignore
        (exec_ok db
           (W.Exchange.gen_auth_pay rng ~strategy:`Procedure_par ~n_providers:n
              ~window:10 ~sim_cost:5. ~seq)));
  (* one provider gained an order *)
  let total_orders =
    List.fold_left
      (fun acc p -> acc + List.length (rows db p "orders"))
      0 (W.Exchange.providers n)
  in
  check_int "order added" (n * 20 + 1) total_orders

let test_exchange_exposure_abort () =
  let n = 2 in
  (* Tight p_exposure: loader sets 1e15, so craft a direct call with low
     limit through calc_risk on a provider. *)
  let db = Harness.build (W.Exchange.decl ~providers:n ~orders_per_provider:20 ()) (exchange_cfg n) in
  Testlib.in_sim db (fun db ->
      let out =
        exec db
          (W.Wl.request "p0" "calc_risk"
             [ W.Wl.vf 1.; W.Wl.vi 20; W.Wl.vf 0.; W.Wl.vf 1e18 ])
      in
      match out.DB.result with
      | Error m -> check_bool "exposure abort" true
          (m = "provider exposure above limit")
      | Ok _ -> Alcotest.fail "expected abort")

let test_exchange_strategy_ordering () =
  (* Fig. 19's claim: sequential > query-par > proc-par. The sim cost and
     scan window are balanced so that both the scan parallelism (seq vs
     query-par) and the simulation parallelism (query-par vs proc-par) are
     visible. *)
  let n = 8 in
  let sim_cost = 200. in
  let lat strategy =
    let decl, cfg =
      match strategy with
      | `Sequential ->
        ( W.Exchange.mono_decl ~providers:n ~orders_per_provider:300 (),
          Reactdb.Config.shared_everything ~executors:1 ~affinity:true [ "mono" ] )
      | _ ->
        (W.Exchange.decl ~providers:n ~orders_per_provider:300 (), exchange_cfg n)
    in
    let db = Harness.build decl cfg in
    let seq = ref 0 in
    Testlib.in_sim db (fun db ->
        let rng = Rng.create 11 in
        ignore
          (exec db
             (W.Exchange.gen_auth_pay rng ~strategy ~n_providers:n ~window:300
                ~sim_cost ~seq));
        let out =
          exec db
            (W.Exchange.gen_auth_pay rng ~strategy ~n_providers:n ~window:300
               ~sim_cost ~seq)
        in
        match out.DB.result with
        | Ok _ -> out.DB.latency
        | Error m -> Alcotest.failf "abort: %s" m)
  in
  let seq_l = lat `Sequential and qp = lat `Query_par and pp = lat `Procedure_par in
  check_bool
    (Printf.sprintf "seq=%.0f > query=%.0f > proc=%.0f" seq_l qp pp)
    true
    (seq_l > qp && qp > pp)

let suite =
  ( "workloads",
    [
      Alcotest.test_case "smallbank formulations" `Quick
        test_smallbank_formulations_effects;
      Alcotest.test_case "smallbank latency ordering" `Quick
        test_smallbank_latency_ordering;
      Alcotest.test_case "smallbank overdraft" `Quick test_smallbank_overdraft_aborts;
      Alcotest.test_case "smallbank standard mix" `Quick test_smallbank_standard_mix;
      Alcotest.test_case "tpcc loader" `Quick test_tpcc_loader;
      Alcotest.test_case "tpcc new-order local" `Quick test_tpcc_new_order_local;
      Alcotest.test_case "tpcc new-order remote" `Quick test_tpcc_new_order_remote;
      Alcotest.test_case "tpcc payment" `Quick test_tpcc_payment_local_and_remote;
      Alcotest.test_case "tpcc payment by name" `Quick test_tpcc_payment_by_last_name;
      Alcotest.test_case "tpcc order-status" `Quick test_tpcc_order_status;
      Alcotest.test_case "tpcc delivery" `Quick test_tpcc_delivery;
      Alcotest.test_case "tpcc stock-level" `Quick test_tpcc_stock_level;
      Alcotest.test_case "tpcc mix SN" `Quick test_tpcc_mix_shared_nothing;
      Alcotest.test_case "tpcc mix on a 2-machine cluster" `Quick
        test_tpcc_mix_cluster;
      Alcotest.test_case "tpcc mix SE-affinity" `Quick
        test_tpcc_mix_shared_everything_affinity;
      Alcotest.test_case "tpcc mix SE-rr" `Quick test_tpcc_mix_shared_everything_rr;
      Alcotest.test_case "tpcc deliveries keep new_order bounded (sim)" `Quick
        test_tpcc_new_order_bounded_sim;
      Alcotest.test_case "ycsb multi_update" `Quick test_ycsb_multi_update;
      Alcotest.test_case "ycsb generator ordering" `Quick
        test_ycsb_generator_sorts_remote_first;
      Alcotest.test_case "exchange auth_pay" `Quick test_exchange_auth_pay;
      Alcotest.test_case "exchange exposure abort" `Quick
        test_exchange_exposure_abort;
      Alcotest.test_case "exchange strategy ordering" `Quick
        test_exchange_strategy_ordering;
    ] )
