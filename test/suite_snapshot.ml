(* Epoch-based snapshot reads (DESIGN.md §10): abort-free read-only
   transactions over per-record version chains.

   Covers: read-only declaration + frozen-epoch execution on the simulator
   backend, the mutation guard inside read-only procedures, physical
   no-trace of snapshot readers, the QCheck committed-prefix property
   (serial oracle via [Faultsim.diff] plus a concurrent conservation
   audit), version-chain GC bounded by the oldest live snapshot, the
   [Config.Auto] morph router, the TPC-C payment/delivery Collect
   formulation equivalences, and the real-parallel runtime backend. *)

open Util
module DB = Reactdb.Database
module RDb = Runtime.Db
module W = Workloads
module SB = Workloads.Smallbank

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-6))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Build a simulator database and run [f] as an engine process. *)
let run_in decl config = Testlib.in_sim (Harness.build decl config)

let exec db (req : W.Wl.request) =
  DB.exec_txn db ~reactor:req.W.Wl.reactor ~proc:req.W.Wl.proc
    ~args:req.W.Wl.args

let exec_ok db req =
  match exec db req with
  | { DB.result = Ok v; _ } -> v
  | { DB.result = Error m; _ } ->
    Alcotest.failf "txn %s/%s aborted: %s" req.W.Wl.reactor req.W.Wl.proc m

let sb_config n =
  Reactdb.Config.shared_nothing (List.map (fun c -> [ c ]) (SB.customers n))

let sb_catalogs db n =
  List.map (fun c -> (c, DB.catalog_of db c)) (SB.customers n)

(* One simulator epoch is 40 ms of virtual time; crossing the boundary
   closes the current epoch for future snapshots. *)
let next_epoch () = Sim.Engine.delay 40_000.

(* ------------------------------------------------------------------ *)
(* Read-only basics: declared procedures run against a frozen snapshot
   epoch, commit abort-free, and fall back to the OCC read path when
   snapshots are disabled. *)

let test_readonly_basics () =
  run_in (SB.decl ~customers:4 ()) (sb_config 4) (fun db ->
      check_bool "snapshots on by default" true (DB.snapshots_enabled db);
      let out = exec db (W.Wl.request "c0" "balance" []) in
      (match out.DB.result with
      | Ok v -> checkf "balance reads both accounts" 20_000. (Value.to_number v)
      | Error m -> Alcotest.fail ("balance aborted: " ^ m));
      check_bool "read-only root carries its snapshot epoch" true
        (out.DB.snapshot <> None);
      let args = List.map (fun c -> W.Wl.vs c) [ "c1"; "c2"; "c3" ] in
      checkf "sum_all fans out over balance reads" 80_000.
        (Value.to_number (exec_ok db (W.Wl.request "c0" "sum_all" args)));
      check_int "both reads counted as read-only commits" 2
        (DB.n_readonly_commits db);
      (* OCC fallback: same procedure, ordinary read path. *)
      DB.set_snapshots db false;
      let occ = exec db (W.Wl.request "c0" "balance" []) in
      check_bool "no snapshot when disabled" true (occ.DB.snapshot = None);
      (match occ.DB.result with
      | Ok v -> checkf "OCC fallback result" 20_000. (Value.to_number v)
      | Error m -> Alcotest.fail ("OCC balance aborted: " ^ m));
      check_int "fallback not counted read-only" 2 (DB.n_readonly_commits db);
      DB.set_snapshots db true)

(* A mutation reached from a declared-read-only procedure aborts with a
   typed user abort, and the write never lands. *)

let s_cell =
  Storage.Schema.make ~name:"cell"
    ~columns:[ ("id", Value.TInt); ("v", Value.TInt) ]
    ~key:[ "id" ]

let cell_type =
  Reactor.rtype ~name:"Cell" ~schemas:[ s_cell ]
    ~procs:
      [ ( "peek",
          fun ctx _ ->
            match Query.Exec.get ctx.Reactor.db "cell" [| W.Wl.vi 0 |] with
            | Some row -> row.(1)
            | None -> Reactor.abort "missing cell" );
        ( "poke",
          fun ctx _ ->
            ignore
              (Query.Exec.update_key ctx.Reactor.db "cell" [| W.Wl.vi 0 |]
                 ~set:(fun row -> Query.Exec.seti row 1 (W.Wl.vi 9)));
            Value.Null ) ]
    ~readonly:[ "peek"; "poke" ] ()

let cell_decl =
  Reactor.decl ~types:[ cell_type ]
    ~reactors:[ ("cell0", "Cell") ]
    ~loaders:
      [ ("cell0", fun cat -> W.Wl.load cat "cell" [| W.Wl.vi 0; W.Wl.vi 1 |]) ]
    ()

let test_readonly_mutation_guard () =
  run_in cell_decl (Reactdb.Config.shared_nothing [ [ "cell0" ] ]) (fun db ->
      (match exec db (W.Wl.request "cell0" "poke" []) with
      | { DB.result = Error m; _ } ->
        check_bool "guard names the read-only violation" true
          (contains m "read-only")
      | { DB.result = Ok _; _ } ->
        Alcotest.fail "mutation inside read-only procedure committed");
      check_int "write never landed" 1
        (Value.to_int (exec_ok db (W.Wl.request "cell0" "peek" [])));
      (* With snapshots disabled the same procedure is an ordinary OCC
         transaction and the write is legal. *)
      DB.set_snapshots db false;
      ignore (exec_ok db (W.Wl.request "cell0" "poke" []));
      check_int "OCC fallback writes" 9
        (Value.to_int (exec_ok db (W.Wl.request "cell0" "peek" []))))

(* Snapshot readers leave no physical trace: byte-identical catalogs
   before and after a burst of read-only transactions. *)

let test_readonly_no_trace () =
  run_in (SB.decl ~customers:4 ()) (sb_config 4) (fun db ->
      let before = Faultsim.snapshot (sb_catalogs db 4) in
      for i = 0 to 9 do
        ignore (exec_ok db (W.Wl.request (SB.customer_name (i mod 4)) "balance" []))
      done;
      for _ = 1 to 5 do
        ignore
          (exec_ok db
             (W.Wl.request "c0" "sum_all"
                (List.map (fun c -> W.Wl.vs c) [ "c1"; "c2"; "c3" ])))
      done;
      (match Faultsim.diff before (Faultsim.snapshot (sb_catalogs db 4)) with
      | None -> ()
      | Some m -> Alcotest.fail ("snapshot reads mutated state: " ^ m));
      check_int "all 15 reads committed read-only" 15
        (DB.n_readonly_commits db);
      check_int "no aborts" 0 (DB.n_aborted db))

(* ------------------------------------------------------------------ *)
(* QCheck committed-prefix property, serial oracle: with one client and an
   epoch boundary between transactions, a snapshot read's frozen epoch
   covers exactly the committed prefix — so every read-only result must be
   byte-equal to the OCC read path's on the same history, and the final
   physical state identical ([Faultsim.diff]). *)

let serial_prefix_prop seed =
  let n = 6 in
  let ops =
    let rng = Rng.create seed in
    let zipf = Rng.Zipf.create ~n ~theta:0.9 in
    List.init 30 (fun _ -> SB.gen_conserving_zipf rng ~zipf ~n ~read_frac:0.5)
  in
  let run ~snapshots =
    run_in (SB.decl ~customers:n ()) (sb_config n) (fun db ->
        DB.set_snapshots db snapshots;
        let outs =
          List.map
            (fun req ->
              next_epoch ();
              exec db req)
            ops
        in
        (outs, Faultsim.snapshot (sb_catalogs db n), DB.n_readonly_commits db))
  in
  let on_outs, on_st, on_ro = run ~snapshots:true in
  let off_outs, off_st, off_ro = run ~snapshots:false in
  List.iteri
    (fun i ((a : DB.outcome), (b : DB.outcome)) ->
      match (a.DB.result, b.DB.result) with
      | Ok va, Ok vb ->
        if va <> vb then
          QCheck.Test.fail_reportf
            "op %d: snapshot read %s diverged from OCC read %s" i
            (Value.to_string va) (Value.to_string vb)
      | Error _, Error _ -> ()
      | Ok _, Error m | Error m, Ok _ ->
        QCheck.Test.fail_reportf "op %d: commit/abort divergence (%s)" i m)
    (List.combine on_outs off_outs);
  (match Faultsim.diff on_st off_st with
  | None -> ()
  | Some m -> QCheck.Test.fail_reportf "final state diverged: %s" m);
  let reads =
    List.length (List.filter (fun r -> r.W.Wl.proc = "balance") ops)
  in
  List.iter2
    (fun req (o : DB.outcome) ->
      let ro = req.W.Wl.proc = "balance" in
      if ro && o.DB.snapshot = None then
        QCheck.Test.fail_reportf "read ran without a snapshot";
      if (not ro) && o.DB.snapshot <> None then
        QCheck.Test.fail_reportf "writer ran with a snapshot")
    ops on_outs;
  on_ro = reads && off_ro = 0

(* Concurrent conservation audit: writers move money between zipf-hot
   customers while readers sum every account through [sum_all]. A frozen
   snapshot epoch is a consistent cut, so every read-only result must see
   the exact loaded total; read-only roots never abort. *)

let concurrent_conservation_prop ?profile seed =
  let n = 6 in
  let db = Harness.build ?profile (SB.decl ~customers:n ()) (sb_config n) in
  let eng = DB.engine db in
  let expected = SB.loaded_money ~customers:n in
  let failures = ref [] in
  let reads_done = ref 0 in
  for w = 0 to 2 do
    Sim.Engine.spawn eng (fun () ->
        let rng = Rng.create ((seed * 31) + w) in
        let zipf = Rng.Zipf.create ~n ~theta:0.99 in
        for _ = 1 to 20 do
          ignore (exec db (SB.gen_conserving_zipf rng ~zipf ~n ~read_frac:0.));
          Sim.Engine.delay (float_of_int (1 + Rng.int rng 20_000))
        done)
  done;
  for r = 0 to 1 do
    Sim.Engine.spawn eng (fun () ->
        let rng = Rng.create ((seed * 57) + r) in
        for _ = 1 to 12 do
          Sim.Engine.delay (float_of_int (1 + Rng.int rng 30_000));
          let root = Rng.int rng n in
          let args =
            List.filter_map
              (fun i ->
                if i = root then None else Some (W.Wl.vs (SB.customer_name i)))
              (List.init n Fun.id)
          in
          let out =
            DB.exec_txn db ~reactor:(SB.customer_name root) ~proc:"sum_all"
              ~args
          in
          incr reads_done;
          match out.DB.result with
          | Error m -> failures := ("read-only abort: " ^ m) :: !failures
          | Ok v ->
            if out.DB.snapshot = None then
              failures := "read ran without a snapshot" :: !failures;
            let total = Value.to_number v in
            if Float.abs (total -. expected) > 1e-6 then
              failures :=
                Printf.sprintf "inconsistent cut: read %.9f, loaded %.9f"
                  total expected
                :: !failures
        done)
  done;
  ignore (Sim.Engine.run eng);
  (match !failures with
  | [] -> ()
  | m :: _ -> QCheck.Test.fail_reportf "%s" m);
  !reads_done = 24 && DB.n_readonly_commits db = 24

(* The same audit with 2PC messages slower than an epoch: a two-container
   transfer installs on its participants at different virtual instants,
   so a snapshot must stay below the epoch of every commit still in
   flight, not just below the current epoch. *)
let slow_2pc = { Reactdb.Profile.default with Reactdb.Profile.cost_2pc_msg = 15_000. }

let test_conservation_slow_2pc () =
  List.iter
    (fun seed ->
      match concurrent_conservation_prop ~profile:slow_2pc seed with
      | true -> ()
      | false -> Alcotest.failf "seed %d: read accounting" seed
      | exception e -> Alcotest.failf "seed %d: %s" seed (Printexc.to_string e))
    [ 1; 2; 3; 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Version GC: chains under a hot key grow only while a snapshot is
   pinned below them, and are trimmed back once the oldest live snapshot
   advances. *)

let test_version_gc () =
  run_in (SB.decl ~customers:1 ())
    (Reactdb.Config.shared_nothing [ [ "c0" ] ])
    (fun db ->
      let checking () =
        let tbl = Storage.Catalog.table (DB.catalog_of db "c0") "checking" in
        match Storage.Table.find tbl [| Value.Int 0 |] with
        | Some r -> r
        | None -> Alcotest.fail "missing checking row"
      in
      let chain () = Storage.Record.chain_length (checking ()) in
      let deposit () =
        ignore
          (exec_ok db (W.Wl.request "c0" "deposit_checking" [ W.Wl.vf 1. ]))
      in
      deposit ();
      (* epoch 1: checking = 10001 *)
      next_epoch ();
      deposit ();
      (* epoch 2 retires the epoch-1 version *)
      let s = DB.acquire_snapshot db in
      check_int "snapshot pins the last closed epoch" 1 s;
      check_int "pinned snapshot is the GC horizon" 1 (DB.gc_horizon db);
      next_epoch ();
      deposit ();
      next_epoch ();
      deposit ();
      check_bool "chain grows under the pinned snapshot" true (chain () >= 3);
      (match Storage.Record.snapshot_read (checking ()) ~snapshot:s with
      | Some row ->
        checkf "pinned snapshot still reads the epoch-1 value" 10_001.
          (Value.to_number row.(1))
      | None -> Alcotest.fail "pinned snapshot lost its version");
      DB.release_snapshot db s;
      next_epoch ();
      deposit ();
      (* horizon caught up: one retired version survives the trim *)
      check_bool "chain trimmed once the snapshot releases" true (chain () <= 1);
      check_bool "horizon advanced past the pin" true (DB.gc_horizon db > s))

(* ------------------------------------------------------------------ *)
(* Delete tombstones: kept for snapshots that can still read the deleted
   row, unlinked from the index once the GC horizon passes their delete
   epoch — on both backends, through the shared install path. *)

let s_kv =
  Storage.Schema.make ~name:"kv"
    ~columns:[ ("k", Value.TInt); ("v", Value.TInt) ]
    ~key:[ "k" ]

let kv_decl =
  let put ctx args =
    Query.Exec.insert ctx.Reactor.db "kv" [| List.nth args 0; List.nth args 1 |];
    Value.Null
  in
  let del ctx args =
    ignore (Query.Exec.delete_key ctx.Reactor.db "kv" [| List.nth args 0 |]);
    Value.Null
  in
  Reactor.decl
    ~types:[ Reactor.rtype ~name:"Kv" ~schemas:[ s_kv ] ~procs:[ ("put", put); ("del", del) ] () ]
    ~reactors:[ ("kv0", "Kv") ] ()

(* What a tombstone test drives, on either backend. [table] may be read
   only between [exec]s. *)
type kv_ops = {
  exec : string -> int list -> unit;
  next_epoch : unit -> unit;
  acquire : unit -> int;
  release : int -> unit;
  table : unit -> Storage.Table.t;
}

let kv_on_both f =
  let cfg = Reactdb.Config.shared_nothing [ [ "kv0" ] ] in
  let args l = List.map W.Wl.vi l in
  run_in kv_decl cfg (fun db ->
      f "sim"
        { exec = (fun proc l -> ignore (exec_ok db (W.Wl.request "kv0" proc (args l))));
          next_epoch;
          acquire = (fun () -> DB.acquire_snapshot db);
          release = DB.release_snapshot db;
          table = (fun () -> Storage.Catalog.table (DB.catalog_of db "kv0") "kv") });
  (* Epochs of 2 ms; a root starting after a pause of 3 epochs advances
     the clock past every earlier commit. *)
  let db = RDb.start ~epoch_len_s:0.002 kv_decl cfg in
  Fun.protect
    ~finally:(fun () -> RDb.shutdown db)
    (fun () ->
      f "runtime"
        { exec =
            (fun proc l ->
              match (RDb.exec_txn db ~reactor:"kv0" ~proc ~args:(args l)).RDb.result with
              | Ok _ -> ()
              | Error m -> Alcotest.failf "kv0/%s aborted: %s" proc m);
          next_epoch = (fun () -> Unix.sleepf 0.006);
          acquire = (fun () -> RDb.acquire_snapshot db);
          release = RDb.release_snapshot db;
          table =
            (fun () ->
              RDb.quiesce db;
              Storage.Catalog.table (RDb.catalog_of db "kv0") "kv") })

let kv_find o k = Storage.Table.find (o.table ()) [| Value.Int k |]

let test_tombstone_reclaimed () =
  kv_on_both (fun name o ->
      let say m = name ^ ": " ^ m in
      List.iter (fun k -> o.exec "put" [ k; 10 * k ]) [ 1; 2; 3 ];
      o.exec "del" [ 1 ];
      let tomb =
        match kv_find o 1 with
        | Some r when r.Storage.Record.absent -> r
        | _ -> Alcotest.fail (say "delete left no tombstone")
      in
      o.next_epoch ();
      o.exec "put" [ 4; 40 ];
      check_bool (say "tombstone unlinked past the horizon") true (kv_find o 1 = None);
      check_bool (say "tombstone marked reclaimed") true
        (Storage.Record.is_reclaimed tomb);
      check_int (say "index holds the live rows") 3 (Storage.Table.size (o.table ()));
      o.exec "put" [ 1; 11 ];
      match kv_find o 1 with
      | Some r ->
        check_bool (say "key re-inserted as a fresh record") true
          ((not r.Storage.Record.absent) && r != tomb)
      | None -> Alcotest.fail (say "re-insert lost"))

let test_snapshot_pins_tombstone () =
  kv_on_both (fun name o ->
      let say m = name ^ ": " ^ m in
      o.exec "put" [ 1; 7 ];
      o.next_epoch ();
      o.exec "put" [ 2; 8 ];
      let s = o.acquire () in
      o.exec "del" [ 1 ];
      o.next_epoch ();
      o.exec "put" [ 3; 9 ];
      o.next_epoch ();
      o.exec "del" [ 3 ];
      (match kv_find o 1 with
      | Some r -> (
        check_bool (say "still a tombstone") true r.Storage.Record.absent;
        match Storage.Record.snapshot_read r ~snapshot:s with
        | Some row -> check_int (say "pre-delete row at the pinned epoch") 7 (Value.to_int row.(1))
        | None -> Alcotest.fail (say "pinned snapshot lost the row"))
      | None -> Alcotest.fail (say "tombstone reclaimed under a live snapshot"));
      o.release s;
      o.next_epoch ();
      o.exec "put" [ 4; 10 ];
      check_bool (say "reclaimed once released") true (kv_find o 1 = None);
      check_bool (say "later tombstone reclaimed too") true (kv_find o 3 = None))

(* ------------------------------------------------------------------ *)
(* Config.Auto: generators keep emitting the sequential formulation names;
   the backend's router resolves each root against the declared morph
   pairs and counts its choices. *)

let test_auto_morph_router () =
  let cfg = Reactdb.Config.with_morph (sb_config 5) Reactdb.Config.Auto in
  check_bool "generators stay sequential under Auto" true
    (SB.formulation_for cfg = SB.Fully_sync);
  check_string "tpcc payment generator under Auto" "payment"
    (W.Tpcc.payment_proc_for cfg);
  check_string "tpcc delivery generator under Auto" "delivery"
    (W.Tpcc.delivery_proc_for cfg);
  run_in (SB.decl ~customers:5 ()) cfg (fun db ->
      check_int "router idle before any root"
        0
        (let s, p = DB.auto_morphs db in
         s + p);
      ignore
        (exec_ok db
           (SB.multi_transfer_request SB.Fully_sync ~src:"c0"
              ~dests:[ "c1"; "c2"; "c3" ] ~amount:10.));
      check_int "one routed resolution" 1
        (let s, p = DB.auto_morphs db in
         s + p);
      (* close the transfer's epoch so snapshot reads observe it *)
      next_epoch ();
      checkf "transfer applied through the routed formulation" 20_010.
        (Value.to_number (exec_ok db (W.Wl.request "c1" "balance" [])));
      checkf "source debited" 19_970.
        (Value.to_number (exec_ok db (W.Wl.request "c0" "balance" [])));
      (* undeclared procedures are never routed *)
      ignore (exec_ok db (W.Wl.request "c0" "transact_saving" [ W.Wl.vf 5. ]));
      check_int "no resolution for unmorphed procedures" 1
        (let s, p = DB.auto_morphs db in
         s + p))

(* ------------------------------------------------------------------ *)
(* TPC-C: the Collect formulations of payment and delivery are observably
   identical to the sequential ones — same results, byte-identical
   warehouse state — and order_status / stock_level run read-only. *)

let tpcc_catalogs db =
  List.map (fun w -> (w, DB.catalog_of db w)) (W.Tpcc.warehouses 2)

let tpcc_run proc_pay proc_dlv =
  run_in
    (W.Tpcc.decl ~warehouses:2 ~sizes:W.Tpcc.small_sizes ())
    (Reactdb.Config.shared_nothing
       (List.map (fun w -> [ w ]) (W.Tpcc.warehouses 2)))
    (fun db ->
      let w1 = W.Tpcc.warehouse_name 1 and w2 = W.Tpcc.warehouse_name 2 in
      (* remote payment: w1 books, customer lives on w2 *)
      let pay =
        exec_ok db
          (W.Wl.request w1 proc_pay
             [ W.Wl.vi 1; W.Wl.vi 1; W.Wl.vi 1; W.Wl.vs ""; W.Wl.vf 50.;
               W.Wl.vs w2 ])
      in
      let dlv =
        exec_ok db (W.Wl.request w1 proc_dlv [ W.Wl.vi 3; W.Wl.vf 1_000. ])
      in
      let ro = exec db (W.Wl.request w1 "order_status"
                          [ W.Wl.vi 1; W.Wl.vi 1; W.Wl.vs "" ]) in
      (match ro.DB.result with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("order_status aborted: " ^ m));
      check_bool "order_status runs read-only" true (ro.DB.snapshot <> None);
      ((pay, dlv), Faultsim.snapshot (tpcc_catalogs db)))

let test_tpcc_collect_equivalence () =
  let (pay_seq, dlv_seq), st_seq = tpcc_run "payment" "delivery" in
  let (pay_col, dlv_col), st_col = tpcc_run "payment_collect" "delivery_collect" in
  check_bool "payment results equal" true (pay_seq = pay_col);
  check_bool "delivery results equal" true (dlv_seq = dlv_col);
  check_bool "delivery delivered at least one order" true
    (Value.to_int dlv_seq >= 1);
  match Faultsim.diff st_seq st_col with
  | None -> ()
  | Some m -> Alcotest.fail ("collect formulation diverged: " ^ m)

(* ------------------------------------------------------------------ *)
(* Runtime backend: snapshot reads through real domains — serial results,
   fallback, and a concurrent conservation run with zero read-only
   aborts. *)

let test_runtime_snapshot_reads () =
  let n = 8 in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let db = RDb.start (SB.decl ~customers:n ()) cfg in
  let out = RDb.exec_txn db ~reactor:"c0" ~proc:"balance" ~args:[] in
  (match out.RDb.result with
  | Ok v -> checkf "runtime balance" 20_000. (Value.to_number v)
  | Error m -> Alcotest.fail ("runtime balance aborted: " ^ m));
  check_bool "runtime read carries a snapshot" true (out.RDb.snapshot <> None);
  let args = List.map (fun c -> W.Wl.vs c) (List.tl (SB.customers n)) in
  (match RDb.exec_txn db ~reactor:"c0" ~proc:"sum_all" ~args with
  | { RDb.result = Ok v; _ } ->
    checkf "runtime sum_all over all domains" 160_000. (Value.to_number v)
  | { RDb.result = Error m; _ } ->
    Alcotest.fail ("runtime sum_all aborted: " ^ m));
  check_int "runtime read-only commits" 2 (RDb.n_readonly_commits db);
  RDb.set_snapshots db false;
  let occ = RDb.exec_txn db ~reactor:"c0" ~proc:"balance" ~args:[] in
  check_bool "runtime OCC fallback" true (occ.RDb.snapshot = None);
  RDb.set_snapshots db true;
  (* concurrent conservation: conserving writers + balance readers *)
  let zipf = Rng.Zipf.create ~n ~theta:0.9 in
  let (_ : int) =
    Harness.run_fixed (Harness.runtime db)
      ~n_workers:4 ~per_worker:40 ~seed:11 (fun _ rng ->
        SB.gen_conserving_zipf rng ~zipf ~n ~read_frac:0.4)
  in
  Testlib.audit "no internal errors" (Audit.fatal db);
  check_bool "concurrent read-only commits recorded" true
    (RDb.n_readonly_commits db > 2);
  RDb.shutdown db;
  Testlib.audit "money conserved" (Audit.money ~n (RDb.catalogs db));
  Testlib.audit "secondary indexes" (Audit.secondaries (RDb.catalogs db))

(* ------------------------------------------------------------------ *)
(* Cost model: read-only latency has no retry inflation. *)

let test_costmodel_readonly () =
  checkf "no aborts, no inflation" 5.
    (Costmodel.expected_with_retries ~abort_prob:0. 5.);
  checkf "half the attempts abort, latency doubles" 10.
    (Costmodel.expected_with_retries ~abort_prob:0.5 5.);
  check_bool "certain abort rejected" true
    (try
       ignore (Costmodel.expected_with_retries ~abort_prob:1. 5.);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let qcheck t = QCheck_alcotest.to_alcotest t

let suite =
  ( "snapshot",
    [ Alcotest.test_case "readonly basics" `Quick test_readonly_basics;
      Alcotest.test_case "mutation guard" `Quick test_readonly_mutation_guard;
      Alcotest.test_case "no physical trace" `Quick test_readonly_no_trace;
      qcheck
        (QCheck.Test.make ~name:"serial committed-prefix oracle" ~count:8
           (QCheck.make QCheck.Gen.(int_bound 9999) ~print:string_of_int)
           serial_prefix_prop);
      qcheck
        (QCheck.Test.make ~name:"concurrent conservation cut" ~count:6
           (QCheck.make QCheck.Gen.(int_bound 9999) ~print:string_of_int)
           concurrent_conservation_prop);
      Alcotest.test_case "concurrent conservation cut, slow 2pc" `Quick
        test_conservation_slow_2pc;
      Alcotest.test_case "version GC horizon" `Quick test_version_gc;
      Alcotest.test_case "tombstone reclaimed past horizon" `Quick
        test_tombstone_reclaimed;
      Alcotest.test_case "snapshot pins tombstone until released" `Quick
        test_snapshot_pins_tombstone;
      Alcotest.test_case "auto morph router" `Quick test_auto_morph_router;
      Alcotest.test_case "tpcc collect equivalence" `Quick
        test_tpcc_collect_equivalence;
      Alcotest.test_case "runtime snapshot reads" `Quick
        test_runtime_snapshot_reads;
      Alcotest.test_case "costmodel readonly" `Quick test_costmodel_readonly
    ] )
