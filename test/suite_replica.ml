(* Log-shipping replication (DESIGN.md §12): batch wire format, the
   watermark invariant under torn and faulty shipments, replica reads at
   the frozen watermark epoch, generation fencing, promotion through the
   recovery-equivalence oracle, and the queue-wait autoscaler signal that
   rides along in this layer. *)

open Util
module DB = Reactdb.Database
module AS = Runtime.Autoscaler
module SB = Workloads.Smallbank
module Wl = Workloads.Wl

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-6))

(* A committed-write entry against the Testlib bank: replace acct0's
   single balance row on [reactor]. *)
let put ~txn ~epoch ~seq ~reactor bal =
  {
    Wal.le_txn = txn;
    le_tid = Storage.Record.tid_make ~epoch ~seq;
    le_writes =
      [
        Wal.Put
          {
            reactor;
            table = "acct";
            row = [| Value.Int 0; Value.Float bal |];
          };
      ];
  }

let balance_of r name =
  match
    List.find_opt (fun (nm, _, _) -> nm = name)
      (Faultsim.snapshot (Replica.catalogs r))
  with
  | Some (_, _, [ row ]) -> Value.to_float row.(1)
  | _ -> Alcotest.fail ("expected exactly one acct row on " ^ name)

(* --- batch wire format --- *)

let test_batch_roundtrip () =
  let entries =
    [
      put ~txn:1 ~epoch:1 ~seq:1 ~reactor:"acct0" 150.;
      put ~txn:2 ~epoch:2 ~seq:1 ~reactor:"acct1" 50.;
    ]
  in
  let s = Replica.Batch.encode ~gen:3 ~from_epoch:1 ~to_epoch:2 entries in
  (match Replica.Batch.decode s with
  | Replica.Batch.Complete d ->
    check_int "gen" 3 d.Replica.Batch.b_gen;
    check_int "from" 1 d.Replica.Batch.b_from;
    check_int "to" 2 d.Replica.Batch.b_to;
    check_int "entries" 2 (List.length d.Replica.Batch.b_entries);
    check_int "txn ids preserved" 2
      (List.nth d.Replica.Batch.b_entries 1).Wal.le_txn
  | _ -> Alcotest.fail "complete batch did not decode Complete");
  check_bool "size positive" true (Replica.Batch.size entries > 0);
  (* an empty range still ships (and decodes) — epochs with no commits
     advance the watermark too *)
  (match
     Replica.Batch.decode
       (Replica.Batch.encode ~gen:0 ~from_epoch:5 ~to_epoch:7 [])
   with
  | Replica.Batch.Complete d ->
    check_int "empty from" 5 d.Replica.Batch.b_from;
    check_int "empty to" 7 d.Replica.Batch.b_to;
    check_int "empty entries" 0 (List.length d.Replica.Batch.b_entries)
  | _ -> Alcotest.fail "empty batch did not decode Complete");
  match Replica.Batch.decode "not a batch at all" with
  | Replica.Batch.Garbage _ -> ()
  | _ -> Alcotest.fail "garbage decoded as a batch"

(* --- the watermark invariant: apply, duplicates, gaps, generations --- *)

let test_apply_refusals () =
  let decl = Testlib.bank_decl 2 in
  let r = Replica.create ~id:0 decl in
  check_int "fresh watermark" 0 (Replica.watermark r);
  let b12 =
    Replica.Batch.encode ~gen:0 ~from_epoch:1 ~to_epoch:2
      [
        put ~txn:1 ~epoch:1 ~seq:1 ~reactor:"acct0" 150.;
        put ~txn:2 ~epoch:2 ~seq:1 ~reactor:"acct1" 50.;
      ]
  in
  (match Replica.apply r b12 with
  | Replica.Applied { from_epoch = 1; to_epoch = 2; fresh = 2 } -> ()
  | _ -> Alcotest.fail "first batch not applied");
  check_int "watermark advanced" 2 (Replica.watermark r);
  check_float "row applied" 150. (balance_of r "acct0");
  (* idempotent re-delivery: everything at or below the watermark skips *)
  (match Replica.apply r b12 with
  | Replica.Applied { fresh = 0; _ } -> ()
  | _ -> Alcotest.fail "duplicate batch not skipped");
  check_int "watermark unchanged by duplicate" 2 (Replica.watermark r);
  (* epoch gap: a batch must start at watermark + 1 or earlier *)
  (match
     Replica.apply r
       (Replica.Batch.encode ~gen:0 ~from_epoch:5 ~to_epoch:5
          [ put ~txn:3 ~epoch:5 ~seq:1 ~reactor:"acct0" 1. ])
   with
  | Replica.Refused _ -> ()
  | _ -> Alcotest.fail "epoch gap not refused");
  (* a newer generation is adopted... *)
  (match
     Replica.apply r
       (Replica.Batch.encode ~gen:4 ~from_epoch:3 ~to_epoch:3
          [ put ~txn:4 ~epoch:3 ~seq:1 ~reactor:"acct0" 175. ])
   with
  | Replica.Applied { fresh = 1; _ } -> ()
  | _ -> Alcotest.fail "newer-generation batch not applied");
  check_int "generation adopted" 4 (Replica.generation r);
  (* ...and a stale one is fenced out: a deposed primary cannot roll the
     replica back *)
  (match
     Replica.apply r
       (Replica.Batch.encode ~gen:2 ~from_epoch:4 ~to_epoch:4
          [ put ~txn:5 ~epoch:4 ~seq:1 ~reactor:"acct0" 9999. ])
   with
  | Replica.Refused _ -> ()
  | _ -> Alcotest.fail "stale-generation batch not refused");
  check_float "stale write fenced out" 175. (balance_of r "acct0");
  (match Replica.apply r "garbage" with
  | Replica.Refused _ -> ()
  | _ -> Alcotest.fail "garbage not refused");
  check_bool "refusals counted" true (Replica.n_refused r >= 3)

(* --- torn shipments (reusing the Faultsim damage injectors) --- *)

let test_torn_tail () =
  let decl = Testlib.bank_decl 2 in
  let entries =
    [
      put ~txn:1 ~epoch:1 ~seq:1 ~reactor:"acct0" 150.;
      put ~txn:2 ~epoch:2 ~seq:1 ~reactor:"acct1" 50.;
      put ~txn:3 ~epoch:3 ~seq:1 ~reactor:"acct0" 160.;
      put ~txn:4 ~epoch:3 ~seq:2 ~reactor:"acct1" 40.;
    ]
  in
  let full = Replica.Batch.encode ~gen:0 ~from_epoch:1 ~to_epoch:3 entries in
  (* tear the tail off in flight, exactly like a torn WAL tail on disk *)
  let src = Filename.temp_file "replica" ".batch" in
  let dst = Filename.temp_file "replica" ".torn" in
  let oc = open_out_bin src in
  output_string oc full;
  close_out oc;
  Faultsim.inject (Faultsim.Truncate_bytes (String.length full - 7)) ~src ~dst;
  let ic = open_in_bin dst in
  let torn = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove src;
  Sys.remove dst;
  let r = Replica.create ~id:0 decl in
  (* the readable prefix reaches into epoch 3, but epoch 3 is provably
     incomplete — only epochs strictly below it may apply *)
  (match Replica.apply r torn with
  | Replica.Applied_torn { upto = 2; fresh = 2; _ } -> ()
  | Replica.Applied_torn { upto; fresh; _ } ->
    Alcotest.failf "torn applied upto %d with %d fresh (expected 2/2)" upto
      fresh
  | _ -> Alcotest.fail "torn batch not detected");
  check_int "watermark at last complete epoch" 2 (Replica.watermark r);
  check_int "torn counted" 1 (Replica.n_torn r);
  check_float "complete prefix applied" 150. (balance_of r "acct0");
  (* the unchanged cursor re-requests; the intact re-ship completes *)
  (match Replica.apply r full with
  | Replica.Applied { from_epoch = 1; to_epoch = 3; fresh = 2 } -> ()
  | _ -> Alcotest.fail "re-shipped batch not applied");
  check_int "watermark caught up" 3 (Replica.watermark r);
  check_float "tail applied" 160. (balance_of r "acct0");
  check_float "tail applied (2)" 40. (balance_of r "acct1");
  (* corruption mid-payload: per-record salvage keeps only the entries
     before the damage *)
  let r2 = Replica.create ~id:1 decl in
  let corrupt =
    let b = Bytes.of_string full in
    let header_len = String.index full '\n' + 1 in
    let record1_end =
      match Wal.decode_record full ~pos:header_len with
      | Ok (_, next) -> next
      | Error m -> Alcotest.fail m
    in
    Bytes.set b (record1_end + 10)
      (Char.chr (Char.code (Bytes.get b (record1_end + 10)) lxor 0xff));
    Bytes.to_string b
  in
  (match Replica.apply r2 corrupt with
  | Replica.Applied_torn { upto = 0; fresh = 0; _ } -> ()
  | Replica.Applied_torn { upto; _ } ->
    Alcotest.failf "corrupt batch applied upto %d (expected 0)" upto
  | _ -> Alcotest.fail "corrupt payload not detected as torn");
  check_int "nothing provably complete survives" 0 (Replica.watermark r2);
  (match Replica.apply r2 full with
  | Replica.Applied { fresh = 4; _ } -> ()
  | _ -> Alcotest.fail "intact re-ship after corruption not applied");
  check_int "caught up after corruption" 3 (Replica.watermark r2)

(* --- replica reads at the watermark --- *)

let test_replica_reads () =
  let n = 4 in
  let decl = SB.decl ~customers:n () in
  let r = Replica.create ~id:0 decl in
  let sum_args =
    List.map (fun c -> Value.Str c) (List.tl (SB.customers n))
  in
  let sum () =
    match
      Replica.exec_ro r ~reactor:(SB.customer_name 0) ~proc:"sum_all"
        ~args:sum_args
    with
    | Ok v -> Value.to_number v
    | Error m -> Alcotest.fail ("sum_all on replica: " ^ m)
  in
  (* loader state is visible at watermark 0 *)
  check_float "initial total" 80_000. (sum ());
  (* ship a conserving reshuffle at epoch 1: +5k on c0, -5k on c1 *)
  let put_checking ~txn ~seq cust bal =
    {
      Wal.le_txn = txn;
      le_tid = Storage.Record.tid_make ~epoch:1 ~seq;
      le_writes =
        [
          Wal.Put
            {
              reactor = SB.customer_name cust;
              table = "checking";
              row = [| Value.Int cust; Value.Float bal |];
            };
        ];
    }
  in
  (match
     Replica.apply r
       (Replica.Batch.encode ~gen:0 ~from_epoch:1 ~to_epoch:1
          [ put_checking ~txn:1 ~seq:1 0 15_000.;
            put_checking ~txn:1 ~seq:2 1 5_000. ])
   with
  | Replica.Applied _ -> ()
  | _ -> Alcotest.fail "shipment not applied");
  check_float "conserved after shipment" 80_000. (sum ());
  (match
     Replica.exec_ro r ~reactor:(SB.customer_name 0) ~proc:"balance" ~args:[]
   with
  | Ok v -> check_float "shipped write visible" 25_000. (Value.to_number v)
  | Error m -> Alcotest.fail ("balance on replica: " ^ m));
  (* writes are refused: only declared-read-only procedures run here *)
  (match
     Replica.exec_ro r ~reactor:(SB.customer_name 0) ~proc:"deposit_checking"
       ~args:[ Wl.vf 1. ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-readonly procedure served on a replica");
  (match
     Replica.exec_ro r ~reactor:"nobody" ~proc:"balance" ~args:[]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown reactor served");
  check_int "read-only serves counted" 3 (Replica.ro_served r)

(* --- generation fencing on the primary --- *)

let test_fencing () =
  let n = 4 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let db = Harness.build decl cfg in
  check_int "initial generation" 0 (DB.generation db);
  check_bool "not fenced at start" false (DB.fenced db);
  DB.set_generation db 7;
  check_int "generation stamped" 7 (DB.generation db);
  DB.fence db;
  check_bool "fenced" true (DB.fenced db);
  let result = ref (Ok Value.Null) in
  let eng = DB.engine db in
  Sim.Engine.spawn eng (fun () ->
      result :=
        (DB.exec_txn db ~reactor:(SB.customer_name 0) ~proc:"balance" ~args:[])
          .DB.result);
  ignore (Sim.Engine.run eng);
  (match !result with
  | Error m ->
    check_bool "typed refusal" true
      (String.length m >= 6 && String.sub m 0 6 = "fenced")
  | Ok _ -> Alcotest.fail "fenced primary admitted a transaction");
  check_int "refusal counted" 1 (DB.n_fenced_refusals db)

(* --- the shipper's cursor ---

   The shipper reads the log through a cursor and keeps only what some
   replica may still need. Over a growing log whose epochs interleave
   (each append lands anywhere above the durable bound), with a seeded
   chaos dropping shipments so the replicas' watermarks diverge, it must
   deliver exactly what a shipper that filters the whole log every round
   delivers: the same watermarks, logs and batch counts after every round
   and the final ship, and the same lag before it. *)

type ship_op = Append of int | Advance of int | Round

let gen_ship_ops =
  QCheck.Gen.(
    list_size (int_range 0 80)
      (frequency
         [ (4, map (fun k -> Append k) (int_bound 2));
           (2, map (fun k -> Advance k) (int_bound 2)); (2, return Round) ]))

let prop_cursor_shipper =
  QCheck.Test.make ~name:"cursor shipper ships what the whole-log shipper ships"
    ~count:200
    (QCheck.make
       ~print:(fun (ops, seed) -> Printf.sprintf "%d ops, seed %d" (List.length ops) seed)
       QCheck.Gen.(pair gen_ship_ops (int_bound 1000)))
    (fun (ops, seed) ->
      let decl = Testlib.bank_decl 2 in
      let drops () = Chaos.make ~seed ~kind:Chaos.Drop_shipment ~p:0.3 () in
      let log = Wal.in_memory () and durable = ref 0 in
      let mine = [ Replica.create ~id:0 decl; Replica.create ~id:1 decl ] in
      let theirs = [ Replica.create ~id:0 decl; Replica.create ~id:1 decl ] in
      let sh =
        Replica.Shipper.create ~chaos:(drops ()) ~log
          ~durable_epoch:(fun () -> !durable) ~gen:(fun () -> 0) mine
      in
      let ref_chaos = drops () in
      let suffix w =
        List.filter
          (fun e ->
            let ep = Storage.Record.tid_epoch e.Wal.le_tid in
            ep > w && ep <= !durable)
          (Wal.entries log)
      in
      let ref_ship ~with_chaos =
        List.iter
          (fun r ->
            let w = Replica.watermark r in
            if !durable > w then begin
              let b =
                Replica.Batch.encode ~gen:0 ~from_epoch:(w + 1) ~to_epoch:!durable
                  (suffix w)
              in
              if not (with_chaos && Chaos.draw_us ref_chaos Chaos.Drop_shipment <> None)
              then ignore (Replica.apply r b)
            end)
          theirs
      in
      let same () =
        List.for_all2
          (fun a b ->
            Replica.watermark a = Replica.watermark b
            && Replica.log a = Replica.log b
            && Replica.n_batches a = Replica.n_batches b)
          mine theirs
      in
      let seq = ref 0 in
      List.for_all
        (function
          | Append k ->
            incr seq;
            Wal.append log
              (put ~txn:!seq ~epoch:(!durable + 1 + k) ~seq:!seq ~reactor:"acct0"
                 (float_of_int !seq));
            true
          | Advance k ->
            durable := !durable + k;
            true
          | Round ->
            Replica.Shipper.round sh;
            ref_ship ~with_chaos:true;
            same ())
        ops
      && Replica.Shipper.lag sh
         = List.map
             (fun r ->
               let w = Replica.watermark r in
               let behind = max 0 (!durable - w) in
               (Replica.id r, behind, if behind = 0 then 0 else Replica.Batch.size (suffix w)))
             theirs
      &&
      (Replica.Shipper.final_ship sh;
       ref_ship ~with_chaos:false;
       same ()))

(* --- end-to-end: ship under load, kill mid-2PC, promote --- *)

let test_ship_kill_promote () =
  let n = 8 in
  let decl = SB.decl ~customers:n () in
  let cfg = Reactdb.Config.(shared_nothing (chunk 2 (SB.customers n))) in
  let db = Harness.build decl cfg in
  let log = Wal.in_memory () in
  DB.attach_wal db log;
  let chaos = Chaos.make ~seed:7 ~kind:Chaos.Kill_primary ~p:0.5 () in
  DB.attach_chaos db chaos;
  let replicas = [ Replica.create ~id:0 decl; Replica.create ~id:1 decl ] in
  let sh =
    Replica.Shipper.create
      ~log
      ~durable_epoch:(fun () -> DB.durable_epoch db)
      ~gen:(fun () -> DB.generation db)
      replicas
  in
  let rng = Rng.create 7 in
  let ok_writes = ref 0 in
  let eng = DB.engine db in
  Sim.Engine.spawn eng (fun () ->
      for i = 1 to 80 do
        let r = SB.gen_conserving rng ~n in
        (match
           (DB.exec_txn db ~reactor:r.Wl.reactor ~proc:r.Wl.proc
              ~args:r.Wl.args)
             .DB.result
         with
        | Ok _ when r.Wl.proc <> "balance" && r.Wl.proc <> "sum_all" ->
          incr ok_writes
        | _ -> ());
        if i mod 8 = 0 then Replica.Shipper.round sh
      done);
  ignore (Sim.Engine.run eng);
  check_bool "kill fired" true (Chaos.injections chaos > 0);
  check_bool "primary fenced" true (DB.fenced db);
  Replica.Shipper.final_ship sh;
  let promoted =
    match Replica.freshest replicas with
    | Some r -> r
    | None -> Alcotest.fail "no replica to promote"
  in
  (match Replica.promote ~gen:(DB.generation db + 1) promoted with
  | Ok pm ->
    check_bool "generation bumped" true
      (pm.Replica.pm_gen > DB.generation db);
    check_int "promotion epoch is the watermark"
      (Replica.watermark promoted) pm.Replica.pm_epoch
  | Error m -> Alcotest.fail ("promotion refused: " ^ m));
  (* zero lost committed transactions: every acked write survived *)
  check_int "committed writes all present" !ok_writes
    (List.length
       (List.filter (fun e -> e.Wal.le_txn > 0) (Replica.log promoted)));
  Testlib.audit "money conserved on promoted state"
    (Audit.money ~n (Replica.catalogs promoted));
  Testlib.audit "secondary indexes on promoted state"
    (Audit.secondaries (Replica.catalogs promoted))

(* --- replication lag rows through Obs --- *)

let test_obs_repl_rows () =
  let c = Obs.Collector.create ~clock:Obs.Virtual ~containers:2 () in
  let rows =
    [
      { Obs.rr_replica = 0; rr_applied_epoch = 9; rr_epochs_behind = 1;
        rr_bytes_behind = 256; rr_batches = 4; rr_drops = 1 };
      { Obs.rr_replica = 1; rr_applied_epoch = 10; rr_epochs_behind = 0;
        rr_bytes_behind = 0; rr_batches = 5; rr_drops = 0 };
    ]
  in
  Obs.Collector.set_repl c rows;
  let rep = Obs.Report.summarize c in
  check_int "rows published" 2 (List.length rep.Obs.Report.r_repl);
  (match Obs.Report.of_json (Obs.Report.to_json rep) with
  | Ok rep' ->
    check_bool "repl rows round-trip" true (rep'.Obs.Report.r_repl = rows)
  | Error m -> Alcotest.fail ("report round-trip: " ^ m));
  (* replica-free reports neither emit nor require the field *)
  let c2 = Obs.Collector.create ~clock:Obs.Virtual ~containers:1 () in
  let rep2 = Obs.Report.summarize c2 in
  match Obs.Report.of_json (Obs.Report.to_json rep2) with
  | Ok rep2' -> check_int "absent field reads empty" 0
                  (List.length rep2'.Obs.Report.r_repl)
  | Error m -> Alcotest.fail ("empty report round-trip: " ^ m)

(* --- autoscaler: the observed queue-wait signal --- *)

let ld ?(q = 0.) busy =
  {
    Runtime.Db.ld_busy_frac = busy;
    ld_qdepth_ewma = q;
    ld_mailbox = 0;
    ld_sheds = 0;
  }

let test_autoscaler_queue_wait () =
  let pol = AS.default in
  (* neither busy nor queue-depth trips: within the hysteresis band the
     controller holds... *)
  check_int "holds without the signal" 0
    (List.length
       (AS.decide pol
          ~load:[| ld 0.4; ld 0.1 |]
          ~placements:[ ("a0", 0); ("a1", 0); ("a2", 1) ]));
  (* ...but observed queue-wait above the threshold is saturation the
     other signals have not integrated yet: split *)
  (match
     AS.decide ~queue_wait:[| 6000.; 0. |] pol
       ~load:[| ld 0.4; ld 0.1 |]
       ~placements:[ ("a0", 0); ("a1", 0); ("a2", 1) ]
   with
  | [ a ] ->
    check_bool "split" true (a.AS.ac_why = `Split);
    check_int "from the waiting domain" 0 a.AS.ac_src;
    check_int "to the idle domain" 1 a.AS.ac_dst
  | acts -> Alcotest.failf "expected one split, got %d" (List.length acts));
  (* below the threshold the signal is inert *)
  check_int "sub-threshold wait holds" 0
    (List.length
       (AS.decide ~queue_wait:[| 4000.; 0. |] pol
          ~load:[| ld 0.4; ld 0.1 |]
          ~placements:[ ("a0", 0); ("a1", 0); ("a2", 1) ]));
  (* all-cold busy fractions would merge — unless queue-wait shows one
     domain is actually a backlog *)
  (match
     AS.decide pol
       ~load:[| ld 0.1; ld 0.05 |]
       ~placements:[ ("a0", 0); ("a1", 1) ]
   with
  | [ a ] -> check_bool "cold domains merge" true (a.AS.ac_why = `Merge)
  | acts -> Alcotest.failf "expected one merge, got %d" (List.length acts));
  check_int "no merge into a backlog" 0
    (List.length
       (AS.decide ~queue_wait:[| 6000.; 0. |] pol
          ~load:[| ld 0.1; ld 0.05 |]
          ~placements:[ ("a0", 0); ("a1", 1) ]));
  (* a collector with no recorded attempts reads 0 — the signal cannot
     trip on noise *)
  let c = Obs.Collector.create ~clock:Obs.Virtual ~containers:2 () in
  check_float "empty collector reads zero" 0.
    (Obs.Collector.queue_wait_mean_us c ~container:0)

let suite =
  ( "replica",
    [
      Alcotest.test_case "batch wire format round-trip" `Quick
        test_batch_roundtrip;
      Alcotest.test_case "apply: duplicates, gaps, generations" `Quick
        test_apply_refusals;
      Alcotest.test_case "torn shipment keeps complete epochs only" `Quick
        test_torn_tail;
      Alcotest.test_case "replica reads at the watermark" `Quick
        test_replica_reads;
      Alcotest.test_case "primary generation fencing" `Quick test_fencing;
      QCheck_alcotest.to_alcotest prop_cursor_shipper;
      Alcotest.test_case "ship, kill mid-2pc, promote" `Quick
        test_ship_kill_promote;
      Alcotest.test_case "replication lag rows through obs" `Quick
        test_obs_repl_rows;
      Alcotest.test_case "autoscaler queue-wait signal" `Quick
        test_autoscaler_queue_wait;
    ] )
