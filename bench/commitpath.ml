(* Commit-path scenarios, shared by two executables:

   - trajectory.exe runs them and re-emits `BENCH_commit_path.json` so that
     every PR has a perf baseline to diff against;
   - predictability.exe re-runs the direct scenarios against the committed
     baseline to enforce the no-op-tracing-sink overhead ceiling.

   The direct scenarios drive the OCC/storage layers straight from a tight
   loop (real wall-clock per-transaction latency); the simulator scenario
   drives a cross-container smallbank deployment end-to-end and reports
   virtual-time latencies alongside real ops/sec. *)

open Util

type scenario_result = {
  sr_name : string;
  sr_ops : int;
  sr_elapsed_s : float;
  sr_ops_per_sec : float;
  sr_p50_us : float;
  sr_p99_us : float;
  sr_latency_kind : string; (* "wall" or "sim" *)
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let i = int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) i))
  end

(* Time [step] per call; warmup rounds are run but not recorded. *)
let run_direct ~name ~warmup ~iters step =
  for i = 0 to warmup - 1 do
    step i
  done;
  let lats = Array.make iters 0. in
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    let s = Unix.gettimeofday () in
    step (warmup + i);
    lats.(i) <- (Unix.gettimeofday () -. s) *. 1e6
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.sort Float.compare lats;
  {
    sr_name = name;
    sr_ops = iters;
    sr_elapsed_s = elapsed;
    sr_ops_per_sec = float_of_int iters /. elapsed;
    sr_p50_us = percentile lats 50.;
    sr_p99_us = percentile lats 99.;
    sr_latency_kind = "wall";
  }

let txn_ids = ref 0

let fresh_txn () =
  incr txn_ids;
  Occ.Txn.create ~id:!txn_ids ~containers:2

let must_commit = function
  | Ok _ -> ()
  | Error r ->
    failwith ("commitpath: unexpected abort: " ^ Occ.Commit.fail_message r)

(* ---- read-heavy: 16 point reads + 1 read-modify-write, single container ---- *)

let kv_schema =
  Storage.Schema.make ~name:"kv"
    ~columns:[ ("k", Value.TInt); ("v", Value.TInt) ]
    ~key:[ "k" ]

let fill_kv tbl n =
  for i = 0 to n - 1 do
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false [| Value.Int i; Value.Int 0 |]))
  done

let read_heavy ~iters =
  let n = 10_000 in
  let tbl = Storage.Table.create kv_schema in
  fill_kv tbl n;
  let rng = Rng.create 7 in
  run_direct ~name:"read_heavy" ~warmup:(iters / 10) ~iters (fun _ ->
      let txn = fresh_txn () in
      for _ = 1 to 16 do
        match Storage.Table.find tbl [| Value.Int (Rng.int rng n) |] with
        | Some r -> ignore (Occ.Txn.read txn ~container:0 r)
        | None -> assert false
      done;
      let k = Rng.int rng n in
      let key = [| Value.Int k |] in
      (match Storage.Table.find tbl key with
      | Some r -> (
        match Occ.Txn.read txn ~container:0 r with
        | Some data ->
          Occ.Txn.write txn ~container:0 ~table:tbl ~key r
            [| data.(0); Value.Int (Value.to_int data.(1) + 1) |]
        | None -> assert false)
      | None -> assert false);
      must_commit (Occ.Commit.commit_single txn ~epoch:1 ~container:0))

(* ---- write-heavy: 8 RMWs (secondary-index columns touched) + 2 inserts +
   2 deletes of the previous iteration's inserts, single container ---- *)

let wh_schema =
  Storage.Schema.make ~name:"wh"
    ~columns:
      [ ("k", Value.TInt); ("a", Value.TInt); ("b", Value.TStr);
        ("c", Value.TInt) ]
    ~key:[ "k" ]

let write_heavy ~iters =
  let n = 10_000 in
  let tbl =
    Storage.Table.create ~secondaries:[ ("by_ab", [ "a"; "b" ]) ] wh_schema
  in
  for i = 0 to n - 1 do
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false
            [| Value.Int i; Value.Int (i mod 97); Value.Str "x"; Value.Int 0 |]))
  done;
  let rng = Rng.create 11 in
  run_direct ~name:"write_heavy" ~warmup:(iters / 10) ~iters (fun i ->
      let txn = fresh_txn () in
      (* RMW 8 rows, moving them within the secondary index. *)
      for _ = 1 to 8 do
        let k = Rng.int rng n in
        let key = [| Value.Int k |] in
        match Storage.Table.find tbl key with
        | Some r -> (
          match Occ.Txn.read txn ~container:0 r with
          | Some data ->
            Occ.Txn.write txn ~container:0 ~table:tbl ~key r
              [| data.(0); Value.Int (Rng.int rng 97); data.(2);
                 Value.Int (Value.to_int data.(3) + 1) |]
          | None -> assert false)
        | None -> assert false
      done;
      (* Two fresh inserts; delete the two rows inserted last iteration, so
         the table size stays constant. *)
      let base = n + (2 * i) in
      Occ.Txn.insert txn ~container:0 ~table:tbl
        [| Value.Int base; Value.Int (base mod 97); Value.Str "y"; Value.Int 0 |];
      Occ.Txn.insert txn ~container:0 ~table:tbl
        [| Value.Int (base + 1); Value.Int ((base + 1) mod 97); Value.Str "y";
           Value.Int 0 |];
      if i > 0 then begin
        let prev = n + (2 * (i - 1)) in
        List.iter
          (fun k ->
            let key = [| Value.Int k |] in
            match Storage.Table.find tbl key with
            | Some r -> Occ.Txn.delete txn ~container:0 ~table:tbl ~key r
            | None -> assert false)
          [ prev; prev + 1 ]
      end;
      must_commit (Occ.Commit.commit_single txn ~epoch:1 ~container:0))

(* ---- durable write-heavy: the write_heavy transaction shape plus redo
   logging to a real file. Two durability disciplines:

   - write_heavy_wal appends and flushes one record per commit (every
     transaction pays its own write syscall);
   - write_heavy_group_commit coalesces a window of commits into one
     [Wal.append_many] plus a single flush — the discipline the runtime's
     group-commit WAL sink applies per epoch.

   In this closed loop the group variant defers durability to the window
   boundary, so per-iteration latency is bursty by construction (most
   commits log for free, every [group_window]-th pays the flush);
   throughput — total time to make all commits durable — is the honest
   comparison between the two. *)

let write_heavy_durable ~name ~iters ~log_commit ~finish =
  let n = 10_000 in
  let tbl =
    Storage.Table.create ~secondaries:[ ("by_ab", [ "a"; "b" ]) ] wh_schema
  in
  for i = 0 to n - 1 do
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false
            [| Value.Int i; Value.Int (i mod 97); Value.Str "x"; Value.Int 0 |]))
  done;
  let rng = Rng.create 11 in
  let result =
    run_direct ~name ~warmup:(iters / 10) ~iters (fun i ->
        let txn = fresh_txn () in
        let writes = ref [] in
        let put row =
          writes := Wal.Put { reactor = "wh"; table = "wh"; row } :: !writes
        in
        for _ = 1 to 8 do
          let k = Rng.int rng n in
          let key = [| Value.Int k |] in
          match Storage.Table.find tbl key with
          | Some r -> (
            match Occ.Txn.read txn ~container:0 r with
            | Some data ->
              let row =
                [| data.(0); Value.Int (Rng.int rng 97); data.(2);
                   Value.Int (Value.to_int data.(3) + 1) |]
              in
              Occ.Txn.write txn ~container:0 ~table:tbl ~key r row;
              put row
            | None -> assert false)
          | None -> assert false
        done;
        let base = n + (2 * i) in
        let row0 =
          [| Value.Int base; Value.Int (base mod 97); Value.Str "y";
             Value.Int 0 |]
        and row1 =
          [| Value.Int (base + 1); Value.Int ((base + 1) mod 97); Value.Str "y";
             Value.Int 0 |]
        in
        Occ.Txn.insert txn ~container:0 ~table:tbl row0;
        put row0;
        Occ.Txn.insert txn ~container:0 ~table:tbl row1;
        put row1;
        if i > 0 then begin
          let prev = n + (2 * (i - 1)) in
          List.iter
            (fun k ->
              let key = [| Value.Int k |] in
              match Storage.Table.find tbl key with
              | Some r ->
                Occ.Txn.delete txn ~container:0 ~table:tbl ~key r;
                writes :=
                  Wal.Del { reactor = "wh"; table = "wh"; key } :: !writes
              | None -> assert false)
            [ prev; prev + 1 ]
        end;
        match Occ.Commit.commit_single txn ~epoch:1 ~container:0 with
        | Ok tid ->
          log_commit
            { Wal.le_txn = !txn_ids; le_tid = tid;
              le_writes = List.rev !writes }
        | Error r ->
          failwith ("commitpath: unexpected abort: " ^ Occ.Commit.fail_message r))
  in
  finish ();
  result

let write_heavy_wal ~iters =
  let path = Filename.temp_file "commitpath_wal" ".log" in
  let log = Wal.to_file path in
  write_heavy_durable ~name:"write_heavy_wal" ~iters
    ~log_commit:(fun e ->
      Wal.append log e;
      Wal.flush log)
    ~finish:(fun () ->
      Wal.close log;
      Sys.remove path)

let group_window = 64

let write_heavy_group ~iters =
  let path = Filename.temp_file "commitpath_group" ".log" in
  let log = Wal.to_file path in
  let batch = ref [] in
  let drain () =
    if !batch <> [] then begin
      Wal.append_many log (List.rev !batch);
      Wal.flush log;
      batch := []
    end
  in
  write_heavy_durable ~name:"write_heavy_group_commit" ~iters
    ~log_commit:(fun e ->
      batch := Wal.record log e :: !batch;
      if List.length !batch >= group_window then drain ())
    ~finish:(fun () ->
      drain ();
      Wal.close log;
      Sys.remove path)

(* ---- cross-container 2PC: 4 RMWs in each of two containers ---- *)

let cross_2pc ~iters =
  let n = 10_000 in
  let tbl0 = Storage.Table.create kv_schema in
  let tbl1 = Storage.Table.create kv_schema in
  fill_kv tbl0 n;
  fill_kv tbl1 n;
  let rng = Rng.create 13 in
  let rmw txn ~container tbl =
    let k = Rng.int rng n in
    let key = [| Value.Int k |] in
    match Storage.Table.find tbl key with
    | Some r -> (
      match Occ.Txn.read txn ~container r with
      | Some data ->
        Occ.Txn.write txn ~container ~table:tbl ~key r
          [| data.(0); Value.Int (Value.to_int data.(1) + 1) |]
      | None -> assert false)
    | None -> assert false
  in
  run_direct ~name:"cross_container_2pc" ~warmup:(iters / 10) ~iters (fun _ ->
      let txn = fresh_txn () in
      for _ = 1 to 4 do
        rmw txn ~container:0 tbl0
      done;
      for _ = 1 to 4 do
        rmw txn ~container:1 tbl1
      done;
      if
        Result.is_ok (Occ.Commit.prepare txn ~container:0)
        && Result.is_ok (Occ.Commit.prepare txn ~container:1)
      then begin
        let tid = Occ.Commit.compute_tid txn ~epoch:1 in
        Occ.Commit.install txn ~container:0 ~tid;
        Occ.Commit.install txn ~container:1 ~tid
      end
      else failwith "commitpath: 2pc prepare failed")

(* ---- simulator-driven smallbank: cross-container multi-transfers through
   the full ReactDB stack; latencies are virtual (simulated) time ---- *)

let sim_smallbank ~iters =
  let n_groups = 4 and group_size = 4 in
  let n_cust = n_groups * group_size in
  let groups =
    List.init n_groups (fun g ->
        List.init group_size (fun k ->
            Workloads.Smallbank.customer_name ((g * group_size) + k)))
  in
  let db =
    Harness.build
      (Workloads.Smallbank.decl ~customers:n_cust ())
      (Reactdb.Config.shared_nothing groups)
  in
  let src = Workloads.Smallbank.customer_name 0 in
  let dests =
    List.init 3 (fun i ->
        Workloads.Smallbank.customer_name (((i + 1) mod n_groups) * group_size))
  in
  let t0 = Unix.gettimeofday () in
  let outs =
    Harness.measure_txns db ~warmup:(iters / 10) ~n:iters (fun _rng ->
        Workloads.Smallbank.multi_transfer_request Workloads.Smallbank.Fully_sync
          ~src ~dests ~amount:1.)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let lats =
    Array.of_list
      (List.filter_map
         (fun o ->
           match o.Reactdb.Database.result with
           | Ok _ -> Some o.Reactdb.Database.latency
           | Error _ -> None)
         outs)
  in
  Array.sort Float.compare lats;
  {
    sr_name = "sim_smallbank_2pc";
    sr_ops = iters;
    sr_elapsed_s = elapsed;
    sr_ops_per_sec = float_of_int iters /. elapsed;
    sr_p50_us = percentile lats 50.;
    sr_p99_us = percentile lats 99.;
    sr_latency_kind = "sim";
  }

(* ---- simulator-driven read-only snapshot: the same cross-container
   smallbank deployment, but the workload is a declared-read-only [sum_all]
   fan-out over three remote customers — frozen-epoch version-chain reads,
   no read-set, no validation, no 2PC ---- *)

let sim_readonly_snapshot ~iters =
  let n_groups = 4 and group_size = 4 in
  let n_cust = n_groups * group_size in
  let groups =
    List.init n_groups (fun g ->
        List.init group_size (fun k ->
            Workloads.Smallbank.customer_name ((g * group_size) + k)))
  in
  let db =
    Harness.build
      (Workloads.Smallbank.decl ~customers:n_cust ())
      (Reactdb.Config.shared_nothing groups)
  in
  let src = Workloads.Smallbank.customer_name 0 in
  let dests =
    List.init 3 (fun i ->
        Workloads.Smallbank.customer_name (((i + 1) mod n_groups) * group_size))
  in
  let args = List.map (fun c -> Value.Str c) dests in
  let t0 = Unix.gettimeofday () in
  let outs =
    Harness.measure_txns db ~warmup:(iters / 10) ~n:iters (fun _rng ->
        Workloads.Wl.request src "sum_all" args)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let lats =
    Array.of_list
      (List.filter_map
         (fun o ->
           match o.Reactdb.Database.result with
           | Ok _ -> Some o.Reactdb.Database.latency
           | Error _ -> None)
         outs)
  in
  if Array.length lats <> iters then
    failwith "commitpath: read-only snapshot transaction aborted";
  Array.sort Float.compare lats;
  {
    sr_name = "read_only_snapshot";
    sr_ops = iters;
    sr_elapsed_s = elapsed;
    sr_ops_per_sec = float_of_int iters /. elapsed;
    sr_p50_us = percentile lats 50.;
    sr_p99_us = percentile lats 99.;
    sr_latency_kind = "sim";
  }

(* ---- output ---- *)

let emit_json path results =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"benchmark\": \"commit_path\",\n";
  Printf.fprintf oc "  \"scenarios\": [\n";
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": %S, \"ops\": %d, \"elapsed_s\": %.6f, \"ops_per_sec\": \
         %.1f, \"p50_us\": %.3f, \"p99_us\": %.3f, \"latency\": %S}%s\n"
        r.sr_name r.sr_ops r.sr_elapsed_s r.sr_ops_per_sec r.sr_p50_us
        r.sr_p99_us r.sr_latency_kind
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc
