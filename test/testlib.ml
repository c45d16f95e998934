(* Shared fixtures: a tiny "account" reactor database used across runtime
   test suites. Each Account reactor encapsulates a single-row [acct]
   relation holding a balance. *)

open Util

let acct_schema =
  Storage.Schema.make ~name:"acct"
    ~columns:[ ("id", Value.TInt); ("balance", Value.TFloat) ]
    ~key:[ "id" ]

(* Procedures:
   - get_balance () -> float
   - deposit (amount) -> new balance; aborts on negative result
   - transfer_to (other, amount): deposit amount on [other], withdraw here
   - multi_transfer_sync / multi_transfer_async (amount, dests...)
   - multi_transfer_collect (amount, dests...): fan-out joined by collect
   - multi_transfer_collect_slow (spin_us, amount, dests...): credits via
     slow_deposit, which busy-waits spin_us of wall clock first
   - same_twice (other): two async calls to the same reactor — dangerous
   - relay (other, proc, args...): runs proc on other and returns its
     value, touching no data of its own
   - deposit_after (amount, us): deposit after [us] µs of virtual work
   - skew (other): read own balance, deposit 1 on [other], return the
     balance read; the remote participant's read is covered by its write
   - skew_remote_read (other): read [other]'s balance by a sub-call,
     deposit 1 on self, return the balance read; the remote participant
     only reads
   - noop () *)
let account_type =
  let open Reactor in
  let balance_of ctx =
    match Query.Exec.get ctx.db "acct" [| Value.Int 0 |] with
    | Some row -> Value.to_float row.(1)
    | None -> abort "account row missing"
  in
  let set_balance ctx b =
    ignore
      (Query.Exec.update_key ctx.db "acct" [| Value.Int 0 |] ~set:(fun row ->
           Query.Exec.seti row 1 (Value.Float b)))
  in
  let get_balance ctx _args = Value.Float (balance_of ctx) in
  let deposit ctx args =
    let amount = arg_float args 0 in
    let b = balance_of ctx +. amount in
    if b < 0. then abort "insufficient funds";
    set_balance ctx b;
    Value.Float b
  in
  let transfer_to ctx args =
    let dest = arg_str args 0 and amount = arg_float args 1 in
    let f =
      ctx.call ~reactor:dest ~proc:"deposit" ~args:[ Value.Float amount ]
    in
    ignore (ctx.call ~reactor:ctx.self ~proc:"deposit"
              ~args:[ Value.Float (-.amount) ]);
    ignore (f.get ());
    Value.Null
  in
  let multi_transfer sync ctx args =
    match args with
    | amount :: dests ->
      let futures =
        List.map
          (fun d ->
            let f =
              ctx.call ~reactor:(Value.to_str d) ~proc:"deposit"
                ~args:[ amount ]
            in
            if sync then ignore (f.get ());
            f)
          dests
      in
      let total = Value.to_float amount *. float_of_int (List.length dests) in
      let fd =
        ctx.call ~reactor:ctx.self ~proc:"deposit"
          ~args:[ Value.Float (-.total) ]
      in
      ignore (fd.get ());
      List.iter (fun f -> ignore (f.get ())) futures;
      Value.Null
    | [] -> abort "no amount"
  in
  (* Busy-waits [us] of wall clock before depositing: lets runtime deadline
     tests hold remote sub-transactions open past the root's budget with
     deterministic timing. The spin is meaningless on the simulator's
     virtual clock — simulator suites must not call it. *)
  let slow_deposit ctx args =
    let us = arg_float args 1 in
    let t0 = Unix.gettimeofday () in
    while (Unix.gettimeofday () -. t0) *. 1e6 < us do () done;
    deposit ctx [ List.nth args 0 ]
  in
  (* Fan-out/collect formulation: every credit issued up front, the debit
     inlined on self, then one explicit collect barrier joins the credits
     (out-of-order completion; errors surface at the barrier). *)
  let multi_transfer_collect ctx args =
    match args with
    | amount :: dests ->
      let futures =
        List.map
          (fun d ->
            ctx.call ~reactor:(Value.to_str d) ~proc:"deposit"
              ~args:[ amount ])
          dests
      in
      let total = Value.to_float amount *. float_of_int (List.length dests) in
      let fd =
        ctx.call ~reactor:ctx.self ~proc:"deposit"
          ~args:[ Value.Float (-.total) ]
      in
      ignore (fd.get ());
      ignore (ctx.collect futures);
      Value.Null
    | [] -> abort "no amount"
  in
  (* Same fan-out, but each credit runs [slow_deposit] holding its callee
     busy for [spin] wall-clock microseconds — so a root deadline between
     the fan-out and the slowest credit expires mid-collect, with every
     future still outstanding. *)
  let multi_transfer_collect_slow ctx args =
    match args with
    | spin :: amount :: dests ->
      let futures =
        List.map
          (fun d ->
            ctx.call ~reactor:(Value.to_str d) ~proc:"slow_deposit"
              ~args:[ amount; spin ])
          dests
      in
      let total = Value.to_float amount *. float_of_int (List.length dests) in
      let fd =
        ctx.call ~reactor:ctx.self ~proc:"deposit"
          ~args:[ Value.Float (-.total) ]
      in
      ignore (fd.get ());
      ignore (ctx.collect futures);
      Value.Null
    | _ -> abort "need spin and amount"
  in
  let relay ctx args =
    match args with
    | dest :: proc :: rest ->
      (ctx.call ~reactor:(Value.to_str dest) ~proc:(Value.to_str proc) ~args:rest)
        .get ()
    | _ -> abort "need a reactor and a procedure"
  in
  let deposit_after ctx args =
    ctx.db.Query.Exec.work (arg_float args 1);
    deposit ctx args
  in
  let skew ctx args =
    let own = balance_of ctx in
    ignore
      ((ctx.call ~reactor:(arg_str args 0) ~proc:"deposit" ~args:[ Value.Float 1. ])
         .get ());
    Value.Float own
  in
  let skew_remote_read ctx args =
    let other =
      (ctx.call ~reactor:(arg_str args 0) ~proc:"get_balance" ~args:[]).get ()
    in
    ignore (deposit ctx [ Value.Float 1. ]);
    other
  in
  let same_twice ctx args =
    let dest = arg_str args 0 in
    let f1 = ctx.call ~reactor:dest ~proc:"deposit" ~args:[ Value.Float 1. ] in
    let f2 = ctx.call ~reactor:dest ~proc:"deposit" ~args:[ Value.Float 1. ] in
    ignore (f1.get ());
    ignore (f2.get ());
    Value.Null
  in
  (* Declared read-only: reads the balance after a body of [us] µs —
     charged as virtual work on the simulator and busy-waited on the wall
     clock, so the body outlasts a shorter deadline on either backend. *)
  let slow_balance ctx args =
    let us = arg_float args 0 in
    ctx.db.Query.Exec.work us;
    let t0 = Unix.gettimeofday () in
    while (Unix.gettimeofday () -. t0) *. 1e6 < us do () done;
    get_balance ctx []
  in
  (* A programming error, not an abort. The simulator re-raises it out of
     the engine. *)
  let boom _ctx _args = failwith "boom" in
  let noop _ctx _args = Value.Null in
  rtype ~name:"Account" ~schemas:[ acct_schema ] ~readonly:[ "slow_balance" ]
    ~procs:
      [
        ("get_balance", get_balance);
        ("deposit", deposit);
        ("transfer_to", transfer_to);
        ("multi_transfer_sync", multi_transfer true);
        ("multi_transfer_async", multi_transfer false);
        ("multi_transfer_collect", multi_transfer_collect);
        ("multi_transfer_collect_slow", multi_transfer_collect_slow);
        ("slow_deposit", slow_deposit);
        ("same_twice", same_twice);
        ("skew", skew);
        ("skew_remote_read", skew_remote_read);
        ("relay", relay);
        ("deposit_after", deposit_after);
        ("slow_balance", slow_balance);
        ("boom", boom);
        ("noop", noop);
      ]
    ()

let names n = List.init n (fun i -> Printf.sprintf "acct%d" i)

(* [n] accounts of type [rtype], named "Account" like {!account_type}. *)
let bank_decl ?(initial = 100.) ?(rtype = account_type) n =
  let loader _name catalog =
    let tbl = Storage.Catalog.table catalog "acct" in
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false
            [| Value.Int 0; Value.Float initial |]))
  in
  Reactor.decl ~types:[ rtype ]
    ~reactors:(List.map (fun nm -> (nm, "Account")) (names n))
    ~loaders:(List.map (fun nm -> (nm, loader nm)) (names n))
    ()

(* Run [f db] as a simulation process; returns its result after the
   simulation drains. *)
let in_sim db f =
  let result = ref None in
  let eng = Reactdb.Database.engine db in
  Sim.Engine.spawn eng (fun () -> result := Some (f db));
  ignore (Sim.Engine.run eng);
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation stalled"

(* [in_sim] against a fresh [n]-account bank. *)
let with_db ?(n = 4) ?profile config f =
  in_sim (Harness.build ?profile (bank_decl n) config) f

(* The entries of a WAL file that must be whole; [Failure] on a torn or
   corrupt tail. *)
let read_log path =
  match Wal.read_file_tolerant path with
  | entries, Wal.Clean -> entries
  | _, Wal.Torn { valid; reason } ->
    failwith (Printf.sprintf "torn log: %s (after %d valid entries)" reason valid)

(* TID epochs of the delete tombstones still in [tbl]'s primary index, and
   the newest TID epoch of any record there. *)
let tombstone_epochs tbl =
  let tombs = ref [] and newest = ref 0 in
  Storage.Table.range tbl ~f:(fun r ->
      let e = Storage.Record.tid_epoch r.Storage.Record.tid in
      newest := Stdlib.max !newest e;
      if r.Storage.Record.absent then tombs := e :: !tombs;
      true);
  (!tombs, !newest)

(* Fail the test with an audit's error string (see [lib/audit]). *)
let audit name = function
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

let balance db name =
  match
    Reactdb.Database.exec_txn db ~reactor:name ~proc:"get_balance" ~args:[]
  with
  | { result = Ok (Value.Float f); _ } -> f
  | { result = Ok v; _ } -> failwith ("unexpected " ^ Value.to_string v)
  | { result = Error m; _ } -> failwith ("get_balance aborted: " ^ m)

let se_config ?(affinity = true) ?mpl n_exec n_reactors =
  Reactdb.Config.shared_everything ~executors:n_exec ~affinity ?mpl
    (names n_reactors)

let sn_config ?mpl n_reactors =
  Reactdb.Config.shared_nothing ?mpl (List.map (fun n -> [ n ]) (names n_reactors))

(* A transfer of 1 between two distinct random ones of [accounts]. *)
let random_transfer rng ~accounts =
  let src = Rng.int rng accounts in
  let dst = Rng.pick_except rng accounts src in
  Workloads.Wl.request (Printf.sprintf "acct%d" src) "transfer_to"
    [ Value.Str (Printf.sprintf "acct%d" dst); Value.Float 1. ]

(* Adversarial conflict workload over the 4-account bank: each worker
   repeatedly transfers 1.0 between random accounts. Used by integration
   tests asserting conservation and serializability. *)
let run_conflict_workload ?(accounts = 4) db ~workers ~per_worker =
  let eng = Reactdb.Database.engine db in
  let finished = ref 0 in
  for w = 0 to workers - 1 do
    Sim.Engine.spawn eng (fun () ->
        let rng = Rng.create (1000 + w) in
        for _ = 1 to per_worker do
          let r = random_transfer rng ~accounts in
          ignore
            (Reactdb.Database.exec_txn db ~reactor:r.Workloads.Wl.reactor
               ~proc:r.Workloads.Wl.proc ~args:r.Workloads.Wl.args)
        done;
        incr finished)
  done;
  ignore (Sim.Engine.run eng);
  if !finished <> workers then failwith "run_conflict_workload: workers stuck"

(* Write-skew oracle for the pair [acct0.proc acct1] and [acct1.proc acct0],
   with [proc] one of [skew] and [skew_remote_read]; each root returns the
   balance it read, and [before] holds acct0's and acct1's balances before
   the pair ran. In any serial order the second root reads the first one's
   deposit, so both committing with what they read before is a cycle. *)
let skewed ~proc ~before:(b0, b1) results =
  let read_before = if proc = "skew" then [| b0; b1 |] else [| b1; b0 |] in
  Array.for_all2 (fun r b -> r = Ok (Value.Float b)) results read_before
