(** The extended Smallbank benchmark (§4.1.3, Appendices B and H).

    Each customer is a reactor encapsulating three relations (Fig. 20):
    [account] (name → customer id), [savings] and [checking] (customer id →
    balance). On top of the standard Smallbank mix we implement the paper's
    multi-transfer extension in its four formulations (§4.1.4):

    - [multi_transfer_sync] with [transfer_seq] — {e fully-sync};
    - [multi_transfer_sync] with [transfer_ovp] — {e partially-async}
      (asynchronous credit overlapped with the synchronous source debit);
    - [multi_transfer_fully_async] — all credits asynchronous, debits
      synchronous on the source;
    - [multi_transfer_opt] — asynchronous credits and a single combined
      debit.

    All four are faithful transcriptions of Figure 21. *)

open Util
open Reactor

let account_schema =
  Storage.Schema.make ~name:"account"
    ~columns:[ ("name", Value.TStr); ("cust_id", Value.TInt) ]
    ~key:[ "name" ]

let savings_schema =
  Storage.Schema.make ~name:"savings"
    ~columns:[ ("cust_id", Value.TInt); ("balance", Value.TFloat) ]
    ~key:[ "cust_id" ]

let checking_schema =
  Storage.Schema.make ~name:"checking"
    ~columns:[ ("cust_id", Value.TInt); ("balance", Value.TFloat) ]
    ~key:[ "cust_id" ]

(* Every procedure follows the benchmark's query footprint: look up the
   customer id in [account] first, then address [savings]/[checking] by it. *)
let cust_id ctx =
  match Query.Exec.get ctx.db "account" [| Wl.vs ctx.self |] with
  | Some row -> Value.to_int row.(1)
  | None -> abort "account row missing"

let balance_of ctx table cid =
  match Query.Exec.get ctx.db table [| Wl.vi cid |] with
  | Some row -> Value.to_number row.(1)
  | None -> abort (table ^ " row missing")

let set_balance ctx table cid v =
  ignore
    (Query.Exec.update_key ctx.db table [| Wl.vi cid |] ~set:(fun row ->
         Query.Exec.seti row 1 (Wl.vf v)))

(* transact_saving(amt): credit/debit the savings balance, aborting on
   overdraft (Fig. 21). *)
let transact_saving ctx args =
  let amt = arg_float args 0 in
  let cid = cust_id ctx in
  let bal = balance_of ctx "savings" cid in
  if bal +. amt < 0. then abort "savings overdraft";
  set_balance ctx "savings" cid (bal +. amt);
  Value.Null

let transact_checking ctx args =
  let amt = arg_float args 0 in
  let cid = cust_id ctx in
  let bal = balance_of ctx "checking" cid in
  if bal +. amt < 0. then abort "checking overdraft";
  set_balance ctx "checking" cid (bal +. amt);
  Value.Null

(* transfer(src, dst, amt) — invoked on the source reactor. [seq] decides
   whether the credit's future is forced before the debit (the
   env_seq_transfer switch of Fig. 21). *)
let transfer ~seq ctx args =
  let dst = arg_str args 0 and amt = arg_float args 1 in
  if amt <= 0. then abort "non-positive transfer";
  let credit =
    ctx.call ~reactor:dst ~proc:"transact_saving" ~args:[ Wl.vf amt ]
  in
  if seq then ignore (credit.get ());
  let debit =
    ctx.call ~reactor:ctx.self ~proc:"transact_saving" ~args:[ Wl.vf (-.amt) ]
  in
  ignore (debit.get ());
  Value.Null

(* multi_transfer_sync(amt, dsts...): one transfer per destination, each
   synchronized before the next (Fig. 21). [transfer_proc] selects the
   fully-sync or partially-async transfer body. *)
let multi_transfer_sync ~transfer_proc ctx args =
  match args with
  | amt :: dsts ->
    List.iter
      (fun dst ->
        let res =
          ctx.call ~reactor:ctx.self ~proc:transfer_proc ~args:[ dst; amt ]
        in
        ignore (res.get ()))
      dsts;
    Value.Null
  | [] -> abort "multi_transfer_sync: missing amount"

let multi_transfer_fully_async ctx args =
  match args with
  | amt :: dsts ->
    if Value.to_number amt <= 0. then abort "non-positive transfer";
    List.iter
      (fun dst ->
        ignore
          (ctx.call ~reactor:(Value.to_str dst) ~proc:"transact_saving"
             ~args:[ amt ]))
      dsts;
    List.iter
      (fun _ ->
        let res =
          ctx.call ~reactor:ctx.self ~proc:"transact_saving"
            ~args:[ Wl.vf (-.Value.to_number amt) ]
        in
        ignore (res.get ()))
      dsts;
    Value.Null
  | [] -> abort "multi_transfer_fully_async: missing amount"

let multi_transfer_opt ctx args =
  match args with
  | amt :: dsts ->
    if Value.to_number amt <= 0. then abort "non-positive transfer";
    List.iter
      (fun dst ->
        ignore
          (ctx.call ~reactor:(Value.to_str dst) ~proc:"transact_saving"
             ~args:[ amt ]))
      dsts;
    let total = Value.to_number amt *. float_of_int (List.length dsts) in
    let res =
      ctx.call ~reactor:ctx.self ~proc:"transact_saving"
        ~args:[ Wl.vf (-.total) ]
    in
    ignore (res.get ());
    Value.Null
  | [] -> abort "multi_transfer_opt: missing amount"

(* multi_transfer_collect(amt, dsts...): the Opt formulation written with
   an explicit fork–join — fan all credits out, debit the combined total
   from the source while they are in flight, then join the credit futures
   at a collect barrier. Issues exactly the same sub-calls as
   [multi_transfer_opt]; the difference is that credit aborts surface at
   the collect boundary instead of at implicit sync. *)
let multi_transfer_collect ctx args =
  match args with
  | amt :: dsts ->
    if Value.to_number amt <= 0. then abort "non-positive transfer";
    let credits =
      List.map
        (fun dst ->
          ctx.call ~reactor:(Value.to_str dst) ~proc:"transact_saving"
            ~args:[ amt ])
        dsts
    in
    let total = Value.to_number amt *. float_of_int (List.length dsts) in
    let debit =
      ctx.call ~reactor:ctx.self ~proc:"transact_saving"
        ~args:[ Wl.vf (-.total) ]
    in
    ignore (debit.get ());
    ignore (ctx.collect credits);
    Value.Null
  | [] -> abort "multi_transfer_collect: missing amount"

(* --- the standard Smallbank transaction mix --- *)

let balance_txn ctx _args =
  let cid = cust_id ctx in
  Wl.vf (balance_of ctx "savings" cid +. balance_of ctx "checking" cid)

let deposit_checking ctx args =
  let amt = arg_float args 0 in
  if amt < 0. then abort "negative deposit";
  let cid = cust_id ctx in
  set_balance ctx "checking" cid (balance_of ctx "checking" cid +. amt);
  Value.Null

let write_check ctx args =
  let amt = arg_float args 0 in
  let cid = cust_id ctx in
  let total = balance_of ctx "savings" cid +. balance_of ctx "checking" cid in
  let penalty = if amt > total then 1. else 0. in
  set_balance ctx "checking" cid
    (balance_of ctx "checking" cid -. amt -. penalty);
  Value.Null

(* amalgamate(dst): zero this customer's accounts, deposit the sum into the
   destination's checking account. *)
let amalgamate ctx args =
  let dst = arg_str args 0 in
  let cid = cust_id ctx in
  let total = balance_of ctx "savings" cid +. balance_of ctx "checking" cid in
  set_balance ctx "savings" cid 0.;
  set_balance ctx "checking" cid 0.;
  let f =
    ctx.call ~reactor:dst ~proc:"deposit_checking" ~args:[ Wl.vf total ]
  in
  ignore (f.get ());
  Value.Null

let send_payment ctx args =
  let dst = arg_str args 0 and amt = arg_float args 1 in
  let cid = cust_id ctx in
  let bal = balance_of ctx "checking" cid in
  if bal < amt then abort "insufficient checking funds";
  set_balance ctx "checking" cid (bal -. amt);
  let f =
    ctx.call ~reactor:dst ~proc:"deposit_checking" ~args:[ Wl.vf amt ]
  in
  ignore (f.get ());
  Value.Null

(* send_payment_multi(amt, dsts...): pay [amt] to each destination out of
   the source's checking account. The shared debit/overdraft logic runs on
   the source; [fan_out] selects the sequential formulation (credit each
   destination and synchronize before the next) or the parallel one (fan
   every credit out, then join at a collect barrier). *)
let send_payment_multi ~fan_out ctx args =
  match args with
  | amt :: dsts ->
    let amt = Value.to_number amt in
    if amt <= 0. then abort "non-positive payment";
    let cid = cust_id ctx in
    let total = amt *. float_of_int (List.length dsts) in
    let bal = balance_of ctx "checking" cid in
    if bal < total then abort "insufficient checking funds";
    set_balance ctx "checking" cid (bal -. total);
    if fan_out then
      ignore
        (ctx.collect
           (List.map
              (fun dst ->
                ctx.call ~reactor:(Value.to_str dst) ~proc:"deposit_checking"
                  ~args:[ Wl.vf amt ])
              dsts))
    else
      List.iter
        (fun dst ->
          let f =
            ctx.call ~reactor:(Value.to_str dst) ~proc:"deposit_checking"
              ~args:[ Wl.vf amt ]
          in
          ignore (f.get ()))
        dsts;
    Value.Null
  | [] -> abort "send_payment_multi: missing amount"

(* sum_all(custs...): this customer's total balance plus every listed
   customer's, gathered through a fan-out/collect of [balance] reads.
   Declared read-only: under snapshots the whole sum resolves against one
   frozen epoch, so summed over all customers it always equals the loaded
   total — the conservation audit for snapshot consistency. *)
let sum_all ctx args =
  let cid = cust_id ctx in
  let own = balance_of ctx "savings" cid +. balance_of ctx "checking" cid in
  let remote =
    ctx.collect
      (List.map
         (fun c -> ctx.call ~reactor:(Value.to_str c) ~proc:"balance" ~args:[])
         args)
  in
  Wl.vf (List.fold_left (fun acc v -> acc +. Value.to_number v) own remote)

(* Empty transaction for containerization-overhead measurements (App. F.3). *)
let noop _ctx _args = Value.Null

let customer_type =
  rtype ~name:"Customer"
    ~schemas:[ account_schema; savings_schema; checking_schema ]
    ~procs:
      [
        ("transact_saving", transact_saving);
        ("transact_checking", transact_checking);
        ("transfer_seq", transfer ~seq:true);
        ("transfer_ovp", transfer ~seq:false);
        ( "multi_transfer_sync",
          multi_transfer_sync ~transfer_proc:"transfer_seq" );
        ( "multi_transfer_partial",
          multi_transfer_sync ~transfer_proc:"transfer_ovp" );
        ("multi_transfer_fully_async", multi_transfer_fully_async);
        ("multi_transfer_opt", multi_transfer_opt);
        ("multi_transfer_collect", multi_transfer_collect);
        ("balance", balance_txn);
        ("deposit_checking", deposit_checking);
        ("write_check", write_check);
        ("amalgamate", amalgamate);
        ("send_payment", send_payment);
        ("send_payment_multi_seq", send_payment_multi ~fan_out:false);
        ("send_payment_multi_par", send_payment_multi ~fan_out:true);
        ("sum_all", sum_all);
        ("noop", noop);
      ]
    ~readonly:[ "balance"; "sum_all" ]
    ~morphs:
      [
        ("multi_transfer_sync", "multi_transfer_collect");
        ("send_payment_multi_seq", "send_payment_multi_par");
      ]
    ()

(* --- declaration --- *)

let customer_name i = Printf.sprintf "c%d" i
let customers n = List.init n customer_name

let default_initial = 10_000.

(** [decl ~customers:n ~initial] — [n] customer reactors, each loaded with
    [initial] in savings and in checking. *)
let decl ~customers:n ?(initial = default_initial) () =
  let loader i catalog =
    Wl.load catalog "account" [| Wl.vs (customer_name i); Wl.vi i |];
    Wl.load catalog "savings" [| Wl.vi i; Wl.vf initial |];
    Wl.load catalog "checking" [| Wl.vi i; Wl.vf initial |]
  in
  Reactor.decl ~types:[ customer_type ]
    ~reactors:(List.map (fun c -> (c, "Customer")) (customers n))
    ~loaders:(List.init n (fun i -> (customer_name i, loader i)))
    ()

(** The four multi-transfer formulations of §4.1.4, plus the explicit
    fork–join [Collect] formulation (same sub-call fan-out as [Opt], joined
    with {!Reactor.ctx.collect}). *)
type formulation = Fully_sync | Partially_async | Fully_async | Opt | Collect

let formulation_proc = function
  | Fully_sync -> "multi_transfer_sync"
  | Partially_async -> "multi_transfer_partial"
  | Fully_async -> "multi_transfer_fully_async"
  | Opt -> "multi_transfer_opt"
  | Collect -> "multi_transfer_collect"

let formulation_name = function
  | Fully_sync -> "fully-sync"
  | Partially_async -> "partially-async"
  | Fully_async -> "fully-async"
  | Opt -> "opt"
  | Collect -> "collect"

(** Deployment morphing (Shah 2022): which multi-transfer formulation the
    deployment's {!Reactdb.Config.morph} knob selects — sequential
    deployments run fully-sync, parallel (shared-nothing-async) ones run
    the collect fan-out. Under [Auto] the builder emits the sequential
    formulation and the backend morphs per root via the declared
    {!Reactor.rtype.rt_morphs} pairs. *)
let formulation_for config =
  match config.Reactdb.Config.morph with
  | Reactdb.Config.Sequential | Reactdb.Config.Auto -> Fully_sync
  | Reactdb.Config.Parallel -> Collect

(** Build a multi-transfer request from explicit source and destinations. *)
let multi_transfer_request form ~src ~dests ~amount =
  Wl.request src (formulation_proc form)
    (Wl.vf amount :: List.map Wl.vs dests)

(** Multi-payment request morphed by the deployment: sequential
    deployments credit one destination at a time, parallel ones fan out
    and collect. *)
let send_payment_multi_request config ~src ~dests ~amount =
  let proc =
    match config.Reactdb.Config.morph with
    | Reactdb.Config.Sequential | Reactdb.Config.Auto ->
      "send_payment_multi_seq"
    | Reactdb.Config.Parallel -> "send_payment_multi_par"
  in
  Wl.request src proc (Wl.vf amount :: List.map Wl.vs dests)

(** Generator for the standard Smallbank mix over [n] customers (uniform
    choice). Mix weights follow the H-Store distribution: balance 15%,
    deposit-checking 15%, transact-savings 15%, write-check 15%,
    amalgamate 15%, send-payment 25%. *)
let gen_standard rng ~n =
  let c () = customer_name (Rng.int rng n) in
  let other excl =
    customer_name (Rng.pick_except rng n (int_of_string
      (String.sub excl 1 (String.length excl - 1))))
  in
  let amt () = Wl.vf (float_of_int (1 + Rng.int rng 100)) in
  match Rng.int rng 100 with
  | x when x < 15 -> Wl.request (c ()) "balance" []
  | x when x < 30 -> Wl.request (c ()) "deposit_checking" [ amt () ]
  | x when x < 45 -> Wl.request (c ()) "transact_saving" [ amt () ]
  | x when x < 60 -> Wl.request (c ()) "write_check" [ amt () ]
  | x when x < 75 ->
    let src = c () in
    Wl.request src "amalgamate" [ Wl.vs (other src) ]
  | _ ->
    let src = c () in
    Wl.request src "send_payment" [ Wl.vs (other src); Wl.vf 1. ]

(** Money-conserving variant of the standard mix, for runs audited with the
    conservation invariant: the standard mix's deposit/withdraw programs
    ([transact_saving], [deposit_checking], [write_check]) legitimately
    change the total, so they are replaced by [balance] reads, keeping the
    standard mix's 60% single-container / 40% cross-container split
    (amalgamate 15%, send-payment 25%). Every transaction either conserves
    the physical total or aborts. *)
let gen_conserving rng ~n =
  let c () = customer_name (Rng.int rng n) in
  let other excl =
    customer_name (Rng.pick_except rng n (int_of_string
      (String.sub excl 1 (String.length excl - 1))))
  in
  match Rng.int rng 100 with
  | x when x < 60 -> Wl.request (c ()) "balance" []
  | x when x < 75 ->
    let src = c () in
    Wl.request src "amalgamate" [ Wl.vs (other src) ]
  | _ ->
    let src = c () in
    Wl.request src "send_payment" [ Wl.vs (other src); Wl.vf 1. ]

(** Zipf-skewed, money-conserving mix with a tunable read fraction: with
    probability [read_frac] a [balance] read of a zipf-chosen customer
    (declared read-only, so it runs as an abort-free snapshot when
    snapshots are on); otherwise a conserving writer — amalgamate (3/8)
    or send-payment (5/8) — rooted at a zipf-chosen customer. The skew
    concentrates readers and writers on the same hot customers, which is
    what makes the OCC read path retry under contention. *)
let gen_conserving_zipf rng ~zipf ~n ~read_frac =
  let c () = customer_name (Rng.Zipf.next rng zipf) in
  let other excl =
    customer_name (Rng.pick_except rng n (int_of_string
      (String.sub excl 1 (String.length excl - 1))))
  in
  if Rng.float rng 1. < read_frac then Wl.request (c ()) "balance" []
  else if Rng.int rng 8 < 3 then begin
    let src = c () in
    Wl.request src "amalgamate" [ Wl.vs (other src) ]
  end
  else begin
    let src = c () in
    Wl.request src "send_payment" [ Wl.vs (other src); Wl.vf 1. ]
  end

let loaded_money ~customers =
  float_of_int customers *. 2. *. default_initial

(** Sum of all balances across all customer reactors — the conservation
    invariant used by tests (requires direct catalog access). *)
let total_money catalogs =
  List.fold_left
    (fun acc catalog ->
      let sum_tbl name =
        let tbl = Storage.Catalog.table catalog name in
        let s = ref 0. in
        Storage.Table.range tbl ~f:(fun r ->
            (if not r.Storage.Record.absent then
               match r.Storage.Record.data.(1) with
               | Value.Float f -> s := !s +. f
               | _ -> ());
            true);
        !s
      in
      acc +. sum_tbl "savings" +. sum_tbl "checking")
    0. catalogs
