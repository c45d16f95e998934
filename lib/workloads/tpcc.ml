(** TPC-C in the reactor model (§4.1.3).

    Each warehouse is a reactor encapsulating the nine TPC-C relations for
    its rows; the read-only [item] relation is replicated into every
    warehouse reactor (the standard choice for warehouse-partitioned TPC-C).
    All five transactions are implemented following the OLTP-Bench port the
    paper builds on, with its usual simplifications (no think times).

    Cross-reactor accesses arise exactly where the paper says they do:
    new-order items supplied by remote warehouses (grouped into one
    sub-transaction per distinct remote warehouse, invoked asynchronously
    and overlapped with home-warehouse processing) and payments by customers
    of remote warehouses. The [delay] argument reproduces the
    {e new-order-delay} variant of §4.3.2: µs of stock-replenishment
    computation per item, overlappable only across warehouses.

    Cardinalities are scaled-down but shape-preserving; see EXPERIMENTS.md. *)

open Util
open Reactor

type sizes = {
  districts : int;
  customers_per_district : int;
  items : int;
  preloaded_orders : int;  (** per district; last 30% undelivered *)
}

let default_sizes =
  { districts = 10; customers_per_district = 30; items = 100;
    preloaded_orders = 30 }

let small_sizes =
  { districts = 2; customers_per_district = 10; items = 20;
    preloaded_orders = 10 }

(* --- schemas --- *)

let s_warehouse =
  Storage.Schema.make ~name:"warehouse"
    ~columns:
      [ ("w_id", Value.TInt); ("name", Value.TStr); ("tax", Value.TFloat);
        ("ytd", Value.TFloat) ]
    ~key:[ "w_id" ]

let s_district =
  Storage.Schema.make ~name:"district"
    ~columns:
      [ ("d_id", Value.TInt); ("tax", Value.TFloat); ("ytd", Value.TFloat);
        ("next_o_id", Value.TInt) ]
    ~key:[ "d_id" ]

let s_customer =
  Storage.Schema.make ~name:"customer"
    ~columns:
      [ ("d_id", Value.TInt); ("c_id", Value.TInt); ("last", Value.TStr);
        ("first", Value.TStr); ("balance", Value.TFloat);
        ("ytd_payment", Value.TFloat); ("payment_cnt", Value.TInt);
        ("delivery_cnt", Value.TInt); ("credit", Value.TStr);
        ("data", Value.TStr) ]
    ~key:[ "d_id"; "c_id" ]

let s_history =
  Storage.Schema.make ~name:"history"
    ~columns:
      [ ("h_id", Value.TInt); ("d_id", Value.TInt); ("c_id", Value.TInt);
        ("c_w", Value.TStr); ("amount", Value.TFloat) ]
    ~key:[ "h_id" ]

let s_new_order =
  Storage.Schema.make ~name:"new_order"
    ~columns:[ ("d_id", Value.TInt); ("o_id", Value.TInt) ]
    ~key:[ "d_id"; "o_id" ]

let s_orders =
  Storage.Schema.make ~name:"orders"
    ~columns:
      [ ("d_id", Value.TInt); ("o_id", Value.TInt); ("c_id", Value.TInt);
        ("entry_d", Value.TFloat); ("carrier_id", Value.TInt);
        ("ol_cnt", Value.TInt); ("all_local", Value.TInt) ]
    ~key:[ "d_id"; "o_id" ]

let s_order_line =
  Storage.Schema.make ~name:"order_line"
    ~columns:
      [ ("d_id", Value.TInt); ("o_id", Value.TInt); ("ol_number", Value.TInt);
        ("i_id", Value.TInt); ("supply_w", Value.TStr);
        ("delivery_d", Value.TFloat); ("quantity", Value.TInt);
        ("amount", Value.TFloat); ("dist_info", Value.TStr) ]
    ~key:[ "d_id"; "o_id"; "ol_number" ]

let s_stock =
  Storage.Schema.make ~name:"stock"
    ~columns:
      [ ("i_id", Value.TInt); ("quantity", Value.TInt); ("ytd", Value.TInt);
        ("order_cnt", Value.TInt); ("remote_cnt", Value.TInt);
        ("dist_info", Value.TStr) ]
    ~key:[ "i_id" ]

let s_item =
  Storage.Schema.make ~name:"item"
    ~columns:
      [ ("i_id", Value.TInt); ("name", Value.TStr); ("price", Value.TFloat);
        ("data", Value.TStr) ]
    ~key:[ "i_id" ]

(* --- stored procedures --- *)

let geti = Value.to_int
let getf = Value.to_number
let gets = Value.to_str

(* Update one stock row per the spec's replenishment rule and return its
   dist_info. [delay] models stock-replenishment computation (§4.3.2). *)
let stock_update_one ctx ~i_id ~qty ~remote ~delay =
  if delay > 0. then ctx.db.Query.Exec.work delay;
  let dist = ref "" in
  let found =
    Query.Exec.update_key ctx.db "stock" [| Wl.vi i_id |] ~set:(fun row ->
        let s_qty = geti row.(1) in
        let s_qty' =
          if s_qty >= qty + 10 then s_qty - qty else s_qty - qty + 91
        in
        dist := gets row.(5);
        let row = Query.Exec.seti row 1 (Wl.vi s_qty') in
        let row = Query.Exec.seti row 2 (Wl.vi (geti row.(2) + qty)) in
        let row = Query.Exec.seti row 3 (Wl.vi (geti row.(3) + 1)) in
        if remote then Query.Exec.seti row 4 (Wl.vi (geti row.(4) + 1))
        else row)
  in
  if not found then abort "missing stock row";
  !dist

(* stock_updates(delay, k, (i_id qty) repeated):: remote leg of new-order; returns
   the dist_infos joined with '|'. *)
let stock_updates ctx args =
  let a = Array.of_list args in
  let delay = getf a.(0) in
  let k = geti a.(1) in
  let dists = ref [] in
  for j = 0 to k - 1 do
    let i_id = geti a.(2 + (2 * j)) and qty = geti a.(3 + (2 * j)) in
    dists := stock_update_one ctx ~i_id ~qty ~remote:true ~delay :: !dists
  done;
  Wl.vs (String.concat "|" (List.rev !dists))

let item_price ctx i_id =
  if i_id < 0 then abort "invalid item";
  match Query.Exec.get ctx.db "item" [| Wl.vi i_id |] with
  | Some row -> getf row.(2)
  | None -> abort "unknown item"

(* new_order(d_id, c_id, delay, now, n, (i_id supply qty) repeated) -> o_id.
   [mode] picks the program variant: [`Sync] forces each remote stock
   sub-transaction's future immediately after invocation (the
   shared-nothing-sync variant of §3.3); [`Async] defers each future's get
   until its order lines are inserted; [`Collect] joins all remote groups
   at one collect barrier after the local items are handled (the
   per-item-fan-out formulation of the intra-transaction-parallelism
   evaluation). All three issue identical sub-calls and insert identical
   rows in identical order. [project_tax] reads the warehouse row as the
   spec's [SELECT w_tax], a projected read that payments' [ytd] installs
   leave valid; without it the read takes the whole row. *)
let new_order ~mode ~project_tax ctx args =
  let a = Array.of_list args in
  let d_id = geti a.(0) and c_id = geti a.(1) in
  let delay = getf a.(2) and now = getf a.(3) in
  let n = geti a.(4) in
  let item_at j = (geti a.(5 + (3 * j)), gets a.(6 + (3 * j)), geti a.(7 + (3 * j))) in
  (* Home-warehouse reads: taxes, district sequence, customer. *)
  let _w_tax =
    let cols = if project_tax then Some [ "tax" ] else None in
    match Query.Exec.get ?cols ctx.db "warehouse" [| Wl.vi 1 |] with
    | Some row -> getf row.(if project_tax then 0 else 2)
    | None -> abort "missing warehouse row"
  in
  let o_id = ref 0 in
  let ok =
    Query.Exec.update_key ctx.db "district" [| Wl.vi d_id |] ~set:(fun row ->
        o_id := geti row.(3);
        Query.Exec.seti row 3 (Wl.vi (geti row.(3) + 1)))
  in
  if not ok then abort "missing district row";
  let o_id = !o_id in
  (match Query.Exec.get ctx.db "customer" [| Wl.vi d_id; Wl.vi c_id |] with
  | Some _ -> ()
  | None -> abort "missing customer row");
  let items = List.init n item_at in
  let all_local =
    if List.for_all (fun (_, s, _) -> s = ctx.self) items then 1 else 0
  in
  Query.Exec.insert ctx.db "orders"
    [| Wl.vi d_id; Wl.vi o_id; Wl.vi c_id; Wl.vf now; Wl.vi 0; Wl.vi n;
       Wl.vi all_local |];
  Query.Exec.insert ctx.db "new_order" [| Wl.vi d_id; Wl.vi o_id |];
  (* Group remote items by supplying warehouse; launch one asynchronous
     sub-transaction per distinct remote warehouse, then handle local items
     while those are in flight. *)
  let numbered = List.mapi (fun j it -> (j + 1, it)) items in
  let remote_groups = Hashtbl.create 4 in
  let locals = ref [] in
  List.iter
    (fun (ol, (i_id, supply, qty)) ->
      if supply = ctx.self then locals := (ol, i_id, qty) :: !locals
      else
        Hashtbl.replace remote_groups supply
          ((ol, i_id, qty)
          :: Option.value ~default:[] (Hashtbl.find_opt remote_groups supply)))
    numbered;
  let futures =
    Hashtbl.fold
      (fun supply group acc ->
        let group = List.rev group in
        let args =
          Wl.vf delay
          :: Wl.vi (List.length group)
          :: List.concat_map (fun (_, i_id, qty) -> [ Wl.vi i_id; Wl.vi qty ]) group
        in
        let f = ctx.call ~reactor:supply ~proc:"stock_updates" ~args in
        (match mode with `Sync -> ignore (f.get ()) | `Async | `Collect -> ());
        (supply, group, f) :: acc)
      remote_groups []
  in
  let insert_ol ~ol ~i_id ~supply ~qty ~dist =
    let price = item_price ctx i_id in
    Query.Exec.insert ctx.db "order_line"
      [| Wl.vi d_id; Wl.vi o_id; Wl.vi ol; Wl.vi i_id; Wl.vs supply; Wl.vf 0.;
         Wl.vi qty; Wl.vf (price *. float_of_int qty); Wl.vs dist |]
  in
  List.iter
    (fun (ol, i_id, qty) ->
      let dist = stock_update_one ctx ~i_id ~qty ~remote:false ~delay in
      insert_ol ~ol ~i_id ~supply:ctx.self ~qty ~dist)
    (List.rev !locals);
  let insert_group (supply, group) res =
    let dists = String.split_on_char '|' (gets res) in
    List.iter2
      (fun (ol, i_id, qty) dist -> insert_ol ~ol ~i_id ~supply ~qty ~dist)
      group dists
  in
  (match mode with
  | `Collect ->
    (* One barrier over every remote group: out-of-order completion, then
       order lines inserted in the same (group) order as the other modes. *)
    let results = ctx.collect (List.map (fun (_, _, f) -> f) futures) in
    List.iter2
      (fun (supply, group, _) res -> insert_group (supply, group) res)
      futures results
  | `Sync | `Async ->
    List.iter
      (fun (supply, group, future) ->
        insert_group (supply, group) (future.get ()))
      futures);
  Wl.vi o_id

(* Select a customer by last name through the (d_id, last) secondary index:
   all matches ordered by first name, take the middle one (spec clause
   2.5.2.2). *)
let customer_by_last ctx d_id last =
  let rows =
    Query.Exec.scan_index ctx.db "customer" ~index:"by_last"
      ~prefix:[| Wl.vi d_id; Wl.vs last |]
      ()
  in
  let rows = List.sort (fun a b -> Value.compare a.(3) b.(3)) rows in
  match rows with
  | [] -> abort "no customer with that last name"
  | _ -> List.nth rows (List.length rows / 2)

(* payment_customer(d_id, c_id, c_last, amount) -> c_id actually charged.
   Runs on the customer's home warehouse (possibly remote to the payment). *)
let payment_customer ctx args =
  let d_id = geti (arg args 0) in
  let c_id = geti (arg args 1) in
  let c_last = gets (arg args 2) in
  let amount = getf (arg args 3) in
  let c_id =
    if c_last = "" then c_id else geti (customer_by_last ctx d_id c_last).(1)
  in
  let ok =
    Query.Exec.update_key ctx.db "customer" [| Wl.vi d_id; Wl.vi c_id |]
      ~set:(fun row ->
        let row = Query.Exec.seti row 4 (Wl.vf (getf row.(4) -. amount)) in
        let row = Query.Exec.seti row 5 (Wl.vf (getf row.(5) +. amount)) in
        Query.Exec.seti row 6 (Wl.vi (geti row.(6) + 1)))
  in
  if not ok then abort "missing customer row";
  Wl.vi c_id

(* payment(h_id, d_id, c_id, c_last, amount, cust_warehouse). [collect]
   selects the join style: the plain formulation forces the customer
   update's future directly, the Collect formulation joins it at an
   explicit collect barrier after the home-warehouse bookkeeping — the
   fork–join shape the cost model prices as a node with one asynchronous
   child. Both issue identical sub-calls and write identical rows. *)
let payment ~collect ctx args =
  let a = Array.of_list args in
  let h_id = geti a.(0) and d_id = geti a.(1) and c_id = geti a.(2) in
  let c_last = gets a.(3) and amount = getf a.(4) in
  let cust_w = gets a.(5) in
  (* Launch the (possibly remote) customer update first so it overlaps the
     home-warehouse bookkeeping. A call to self is inlined. *)
  let fcust =
    ctx.call ~reactor:cust_w ~proc:"payment_customer"
      ~args:[ Wl.vi d_id; Wl.vi c_id; Wl.vs c_last; Wl.vf amount ]
  in
  let ok =
    Query.Exec.update_key ctx.db "warehouse" [| Wl.vi 1 |] ~set:(fun row ->
        Query.Exec.seti row 3 (Wl.vf (getf row.(3) +. amount)))
  in
  if not ok then abort "missing warehouse row";
  let ok =
    Query.Exec.update_key ctx.db "district" [| Wl.vi d_id |] ~set:(fun row ->
        Query.Exec.seti row 2 (Wl.vf (getf row.(2) +. amount)))
  in
  if not ok then abort "missing district row";
  let charged =
    if collect then
      match ctx.collect [ fcust ] with
      | [ v ] -> geti v
      | _ -> abort "payment_collect: collect arity"
    else geti (fcust.get ())
  in
  Query.Exec.insert ctx.db "history"
    [| Wl.vi h_id; Wl.vi d_id; Wl.vi charged; Wl.vs cust_w; Wl.vf amount |];
  Value.Null

(* order_status(d_id, c_id, c_last) -> balance of last order's customer *)
let order_status ctx args =
  let d_id = geti (arg args 0) in
  let c_id = geti (arg args 1) in
  let c_last = gets (arg args 2) in
  let cust =
    if c_last = "" then
      match Query.Exec.get ctx.db "customer" [| Wl.vi d_id; Wl.vi c_id |] with
      | Some row -> row
      | None -> abort "missing customer row"
    else customer_by_last ctx d_id c_last
  in
  let c_id = geti cust.(1) in
  (match
     Query.Exec.scan_index ctx.db "orders" ~index:"by_cust"
       ~prefix:[| Wl.vi d_id; Wl.vi c_id |]
       ~rev:true ~limit:1 ()
   with
  | order :: _ ->
    let o_id = geti order.(1) in
    ignore
      (Query.Exec.scan ctx.db "order_line" ~prefix:[| Wl.vi d_id; Wl.vi o_id |] ())
  | [] -> ());
  Wl.vf (getf cust.(4))

(* One district's delivery leg: deliver its oldest undelivered order, if
   any. Shared by both delivery formulations. *)
let deliver_one ctx ~d_id ~carrier ~now =
  match Query.Exec.first ctx.db "new_order" ~prefix:[| Wl.vi d_id |] () with
  | None -> 0
  | Some no ->
    let o_id = geti no.(1) in
    ignore (Query.Exec.delete_key ctx.db "new_order" [| Wl.vi d_id; Wl.vi o_id |]);
    let c_id = ref 0 in
    let ok =
      Query.Exec.update_key ctx.db "orders" [| Wl.vi d_id; Wl.vi o_id |]
        ~set:(fun row ->
          c_id := geti row.(2);
          Query.Exec.seti row 4 (Wl.vi carrier))
    in
    if not ok then abort "missing order row";
    let total = ref 0. in
    ignore
      (Query.Exec.update ctx.db "order_line"
         ~prefix:[| Wl.vi d_id; Wl.vi o_id |]
         ~set:(fun row ->
           total := !total +. getf row.(7);
           Query.Exec.seti row 5 (Wl.vf now))
         ());
    let ok =
      Query.Exec.update_key ctx.db "customer" [| Wl.vi d_id; Wl.vi !c_id |]
        ~set:(fun row ->
          let row = Query.Exec.seti row 4 (Wl.vf (getf row.(4) +. !total)) in
          Query.Exec.seti row 7 (Wl.vi (geti row.(7) + 1)))
    in
    if not ok then abort "missing customer row";
    1

(* delivery(carrier, now) -> number of districts with a delivered order *)
let delivery ctx args =
  let carrier = geti (arg args 0) in
  let now = getf (arg args 1) in
  let districts = Query.Exec.scan ctx.db "district" () in
  Wl.vi
    (List.fold_left
       (fun acc drow ->
         acc + deliver_one ctx ~d_id:(geti drow.(0)) ~carrier ~now)
       0 districts)

(* deliver_district(d_id, carrier, now) -> 0/1: the per-district leg as a
   procedure, the fan-out unit of [delivery_collect]. *)
let deliver_district ctx args =
  let d_id = geti (arg args 0) in
  let carrier = geti (arg args 1) in
  let now = getf (arg args 2) in
  Wl.vi (deliver_one ctx ~d_id ~carrier ~now)

(* delivery_collect(carrier, now): the Collect formulation of delivery —
   one [deliver_district] sub-call per district, joined at a single collect
   barrier. Self-calls are inlined on both backends, so the formulations
   deliver identical orders in identical district order; the explicit
   fork–join shape is what the morph router and cost model act on. *)
let delivery_collect ctx args =
  let carrier = arg args 0 in
  let now = arg args 1 in
  let districts = Query.Exec.scan ctx.db "district" () in
  let futures =
    List.map
      (fun drow ->
        ctx.call ~reactor:ctx.self ~proc:"deliver_district"
          ~args:[ drow.(0); carrier; now ])
      districts
  in
  Wl.vi
    (List.fold_left
       (fun acc v -> acc + geti v)
       0 (ctx.collect futures))

(* stock_level(d_id, threshold) -> count of recent items under threshold *)
let stock_level ctx args =
  let d_id = geti (arg args 0) in
  let threshold = geti (arg args 1) in
  let next_o_id =
    match Query.Exec.get ctx.db "district" [| Wl.vi d_id |] with
    | Some row -> geti row.(3)
    | None -> abort "missing district row"
  in
  let lo = Stdlib.max 1 (next_o_id - 20) in
  let lines =
    Query.Exec.scan ctx.db "order_line"
      ~lo:[| Wl.vi d_id; Wl.vi lo |]
      ~hi:[| Wl.vi d_id; Wl.vi (next_o_id - 1); Wl.vi max_int |]
      ()
  in
  let seen = Hashtbl.create 32 in
  List.iter (fun row -> Hashtbl.replace seen (geti row.(3)) ()) lines;
  let low = ref 0 in
  Hashtbl.iter
    (fun i_id () ->
      match Query.Exec.get ctx.db "stock" [| Wl.vi i_id |] with
      | Some srow -> if geti srow.(1) < threshold then incr low
      | None -> ())
    seen;
  Wl.vi !low

let warehouse_type_of ~project_tax =
  let new_order = new_order ~project_tax in
  rtype ~name:"Warehouse"
    ~schemas:
      [ s_warehouse; s_district; s_customer; s_history; s_new_order; s_orders;
        s_order_line; s_stock; s_item ]
    ~indexes:
      [ ("customer", [ ("by_last", [ "d_id"; "last" ]) ]);
        ("orders", [ ("by_cust", [ "d_id"; "c_id" ]) ]) ]
    ~procs:
      [
        ("new_order", new_order ~mode:`Async);
        ("new_order_sync", new_order ~mode:`Sync);
        ("new_order_collect", new_order ~mode:`Collect);
        ("stock_updates", stock_updates);
        ("payment", payment ~collect:false);
        ("payment_collect", payment ~collect:true);
        ("payment_customer", payment_customer);
        ("order_status", order_status);
        ("delivery", delivery);
        ("deliver_district", deliver_district);
        ("delivery_collect", delivery_collect);
        ("stock_level", stock_level);
      ]
    ~readonly:[ "order_status"; "stock_level" ]
    ~morphs:
      [
        ("new_order_sync", "new_order_collect");
        ("payment", "payment_collect");
        ("delivery", "delivery_collect");
      ]
    ()

let warehouse_type = warehouse_type_of ~project_tax:true

(* --- loading --- *)

let warehouse_name i = Printf.sprintf "w%d" i
let warehouses n = List.init n (fun i -> warehouse_name (i + 1))

let syllables =
  [| "BAR"; "OUGHT"; "ABLE"; "PRI"; "PRES"; "ESE"; "ANTI"; "CALLY"; "ATION";
     "EING" |]

let last_name num =
  syllables.(num / 100 mod 10) ^ syllables.(num / 10 mod 10)
  ^ syllables.(num mod 10)

let w_ytd_at_load = 300_000.
let d_ytd_at_load = 30_000.

let load_warehouse sizes seed _w catalog =
  let rng = Rng.create seed in
  Wl.load catalog "warehouse"
    [| Wl.vi 1; Wl.vs (Rng.alphastring rng 8); Wl.vf (Rng.float rng 0.2);
       Wl.vf w_ytd_at_load |];
  for i = 1 to sizes.items do
    Wl.load catalog "item"
      [| Wl.vi i; Wl.vs (Rng.alphastring rng 12);
         Wl.vf (1. +. Rng.float rng 99.); Wl.vs (Rng.alphastring rng 20) |];
    Wl.load catalog "stock"
      [| Wl.vi i; Wl.vi (10 + Rng.int rng 91); Wl.vi 0; Wl.vi 0; Wl.vi 0;
         Wl.vs (Rng.alphastring rng 24) |]
  done;
  for d = 1 to sizes.districts do
    Wl.load catalog "district"
      [| Wl.vi d; Wl.vf (Rng.float rng 0.2); Wl.vf d_ytd_at_load;
         Wl.vi (sizes.preloaded_orders + 1) |];
    for c = 1 to sizes.customers_per_district do
      Wl.load catalog "customer"
        [| Wl.vi d; Wl.vi c; Wl.vs (last_name (c - 1));
           Wl.vs (Rng.alphastring rng 8); Wl.vf (-10.); Wl.vf 10.; Wl.vi 1;
           Wl.vi 0; Wl.vs (if Rng.int rng 10 = 0 then "BC" else "GC");
           Wl.vs (Rng.alphastring rng 30) |]
    done;
    (* Preloaded orders: the most recent 30% are undelivered. *)
    let delivered_upto = sizes.preloaded_orders * 7 / 10 in
    for o = 1 to sizes.preloaded_orders do
      let c = 1 + Rng.int rng sizes.customers_per_district in
      let ol_cnt = 5 + Rng.int rng 11 in
      let carrier = if o <= delivered_upto then 1 + Rng.int rng 10 else 0 in
      Wl.load catalog "orders"
        [| Wl.vi d; Wl.vi o; Wl.vi c; Wl.vf 0.; Wl.vi carrier; Wl.vi ol_cnt;
           Wl.vi 1 |];
      if carrier = 0 then Wl.load catalog "new_order" [| Wl.vi d; Wl.vi o |];
      for ol = 1 to ol_cnt do
        let i_id = 1 + Rng.int rng sizes.items in
        Wl.load catalog "order_line"
          [| Wl.vi d; Wl.vi o; Wl.vi ol; Wl.vi i_id; Wl.vs (warehouse_name 1);
             Wl.vf (if carrier = 0 then 0. else 1.); Wl.vi (1 + Rng.int rng 10);
             Wl.vf (Rng.float rng 9_999.); Wl.vs (Rng.alphastring rng 24) |]
      done
    done
  done

(** [decl ~warehouses:n ~sizes ()] — [n] warehouse reactors, fully loaded. *)
let decl ~warehouses:n ?(sizes = default_sizes) ?(project_tax = true) () =
  let ws = warehouses n in
  Reactor.decl ~types:[ warehouse_type_of ~project_tax ]
    ~reactors:(List.map (fun w -> (w, "Warehouse")) ws)
    ~loaders:(List.mapi (fun i w -> (w, load_warehouse sizes (7_000 + i) w)) ws)
    ()

(* --- input generation --- *)

(** How new-order picks remote items: [Per_item p] draws each item from a
    remote warehouse with probability [p] (§4.3.2); [One_item p] makes the
    whole transaction cross-reactor with probability [p] by drawing exactly
    one item remotely (App. E's x-axis). *)
type remote_mode = Per_item of float | One_item of float

type params = {
  n_warehouses : int;
  sizes : sizes;
  remote_mode : remote_mode;
  remote_payment_prob : float;  (** probability the customer is remote *)
  delay_lo : float;
  delay_hi : float;  (** per-item stock-replenishment delay range, µs *)
  sync_new_order : bool;  (** use the new_order_sync program variant *)
  no_proc : string;  (** new-order procedure generated requests invoke *)
  pay_proc : string;  (** payment procedure generated requests invoke *)
  dlv_proc : string;  (** delivery procedure generated requests invoke *)
}

let params ?(sizes = default_sizes) ?(remote_mode = Per_item 0.01)
    ?(remote_payment_prob = 0.15) ?(delay_lo = 0.) ?(delay_hi = 0.)
    ?(sync_new_order = false) ?new_order_proc ?(payment_proc = "payment")
    ?(delivery_proc = "delivery") n_warehouses =
  let no_proc =
    match new_order_proc with
    | Some p -> p
    | None -> if sync_new_order then "new_order_sync" else "new_order"
  in
  { n_warehouses; sizes; remote_mode; remote_payment_prob; delay_lo;
    delay_hi; sync_new_order; no_proc; pay_proc = payment_proc;
    dlv_proc = delivery_proc }

(** The new-order variant a deployment morph selects: sequential
    deployments run [new_order_sync], parallel (shared-nothing-async) ones
    run the collect fan-out. *)
let new_order_proc_for config =
  match config.Reactdb.Config.morph with
  | Reactdb.Config.Sequential | Reactdb.Config.Auto -> "new_order_sync"
  | Reactdb.Config.Parallel -> "new_order_collect"

(** The payment variant a deployment morph selects: the plain future-get
    join on sequential deployments, the collect-barrier join on parallel
    ones. *)
let payment_proc_for config =
  match config.Reactdb.Config.morph with
  | Reactdb.Config.Sequential | Reactdb.Config.Auto -> "payment"
  | Reactdb.Config.Parallel -> "payment_collect"

(** The delivery variant a deployment morph selects: the in-line district
    loop on sequential deployments, the per-district fan-out/collect on
    parallel ones. *)
let delivery_proc_for config =
  match config.Reactdb.Config.morph with
  | Reactdb.Config.Sequential | Reactdb.Config.Auto -> "delivery"
  | Reactdb.Config.Parallel -> "delivery_collect"

let nurand_customer rng sizes =
  let c = sizes.customers_per_district in
  if c <= 1 then 1
  else 1 + Rng.nurand rng ~a:(Stdlib.min 1023 (c - 1)) ~c:259 ~x:0 ~y:(c - 1)

let nurand_item rng sizes =
  let n = sizes.items in
  if n <= 1 then 1
  else 1 + Rng.nurand rng ~a:(Stdlib.min 8191 (n - 1)) ~c:7911 ~x:0 ~y:(n - 1)

let pick_remote_warehouse rng p ~home =
  if p.n_warehouses <= 1 then home
  else 1 + Rng.pick_except rng p.n_warehouses (home - 1)

(** New-order request for home warehouse [home] (1-based). [clock] supplies
    the order entry timestamp. *)
let gen_new_order rng p ~home ~clock =
  let d_id = 1 + Rng.int rng p.sizes.districts in
  let c_id = nurand_customer rng p.sizes in
  let n = 5 + Rng.int rng 11 in
  let delay =
    if p.delay_hi <= 0. then 0.
    else p.delay_lo +. Rng.float rng (p.delay_hi -. p.delay_lo)
  in
  let remote_slot =
    match p.remote_mode with
    | One_item prob when Rng.float rng 1. < prob -> Some (Rng.int rng n)
    | One_item _ -> None
    | Per_item _ -> None
  in
  let items =
    List.concat
      (List.init n (fun slot ->
           let i_id = nurand_item rng p.sizes in
           let remote =
             match p.remote_mode with
             | Per_item prob -> Rng.float rng 1. < prob
             | One_item _ -> remote_slot = Some slot
           in
           let supply =
             if remote then warehouse_name (pick_remote_warehouse rng p ~home)
             else warehouse_name home
           in
           [ Wl.vi i_id; Wl.vs supply; Wl.vi (1 + Rng.int rng 10) ]))
  in
  Wl.request (warehouse_name home) p.no_proc
    (Wl.vi d_id :: Wl.vi c_id :: Wl.vf delay :: Wl.vf clock :: Wl.vi n :: items)

let gen_payment rng p ~home ~h_id =
  let d_id = 1 + Rng.int rng p.sizes.districts in
  let by_name = Rng.int rng 100 < 60 in
  let c_id = nurand_customer rng p.sizes in
  let c_last = if by_name then last_name (c_id - 1) else "" in
  let cust_w =
    if Rng.float rng 1. < p.remote_payment_prob then
      warehouse_name (pick_remote_warehouse rng p ~home)
    else warehouse_name home
  in
  let amount = 1. +. Rng.float rng 4_999. in
  Wl.request (warehouse_name home) p.pay_proc
    [ Wl.vi h_id; Wl.vi d_id; Wl.vi c_id; Wl.vs c_last; Wl.vf amount;
      Wl.vs cust_w ]

let gen_order_status rng p ~home =
  let d_id = 1 + Rng.int rng p.sizes.districts in
  let by_name = Rng.int rng 100 < 60 in
  let c_id = nurand_customer rng p.sizes in
  let c_last = if by_name then last_name (c_id - 1) else "" in
  Wl.request (warehouse_name home) "order_status"
    [ Wl.vi d_id; Wl.vi c_id; Wl.vs c_last ]

let gen_delivery ?(proc = "delivery") rng ~home ~clock =
  Wl.request (warehouse_name home) proc
    [ Wl.vi (1 + Rng.int rng 10); Wl.vf clock ]

let gen_stock_level rng p ~home =
  let d_id = 1 + Rng.int rng p.sizes.districts in
  Wl.request (warehouse_name home) "stock_level"
    [ Wl.vi d_id; Wl.vi (10 + Rng.int rng 11) ]

(** The standard TPC-C mix: 45% new-order, 43% payment, 4% order-status,
    4% delivery, 4% stock-level. [seq] provides unique ids (history keys)
    and the logical clock. *)
let gen_mix rng p ~home ~seq =
  incr seq;
  let clock = float_of_int !seq in
  match Rng.int rng 100 with
  | x when x < 45 -> gen_new_order rng p ~home ~clock
  | x when x < 88 -> gen_payment rng p ~home ~h_id:!seq
  | x when x < 92 -> gen_order_status rng p ~home
  | x when x < 96 -> gen_delivery ~proc:p.dlv_proc rng ~home ~clock
  | _ -> gen_stock_level rng p ~home
