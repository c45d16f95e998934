module RDb = Runtime.Db

let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e

let fatal db =
  if RDb.n_fatal db = 0 then Ok ()
  else
    Error
      (Printf.sprintf "%d internal errors (first: %s)" (RDb.n_fatal db)
         (match RDb.fatal_messages db with m :: _ -> m | [] -> "?"))

let money ~n cats =
  let expected = Workloads.Smallbank.loaded_money ~customers:n in
  let got = Workloads.Smallbank.total_money (List.map snd cats) in
  if Float.abs (got -. expected) < 1e-6 then Ok ()
  else
    Error
      (Printf.sprintf "money not conserved: expected %.1f, got %.1f" expected
         got)

let ycsb_rows cats =
  if
    List.for_all
      (fun (_, _, rows) -> List.length rows = 1)
      (Faultsim.snapshot cats)
  then Ok ()
  else Error "YCSB key reactor lost or duplicated its row"

let accounting ~committed ~aborted ~logical ~retries =
  if committed + aborted = logical + retries then Ok ()
  else
    Error
      (Printf.sprintf
         "attempt accounting: commits(%d) + aborts(%d) <> logical(%d) + \
          retries(%d)"
         committed aborted logical retries)

let secondaries cats =
  match Faultsim.check_secondaries cats with
  | Ok () -> Ok ()
  | Error m -> Error ("secondary-index audit: " ^ m)

let certify entries =
  match Histories.Certify.check entries with
  | Ok _ -> Ok (List.length entries)
  | Error m -> Error m

(* Live rows of [name] in [cat], and a column reader by name. *)
let live_rows cat name =
  let tbl = Storage.Catalog.table cat name in
  let out = ref [] in
  Storage.Table.range tbl ~f:(fun r ->
      if not r.Storage.Record.absent then out := r.Storage.Record.data :: !out;
      true);
  (tbl.Storage.Table.schema, !out)

let int_col schema c =
  let i = Storage.Schema.column_index schema c in
  fun row -> Util.Value.to_int row.(i)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let float_col schema c =
  let i = Storage.Schema.column_index schema c in
  fun row -> Util.Value.to_float row.(i)

let tpcc_warehouse w cat =
  let w_s, whs = live_rows cat "warehouse" in
  let d_s, districts = live_rows cat "district" in
  let o_s, orders = live_rows cat "orders" in
  let n_s, new_orders = live_rows cat "new_order" in
  let l_s, lines = live_rows cat "order_line" in
  let o_d = int_col o_s "d_id" and o_o = int_col o_s "o_id" in
  let o_carrier = int_col o_s "carrier_id" and o_cnt = int_col o_s "ol_cnt" in
  let order = Hashtbl.create 256 and max_o = Hashtbl.create 16 in
  List.iter
    (fun o ->
      let d = o_d o and id = o_o o in
      Hashtbl.replace order (d, id) o;
      match Hashtbl.find_opt max_o d with
      | Some m when m >= id -> ()
      | _ -> Hashtbl.replace max_o d id)
    orders;
  (* 1. the district's order sequence *)
  let d_d = int_col d_s "d_id" and d_next = int_col d_s "next_o_id" in
  List.iter
    (fun drow ->
      let d = d_d drow in
      let m = Option.value (Hashtbl.find_opt max_o d) ~default:0 in
      if d_next drow - 1 <> m then
        bad "%s district %d: next_o_id %d after max(o_id) %d" w d (d_next drow) m)
    districts;
  (* 1'. the spec's first condition, as growth since load: the
     warehouse's ytd grew by the sum of its districts' ytd growth. Payment
     amounts are arbitrary floats, summed in different orders. *)
  let w_ytd = float_col w_s "ytd" and d_ytd = float_col d_s "ytd" in
  let w_growth =
    List.fold_left (fun a wrow -> a +. w_ytd wrow -. Workloads.Tpcc.w_ytd_at_load) 0. whs
  in
  let d_growth =
    List.fold_left
      (fun a drow -> a +. d_ytd drow -. Workloads.Tpcc.d_ytd_at_load)
      0. districts
  in
  if Float.abs (w_growth -. d_growth) > 1e-6 *. (1. +. Float.abs w_growth) then
    bad "%s: warehouse ytd grew by %.2f, its districts' by %.2f" w w_growth
      d_growth;
  (* 2. every new-order is an undelivered order, and 3. per district the
     new-order o_ids are one contiguous range *)
  let n_d = int_col n_s "d_id" and n_o = int_col n_s "o_id" in
  let span = Hashtbl.create 16 in
  List.iter
    (fun no ->
      let d = n_d no and id = n_o no in
      (match Hashtbl.find_opt order (d, id) with
      | Some o when o_carrier o = 0 -> ()
      | Some _ -> bad "%s district %d: new_order %d of a delivered order" w d id
      | None -> bad "%s district %d: new_order %d without an order" w d id);
      let lo, hi, n =
        Option.value (Hashtbl.find_opt span d) ~default:(max_int, min_int, 0)
      in
      Hashtbl.replace span d (min lo id, max hi id, n + 1))
    new_orders;
  Hashtbl.iter
    (fun d (lo, hi, n) ->
      if hi - lo + 1 <> n then
        bad "%s district %d: %d new_orders over o_id %d..%d, not contiguous" w d n
          lo hi)
    span;
  (* 4. every order has exactly ol_cnt lines *)
  let l_d = int_col l_s "d_id" and l_o = int_col l_s "o_id" in
  let n_lines = Hashtbl.create 256 in
  List.iter
    (fun l ->
      let k = (l_d l, l_o l) in
      Hashtbl.replace n_lines k (1 + Option.value (Hashtbl.find_opt n_lines k) ~default:0))
    lines;
  Hashtbl.iter
    (fun (d, id) o ->
      let n = Option.value (Hashtbl.find_opt n_lines (d, id)) ~default:0 in
      if n <> o_cnt o then
        bad "%s district %d: order %d has %d lines, ol_cnt %d" w d id n (o_cnt o))
    order

let tpcc cats =
  try
    List.iter (fun (w, cat) -> tpcc_warehouse w cat) cats;
    Ok ()
  with Bad m -> Error ("tpcc consistency: " ^ m)
