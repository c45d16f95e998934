open Util

type charge_kind = [ `Read | `Write | `Scan_step ]

type ctx = {
  txn : Occ.Txn.t;
  container : int;
  catalog : Storage.Catalog.t;
  charge : charge_kind -> int -> unit;
  work : float -> unit;
  snapshot : int option;
      (* read-only snapshot epoch: reads resolve through version chains at
         this epoch with no read-set tracking, no node witnesses and no
         own-write overlay; mutations abort *)
}

let make_ctx ?snapshot ~txn ~container ~catalog ~charge ~work () =
  { txn; container; catalog; charge; work; snapshot }

let table ctx name =
  try Storage.Catalog.table ctx.catalog name
  with Not_found -> invalid_arg (Printf.sprintf "Exec: no such table %S" name)

let schema ctx name = (table ctx name).Storage.Table.schema

(* Node witnesses only matter for OCC validation; snapshot readers take a
   consistent cut by construction and skip them. *)
let note_node ctx w =
  if ctx.snapshot = None then Occ.Txn.note_node ctx.txn ~container:ctx.container w

let on_node_opt ctx =
  if ctx.snapshot = None then Some (note_node ctx) else None

(* Visibility of a physical record to this context: the transaction's view
   (own writes win, observation recorded) or the frozen snapshot's. *)
let vis ctx record =
  match ctx.snapshot with
  | None -> Occ.Txn.read ctx.txn ~container:ctx.container record
  | Some s -> Storage.Record.snapshot_read record ~snapshot:s

let ro_guard ctx =
  if ctx.snapshot <> None then
    raise (Occ.Txn.Abort "mutation inside a read-only (snapshot) procedure")

(* A projected get finds the row as a whole-row get does, but records
   only the columns it returns, and returns only those. *)
let get ?cols ctx tname key =
  let tbl = table ctx tname in
  let idx =
    match cols with
    | None -> None
    | Some names ->
      let index c =
        try Storage.Schema.column_index tbl.Storage.Table.schema c
        with Not_found ->
          invalid_arg (Printf.sprintf "Exec.get: no column %S in %S" c tname)
      in
      Some (Array.of_list (List.map index names))
  in
  ctx.charge `Read 1;
  let row =
    match Occ.Txn.own_insert ctx.txn ~container:ctx.container ~table:tbl ~key with
    | Some e -> Some e.Occ.Txn.wrec.Storage.Record.data
    | None -> (
      match Storage.Table.find ?on_node:(on_node_opt ctx) tbl key, idx with
      | None, _ -> None
      | Some record, Some idx when ctx.snapshot = None ->
        let cols = Array.fold_left (fun m i -> m lor Storage.Table.col_bit i) 0 idx in
        Occ.Txn.read_cols ctx.txn ~container:ctx.container ~table:tbl ~cols record
      | Some record, _ -> vis ctx record)
  in
  match idx with
  | None -> row
  | Some idx -> Option.map (fun row -> Array.map (Array.get row) idx) row

let insert ctx tname tuple =
  ro_guard ctx;
  let tbl = table ctx tname in
  Occ.Txn.insert ctx.txn ~container:ctx.container ~table:tbl tuple;
  ctx.charge `Write 1

let resolve_bounds tbl ~prefix ~lo ~hi =
  match prefix, lo, hi with
  | Some p, None, None ->
    let l, h = Storage.Table.key_prefix_bounds p in
    (Some l, Some h)
  | Some _, _, _ -> invalid_arg "Exec: prefix cannot be combined with lo/hi"
  | None, l, h ->
    ignore tbl;
    (l, h)

(* Materialize the visible rows of [tbl] within bounds, in scan order:
   committed rows as filtered through the transaction's read/write sets,
   merged with the transaction's own buffered inserts. [phys_limit], when
   set, stops the physical scan after that many visible rows — sound
   because merging the (complete) own-insert set and re-cutting to the
   limit can only drop rows from the far end of the scan. *)
let visible_rows ?phys_limit ?(rev = false) ctx tbl ~lo ~hi =
  let steps = ref 0 in
  let taken = ref 0 in
  let phys = ref [] in
  let visit record =
    incr steps;
    (match vis ctx record with
    | Some data ->
      phys := (Storage.Table.key_of_tuple tbl data, data) :: !phys;
      incr taken
    | None -> ());
    match phys_limit with Some n -> !taken < n | None -> true
  in
  if rev then Storage.Table.range_rev ?lo ?hi ~on_node:(note_node ctx) tbl ~f:visit
  else Storage.Table.range ?lo ?hi ~on_node:(note_node ctx) tbl ~f:visit;
  ctx.charge `Scan_step (Stdlib.max 1 !steps);
  let in_bounds k =
    (match lo with Some l -> Storage.Table.Key.compare l k <= 0 | None -> true)
    && match hi with Some h -> Storage.Table.Key.compare k h <= 0 | None -> true
  in
  let own =
    List.filter
      (fun (k, _) -> in_bounds k)
      (Occ.Txn.own_inserts_for ctx.txn ~container:ctx.container ~table:tbl)
  in
  let rows = List.rev_append !phys own in
  let cmp (a, _) (b, _) =
    if rev then Storage.Table.Key.compare b a else Storage.Table.Key.compare a b
  in
  List.sort cmp rows

let matching ?phys_limit ?rev ctx tname ~prefix ~lo ~hi ~where =
  let tbl = table ctx tname in
  let lo, hi = resolve_bounds tbl ~prefix ~lo ~hi in
  let rows = visible_rows ?phys_limit ?rev ctx tbl ~lo ~hi in
  match where with
  | None -> (tbl, rows)
  | Some e ->
    let pred = Expr.compile_pred tbl.Storage.Table.schema e in
    (tbl, List.filter (fun (_, data) -> pred data) rows)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Like visible_rows but iterating a secondary index: rows come back in
   secondary-key order. Visibility is subtler than on the primary index
   because a buffered update may change indexed columns, logically moving
   the row within the index: physical visits are re-keyed under the row's
   VISIBLE tuple and bounds-filtered (a row updated out of the scanned range
   disappears), and buffered updates/inserts whose visible secondary key
   falls in range are overlaid (a row updated into the range appears),
   deduplicated by primary key. *)
let visible_rows_index ?phys_limit ?(rev = false) ctx tbl sec ~lo ~hi =
  let in_bounds k =
    (match lo with Some l -> Storage.Table.Key.compare l k <= 0 | None -> true)
    && match hi with Some h -> Storage.Table.Key.compare k h <= 0 | None -> true
  in
  let steps = ref 0 in
  let taken = ref 0 in
  let by_pk = Hashtbl.create 32 in
  let add data =
    let k = Storage.Table.sec_key_of tbl sec data in
    if in_bounds k then begin
      Hashtbl.replace by_pk (Storage.Table.key_of_tuple tbl data) (k, data);
      true
    end
    else false
  in
  let visit record =
    incr steps;
    (match vis ctx record with
    | Some data -> if add data then incr taken
    | None -> ());
    match phys_limit with Some n -> !taken < n | None -> true
  in
  Storage.Table.scan_secondary ?lo ?hi ~rev ~on_node:(note_node ctx) tbl
    ~index:sec.Storage.Table.sec_name ~f:visit;
  ctx.charge `Scan_step (Stdlib.max 1 !steps);
  List.iter
    (fun (_, data) -> ignore (add data))
    (Occ.Txn.own_updates_for ctx.txn ~container:ctx.container ~table:tbl);
  List.iter
    (fun (_, data) -> ignore (add data))
    (Occ.Txn.own_inserts_for ctx.txn ~container:ctx.container ~table:tbl);
  let rows = Hashtbl.fold (fun _ kd acc -> kd :: acc) by_pk [] in
  let cmp (a, _) (b, _) =
    if rev then Storage.Table.Key.compare b a else Storage.Table.Key.compare a b
  in
  List.sort cmp rows

let scan_index ctx tname ~index ?prefix ?lo ?hi ?where ?limit ?(rev = false) ()
    =
  let tbl = table ctx tname in
  let sec = Storage.Table.secondary tbl index in
  let lo, hi = resolve_bounds tbl ~prefix ~lo ~hi in
  let phys_limit = match where with None -> limit | Some _ -> None in
  let rows = visible_rows_index ?phys_limit ~rev ctx tbl sec ~lo ~hi in
  let rows =
    match where with
    | None -> rows
    | Some e ->
      let pred = Expr.compile_pred tbl.Storage.Table.schema e in
      List.filter (fun (_, data) -> pred data) rows
  in
  let rows = match limit with Some n -> take n rows | None -> rows in
  List.map snd rows

let scan ctx tname ?prefix ?lo ?hi ?where ?limit ?(rev = false) () =
  (* Limit pushdown: without a residual predicate the physical scan can stop
     at the limit. *)
  let phys_limit = match where with None -> limit | Some _ -> None in
  let _, rows = matching ?phys_limit ~rev ctx tname ~prefix ~lo ~hi ~where in
  let rows = match limit with Some n -> take n rows | None -> rows in
  List.map snd rows

let first ctx tname ?prefix ?lo ?hi ?where ?rev () =
  match scan ctx tname ?prefix ?lo ?hi ?where ~limit:1 ?rev () with
  | [] -> None
  | row :: _ -> Some row

let check_key_stable tbl ~key data =
  if Storage.Table.Key.compare (Storage.Table.key_of_tuple tbl data) key <> 0
  then raise (Occ.Txn.Abort "update may not change primary-key columns")

let update_key ctx tname key ~set =
  ro_guard ctx;
  let tbl = table ctx tname in
  ctx.charge `Read 1;
  match Occ.Txn.own_insert ctx.txn ~container:ctx.container ~table:tbl ~key with
  | Some e ->
    let data = set e.Occ.Txn.wrec.Storage.Record.data in
    check_key_stable tbl ~key data;
    e.Occ.Txn.wrec.Storage.Record.data <- data;
    ctx.charge `Write 1;
    true
  | None -> (
    match Storage.Table.find ~on_node:(note_node ctx) tbl key with
    | None -> false
    | Some record -> (
      match Occ.Txn.read ctx.txn ~container:ctx.container record with
      | None -> false
      | Some data ->
        let data' = set data in
        check_key_stable tbl ~key data';
        Occ.Txn.write ctx.txn ~container:ctx.container ~table:tbl ~key record
          data';
        ctx.charge `Write 1;
        true))

let delete_key ctx tname key =
  ro_guard ctx;
  let tbl = table ctx tname in
  ctx.charge `Read 1;
  match Occ.Txn.own_insert ctx.txn ~container:ctx.container ~table:tbl ~key with
  | Some e ->
    Occ.Txn.delete ctx.txn ~container:ctx.container ~table:tbl ~key
      e.Occ.Txn.wrec;
    ctx.charge `Write 1;
    true
  | None -> (
    match Storage.Table.find ~on_node:(note_node ctx) tbl key with
    | None -> false
    | Some record -> (
      match Occ.Txn.read ctx.txn ~container:ctx.container record with
      | None -> false
      | Some _ ->
        Occ.Txn.delete ctx.txn ~container:ctx.container ~table:tbl ~key record;
        ctx.charge `Write 1;
        true))

let update ctx tname ?prefix ?lo ?hi ?where ~set () =
  let tbl, rows = matching ctx tname ~prefix ~lo ~hi ~where in
  ignore tbl;
  List.fold_left
    (fun n (key, _) -> if update_key ctx tname key ~set then n + 1 else n)
    0 rows

let delete ctx tname ?prefix ?lo ?hi ?where () =
  let _, rows = matching ctx tname ~prefix ~lo ~hi ~where in
  List.fold_left
    (fun n (key, _) -> if delete_key ctx tname key then n + 1 else n)
    0 rows

let sum ctx tname colname ?prefix ?lo ?hi ?where () =
  let tbl, rows = matching ctx tname ~prefix ~lo ~hi ~where in
  let i = Storage.Schema.column_index tbl.Storage.Table.schema colname in
  List.fold_left
    (fun acc (_, data) ->
      match data.(i) with
      | Value.Null -> acc
      | v -> acc +. Value.to_number v)
    0. rows

let count ctx tname ?prefix ?lo ?hi ?where () =
  let _, rows = matching ctx tname ~prefix ~lo ~hi ~where in
  List.length rows

let distinct ctx tname colname ?prefix ?lo ?hi ?where () =
  let tbl, rows = matching ctx tname ~prefix ~lo ~hi ~where in
  let i = Storage.Schema.column_index tbl.Storage.Table.schema colname in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (_, data) ->
      let v = data.(i) in
      if Hashtbl.mem seen v then None
      else begin
        Hashtbl.add seen v ();
        Some v
      end)
    rows

let colv ctx tname colname data =
  data.(Storage.Schema.column_index (schema ctx tname) colname)

let seti data i v =
  let d = Array.copy data in
  d.(i) <- v;
  d
