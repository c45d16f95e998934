open Util

exception Sql_error of string

type result =
  | Rows of { cols : string list; rows : Value.t array list }
  | Affected of int

let err fmt = Printf.ksprintf (fun m -> raise (Sql_error m)) fmt

(* --- name environment: columns of the (possibly joined) row --- *)

type env = {
  (* (qualifier aliases that match, column name) per slot *)
  slots : (string list * string) array;
}

let env_of_schema ~names schema =
  {
    slots =
      Array.map
        (fun c -> (names, c.Storage.Schema.cname))
        schema.Storage.Schema.columns;
  }

let env_concat a b = { slots = Array.append a.slots b.slots }

let resolve env (qualifier, name) =
  let matches i =
    let quals, cname = env.slots.(i) in
    cname = name
    && match qualifier with Some q -> List.mem q quals | None -> true
  in
  let rec go i found =
    if i = Array.length env.slots then found
    else if matches i then
      match found with
      | Some _ -> err "ambiguous column %s" name
      | None -> go (i + 1) (Some i)
    else go (i + 1) found
  in
  match go 0 None with
  | Some i -> i
  | None ->
    err "unknown column %s%s"
      (match qualifier with Some q -> q ^ "." | None -> "")
      name

(* --- translation onto Query.Expr --- *)

(* A column keeps its SQL spelling, [q.c] or [c], inside [Query.Expr] and
   resolves against the row's environment when compiled. *)
let column env name =
  match String.split_on_char '.' name with
  | [ q; c ] -> resolve env (Some q, c)
  | _ -> resolve env (None, name)

let rec expr ?(params = []) e =
  let tr = expr ~params in
  match e with
  | Ast.Col (Some q, c) -> Query.Expr.Col (q ^ "." ^ c)
  | Ast.Col (None, c) -> Col c
  | Ast.Lit v -> Const v
  | Ast.Param i -> (
    match List.nth_opt params i with
    | Some v -> Const v
    | None -> err "missing parameter ?%d" i)
  | Ast.Cmp (op, a, b) -> Cmp (op, tr a, tr b)
  | Ast.And (a, b) -> And (tr a, tr b)
  | Ast.Or (a, b) -> Or (tr a, tr b)
  | Ast.Not a -> Not (tr a)
  | Ast.Arith (op, a, b) -> Arith (op, tr a, tr b)
  | Ast.Neg a -> (
    (* a negated number is a constant, so [key_range] can push it *)
    match tr a with
    | Const (Value.Int i) -> Const (Value.Int (-i))
    | Const (Value.Float f) -> Const (Value.Float (-.f))
    | a -> Neg a)
  | Ast.Is_null a -> IsNull (tr a)
  | Ast.In (_, []) -> Const (Value.Bool false)
  | Ast.In (a, v :: vs) ->
    let a = tr a in
    let eq v = Query.Expr.Cmp (Eq, a, tr v) in
    List.fold_left (fun acc v -> Query.Expr.Or (acc, eq v)) (eq v) vs
  | Ast.Between (a, lo, hi) ->
    let a = tr a in
    And (Cmp (Ge, a, tr lo), Cmp (Le, a, tr hi))
  | Ast.Like (a, pat) -> Like (tr a, pat)

let compile env params e =
  Query.Expr.compile_with ~column:(column env) (expr ~params e)

(* --- key ranges --- *)

let rec conjuncts = function
  | Query.Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let flip : Query.Expr.cmp -> Query.Expr.cmp = function
  | Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op

(* Primary-key bounds for a single-table WHERE: equalities of constants with
   the leading key columns form a prefix, and the first lower and the first
   upper bound on the next key column narrow it. A constant counts only
   when its tag is the column's declared type, because keys are ordered by
   [Value.compare], tag first. A strict upper bound [< c] on an [Int]
   column ends the range after [c - 1]'s keys; on a [Float] or [Str] one
   it keeps the key at the bound itself in the range. *)
let key_range schema column where =
  let bounds i =
    let ty = schema.Storage.Schema.columns.(i).Storage.Schema.ctype in
    let typed v = (not (Value.is_null v)) && Value.conforms v ty in
    List.filter_map
      (function
        | Query.Expr.Cmp (op, Col c, Const v) when typed v && column c = i ->
          Some (op, v)
        | Cmp (op, Const v, Col c) when typed v && column c = i ->
          Some (flip op, v)
        | _ -> None)
      (conjuncts where)
  in
  let key = schema.Storage.Schema.key in
  let rec prefix j =
    let bs = if j < Array.length key then bounds key.(j) else [] in
    match List.assoc_opt Query.Expr.Eq bs with
    | Some v -> let p, next = prefix (j + 1) in (v :: p, next)
    | None -> ([], bs)
  in
  let p, next = prefix 0 in
  let p = Array.of_list p in
  let ext v = Array.append p [| v |] in
  let above k = snd (Storage.Table.key_prefix_bounds k) in
  let or_prefix k = function
    | None when Array.length p > 0 -> Some (k p)
    | bound -> bound
  in
  let lo = List.find_map (function
      | Query.Expr.Ge, v -> Some (ext v)
      | Gt, v -> Some (above (ext v))
      | _ -> None) next
  in
  let hi = List.find_map (function
      | Query.Expr.Le, v -> Some (above (ext v))
      | Lt, Value.Int c when c > min_int -> Some (above (ext (Value.Int (c - 1))))
      | Lt, v -> Some (ext v)
      | _ -> None) next
  in
  (or_prefix Fun.id lo, or_prefix above hi)

let filter env params where rows =
  match where with
  | None -> rows
  | Some w ->
    let test = compile env params w in
    List.filter (fun row -> test row = Value.Bool true) rows

(* The rows of [table] that satisfy [where], scanning only its key range. *)
let where_rows ctx params env table where =
  let range w =
    key_range (Query.Exec.schema ctx table) (column env) (expr ~params w)
  in
  let lo, hi = Option.fold ~none:(None, None) ~some:range where in
  filter env params where (Query.Exec.scan ctx table ?lo ?hi ())

(* --- aggregates --- *)

let agg_name fn arg alias =
  match alias with
  | Some a -> a
  | None -> (
    let f =
      match fn with
      | Ast.Sum -> "sum"
      | Count -> "count"
      | Min -> "min"
      | Max -> "max"
      | Avg -> "avg"
    in
    match arg with
    | Some (Ast.Col (_, c)) -> f ^ "(" ^ c ^ ")"
    | _ -> f)

let compute_agg env params fn arg =
  let arg = Option.map (compile env params) arg in
  fun rows ->
    let values =
      match arg with
      | None -> List.map (fun _ -> Value.Int 1) rows
      | Some f ->
        List.filter_map
          (fun row -> match f row with Value.Null -> None | v -> Some v)
          rows
    in
    match fn with
    | Ast.Count -> Value.Int (List.length values)
    | Ast.Sum ->
      if values = [] then Value.Null
      else if List.for_all (function Value.Int _ -> true | _ -> false) values
      then Value.Int (List.fold_left (fun a v -> a + Value.to_int v) 0 values)
      else
        Value.Float (List.fold_left (fun a v -> a +. Value.to_number v) 0. values)
    | Ast.Min | Ast.Max ->
      let sign = if fn = Ast.Min then -1 else 1 in
      List.fold_left
        (fun acc v ->
          if Value.is_null acc || sign * Value.compare v acc > 0 then v else acc)
        Value.Null values
    | Ast.Avg ->
      if values = [] then Value.Null
      else
        Value.Float
          (List.fold_left (fun a v -> a +. Value.to_number v) 0. values
          /. float_of_int (List.length values))

(* --- SELECT --- *)

let item_name env = function
  | Ast.Star -> err "cannot name *"
  | Ast.Expr_item (Ast.Col (q, c), None) ->
    ignore (resolve env (q, c));
    c
  | Ast.Expr_item (_, Some a) -> a
  | Ast.Expr_item (e, None) -> Fmt.str "%a" Ast.pp_expr e
  | Ast.Agg (fn, arg, alias) -> agg_name fn arg alias

let select ctx params (s : Ast.select) =
  let env_of table alias =
    env_of_schema
      ~names:(table :: Option.to_list alias)
      (Query.Exec.schema ctx table)
  in
  let left_env = env_of s.Ast.sel_table s.Ast.sel_alias in
  (* Build the working row set and its environment. *)
  let env, rows =
    match s.Ast.sel_join with
    | None ->
      (left_env, where_rows ctx params left_env s.Ast.sel_table s.Ast.sel_where)
    | Some j ->
      let env = env_concat left_env (env_of j.Ast.j_table j.Ast.j_alias) in
      let li = resolve env j.Ast.j_left and ri = resolve env j.Ast.j_right in
      (* Hash join on the equality condition, over both whole tables. *)
      let lwidth = Array.length left_env.slots in
      let li, ri = if ri >= lwidth then (li, ri) else (ri, li) in
      let lrows = Query.Exec.scan ctx s.Ast.sel_table () in
      let by_key = Hashtbl.create 64 in
      List.iter
        (fun rrow -> Hashtbl.add by_key rrow.(ri - lwidth) rrow)
        (Query.Exec.scan ctx j.Ast.j_table ());
      let rows =
        List.concat_map
          (fun lrow ->
            List.map
              (fun rrow -> Array.append lrow rrow)
              (Hashtbl.find_all by_key lrow.(li)))
          lrows
      in
      (env, filter env params s.Ast.sel_where rows)
  in
  (* Projection. *)
  let cols, rows =
    if s.Ast.sel_group <> [] then begin
      let key_idxs = List.map (resolve env) s.Ast.sel_group in
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun row ->
          let key = List.map (fun i -> row.(i)) key_idxs in
          if not (Hashtbl.mem groups key) then order := key :: !order;
          Hashtbl.replace groups key
            (row :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
        rows;
      let cols = List.map (item_name env) s.Ast.sel_items in
      let cells =
        List.map
          (function
            | Ast.Star -> err "* not allowed with GROUP BY"
            | Ast.Expr_item (Ast.Col (q, c), _) -> (
              (* must be a grouping column *)
              let i = resolve env (q, c) in
              match List.find_index (fun ki -> ki = i) key_idxs with
              | Some pos -> fun key _ -> List.nth key pos
              | None -> err "column %s not in GROUP BY" c)
            | Ast.Expr_item _ -> err "only columns and aggregates with GROUP BY"
            | Ast.Agg (fn, arg, _) ->
              let agg = compute_agg env params fn arg in
              fun _ grouped -> agg (List.rev grouped))
          s.Ast.sel_items
      in
      let project key =
        let grouped = Hashtbl.find groups key in
        Array.of_list (List.map (fun cell -> cell key grouped) cells)
      in
      (cols, List.rev_map project !order)
    end
    else if List.exists (function Ast.Agg _ -> true | _ -> false) s.Ast.sel_items
    then begin
      (* one output row over the full set *)
      let cols = List.map (item_name env) s.Ast.sel_items in
      let row =
        Array.of_list
          (List.map
             (function
               | Ast.Agg (fn, arg, _) -> compute_agg env params fn arg rows
               | Ast.Star -> err "* cannot mix with aggregates"
               | Ast.Expr_item _ ->
                 err "non-aggregate column without GROUP BY")
             s.Ast.sel_items)
      in
      (cols, [ row ])
    end
    else begin
      let star_cols =
        Array.to_list (Array.map (fun (_, c) -> c) env.slots)
      in
      let cols =
        List.concat_map
          (function
            | Ast.Star -> star_cols
            | item -> [ item_name env item ])
          s.Ast.sel_items
      in
      let cells =
        List.map
          (function
            | Ast.Star -> Array.to_list
            | Ast.Expr_item (e, _) ->
              let f = compile env params e in
              fun row -> [ f row ]
            | Ast.Agg _ -> assert false)
          s.Ast.sel_items
      in
      let project row = Array.of_list (List.concat_map (fun f -> f row) cells) in
      (cols, List.map project rows)
    end
  in
  (* ORDER BY names an output column. *)
  let rows =
    match s.Ast.sel_order with
    | None -> rows
    | Some o -> (
      match List.find_index (fun c -> c = o.Ast.ord_col) cols with
      | None -> err "ORDER BY column %s not in select list" o.Ast.ord_col
      | Some i ->
        let sign = if o.Ast.ord_desc then -1 else 1 in
        List.stable_sort (fun a b -> sign * Value.compare a.(i) b.(i)) rows)
  in
  let rows =
    match s.Ast.sel_limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  Rows { cols; rows }

(* --- DML --- *)

let column_index schema c =
  try Storage.Schema.column_index schema c
  with Not_found -> err "unknown column %s" c

let insert ctx params ~table ~cols ~values =
  let schema = Query.Exec.schema ctx table in
  let arity = Storage.Schema.arity schema in
  (* VALUES see no columns. *)
  let vals = List.map (fun e -> compile { slots = [||] } params e [||]) values in
  let tuple =
    match cols with
    | None ->
      if List.length vals <> arity then
        err "INSERT arity: %d values for %d columns" (List.length vals) arity;
      Array.of_list vals
    | Some cols ->
      if List.length cols <> List.length vals then
        err "INSERT: %d columns but %d values" (List.length cols)
          (List.length vals);
      let tuple = Array.make arity Value.Null in
      List.iter2 (fun c v -> tuple.(column_index schema c) <- v) cols vals;
      tuple
  in
  Query.Exec.insert ctx table tuple;
  Affected 1

(* UPDATE and DELETE write each matching row by key through the
   transactional combinators. *)
let write_rows ctx params ~table ~where write =
  let schema = Query.Exec.schema ctx table in
  let env = env_of_schema ~names:[ table ] schema in
  let write = write schema env in
  Affected
    (List.fold_left
       (fun n row ->
         if write (Storage.Schema.key_of_tuple schema row) then n + 1 else n)
       0
       (where_rows ctx params env table where))

let update ctx params ~table ~sets ~where =
  write_rows ctx params ~table ~where (fun schema env ->
      let sets =
        List.map (fun (c, e) -> (column_index schema c, compile env params e)) sets
      in
      let set row =
        let out = Array.copy row in
        List.iter (fun (i, f) -> out.(i) <- f row) sets;
        out
      in
      fun key -> Query.Exec.update_key ctx table key ~set)

let delete ctx params ~table ~where =
  write_rows ctx params ~table ~where (fun _ _ key ->
      Query.Exec.delete_key ctx table key)

let exec_stmt ctx ?(params = []) stmt =
  try
    match stmt with
    | Ast.Select s -> select ctx params s
    | Ast.Insert { ins_table; ins_cols; ins_values } ->
      insert ctx params ~table:ins_table ~cols:ins_cols ~values:ins_values
    | Ast.Update { upd_table; upd_sets; upd_where } ->
      update ctx params ~table:upd_table ~sets:upd_sets ~where:upd_where
    | Ast.Delete { del_table; del_where } ->
      delete ctx params ~table:del_table ~where:del_where
  with Value.Type_error m -> err "%s" m

let exec ctx ?params src = exec_stmt ctx ?params (Parser.parse src)

let query ctx ?params src =
  match exec ctx ?params src with
  | Rows { rows; _ } -> rows
  | Affected _ -> err "expected a SELECT"

let query1 ctx ?params src =
  match query ctx ?params src with [] -> None | r :: _ -> Some r

let scalar ctx ?params src =
  match query ctx ?params src with
  | [ [| v |] ] -> v
  | [] -> err "scalar: no rows"
  | _ -> err "scalar: more than one row/column"

let execute ctx ?params src =
  match exec ctx ?params src with
  | Affected n -> n
  | Rows _ -> err "expected a DML statement"

let pp_result ppf = function
  | Affected n -> Fmt.pf ppf "%d row(s) affected@." n
  | Rows { cols; rows } ->
    let t = Util.Tablefmt.create cols in
    List.iter
      (fun row ->
        Util.Tablefmt.row t
          (List.map Value.to_string (Array.to_list row)))
      rows;
    Fmt.pf ppf "%s(%d row(s))@." (Util.Tablefmt.to_string t) (List.length rows)
