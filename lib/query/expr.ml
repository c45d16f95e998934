open Util

type t =
  | Col of string
  | Const of Value.t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Neg of t
  | IsNull of t
  | Like of t * string

and cmp = Eq | Ne | Lt | Le | Gt | Ge

and arith = Add | Sub | Mul | Div

let col c = Col c
let vint i = Const (Value.Int i)
let vfloat f = Const (Value.Float f)
let vstr s = Const (Value.Str s)
let vbool b = Const (Value.Bool b)
let vnull = Const Value.Null
let const v = Const v
let ( ==. ) a b = Cmp (Eq, a, b)
let ( <>. ) a b = Cmp (Ne, a, b)
let ( <. ) a b = Cmp (Lt, a, b)
let ( <=. ) a b = Cmp (Le, a, b)
let ( >. ) a b = Cmp (Gt, a, b)
let ( >=. ) a b = Cmp (Ge, a, b)
let ( &&. ) a b = And (a, b)
let ( ||. ) a b = Or (a, b)
let not_ a = Not a
let ( +. ) a b = Arith (Add, a, b)
let ( -. ) a b = Arith (Sub, a, b)
let ( *. ) a b = Arith (Mul, a, b)
let ( /. ) a b = Arith (Div, a, b)
let is_null a = IsNull a

let cmp_op = function
  | Eq -> fun c -> c = 0
  | Ne -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Le -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Ge -> fun c -> c >= 0

(* Numeric arithmetic stays in Int when both operands are Int (except Div,
   which widens to Float to match SQL-ish expectations of ratios). *)
let arith_op op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
    match op with
    | Add -> Value.Int (x + y)
    | Sub -> Value.Int (x - y)
    | Mul -> Value.Int (x * y)
    | Div -> Value.Float (Stdlib.( /. ) (float_of_int x) (float_of_int y)))
  | _ ->
    let x = Value.to_number a and y = Value.to_number b in
    Value.Float
      (match op with
      | Add -> Stdlib.( +. ) x y
      | Sub -> Stdlib.( -. ) x y
      | Mul -> Stdlib.( *. ) x y
      | Div -> Stdlib.( /. ) x y)

(* SQL LIKE: greedy match that backtracks to the last '%', which [star]
   marks in the pattern and [mark] in the string. *)
let like_match pat str =
  let np = String.length pat and ns = String.length str in
  let rec go pi si star mark =
    if pi < np && pat.[pi] = '%' then go (pi + 1) si (pi + 1) si
    else if si = ns then pi = np
    else if pi < np && (pat.[pi] = '_' || pat.[pi] = str.[si]) then
      go (pi + 1) (si + 1) star mark
    else star >= 0 && go star (mark + 1) star (mark + 1)
  in
  go 0 0 (-1) 0

let compile_with ~column expr =
  let rec go = function
    | Col name ->
      let i = column name in
      fun tuple -> tuple.(i)
    | Const v -> fun _ -> v
    | Cmp (op, a, b) ->
      let fa = go a and fb = go b and test = cmp_op op in
      fun tuple ->
        let va = fa tuple and vb = fb tuple in
        if Value.is_null va || Value.is_null vb then Value.Bool false
        else
          (* Int and Float compare numerically in predicates (the tag-based
             total order is for composite keys only). *)
          let c =
            match va, vb with
            | Value.Int _, Value.Float _ | Value.Float _, Value.Int _ ->
              Float.compare (Value.to_number va) (Value.to_number vb)
            | _ -> Value.compare va vb
          in
          Value.Bool (test c)
    | And (a, b) ->
      let fa = go a and fb = go b in
      fun tuple ->
        Value.Bool (Value.to_bool (fa tuple) && Value.to_bool (fb tuple))
    | Or (a, b) ->
      let fa = go a and fb = go b in
      fun tuple ->
        Value.Bool (Value.to_bool (fa tuple) || Value.to_bool (fb tuple))
    | Not a ->
      let fa = go a in
      fun tuple -> Value.Bool (not (Value.to_bool (fa tuple)))
    | Arith (op, a, b) ->
      let fa = go a and fb = go b in
      fun tuple -> arith_op op (fa tuple) (fb tuple)
    | Neg a ->
      let fa = go a in
      fun tuple ->
        (match fa tuple with
        | Value.Null -> Value.Null
        | Value.Int i -> Value.Int (-i)
        | Value.Float f -> Value.Float (Stdlib.( ~-. ) f)
        | v -> raise (Value.Type_error ("cannot negate " ^ Value.to_string v)))
    | IsNull a ->
      let fa = go a in
      fun tuple -> Value.Bool (Value.is_null (fa tuple))
    | Like (a, pat) ->
      let fa = go a in
      fun tuple ->
        (match fa tuple with
        | Value.Str s -> Value.Bool (like_match pat s)
        | Value.Null -> Value.Bool false
        | v ->
          raise (Value.Type_error ("LIKE on non-string " ^ Value.to_string v)))
  in
  go expr

let compile schema expr =
  compile_with expr ~column:(fun name ->
      try Storage.Schema.column_index schema name
      with Not_found ->
        invalid_arg
          (Printf.sprintf "Expr.compile: unknown column %S in %s" name
             schema.Storage.Schema.sname))

let compile_pred schema expr =
  let f = compile schema expr in
  fun tuple -> match f tuple with Value.Bool b -> b | _ -> false

let eval schema expr tuple = compile schema expr tuple

let rec pp ppf = function
  | Col c -> Fmt.string ppf c
  | Const v -> Value.pp ppf v
  | Cmp (op, a, b) ->
    let s =
      match op with
      | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
    in
    Fmt.pf ppf "(%a %s %a)" pp a s pp b
  | And (a, b) -> Fmt.pf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Fmt.pf ppf "(%a OR %a)" pp a pp b
  | Not a -> Fmt.pf ppf "(NOT %a)" pp a
  | Arith (op, a, b) ->
    let s = match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" in
    Fmt.pf ppf "(%a %s %a)" pp a s pp b
  | Neg a -> Fmt.pf ppf "(-%a)" pp a
  | IsNull a -> Fmt.pf ppf "(%a IS NULL)" pp a
  | Like (a, pat) -> Fmt.pf ppf "(%a LIKE %S)" pp a pat
