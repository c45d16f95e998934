(** SQL execution over a reactor's transactional context.

    Every SQL expression compiles onto {!Query.Expr} (see {!expr}), the one
    evaluator stored procedures use too, so both share null semantics and
    comparisons. Statements run on the {!Query.Exec} combinators with
    their visibility and concurrency-control semantics: reads are
    validated, scans are phantom-protected, writes are buffered in the
    enclosing (sub-)transaction. Parameters ([?]) are bound positionally.

    A single-table SELECT, UPDATE or DELETE scans only the primary-key
    range its WHERE names. Top-level AND conjuncts that compare leading key
    columns [=] to constants form a key prefix, and one [<], [<=], [>],
    [>=] or BETWEEN on the next key column narrows the scan further. A
    constant bounds the scan only when its type is the column's declared
    type. The whole WHERE still filters every scanned row, so a range only
    saves reads: a keyed statement reads, and validates at commit, only
    the rows in its range (plus the witnessed leaves). A join scans both
    of its tables whole.

    Supported: single-table SELECT with WHERE / ORDER BY one output column
    / LIMIT, one INNER JOIN with an equality ON condition, aggregates
    (SUM/COUNT/MIN/MAX/AVG) with optional GROUP BY, and single-table
    INSERT / UPDATE / DELETE. *)

exception Sql_error of string

type result =
  | Rows of { cols : string list; rows : Util.Value.t array list }
  | Affected of int

(** [expr ?params e] is [e] as a {!Query.Expr.t}: [?N] becomes the
    constant [params]'s [N]th value ([Sql_error "missing parameter ?N"] if
    there is none), [IN] becomes an OR of [=], [BETWEEN] becomes [>=] AND
    [<=], and a column keeps its SQL spelling ([Col "o.amt"] for [o.amt]).
    Over one table's unqualified columns the result compiles with
    {!Query.Expr.compile}. *)
val expr : ?params:Util.Value.t list -> Ast.expr -> Query.Expr.t

(** Execute a parsed statement. Unknown or ambiguous columns, missing
    parameters and operands of the wrong type ([Util.Value.Type_error]
    while evaluating) raise {!Sql_error}; an unknown table raises
    [Invalid_argument]. *)
val exec_stmt :
  Query.Exec.ctx -> ?params:Util.Value.t list -> Ast.stmt -> result

(** Parse and execute. Raises {!Parser.Parse_error} or {!Sql_error}. *)
val exec : Query.Exec.ctx -> ?params:Util.Value.t list -> string -> result

(** {1 Convenience wrappers} *)

(** Rows of a SELECT; raises [Sql_error] on DML. *)
val query :
  Query.Exec.ctx -> ?params:Util.Value.t list -> string -> Util.Value.t array list

(** First row, if any. *)
val query1 :
  Query.Exec.ctx -> ?params:Util.Value.t list -> string ->
  Util.Value.t array option

(** Single scalar of a single-row, single-column SELECT; raises [Sql_error]
    otherwise (including zero rows). *)
val scalar : Query.Exec.ctx -> ?params:Util.Value.t list -> string -> Util.Value.t

(** Affected-row count of a DML statement; raises [Sql_error] on SELECT. *)
val execute : Query.Exec.ctx -> ?params:Util.Value.t list -> string -> int

(** Render a result as an ASCII table (REPL, tests). *)
val pp_result : Format.formatter -> result -> unit
