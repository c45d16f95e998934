(** Declarative scalar expressions over tuples.

    Reactors support declarative querying {e within} a single reactor
    (§2.2.1). Stored procedures build predicates and projections from this
    little expression language, and the SQL front-end ([Sql.Run]) compiles
    its expressions onto it, so this is the one evaluator. [compile]
    resolves column names against a schema once, yielding a closure
    evaluated per tuple — the moral equivalent of the paper's pre-compiled
    stored procedures.

    Null semantics are two-valued: any comparison or arithmetic involving
    [Null] yields [Bool false] / [Null] respectively; use {!is_null} to test
    for it explicitly. *)

type t =
  | Col of string
  | Const of Util.Value.t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Neg of t
  | IsNull of t
  | Like of t * string
      (** SQL [LIKE]: [%] matches any run of characters, [_] any one;
          [Null] does not match, and any other non-string raises
          [Util.Value.Type_error] *)

and cmp = Eq | Ne | Lt | Le | Gt | Ge

and arith = Add | Sub | Mul | Div

(** {1 Constructors} *)

val col : string -> t
val vint : int -> t
val vfloat : float -> t
val vstr : string -> t
val vbool : bool -> t
val vnull : t
val const : Util.Value.t -> t

val ( ==. ) : t -> t -> t
val ( <>. ) : t -> t -> t
val ( <. ) : t -> t -> t
val ( <=. ) : t -> t -> t
val ( >. ) : t -> t -> t
val ( >=. ) : t -> t -> t
val ( &&. ) : t -> t -> t
val ( ||. ) : t -> t -> t
val not_ : t -> t
val ( +. ) : t -> t -> t
val ( -. ) : t -> t -> t
val ( *. ) : t -> t -> t
val ( /. ) : t -> t -> t
val is_null : t -> t

(** {1 Compilation and evaluation} *)

(** [compile_with ~column e] resolves each [Col] once, through [column], to
    the index of its cell in the tuples the closure is applied to; the SQL
    front-end resolves qualified names over joined rows this way. [Int] and
    [Float] compare numerically (unlike {!Util.Value.compare}'s tag order,
    which exists for composite keys); values of one type compare as
    {!Util.Value.compare} orders them. [Neg], [Like], [Arith] and the
    connectives raise [Util.Value.Type_error] on operands of the wrong type. *)
val compile_with :
  column:(string -> int) -> t -> Util.Value.t array -> Util.Value.t

(** [compile schema e] is {!compile_with} resolving column names against
    [schema]; raises [Invalid_argument] naming any unknown column. *)
val compile : Storage.Schema.t -> t -> Util.Value.t array -> Util.Value.t

(** Compile as predicate: non-[Bool true] results (including [Null]) are
    [false]. *)
val compile_pred : Storage.Schema.t -> t -> Util.Value.t array -> bool

(** One-off evaluation (compiles then applies; use [compile] in loops). *)
val eval : Storage.Schema.t -> t -> Util.Value.t array -> Util.Value.t

val pp : Format.formatter -> t -> unit
