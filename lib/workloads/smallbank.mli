(** The extended Smallbank benchmark (§4.1.3, Appendices B and H).

    Each customer is a reactor encapsulating [account], [savings] and
    [checking] (Fig. 20). Implements the standard Smallbank mix plus the
    paper's multi-transfer extension in the four program formulations of
    Fig. 21. *)

(** The Customer reactor type. Procedures: [transact_saving],
    [transact_checking], [transfer_seq], [transfer_ovp],
    [multi_transfer_sync], [multi_transfer_partial],
    [multi_transfer_fully_async], [multi_transfer_opt],
    [multi_transfer_collect], [balance], [deposit_checking], [write_check],
    [amalgamate], [send_payment], [send_payment_multi_seq],
    [send_payment_multi_par], [sum_all], [noop].

    [balance] and [sum_all] (own plus listed customers' balances via a
    fan-out/collect of [balance] reads) are declared read-only, so they
    run as abort-free snapshot transactions on backends with snapshots
    enabled. The morph pairs [multi_transfer_sync] →
    [multi_transfer_collect] and [send_payment_multi_seq] →
    [send_payment_multi_par] are declared for {!Reactdb.Config.Auto}
    per-root morphing. *)
val customer_type : Reactor.rtype

val customer_name : int -> string

(** [customers n] — the first [n] customer reactor names, in declaration
    order. *)
val customers : int -> string list

(** [decl ~customers:n ~initial ()] declares [n] customer reactors, each
    loaded with [initial] (default 10000) in savings and in checking. *)
val decl : customers:int -> ?initial:float -> unit -> Reactor.decl

(** The four multi-transfer formulations of §4.1.4, ordered from least to
    most asynchronous, plus [Collect]: the same sub-call fan-out as [Opt]
    but joined explicitly with {!Reactor.ctx.collect} (credit aborts
    surface at the collect boundary instead of at implicit sync). *)
type formulation = Fully_sync | Partially_async | Fully_async | Opt | Collect

val formulation_proc : formulation -> string
val formulation_name : formulation -> string

(** [formulation_for config] — the deployment morph (Shah 2022): the
    formulation selected by [config]'s {!Reactdb.Config.morph} knob.
    [Sequential] deployments run [Fully_sync]; [Parallel]
    (shared-nothing-async) deployments run [Collect]. *)
val formulation_for : Reactdb.Config.t -> formulation

(** Build a multi-transfer request: transfer [amount] from [src] to each of
    [dests]. *)
val multi_transfer_request :
  formulation -> src:string -> dests:string list -> amount:float -> Wl.request

(** Multi-payment request morphed by the deployment: pay [amount] to each
    destination out of [src]'s checking account —
    [send_payment_multi_seq] (credit-then-sync per destination) on
    [Sequential] deployments, [send_payment_multi_par] (fan out all
    credits, then collect) on [Parallel] ones. Both formulations debit the
    combined total up front and conserve money. *)
val send_payment_multi_request :
  Reactdb.Config.t ->
  src:string -> dests:string list -> amount:float -> Wl.request

(** One request of the standard Smallbank mix over [n] customers (H-Store
    weights: 15/15/15/15/15/25). *)
val gen_standard : Util.Rng.t -> n:int -> Wl.request

(** Money-conserving variant of the standard mix (balance 60%, amalgamate
    15%, send-payment 25% — same single/cross-container split): the total
    of {!total_money} is invariant under any committed subset, so runs can
    be audited with exact conservation. The deposit/withdraw programs of
    the standard mix legitimately change the total and are excluded. *)
val gen_conserving : Util.Rng.t -> n:int -> Wl.request

(** Zipf-skewed, money-conserving mix with a tunable read fraction: with
    probability [read_frac] a read-only [balance] transaction of a
    zipf-chosen customer, otherwise a conserving writer (amalgamate 3/8,
    send-payment 5/8) rooted at a zipf-chosen customer. Create [zipf]
    with [Util.Rng.Zipf.create ~n ~theta]; the skew concentrates readers
    and writers on the same hot customers. *)
val gen_conserving_zipf :
  Util.Rng.t -> zipf:Util.Rng.Zipf.gen -> n:int -> read_frac:float ->
  Wl.request

(** Physical sum of all savings and checking balances over the given
    catalogs — the conservation invariant used in tests. *)
val total_money : Storage.Catalog.t list -> float

(** [loaded_money ~customers] is the {!total_money} that
    [decl ~customers ()] loads: each customer holds the default initial
    balance in savings and in checking. A conserving run ends with exactly
    this total. *)
val loaded_money : customers:int -> float
