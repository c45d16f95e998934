(** TPC-C in the reactor model (§4.1.3): each warehouse is a reactor
    encapsulating the nine TPC-C relations (the read-only [item] table is
    replicated per warehouse). All five transactions are implemented after
    the OLTP-Bench port the paper uses.

    Cross-reactor accesses: new-order items supplied by remote warehouses
    are grouped into one asynchronous sub-transaction per distinct remote
    warehouse; payments for customers of remote warehouses update the
    customer on its home warehouse reactor. *)

(** Scaled-down (shape-preserving) cardinalities; see EXPERIMENTS.md. *)
type sizes = {
  districts : int;
  customers_per_district : int;
  items : int;
  preloaded_orders : int;  (** per district; the most recent 30% undelivered *)
}

val default_sizes : sizes

(** Tiny sizes for unit tests. *)
val small_sizes : sizes

(** The Warehouse reactor type. Procedures: [new_order], [new_order_sync],
    [new_order_collect] (per-remote-warehouse fan-out joined at one
    {!Reactor.ctx.collect} barrier; same sub-calls and row inserts as the
    other two variants), [stock_updates], [payment], [payment_collect]
    (customer update joined at a collect barrier), [payment_customer],
    [order_status], [delivery], [deliver_district], [delivery_collect]
    (per-district fan-out joined at a collect barrier), [stock_level].

    [order_status] and [stock_level] are declared read-only, so they run
    as abort-free snapshot transactions on backends with snapshots
    enabled. Morph pairs for {!Reactdb.Config.Auto}: [new_order_sync] →
    [new_order_collect], [payment] → [payment_collect], [delivery] →
    [delivery_collect]. *)
val warehouse_type : Reactor.rtype

(** [warehouse_name i] for the 1-based warehouse index. *)
val warehouse_name : int -> string

val warehouses : int -> string list

(** TPC-C customer last names (spec clause 4.3.2.3). *)
val last_name : int -> string

(** The [ytd] a warehouse row and each district row are loaded with. *)
val w_ytd_at_load : float

val d_ytd_at_load : float

(** [decl ~warehouses:n ~sizes ()] — [n] fully loaded warehouse reactors.
    Their new-order procedures read the warehouse row as the spec's
    [SELECT w_tax]: a projected read ({!Query.Exec.get} [~cols]) that
    payments' [ytd] installs leave valid. [~project_tax:false] reads the
    whole row instead, the formulation before projected reads, which
    commits the same rows. *)
val decl :
  warehouses:int -> ?sizes:sizes -> ?project_tax:bool -> unit -> Reactor.decl

(** How new-order picks remote items: [Per_item p] draws each item remotely
    with probability [p] (§4.3.2); [One_item p] makes the transaction
    cross-reactor with probability [p] via exactly one remote item
    (App. E). *)
type remote_mode = Per_item of float | One_item of float

type params = {
  n_warehouses : int;
  sizes : sizes;
  remote_mode : remote_mode;
  remote_payment_prob : float;
  delay_lo : float;
  delay_hi : float;
      (** per-item stock-replenishment delay range in µs (the
          new-order-delay variant of §4.3.2); 0 disables *)
  sync_new_order : bool;  (** use the shared-nothing-sync program variant *)
  no_proc : string;
      (** new-order procedure generated requests invoke; defaults from
          [sync_new_order], overridable with [?new_order_proc] *)
  pay_proc : string;  (** payment procedure generated requests invoke *)
  dlv_proc : string;  (** delivery procedure generated requests invoke *)
}

val params :
  ?sizes:sizes ->
  ?remote_mode:remote_mode ->
  ?remote_payment_prob:float ->
  ?delay_lo:float ->
  ?delay_hi:float ->
  ?sync_new_order:bool ->
  ?new_order_proc:string ->
  ?payment_proc:string ->
  ?delivery_proc:string ->
  int ->
  params

(** [new_order_proc_for config] — the deployment morph: [new_order_sync]
    on [Sequential] deployments, [new_order_collect] on [Parallel]
    (shared-nothing-async) ones. Pass as [?new_order_proc] to {!params}. *)
val new_order_proc_for : Reactdb.Config.t -> string

(** [payment_proc_for config] — [payment] on [Sequential] deployments,
    [payment_collect] on [Parallel] ones. Pass as [?payment_proc] to
    {!params}. *)
val payment_proc_for : Reactdb.Config.t -> string

(** [delivery_proc_for config] — [delivery] on [Sequential] deployments,
    [delivery_collect] on [Parallel] ones. Pass as [?delivery_proc] to
    {!params}. *)
val delivery_proc_for : Reactdb.Config.t -> string

(** {1 Input generators}

    [home] is the 1-based warehouse a client worker is bound to (client
    affinity, §4.1.3). *)

val gen_new_order : Util.Rng.t -> params -> home:int -> clock:float -> Wl.request
val gen_payment : Util.Rng.t -> params -> home:int -> h_id:int -> Wl.request
val gen_order_status : Util.Rng.t -> params -> home:int -> Wl.request
val gen_delivery :
  ?proc:string -> Util.Rng.t -> home:int -> clock:float -> Wl.request
val gen_stock_level : Util.Rng.t -> params -> home:int -> Wl.request

(** The standard mix (45/43/4/4/4). [seq] must be shared across all workers
    of a run: it provides unique history ids and the logical clock. *)
val gen_mix : Util.Rng.t -> params -> home:int -> seq:int ref -> Wl.request
