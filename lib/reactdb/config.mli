(** Deployment configuration: virtualization of database architecture (§3.3).

    A deployment fixes, at bootstrap time and without touching application
    code: how many containers exist, how many transaction executors each
    container owns, which container each reactor lives in (first-level
    mapping), how root transactions are routed to executors within a
    container (second-level mapping), and the multiprogramming level per
    executor.

    The three named strategies of §3.3 are provided as builders; arbitrary
    hybrids can be described directly. Configurations can also be parsed
    from the small text format used by [bin/reactdb_cli], fulfilling the
    "change a configuration file, not the application" claim. *)

(** Second-level routing of root transactions. [Round_robin] spreads roots
    over executors regardless of data placement; [Affinity] pins each root
    to its reactor's home executor; [Cost] (runtime backend only) scores
    candidate domains with the §2.4 cost model blended with live load
    signals and places the root on the cheapest one — the simulator treats
    [Cost] as [Affinity], since its virtual-time executors expose no live
    load to react to. *)
type router = Round_robin | Affinity | Cost

(** Deployment morphing of transaction formulations (Shah 2022): whether
    multi-future-capable procedures should run their {e sequential}
    (call-then-get one at a time) or {e parallel} (fan out, then collect)
    formulation on this deployment. Workload request builders that offer
    both formulations consult this knob (e.g.
    [Workloads.Smallbank.formulation_for]), fulfilling the "morph the same
    program onto a different deployment by changing the config" claim for
    intra-transaction parallelism.

    [Auto] folds the morph decision into the runtime's cost-aware router:
    each root transaction is resolved to [Sequential] or [Parallel] at
    admission from live load signals (queue depth and executor busyness) —
    fan out when the deployment has idle capacity to absorb the parallel
    sub-calls, stay sequential when executors are saturated and the
    fan-out would only add coordination overhead. Workload request
    builders pass [Auto] through and the backend resolves it per root via
    the declared {!Reactor.rtype.rt_morphs} pairs. *)
type morph = Sequential | Parallel | Auto

type t = {
  executors_per_container : int array;
      (** length = number of containers; entry = executors in it *)
  router : router;
  mpl : int;  (** max concurrently admitted root transactions per executor *)
  placement : string -> int;  (** reactor name -> container index *)
  affinity_slot : string -> int;
      (** reactor name -> executor slot (taken modulo the container's
          executor count); used by the [Affinity] router and for stable
          executor choice of cross-container sub-transactions *)
  machine_of : int -> int;
      (** container index -> machine id. Messages between containers on
          different machines pay {!Profile.t.cost_network}. Single-machine
          deployments map everything to machine 0 (the default). *)
  morph : morph;
      (** formulation morph for multi-future-capable procedures; builders
          default to [Sequential], {!shared_nothing_async} selects
          [Parallel] *)
}

(** [shared_everything ~executors ~affinity reactors] — one container,
    [executors] executors. With [affinity = false] this is strategy S1
    (round-robin routing); with [true] it is S2 (each reactor is pinned to
    an executor, assigned round-robin over the declaration order). *)
val shared_everything :
  executors:int -> affinity:bool -> ?mpl:int -> string list -> t

(** [shared_nothing groups] — strategy S3: one container with one executor
    per group; group [i]'s reactors are placed in container [i]. The
    deployment behaves as shared-nothing-{e sync}: procedures offering both
    formulations run sequentially. Application programs that hard-code
    their future usage are unaffected by the morph knob. *)
val shared_nothing : ?mpl:int -> string list list -> t

(** [shared_nothing_async groups] — the same placement as
    {!shared_nothing}, but with [morph = Parallel]: multi-future-capable
    procedures fan their sub-calls out concurrently and join them with
    {!Reactor.ctx.collect}. This is the shared-nothing-async deployment the
    intra-transaction-parallelism evaluation morphs into. *)
val shared_nothing_async : ?mpl:int -> string list list -> t

(** [of_groups ~router groups] — {!shared_nothing}'s placement with
    [router] as the ingress policy, so deployments that differ only in
    routing share one placement. *)
val of_groups : router:router -> string list list -> t

val router_name : router -> string

(** [chunk k xs] deals [xs] round-robin into [k] groups, keeping their
    order within each group: the usual shared-nothing placement. *)
val chunk : int -> 'a list -> 'a list list

(** Fully explicit deployment. *)
val custom :
  executors_per_container:int array ->
  router:router ->
  ?mpl:int ->
  placement:(string -> int) ->
  ?affinity_slot:(string -> int) ->
  ?machine_of:(int -> int) ->
  ?morph:morph ->
  unit ->
  t

(** [on_machines t machine_of] re-places [t]'s containers onto machines —
    the cluster story of §6: no application or deployment logic changes,
    only the physical mapping. *)
val on_machines : t -> (int -> int) -> t

(** [with_morph t m] re-morphs a deployment without changing placement —
    the sequential and parallel variants of one deployment differ only in
    this knob, so A/B sweeps hold everything else fixed. *)
val with_morph : t -> morph -> t

val morph_name : morph -> string

val n_containers : t -> int
val total_executors : t -> int

(** Parse the textual config format. Lines: [strategy shared-nothing] |
    [strategy shared-nothing-async] | [strategy shared-everything],
    [morph sequential|parallel|auto] (formulation morph, orthogonal to the
    strategy line; [shared-nothing-async] implies [morph parallel]),
    [executors N] (shared-everything),
    [affinity on|off], [mpl N], [groups a,b;c,d] (shared-nothing; reactors
    not listed fall into group 0 — or round-robin over groups when
    [groups auto N] is used with the reactor list given at build time).
    Comments start with [#]. [build spec reactors] instantiates the parsed
    spec against the declared reactor names. Raises [Invalid_argument] on
    malformed input. *)
module Spec : sig
  type spec

  val of_string : string -> spec
  val of_file : string -> spec
  val build : spec -> string list -> t
end
