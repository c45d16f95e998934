(** Seeded runtime fault injection for overload and chaos testing.

    An injector is configured with one fault {!kind}, a seed, a hit
    probability and a delay scale. The runtimes call {!inject_wall} (or
    {!draw_us} for virtual-time backends) at fixed {e injection points};
    each call is one seeded Bernoulli decision, so a given seed reproduces
    the same fault schedule (up to cross-domain interleaving of the
    per-point counters).

    Injection-point catalog (see DESIGN.md §7.4):
    - {!Delay_delivery}: a mailbox message (root dispatch or
      cross-container sub-call) stalls before it starts executing.
    - {!Stall_domain}: an executor domain goes unresponsive between jobs —
      everything queued behind it waits.
    - {!Stall_prepare}: a 2PC participant stalls {e after} validating its
      prepare, i.e. with its write locks held, before delivering the vote.
    - {!Stall_flush}: a WAL group-commit flush stalls, delaying every
      transaction waiting on epoch durability.
    - {!Kill_primary}: the primary crashes mid-2PC — after phase-one votes
      resolve, before install, on either backend. The primary fences
      itself (every later root is refused with a stale-generation error)
      and the killed
      transaction rolls back through the normal release path, modelling a
      coordinator death whose decision was never installed or flushed
      (see DESIGN.md §12).
    - {!Drop_shipment}: a replication log-shipment batch is lost in
      flight; the replica's watermark does not advance, so the next round
      re-ships from the unchanged acknowledgment (the re-request path).
    - {!Delay_shipment}: a shipment batch is held one shipping round
      before delivery, stretching replica lag without losing data.

    The disabled injector {!none} is a no-op: every probe is one branch on
    a constant, so production paths pay nothing when chaos is off. *)

type kind =
  | Delay_delivery
  | Stall_domain
  | Stall_prepare
  | Stall_flush
  | Kill_primary
  | Drop_shipment
  | Delay_shipment

val all_kinds : kind list

(** Stable names: ["delivery-delay"], ["domain-stall"], ["prepare-stall"],
    ["flush-stall"], ["kill-primary"], ["drop-shipment"],
    ["delay-shipment"]. *)
val kind_name : kind -> string

val kind_of_name : string -> kind option

type t

(** The disabled injector; all probes are no-ops. *)
val none : t

(** [make ~seed ~kind ()] builds an injector firing at probability [p]
    (default 0.05) per probe of [kind], stalling for a seeded duration in
    [[delay_us/2, 3*delay_us/2]] (default [delay_us] = 2000). *)
val make : seed:int -> kind:kind -> ?p:float -> ?delay_us:float -> unit -> t

val is_active : t -> bool

(** Which fault an active injector targets. *)
val target : t -> kind option

(** [draw_us t k] makes one seeded decision at injection point [k]:
    [Some d] means this occurrence should stall for [d] µs (the caller
    chooses how — wall sleep or virtual delay); [None] means proceed.
    Thread-safe; always [None] when inactive or when [k] is not the
    injector's kind. *)
val draw_us : t -> kind -> float option

(** [inject_wall t k] = [draw_us] plus a wall-clock sleep on a hit. *)
val inject_wall : t -> kind -> unit

(** Decision points probed so far (active injectors only). *)
val probes : t -> int

(** Faults actually injected so far. *)
val injections : t -> int

(** Parse a CLI spec ["SEED:KIND"], e.g. ["7:prepare-stall"], with
    optional [":P"] and [":DELAY_US"] suffixes (["7:domain-stall:0.1:5000"]). *)
val of_string : string -> (t, string) result

(** ["SEED:KIND"] rendering of an active injector, ["none"] otherwise. *)
val to_string : t -> string
