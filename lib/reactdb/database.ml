open Sim

type breakdown = {
  mutable bd_sync_exec : float;
  mutable bd_cs : float;
  mutable bd_cr : float;
  mutable bd_async_exec : float;
  mutable bd_overhead : float;
}

let zero_breakdown () =
  { bd_sync_exec = 0.; bd_cs = 0.; bd_cr = 0.; bd_async_exec = 0.;
    bd_overhead = 0. }

type outcome = {
  result : (Util.Value.t, string) result;
  latency : float;
  breakdown : breakdown;
  containers_touched : int;
  abort_cause : Obs.Abort.cause option;
  snapshot : int option;
      (* the frozen epoch this root read from, when it ran as a read-only
         snapshot transaction *)
}

type executor = {
  xid : int;
  cid : int;
  queue : (unit -> unit) Engine.Mailbox.mb;
  core_waiters : (unit -> unit) Queue.t;
  mutable core_busy : bool;
  mutable active_roots : int;
  mutable slot_waiter : (unit -> unit) option;
  mutable busy_accum : float;
  mutable held_since : float;
}

type container = { mutable rr : int; cexecutors : executor array }

(* A reactor's slot in the shared placement table: the executors that
   recently touched its data, most recent first. Drives a graded
   cache-miss penalty (warmest = free, colder positions pay
   proportionally, absent = full penalty). *)
type rstate = int list Bootstrap.reactor

type sim = {
  eng : Engine.t;
  prof : Profile.t;
  containers : container array;
  execs : executor array;  (* every executor, container-major *)
  mutable stats_since : float;
  mutable mailbox_cap : int option;
      (* root admission bound per executor request queue; [None] =
         unbounded (sheds surface as [Obs.Abort.Overloaded] outcomes) *)
}

type t = (int list, sim) Bootstrap.t

include Bootstrap.Admin

let engine (t : t) = t.own.eng
let config (t : t) = t.cfg
let profile (t : t) = t.own.prof

(* ------------------------------------------------------------------ *)
(* Core (CPU) ownership: one coroutine runs on an executor at a time.
   Blocking operations release the core; release transfers ownership to the
   longest-waiting coroutine, keeping the core busy without gaps. *)

let acquire_core ex =
  if ex.core_busy then
    Engine.suspend (fun waker -> Queue.add waker ex.core_waiters);
  ex.core_busy <- true;
  ex.held_since <- Engine.current_time ()

let release_core ex =
  ex.busy_accum <- ex.busy_accum +. (Engine.current_time () -. ex.held_since);
  if Queue.is_empty ex.core_waiters then ex.core_busy <- false
  else (Queue.take ex.core_waiters) ()

(* ------------------------------------------------------------------ *)
(* Per-root platform state, next to the shared [Lifecycle.root]. *)

type rx = {
  rgen : int;
      (* migration generation this root was admitted in; a sub-call it
         issues to a reactor marked with an older cutoff parks at the stub *)
  bd : breakdown;
  mutable exec_of_container : (int * executor) list;
  mutable last_call : int;
  mutable call_ctr : int;
  mutable worked_since_call : bool;
}

type root = rx Lifecycle.root

(* A sub-call's result; [fid] numbers the root's cross-container calls
   (0 for commit steps), so an await can tell a synchronous call. *)
type 'a future = { fid : int; iv : 'a Engine.Ivar.ivar }

let route (db : t) (rst : rstate) =
  let cont = db.own.containers.(Atomic.get rst.home) in
  let n = Array.length cont.cexecutors in
  match db.cfg.router with
  | Config.Round_robin ->
    cont.rr <- cont.rr + 1;
    cont.cexecutors.((cont.rr - 1) mod n)
  | Config.Affinity | Config.Cost ->
    (* Cost routing reacts to live queue depths, which virtual-time
       executors don't expose; the simulator degrades it to affinity. *)
    cont.cexecutors.(db.cfg.affinity_slot rst.re.bs_name mod n)

(* Silo epoch length in virtual µs: TID epochs advance on this boundary,
   and the group-commit flush runs on it. *)
let epoch_len_us = 40_000.

let epoch_at eng = 1 + int_of_float (Engine.now eng /. epoch_len_us)
let current_epoch (db : sim) = epoch_at db.eng

(* Extra one-way cost when two containers live on different machines. *)
let net (db : t) c1 c2 =
  if db.cfg.Config.machine_of c1 = db.cfg.Config.machine_of c2 then 0.
  else db.own.prof.Profile.cost_network

(* Graded cache model: how cold is executor [xid] for this reactor's data?
   Position 0 in the recency list is free; deeper positions pay a growing
   fraction of the full miss penalty; executors not in the list pay it all.
   This reproduces the progressive locality loss the paper measures when
   round-robin routing spreads one reactor over more cores (App. F.2). *)
let recency_depth = 8

let cache_penalty (rstate : rstate) xid =
  let rec find i = function
    | [] -> 1.
    | x :: _ when x = xid -> float_of_int i /. float_of_int recency_depth
    | _ :: rest -> find (i + 1) rest
  in
  find 0 rstate.slot

let touch_cache (rstate : rstate) xid =
  let rest = List.filter (fun x -> x <> xid) rstate.slot in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: r -> x :: take (n - 1) r
  in
  rstate.slot <- xid :: take (recency_depth - 1) rest

let set_exec_of rx cid ex =
  if not (List.mem_assoc cid rx.exec_of_container) then
    rx.exec_of_container <- (cid, ex) :: rx.exec_of_container

(* When the simulator flushes (DESIGN.md §8.2): a batch's first waiter
   spawns one flush at the next epoch boundary, so [Engine.run] drains once
   nobody waits on durability. A record queued strictly before boundary
   [epoch_len_us * e] carries TID epoch <= e, so that flush covers every
   record of epoch <= e. *)
let spawn_flush (db : t) =
  let at = epoch_len_us *. float_of_int (current_epoch db.own) in
  Engine.spawn db.own.eng ~at (fun () ->
      (* Chaos: the flush stalls (device hiccup), delaying every commit
         waiting on it; the batch keeps its waiters, so no second flush
         is spawned meanwhile. *)
      (match Chaos.draw_us db.chaos Chaos.Stall_flush with
      | Some d -> Engine.delay d
      | None -> ());
      Option.iter Durability.flush db.wal)

(* ------------------------------------------------------------------ *)
(* The simulator as a lifecycle platform (DESIGN.md §5.2): virtual time,
   cores released across every wait, costs charged with [Engine.delay]. *)

module P = struct
  type t = sim
  type exec = executor
  type slot = int list
  type nonrec rx = rx
  type nonrec 'a future = 'a future
  type db = (slot, t) Bootstrap.t

  let now = Engine.current_time
  let cid ex = ex.cid

  let peek f = Engine.Ivar.peek f.iv

  let await _ ex f =
    release_core ex;
    let r = Engine.Ivar.read f.iv in
    acquire_core ex;
    r

  (* Run [f] on [rex]'s core after [dispatch] µs of receive overhead; the
     core is released also when [f] raises. *)
  let on_core rex ~fid ~dispatch f =
    let iv = Engine.Ivar.create () in
    Engine.spawn_here (fun () ->
        acquire_core rex;
        Engine.delay dispatch;
        match f () with
        | r ->
          release_core rex;
          Engine.Ivar.fill iv r
        | exception e ->
          release_core rex;
          raise e);
    { fid; iv }

  (* Charge [d] µs on the current coroutine's core; on the root's critical
     path it counts as sync execution. *)
  let enter (db : db) (root : root) rst ~home ex ~on_root_path =
    let pen = cache_penalty rst ex.xid in
    let x = root.rx and prof = db.own.prof in
    set_exec_of x home ex;
    let work d =
      if d > 0. then Engine.delay d;
      if on_root_path then begin
        x.bd.bd_sync_exec <- x.bd.bd_sync_exec +. d;
        x.worked_since_call <- true
      end
    in
    let charge kind n =
      let base =
        match kind with
        | `Read -> prof.Profile.cost_read
        | `Write -> prof.Profile.cost_write
        | `Scan_step -> prof.Profile.cost_scan_step
      in
      work ((base +. (pen *. prof.Profile.cost_cache_miss)) *. float_of_int n)
    in
    work prof.Profile.cost_proc_base;
    (charge, work)

  let leave rst ex = touch_cache rst ex.xid

  (* Migration stub: a sub-call from a post-mark root to a migrating
     reactor parks until the flip, then dispatches against the new
     placement. The caller's core is released across the park — a parked
     post-mark root must never hold a core a draining pre-mark root may
     need. Pre-mark roots pass through: the drain waits for them. *)
  let resolve (db : db) (root : root) ~caller (rst : rstate) =
    let name = rst.re.bs_name in
    if not (Pins.Gate.admits db.gate ~rgen:root.rx.rgen name) then begin
      release_core caller;
      Engine.suspend (Pins.Gate.park db.gate name);
      acquire_core caller
    end;
    Some (Atomic.get rst.home)

  (* Sub-transactions bypass root admission control (they belong to an
     already-admitted root) but contend for the destination core. *)
  let call (db : db) (root : root) ~from ~on_root_path (rst : rstate) ~parked:_ f =
    let x = root.rx and prof = db.own.prof in
    let home = Atomic.get rst.home in
    x.call_ctr <- x.call_ctr + 1;
    let fid = x.call_ctr in
    let send_cost = prof.Profile.cost_send +. net db from home in
    Engine.delay send_cost;
    if on_root_path then begin
      x.bd.bd_cs <- x.bd.bd_cs +. send_cost;
      x.last_call <- fid;
      x.worked_since_call <- false
    end;
    let rex = route db rst in
    set_exec_of x home rex;
    (* the result message back to the caller also crosses the network *)
    on_core rex ~fid
      ~dispatch:(prof.Profile.cost_sub_dispatch +. net db from home)
      (fun () -> f rex home)

  (* The caller yields its core, pays Cr on wake, and the blocked window is
     attributed to sync execution (immediate get, no intervening work: the
     "synchronous call" pattern) or to async execution (deferred get: an
     overlap window). *)
  let await_sub (db : db) (root : root) ex ~container:_ ~on_root_path f =
    let x = root.rx and cost_recv = db.own.prof.Profile.cost_recv in
    let sync_class =
      on_root_path && x.last_call = f.fid && not x.worked_since_call
    in
    let t0 = Engine.current_time () in
    let r = await db ex f in
    let blocked = Engine.current_time () -. t0 in
    Engine.delay cost_recv;
    if on_root_path then begin
      x.bd.bd_cr <- x.bd.bd_cr +. cost_recv;
      if sync_class then x.bd.bd_sync_exec <- x.bd.bd_sync_exec +. blocked
      else x.bd.bd_async_exec <- x.bd.bd_async_exec +. blocked;
      Obs.Trace.add root.tr Obs.Phase.Suspend_wait blocked;
      x.worked_since_call <- true
    end;
    r

  (* A 2PC step runs as a control step on the executor that ran the root's
     sub-transactions in container [c], atomic in virtual time. *)
  let remote (db : db) (root : root) ~coord c f =
    let p = db.own.prof in
    Engine.delay (p.Profile.cost_2pc_msg +. net db coord.cid c);
    let rex =
      match List.assoc_opt c root.rx.exec_of_container with
      | Some e -> e
      | None -> db.own.containers.(c).cexecutors.(0)
    in
    on_core rex ~fid:0 ~dispatch:p.Profile.cost_sub_dispatch f

  (* The runtime's posting is not modelled: an install is a commit step
     the coordinator awaits, as the votes are, so the virtual timeline is
     the one the golden sweep pins (DESIGN.md §5.2). *)
  let post = remote

  let charge_validation (db : db) txn c =
    let p = db.own.prof in
    Engine.delay
      (p.Profile.cost_commit_base
      +. p.Profile.cost_commit_per_op *. float_of_int (Occ.Txn.ops_in txn ~container:c))

  let charge_install (db : db) = Engine.delay db.own.prof.Profile.cost_commit_base
  let prepared _ = ()

  (* Client-side durable wait: called after the transaction's executor slot
     is released, so group commit adds commit latency but never holds
     admission capacity. *)
  let wait_durable (db : db) b =
    match Ivar.peek b with
    | Some r -> r
    | None ->
      if not (Ivar.waited b) then spawn_flush db;
      Engine.suspend (Ivar.on_fill b)

  (* Programming errors (not aborts) escape to the engine. *)
  let on_fatal _ e = raise e
end

module L = Lifecycle.Make (P)

(* Morph-Auto load signal: fan a root out into its parallel formulation
   only when the deployment has idle execution capacity to absorb the
   concurrent sub-calls — here, when fewer than half the executors are
   currently running or holding admitted roots. Saturated deployments stay
   sequential: the fan-out would only add dispatch and coordination
   overhead to already-queued work. *)
let auto_parallel_ok (db : sim) =
  let busy =
    Array.fold_left
      (fun n ex -> if ex.core_busy || ex.active_roots > 0 then n + 1 else n)
      0 db.execs
  in
  2 * busy < Array.length db.execs

let exec_txn ?(retry = 0) ?deadline_us (db : t) ~reactor ~proc ~args =
  let s = db.own in
  let p = s.prof in
  let t_start = Engine.current_time () in
  Engine.delay p.Profile.cost_input_gen;
  let txn = Bootstrap.next_txn db in
  let bd = zero_breakdown () in
  (* Declared-read-only roots freeze a snapshot epoch up front: the body
     reads version chains at that epoch and the commit protocol is skipped
     entirely (no read set, no locks, no validation, no 2PC). *)
  let rst, proc, readonly =
    Bootstrap.admit db ~reactor ~proc ~parallel_ok:(fun () -> auto_parallel_ok s)
  in
  (* Live reconfiguration: register in the current migration generation,
     and park at the forwarding stub when the target is mid-migration —
     the root resumes (and routes) against the post-flip placement. The
     client coroutine holds no core here, so parking cannot starve the
     drain. Virtual time keeps running while parked: the pause shows up in
     latency, and a tight deadline can expire at the dequeue boundary —
     exactly the straggler backstop the deadline machinery provides. *)
  let rgen = Pins.Gate.register db.gate in
  if not (Pins.Gate.admits db.gate ~rgen reactor) then
    Engine.suspend (Pins.Gate.park db.gate reactor);
  let root =
    (* [post] awaits every install, so nothing settles after the outcome:
       the gate registration is retired below. *)
    L.root db ~txn ~retry ~t_start ?deadline_us ~settle:ignore ~readonly
      { rgen; bd; exec_of_container = []; last_call = 0; call_ctr = 0;
        worked_since_call = false }
  in
  let ex = route db rst in
  Engine.delay p.Profile.cost_client_dispatch;
  let done_iv = Engine.Ivar.create () in
  (* Queue wait runs from the push into the executor's request queue to the
     moment the body holds the core: mailbox residence, MPL admission, and
     the core handoff itself. *)
  let t_enq = ref 0. in
  let body () =
    acquire_core ex;
    (* The core is released even when a programming error escapes to the
       engine, so the roots queued behind this one still run. *)
    match
      L.decide db root ~coord:ex
        (L.run_body db root rst ~home:(Atomic.get rst.home) ex ~queued_since:!t_enq
           ~proc ~args)
    with
    | out ->
      release_core ex;
      Engine.Ivar.fill done_iv out
    | exception e ->
      release_core ex;
      raise e
  in
  (* Admission control: with a mailbox cap set, a root arriving at a full
     request queue is shed here — it never occupies a queue slot, an MPL
     slot or a core. Sub-transactions and commit traffic of admitted roots
     are never shed. *)
  let shed =
    match s.mailbox_cap with
    | Some cap -> Engine.Mailbox.length ex.queue >= cap
    | None -> false
  in
  let out =
    (* Generation fencing, re-checked after [register]: a fenced primary
       refuses the root before it enqueues or touches a record. *)
    if Bootstrap.refuses db then Lifecycle.fenced
    else if shed then
      Error
        ( Lifecycle.Ab_overload,
          "overloaded: admission queue full",
          Obs.Abort.Overloaded )
    else begin
      t_enq := Engine.current_time ();
      Engine.Mailbox.push ex.queue body;
      Engine.Ivar.read done_iv
    end
  in
  (* The root can no longer touch any reactor (install/release are done;
     what remains is client-side flush wait), so its generation pin drops —
     an in-progress migration drain resumes once the pre-mark slot empties.
     The shed path retires too: it registered above. *)
  Pins.Gate.retire db.gate rgen;
  (* [finish] drops the snapshot pin, also on the shed path. With a WAL it
     holds the client until the flush that writes this transaction's
     record (the executor slot is already free, so group commit costs
     latency, not admission capacity). *)
  let result, latency, abort_cause =
    L.finish db root out ~container:(Atomic.get rst.home)
  in
  (* Overhead bucket = everything not attributed to the execution-path
     buckets: input generation, dispatch, commit, queueing. *)
  bd.bd_overhead <-
    Float.max 0.
      (latency -. bd.bd_sync_exec -. bd.bd_cs -. bd.bd_cr -. bd.bd_async_exec);
  {
    result;
    latency;
    breakdown = bd;
    containers_touched = List.length (Occ.Txn.containers txn);
    abort_cause;
    snapshot = root.rsnapshot;
  }

(* Live reconfiguration (DESIGN.md §11): the shared mark → drain → log →
   flip → replay, waiting by engine suspension. The flip is one re-homing
   write, atomic in virtual time; catalogs are keyed by reactor, so the
   storage slice moves with the pointer. *)
let migrate (db : t) ~reactor ~dst =
  Bootstrap.migrate db ~suspend:Engine.suspend ~now:Engine.current_time
    ~wait:(P.wait_durable db) ~reactor ~dst

(* ------------------------------------------------------------------ *)
(* Bootstrap. *)

let rec dispatcher mpl ex () =
  let body = Engine.Mailbox.pop ex.queue in
  if ex.active_roots >= mpl then
    Engine.suspend (fun waker -> ex.slot_waiter <- Some waker);
  ex.active_roots <- ex.active_roots + 1;
  Engine.spawn_here (fun () ->
      body ();
      ex.active_roots <- ex.active_roots - 1;
      match ex.slot_waiter with
      | Some w ->
        ex.slot_waiter <- None;
        w ()
      | None -> ());
  dispatcher mpl ex ()

let create eng decl cfg prof =
  let xid = ref 0 in
  let containers =
    Array.mapi
      (fun cid nexec ->
        let cexecutors =
          Array.init nexec (fun _ ->
              incr xid;
              {
                xid = !xid;
                cid;
                queue = Engine.Mailbox.create ();
                core_waiters = Queue.create ();
                core_busy = false;
                active_roots = 0;
                slot_waiter = None;
                busy_accum = 0.;
                held_since = 0.;
              })
        in
        { rr = 0; cexecutors })
      cfg.Config.executors_per_container
  in
  let execs = Array.concat (Array.to_list (Array.map (fun c -> c.cexecutors) containers)) in
  (* Declaration/config materialization and the placement table are
     shared with the parallel runtime backend. *)
  let db =
    Bootstrap.create decl cfg ~epoch:(fun () -> epoch_at eng) ~slot:(fun () -> [])
      {
        eng;
        prof;
        containers;
        execs;
        stats_since = Engine.now eng;
        mailbox_cap = None;
      }
  in
  Array.iter (fun ex -> Engine.spawn eng (dispatcher cfg.Config.mpl ex)) execs;
  db

(* Bootstrap-time only: re-home reactors silently (no drain, no WAL record,
   no stub) to resume a recovered deployment (Faultsim.rc_placements).
   Calling this with traffic in flight would route around the migration
   protocol — don't. *)
let apply_placements (db : t) pl =
  List.iter
    (fun (r, dst) ->
      match Hashtbl.find_opt db.reactors r with
      | Some rst when dst >= 0 && dst < Array.length db.own.containers ->
        Atomic.set rst.home dst
      | Some _ | None -> ())
    pl

let busy_times (db : t) =
  let now = Engine.now db.own.eng in
  Array.map
    (fun ex -> ex.busy_accum +. if ex.core_busy then now -. ex.held_since else 0.)
    db.own.execs

let utilizations (db : t) =
  let total = Float.max 1e-9 (Engine.now db.own.eng -. db.own.stats_since) in
  Array.map (fun busy -> busy /. total) (busy_times db)

let reset_stats (db : t) =
  let s = db.own in
  Bootstrap.reset_counters db.counters;
  (* The history log is NOT cleared: serializability certification needs
     every installed version, including warm-up transactions whose writes
     later transactions read. *)
  s.stats_since <- Engine.now s.eng;
  Array.iter
    (fun ex ->
      ex.busy_accum <- 0.;
      if ex.core_busy then ex.held_since <- Engine.now s.eng)
    s.execs

let attach_wal = Bootstrap.attach_wal

let attach_chaos (db : t) c = db.chaos <- c
let set_mailbox_cap (db : t) cap = db.own.mailbox_cap <- cap

(* The shared fence (DESIGN.md §12.4), suspending like [migrate]. *)
let fence (db : t) = Pins.Gate.fence db.gate ~suspend:Engine.suspend db.fenced
