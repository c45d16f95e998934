open Util
module Lifecycle = Reactdb.Lifecycle
module Pins = Reactdb.Pins
module Bootstrap = Reactdb.Bootstrap

module Ivar = Reactdb.Ivar
module Durability = Reactdb.Durability

(* ------------------------------------------------------------------ *)

type outcome = {
  result : (Value.t, string) result;
  latency_us : float;
  containers_touched : int;
  abort_cause : Obs.Abort.cause option;
  snapshot : int option;
      (* the frozen epoch a read-only root executed against; [None] for
         ordinary OCC transactions *)
}

type job = unit -> unit

(* Mailbox traffic is typed so a thief can tell relocatable work apart:
   [Root] is an admitted root transaction, parameterized over the executor
   that actually runs it — work stealing and cost routing rebind it. [Job]
   is internal traffic (sub-calls, 2PC votes and acks, forwarding hops,
   snapshots) and [Resume] a suspended fiber's continuation; neither is
   ever stolen: each must run on the exact domain it was addressed to. *)
type msg = Job of job | Root of (exec -> unit) | Resume of job

and exec = {
  eid : int;
  mb : msg Mailbox.t;
  mutable busy_s : float;  (* owning domain only; read via a snapshot job *)
  (* Dynamic-scheduling signals. Atomics because peers read (and the
     router writes [qdepth_ewma]) concurrently; all are advisory — a stale
     read skews a routing score, never correctness. *)
  qdepth_ewma : float Atomic.t;  (* EWMA of mailbox depth, router-refreshed *)
  busy_frac : float Atomic.t;  (* owner-published busy fraction per window *)
  mean_job_us : float Atomic.t;  (* owner-published EWMA of message cost *)
  steals_in : int Atomic.t;  (* roots this domain stole from peers *)
  steals_out : int Atomic.t;  (* roots peers stole from this mailbox *)
  routed_by_cost : int Atomic.t;  (* roots the cost router placed here off-home *)
  sheds : int Atomic.t;  (* admission refusals against this mailbox *)
}

(* The placement table lives in the shared core (DESIGN.md §5.2); the
   runtime keeps no per-reactor state of its own. *)
type place = unit Bootstrap.reactor

type own = {
  execs : exec array;
  steal : bool;
  epoch_len : float;
  fatal : int Atomic.t;
  fatal_mu : Mutex.t;
  mutable fatal_msgs : string list;
  epoch : int Atomic.t;
  t0 : float;
  rr : int Atomic.t;
  submitted : int Atomic.t;
  completed : int Atomic.t;
  mutable domains : unit Domain.t array;
}

(* Slot [c] of the attached collector is only ever written by domain [c],
   so recording needs no locks. *)
type t = (unit, own) Bootstrap.t

include Bootstrap.Admin

let record_fatal (db : t) e =
  let o = db.own in
  Atomic.incr o.fatal;
  Mutex.protect o.fatal_mu (fun () -> o.fatal_msgs <- Printexc.to_string e :: o.fatal_msgs)

(* ------------------------------------------------------------------ *)
(* Per-domain fiber scheduler. A fiber is any mailbox job run under the
   [Suspend] handler; suspension registers a waker that re-enqueues the
   one-shot continuation on the fiber's home domain as a [Resume]. The
   continuation keeps the handler it suspended under, so a resumption runs
   bare: no fresh fiber or handler. Plain [Condition] blocking would
   deadlock here (domain A waiting on a reply from B while B waits on a
   reply from A); suspending keeps every domain draining its mailbox,
   which is what guarantees progress. *)

type _ Effect.t += Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let run_fiber (db : t) ex job =
  let open Effect.Deep in
  match_with job ()
    {
      retc = (fun () -> ());
      (* Procedure and commit paths catch their own exceptions; anything
         arriving here is a runtime bug. Record it and keep the domain
         alive. *)
      exnc = (fun e -> record_fatal db e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                register (fun v ->
                    Mailbox.push ex.mb (Resume (fun () -> continue k v))))
          | _ -> None);
    }

let run_msg db ex = function
  | Job j -> run_fiber db ex j
  | Root r -> run_fiber db ex (fun () -> r ex)
  | Resume k -> k ()

(* Work stealing: an idle domain raids the deepest peer mailbox for [Root]
   messages (DESIGN.md §8 — internal traffic is never relocatable). The
   first stolen root runs immediately; the rest land on the thief's own
   mailbox in one batched push, where they stay stealable, so a large haul
   keeps rebalancing.

   Depth threshold: a victim with a near-empty queue is about to drain it
   anyway — migrating those messages buys nothing and costs a mailbox
   round trip plus a re-pinned commit each. Only queues at least this deep
   are worth raiding. *)
let min_steal_depth = 4

let try_steal (db : t) ex =
  let best = ref None and bestq = ref (min_steal_depth - 1) in
  Array.iter
    (fun px ->
      if px.eid <> ex.eid then begin
        let q = Mailbox.length px.mb in
        if q > !bestq then begin
          bestq := q;
          best := Some px
        end
      end)
    db.own.execs;
  match !best with
  | None -> None
  | Some victim -> (
    match
      Mailbox.steal_half victim.mb
        ~stealable:(function Root _ -> true | Job _ | Resume _ -> false)
    with
    | [] -> None
    | first :: rest ->
      let n = 1 + List.length rest in
      ignore (Atomic.fetch_and_add victim.steals_out n);
      ignore (Atomic.fetch_and_add ex.steals_in n);
      (match rest with
      | [] -> ()
      | _ -> (
        (* own mailbox can only be closed after quiescence, when no root
           can remain anywhere to steal; run inline if it somehow is *)
        try Mailbox.push_many ex.mb rest
        with Mailbox.Closed -> List.iter (run_msg db ex) rest));
      Some first)

(* Busy-fraction publication window: long enough to smooth per-message
   noise, short enough that the cost router sees load shifts quickly. *)
let busy_window_s = 0.005

let domain_loop (db : t) ex =
  let win_start = ref (Unix.gettimeofday ()) in
  let win_busy = ref 0. in
  let publish now =
    let el = now -. !win_start in
    if el >= busy_window_s then begin
      Atomic.set ex.busy_frac (Float.min 1. (!win_busy /. el));
      win_start := now;
      win_busy := 0.
    end
  in
  let run msg =
    (* Chaos: an unresponsive executor domain — everything queued behind
       this mailbox waits out the stall. One branch when chaos is off. *)
    Chaos.inject_wall db.chaos Chaos.Stall_domain;
    let t_run = Unix.gettimeofday () in
    run_msg db ex msg;
    let t_done = Unix.gettimeofday () in
    let d = t_done -. t_run in
    ex.busy_s <- ex.busy_s +. d;
    win_busy := !win_busy +. d;
    let m = Atomic.get ex.mean_job_us in
    Atomic.set ex.mean_job_us ((0.9 *. m) +. (0.1 *. d *. 1e6));
    publish t_done
  in
  if not db.own.steal then begin
    (* Classic loop: park in [pop_wait] while empty. *)
    let rec loop () =
      match Mailbox.pop_wait ex.mb with
      | None -> ()
      | Some msg ->
        run msg;
        loop ()
    in
    loop ()
  end
  else begin
    (* Stealing domains poll instead of parking ([Condition] has no timed
       wait): drain own mailbox first, then attempt one steal, then back
       off exponentially to 1 ms while everything stays dry. Exits once the
       own mailbox is closed and drained, like [pop_wait] would. *)
    let rec loop idle_s =
      match Mailbox.try_pop ex.mb with
      | Some msg ->
        run msg;
        loop 2e-5
      | None ->
        if Mailbox.is_closed ex.mb then ()
        else (
          match try_steal db ex with
          | Some msg ->
            run msg;
            loop 2e-5
          | None ->
            publish (Unix.gettimeofday ());
            Unix.sleepf idle_s;
            loop (Float.min (idle_s *. 2.) 1e-3))
    in
    loop 2e-5
  end

(* Await inside a fiber: free if resolved, otherwise suspend until filled. *)
let fiber_await (iv : 'a Ivar.t) : 'a =
  match Ivar.peek iv with
  | Some v -> v
  | None -> Effect.perform (Suspend (fun waker -> Ivar.on_fill iv waker))

(* ------------------------------------------------------------------ *)
(* Per-root platform state, next to the shared [Lifecycle.root]. A root's
   sub-transactions on different containers run in parallel: each writes
   only its own container's slice of the [Occ.Txn.t] context. A shipped
   frame ([P.call]) is a [Job], never stolen, so it runs on its container's
   owner domain, and the root's frames on one container are serialized by
   that domain. The one exception is the root body itself when a thief or
   the cost router ran it on a domain other than its home: it then touches
   the home slice while a nested call shipped into [home] runs on [home]'s
   own domain. [rmu] exists only for that root, and it is taken only by
   the body and by frames on [home]; under affinity routing no lock is
   created or taken. A frame releases its lock across every suspension, so
   the lock is never held by a blocked fiber; a fiber holds at most one
   such lock and takes none while holding it, hence no hold-and-wait and
   no deadlock. *)

type rx = {
  rhome : int;  (* the home container the body was admitted for *)
  rmu : Mutex.t option;  (* [Some] only when the body runs off [rhome] *)
  rgen : int;
      (* placement generation stamped at registration ([submit]); a root
         with [rgen] <= a migration's cutoff may keep using the old home —
         the drain waits for it — while later roots park at the stub *)
}

type root = rx Lifecycle.root

(* The lock a frame of [rx]'s root on [container] holds, if any. *)
let frame_lock rx container = if container = rx.rhome then rx.rmu else None

(* Every lifecycle timestamp — submit, phase boundaries, completion — must
   come from this one function: floats at the microsecond scale (~1e15)
   quantize at ~0.25 us, and mixing grids (e.g. subtracting raw seconds and
   then scaling) makes phase sums drift past the measured latency. On a
   single grid the boundary values telescope, so sum(phases) <= latency. *)
let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Silo epochs on the wall clock. Only monotonicity matters for TID
   correctness ([compute_tid] takes the max with observed TIDs), so the
   epoch is advanced opportunistically at root starts with a CAS — a lost
   race just means the next root advances it. *)

let default_epoch_len_s = 0.04

let maybe_advance_epoch (db : t) =
  let target = 1 + int_of_float ((Unix.gettimeofday () -. db.own.t0) /. db.own.epoch_len) in
  let cur = Atomic.get db.own.epoch in
  if target > cur then ignore (Atomic.compare_and_set db.own.epoch cur target)

(* Config.Auto morph heuristic: resolve a root to its parallel formulation
   only when at least half the domains have idle capacity to absorb the
   fan-out — the runtime mirror of the simulator's idle-executor rule, read
   from the published busy fractions and live queue depths. *)
let auto_parallel_ok (db : t) =
  let n = Array.length db.own.execs in
  let busy = ref 0 in
  Array.iter
    (fun ex ->
      if Atomic.get ex.busy_frac > 0.5 || Mailbox.length ex.mb > 1 then
        incr busy)
    db.own.execs;
  2 * !busy < n

(* ------------------------------------------------------------------ *)
(* When the runtime flushes (DESIGN.md §8.3): the committer, through the
   combining [Durability.try_flush] ([P.wait_durable]). In a quiet stretch
   only the bound can lag, so a reader advances the epoch when due and
   tries a flush, which with nothing queued only publishes the bound. *)
let durable_epoch (db : t) =
  Option.iter
    (fun d ->
      if not (Durability.closed d) then begin
        maybe_advance_epoch db;
        Durability.try_flush d
      end)
    db.wal;
  Bootstrap.Admin.durable_epoch db

(* ------------------------------------------------------------------ *)
(* The runtime as a lifecycle platform (DESIGN.md §5.2): wall clock,
   fibers suspended across every wait, no cost charging. Commit steps run
   on the root's fiber with its frame lock released — all children have
   completed, so the transaction context is quiescent. The coordinator sees
   every participant's writes through happens-before edges: the mailbox
   mutex on the way to a participant, and the ivar's publishing CAS on the
   way back. *)

(* The resolved future every posted install returns. *)
let posted =
  let iv = Ivar.create () in
  Ivar.fill iv ();
  iv

module P = struct
  type t = own
  type nonrec exec = exec
  type slot = unit
  type nonrec rx = rx
  type 'a future = 'a Ivar.t
  type db = (slot, t) Bootstrap.t

  let now = now_us
  let cid ex = ex.eid
  let no_cost = ((fun _ _ -> ()), fun _ -> ())
  let enter _ _ _ ~home:_ _ ~on_root_path:_ = no_cost
  let leave _ _ = ()
  let resolve (db : db) (root : root) ~caller:_ (p : place) =
    if Pins.Gate.admits db.gate ~rgen:root.rx.rgen p.re.bs_name
    then Some (Atomic.get p.home)
    else None

  (* Ship the body to the owning domain, where it runs beside the caller.
     A frame into the home of an off-home root body takes the root's lock
     first. Its only other holder is that body, running on another domain;
     rather than block the home domain until the body suspends, a frame
     that finds the lock taken goes back to the end of the mailbox, so the
     domain drains what is queued behind it meanwhile. The home is re-read
     at dispatch time — for a parked call that is after the flip. *)
  let call (db : db) (root : root) ~from:_ ~on_root_path:_ (tplace : place) ~parked f =
    let iv = Ivar.create () in
    let rec frame rex () =
      let lock = frame_lock root.rx rex.eid in
      match lock with
      | Some m when not (Mutex.try_lock m) -> Mailbox.push rex.mb (Job (frame rex))
      | _ ->
        let r = f rex rex.eid in
        Option.iter Mutex.unlock lock;
        Ivar.fill iv r
    in
    let ship () =
      let rex = db.own.execs.(Atomic.get tplace.home) in
      Mailbox.push rex.mb
        (Job
           (fun () ->
             (* Chaos: the shipped sub-call stalls before it starts
                executing on the destination domain. *)
             Chaos.inject_wall db.chaos Chaos.Delay_delivery;
             frame rex ()))
    in
    if parked then Pins.Gate.park db.gate tplace.re.bs_name ship
    else ship ();
    iv

  let peek = Ivar.peek

  (* The shared code peeked already: suspend the fiber until the fill. *)
  let await _ _ iv = Effect.perform (Suspend (fun waker -> Ivar.on_fill iv waker))

  (* Await a child with the frame's lock, if any, released: other frames
     of the root on that container may need it meanwhile. On the root path
     the blocked window (suspension until the waker fires, plus
     re-acquiring the lock) is stamped into the trace. *)
  let await_sub db (root : root) ex ~container ~on_root_path iv =
    let timed = on_root_path && Obs.Trace.enabled root.tr in
    let t0 = if timed then now_us () else 0. in
    let lock = frame_lock root.rx container in
    Option.iter Mutex.unlock lock;
    let r = await db ex iv in
    Option.iter Mutex.lock lock;
    if timed then Obs.Trace.add root.tr Obs.Phase.Suspend_wait (now_us () -. t0);
    r

  let remote (db : db) _ ~coord:_ c f =
    let iv = Ivar.create () in
    Mailbox.push db.own.execs.(c).mb (Job (fun () -> Ivar.fill iv (f ())));
    iv

  (* The install runs as a job on [c]'s domain, and nothing waits for it
     (DESIGN.md §5.2). *)
  let post (db : db) _ ~coord:_ c f =
    Mailbox.push db.own.execs.(c).mb (Job f);
    posted

  let charge_validation _ _ _ = ()
  let charge_install _ = ()

  (* Chaos: a participant stalls with its write locks held — the worst
     place to lose time. *)
  let prepared (db : db) = Chaos.inject_wall db.chaos Chaos.Stall_prepare

  (* The committer's flush, unless one is under way. *)
  let wait_durable (db : db) b =
    if Ivar.peek b = None then Option.iter Durability.try_flush db.wal;
    fiber_await b

  let on_fatal = record_fatal
end

module L = Lifecycle.Make (P)

(* ------------------------------------------------------------------ *)
(* Root execution: one [Root] mailbox message, run by whichever domain
   dequeued (or stole) it — [ex]. The body executes on [ex]; the commit
   protocol re-pins every container's prepare/install to its owning
   domain. Guaranteed to call [k] and [settle] exactly once each, [settle]
   after [k] and after the root's last posted install landed —
   quiescence, fences and migration drains depend on it. *)

let exec_root (db : t) (place : place) ~proc ~args ~ro ~retry ~rgen ~t_submit
    ?deadline_us ~settle ~k (ex : exec) =
  (* Chaos: the root dispatch message stalls before execution begins. *)
  Chaos.inject_wall db.chaos Chaos.Delay_delivery;
  maybe_advance_epoch db;
  (* Re-read the home at execution start: a parked root replayed after a
     flip must run against the new placement. Stable from here on — a
     subsequent flip waits for this root (its generation is pre-mark
     relative to any later migration). *)
  let home = Atomic.get place.home in
  let txn = Bootstrap.next_txn db in
  let root =
    L.root db ~txn ~retry ~t_start:t_submit ?deadline_us ~settle ~readonly:ro
      { rhome = home;
        rmu = (if ex.eid <> home then Some (Mutex.create ()) else None);
        rgen }
  in
  let verdict =
    (* Fencing is re-checked here, after [submit] registered: a refusal on
       the submitter would recurse through a closed-loop client's submit. *)
    if Bootstrap.refuses db then Lifecycle.fenced
    else begin
      (* Queue wait: submit → this job running on the home domain,
         including any round-robin forwarding hop and mailbox residence. *)
      Option.iter Mutex.lock root.rx.rmu;
      let res = L.run_body db root place ~home ex ~queued_since:t_submit ~proc ~args in
      Option.iter Mutex.unlock root.rx.rmu;
      L.decide db root ~coord:ex res
    end
  in
  (* Slot ownership follows physical execution: this message runs on
     [ex]'s domain, so it records into slot [ex.eid] — with stealing or
     cost routing that may differ from the reactor's home container. *)
  let result, latency_us, abort_cause =
    L.finish db root verdict ~container:ex.eid
  in
  let out =
    { result; latency_us; abort_cause; snapshot = root.rsnapshot;
      containers_touched = List.length (Occ.Txn.containers txn) }
  in
  (try k out with e -> record_fatal db e);
  L.delivered root

(* ------------------------------------------------------------------ *)
(* Cost router. Scores each candidate domain as the §2.4 cost-model latency
   of the root's fork–join shape when its body runs there — a leaf at home,
   or a node at [c] with one synchronous child at home standing for the
   re-pinned commit round trip — plus live load signals: EWMA queue depth
   times the domain's mean per-message service time (expected drain ahead
   of us), the published busy fraction, and recent shed pressure. Argmin
   wins; the home domain wins ties, so an idle system degenerates to
   affinity routing. *)

let route_costs = Costmodel.uniform_costs ~cs:2. ~cr:2.

let note_qdepth ex =
  let q = float_of_int (Mailbox.length ex.mb) in
  let ew = Atomic.get ex.qdepth_ewma in
  Atomic.set ex.qdepth_ewma ((0.8 *. ew) +. (0.2 *. q))

let choose_cost (db : t) ~home =
  let n = Array.length db.own.execs in
  if n = 1 then 0
  else begin
    (* body estimate: the home domain's live mean service time *)
    let body = Float.max 1. (Atomic.get db.own.execs.(home).mean_job_us) in
    let submitted = float_of_int (1 + Atomic.get db.own.submitted) in
    let score c =
      let ex = db.own.execs.(c) in
      note_qdepth ex;
      let svc = Float.max 1. (Atomic.get ex.mean_job_us) in
      let shape =
        if c = home then Costmodel.leaf ~at:home body
        else
          Costmodel.node ~at:c ~p_seq:body
            ~sync_seq:[ Costmodel.leaf ~at:home (0.2 *. body) ]
            ()
      in
      let model = Costmodel.latency route_costs shape in
      let backlog = Atomic.get ex.qdepth_ewma *. svc in
      let busy = Atomic.get ex.busy_frac *. svc in
      let shed_pressure =
        float_of_int (Atomic.get ex.sheds) /. submitted *. svc *. 4.
      in
      model +. backlog +. busy +. shed_pressure
    in
    let best = ref home and best_s = ref (score home) in
    for c = 0 to n - 1 do
      if c <> home then begin
        let s = score c in
        if s < !best_s then begin
          best := c;
          best_s := s
        end
      end
    done;
    !best
  end

let submit ?(retry = 0) ?deadline_us (db : t) ~reactor ~proc ~args ~k =
  let place, proc, ro =
    Bootstrap.admit db ~reactor ~proc ~parallel_ok:(fun () -> auto_parallel_ok db)
  in
  Atomic.incr db.own.submitted;
  (* Placement-generation registration: the matching deregistration is
     the root's settlement, so a migration drain or a fence observes
     exactly the roots whose outcome or installs are still pending. *)
  let rgen = Pins.Gate.register db.gate in
  let settle () =
    Pins.Gate.retire db.gate rgen;
    Atomic.incr db.own.completed
  in
  let t_submit = now_us () in
  let job =
    exec_root db place ~proc ~args ~ro ~retry ~rgen ~t_submit ?deadline_us ~settle ~k
  in
  (* Dispatch against a resolved home — immediately when the target is not
     mid-migration, otherwise replayed by the flip. Stub traffic counts as
     admitted (the stub is its admission queue), so the replay uses
     unconditional pushes; fresh dispatches go through [try_push]. *)
  let dispatch ~replayed home =
    let ingress, by_cost =
      if ro || replayed then (home, false)
      else
        match db.cfg.Reactdb.Config.router with
        | Reactdb.Config.Affinity -> (home, false)
        | Reactdb.Config.Round_robin ->
          (Atomic.fetch_and_add db.own.rr 1 mod Array.length db.own.execs, false)
        | Reactdb.Config.Cost ->
          let c = choose_cost db ~home in
          (c, c <> home)
    in
    (* Admission control happens here and only here: root ingress goes
       through [try_push] against the (possibly bounded) ingress mailbox.
       Everything the runtime pushes on its own behalf — forwarding hops,
       suspended-fiber resumptions, 2PC traffic, stub replays — uses
       unconditional [push]: shedding those would wedge an in-flight
       transaction instead of refusing a new one.

       A root that has already lost a conflict ([retry > 0]) is admitted on
       the deferred lane: it runs only when its executor has nothing else
       queued, so it waits where it holds no lock and no read set instead
       of lengthening the windows of the transactions it conflicted with
       (DESIGN.md §7.3). Fresh roots keep the FIFO lane, so a workload
       that never aborts is never reordered. *)
    let admit mb msg =
      if retry > 0 then Mailbox.try_push_deferred mb msg
      else Mailbox.try_push mb msg
    in
    let accepted =
      if replayed then begin
        (if ro then
           Mailbox.push db.own.execs.(home).mb (Job (fun () -> job db.own.execs.(home)))
         else Mailbox.push db.own.execs.(home).mb (Root job));
        true
      end
      else if ro then
        (* Read-only snapshot roots are home-pinned: pushed as [Job] they
           are never stolen or cost-routed, so a snapshot body only ever
           walks version chains on the domain that owns the records — reads
           cannot race a concurrent install. Admission control still
           applies. *)
        admit db.own.execs.(home).mb
          (Job (fun () -> job db.own.execs.(home)))
      else if ingress = home || by_cost then
        (* Direct admission; a cost-routed off-home root executes at the
           ingress domain and re-pins its commit. *)
        admit db.own.execs.(ingress).mb (Root job)
      else
        (* Misrouted round-robin ingress pays a forwarding hop to the owner
           — the locality cost the affinity router avoids. The hop itself is
           internal traffic; the forwarded root becomes stealable again once
           it reaches the home mailbox. The owner is re-read at hop time so
           a flip between ingress and hop can't strand the root on a stale
           home. *)
        admit db.own.execs.(ingress).mb
          (Job
             (fun () ->
               Mailbox.push db.own.execs.(Atomic.get place.home).mb (Root job)))
    in
    if accepted && by_cost then Atomic.incr db.own.execs.(ingress).routed_by_cost;
    if not accepted then begin
      Atomic.incr db.own.execs.(ingress).sheds;
      (* Shed at admission: the attempt never reaches a domain, so the
         outcome is synthesized on the submitter's thread. Obs collector
         slots are owned by home domains, so no lifecycle record is written
         for sheds — the typed counters still account for them exactly. *)
      Lifecycle.count_abort db.counters Lifecycle.Ab_overload;
      let out =
        {
          result = Error "overloaded: admission queue full";
          latency_us = now_us () -. t_submit;
          containers_touched = 0;
          abort_cause =
            Some (Obs.Abort.cause ~participants:1 ~retry Obs.Abort.Overloaded);
          snapshot = None;
        }
      in
      (try k out with e -> record_fatal db e);
      settle ()
    end
  in
  if Pins.Gate.admits db.gate ~rgen reactor then
    dispatch ~replayed:false (Atomic.get place.home)
  else
    Pins.Gate.park db.gate reactor (fun () ->
        dispatch ~replayed:true (Atomic.get place.home))

let exec_txn ?deadline_us db ~reactor ~proc ~args =
  let iv = Ivar.create () in
  submit ?deadline_us db ~reactor ~proc ~args ~k:(fun out -> Ivar.fill iv out);
  Ivar.read_block iv

(* Read [completed] before [submitted]: both monotone, every submit precedes
   its completion, so equal reads in this order imply a true fixpoint (as
   long as the caller isn't racing its own new submissions). *)
let quiesce (db : t) =
  let rec loop () =
    let c = Atomic.get db.own.completed in
    let s = Atomic.get db.own.submitted in
    if c <> s then begin
      Unix.sleepf 2e-4;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Online reactor migration (DESIGN.md §11): the shared mark → drain → log
   → flip → replay, blocking the calling admin thread (never a fiber).
   The storage slice is the reactor's catalog on the shared heap, so the
   handoff is the flip itself. The placement record goes through group
   commit, and the caller's flush of it is awaited off the pause path. *)

let block register =
  let iv = Ivar.create () in
  register (fun () -> Ivar.fill iv ());
  Ivar.read_block iv

let migrate (db : t) ~reactor ~dst =
  let wait b = Option.iter Durability.try_flush db.wal; Ivar.read_block b in
  Bootstrap.migrate db ~suspend:block ~now:now_us ~wait ~reactor ~dst

(* The shared fence (DESIGN.md §12.4), blocking like [migrate]. *)
let fence (db : t) = Pins.Gate.fence db.gate ~suspend:block db.fenced

let reactors_on db c =
  List.filter_map
    (fun (name, home) -> if home = c then Some name else None)
    (placements db)

(* ------------------------------------------------------------------ *)

let start ?(chaos = Chaos.none) ?mailbox_cap ?(steal = false) ?wal
    ?(epoch_len_s = default_epoch_len_s) decl cfg =
  let n = Reactdb.Config.n_containers cfg in
  (* An idle executor spins before it parks only when every executor has
     a core of its own; a WAL adds no domain. *)
  let spin = n <= Domain.recommended_domain_count () in
  let execs =
    Array.init n (fun eid ->
        {
          eid;
          mb = Mailbox.create ?capacity:mailbox_cap ~spin ();
          busy_s = 0.;
          qdepth_ewma = Padded.atomic 0.;
          busy_frac = Padded.atomic 0.;
          mean_job_us = Padded.atomic 0.;
          steals_in = Padded.atomic 0;
          steals_out = Padded.atomic 0;
          routed_by_cost = Padded.atomic 0;
          sheds = Padded.atomic 0;
        })
  in
  let epoch = Padded.atomic 1 in
  let db =
    Bootstrap.create decl cfg ~epoch:(fun () -> Atomic.get epoch) ~slot:ignore
      {
        execs;
        steal;
        epoch_len = Float.max 1e-4 epoch_len_s;
        fatal = Padded.atomic 0;
        fatal_mu = Mutex.create ();
        fatal_msgs = [];
        epoch;
        t0 = Unix.gettimeofday ();
        rr = Padded.atomic 0;
        submitted = Padded.atomic 0;
        completed = Padded.atomic 0;
        domains = [||];
      }
  in
  db.chaos <- chaos;
  db.own.domains <-
    Array.map (fun ex -> Domain.spawn (fun () -> domain_loop db ex)) execs;
  Option.iter (Bootstrap.attach_wal db) wal;
  db

let shutdown (db : t) =
  quiesce db;
  (* The final flush: nothing is in flight any more, so it publishes the
     last epoch as the bound. *)
  Option.iter
    (fun d ->
      Durability.close d;
      maybe_advance_epoch db;
      Durability.flush d)
    db.wal;
  Array.iter (fun ex -> Mailbox.close ex.mb) db.own.execs;
  Array.iter Domain.join db.own.domains;
  db.own.domains <- [||]

let n_domains (db : t) = Array.length db.own.execs

let n_fatal (db : t) = Atomic.get db.own.fatal

(* --- dynamic-scheduling observability --- *)

type sched_stat = {
  ss_steals_in : int;
  ss_steals_out : int;
  ss_routed_by_cost : int;
  ss_sheds : int;
  ss_qdepth_ewma : float;
}

let sched_stats (db : t) =
  Array.map
    (fun ex ->
      {
        ss_steals_in = Atomic.get ex.steals_in;
        ss_steals_out = Atomic.get ex.steals_out;
        ss_routed_by_cost = Atomic.get ex.routed_by_cost;
        ss_sheds = Atomic.get ex.sheds;
        ss_qdepth_ewma = Atomic.get ex.qdepth_ewma;
      })
    db.own.execs

let n_steals (db : t) =
  Array.fold_left
    (fun a ex -> a + Atomic.get ex.steals_in)
    0 db.own.execs

(* --- live load signals (autoscaler inputs) --- *)

type load_stat = {
  ld_busy_frac : float;  (* owner-published busy fraction, 5 ms window *)
  ld_qdepth_ewma : float;  (* router-refreshed EWMA of mailbox depth *)
  ld_mailbox : int;  (* instantaneous mailbox length *)
  ld_sheds : int;  (* admission refusals against this mailbox so far *)
}

let load_stats (db : t) =
  Array.map
    (fun ex ->
      {
        ld_busy_frac = Atomic.get ex.busy_frac;
        ld_qdepth_ewma = Atomic.get ex.qdepth_ewma;
        ld_mailbox = Mailbox.length ex.mb;
        ld_sheds = Atomic.get ex.sheds;
      })
    db.own.execs

(* Copy the scheduler counters into the attached collector's slots so they
   ride the versioned report. Call at quiescence, like summarize. *)
let publish_sched_obs (db : t) =
  match db.obs with
  | None -> ()
  | Some c ->
    Array.iter
      (fun ex ->
        Obs.Collector.set_sched c ~container:ex.eid
          ~steals_in:(Atomic.get ex.steals_in)
          ~steals_out:(Atomic.get ex.steals_out)
          ~routed_by_cost:(Atomic.get ex.routed_by_cost)
          ~qdepth_ewma:(Atomic.get ex.qdepth_ewma))
      db.own.execs

let fatal_messages (db : t) = Mutex.protect db.own.fatal_mu (fun () -> db.own.fatal_msgs)

(* [busy_s] is private to its domain; snapshot it with a mailbox job so the
   read happens on the owner with proper ordering. *)
let busy_times (db : t) =
  Array.map
    (fun ex ->
      let iv = Ivar.create () in
      Mailbox.push ex.mb (Job (fun () -> Ivar.fill iv ex.busy_s));
      iv)
    db.own.execs
  |> Array.map Ivar.read_block
