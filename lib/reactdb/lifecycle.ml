include Lifecycle_intf

let classify_exn = function
  | Occ.Txn.Abort m -> Some (Ab_user, m)
  | Occ.Txn.Conflict m -> Some (Ab_conflict, m)
  | Reactor.Dangerous_call m -> Some (Ab_dangerous, m)
  | Obs.Abort.Timed_out m -> Some (Ab_timeout, m)
  | _ -> None

(* Each class's bucket (an index into [Bootstrap.bucket_names]) and the
   kind it is reported as; a validation failure's kind is refined by its
   fail_reason when known. *)
let class_info = function
  | Ab_user -> (0, Obs.Abort.User)
  | Ab_conflict -> (1, Obs.Abort.Conflict)
  | Ab_validation -> (1, Obs.Abort.Internal)
  | Ab_dangerous -> (2, Obs.Abort.Dangerous)
  | Ab_timeout -> (3, Obs.Abort.Timeout)
  | Ab_overload -> (4, Obs.Abort.Overloaded)
  | Ab_internal -> (5, Obs.Abort.Internal)

let count_abort (c : Bootstrap.counters) k =
  Atomic.incr c.aborted;
  Atomic.incr c.buckets.(fst (class_info k))

(* After-images come from the transaction's private buffers: update rows
   are the buffered arrays, insert records are still locked (lock held
   from creation) so no later committer can swap their data pointer,
   delete keys are immutable. *)
let redo_writes owner txn =
  List.map
    (fun e ->
      let reactor, table =
        match Hashtbl.find_opt owner e.Occ.Txn.wtable.Storage.Table.uid with
        | Some rt -> rt
        | None -> ("?", e.Occ.Txn.wtable.Storage.Table.schema.Storage.Schema.sname)
      in
      match e.Occ.Txn.kind with
      | Occ.Txn.Update row -> Wal.Put { reactor; table; row }
      | Occ.Txn.Insert ->
        Wal.Put { reactor; table; row = e.Occ.Txn.wrec.Storage.Record.data }
      | Occ.Txn.Delete -> Wal.Del { reactor; table; key = e.Occ.Txn.wkey })
    (Occ.Txn.all_writes txn)

(* The root's certification entry: reads as (record, observed TID) pairs
   and projected reads with their masks from every container's slice, and
   each write with the columns it changes. Taken before the install, with
   every written record locked, so a record's data is still the version
   the update replaces. *)
let history_entry txn ~tid =
  let rid r = r.Storage.Record.rid in
  let slices f = List.concat_map f (Occ.Txn.containers txn) in
  let changed w =
    match w.Occ.Txn.kind with
    | Occ.Txn.Update data -> Storage.Table.changed_cols w.Occ.Txn.wrec.Storage.Record.data data
    | Occ.Txn.Insert | Occ.Txn.Delete -> Storage.Table.all_cols
  in
  { Histories.Certify.c_txn = Occ.Txn.id txn; c_tid = tid;
    c_reads =
      slices (fun c ->
          List.map (fun (r, seen) -> (rid r, seen)) (Occ.Txn.reads_in txn ~container:c));
    c_col_reads =
      slices (fun c ->
          List.map
            (fun r -> (rid r.Occ.Txn.crec, r.Occ.Txn.cseen, r.Occ.Txn.cmask))
            (Occ.Txn.col_reads_in txn ~container:c));
    c_writes = List.map (fun w -> (rid w.Occ.Txn.wrec, changed w)) (Occ.Txn.all_writes txn) }

(* Cons the root's entry onto [h]. *)
let record h txn ~tid =
  let e = history_entry txn ~tid in
  let rec cons () =
    let l = Atomic.get h in
    if not (Atomic.compare_and_set h l (e :: l)) then cons ()
  in
  cons ()

(* Commit-time aborts: a failed validation (its kind refined by the fail
   reason), and internal failures — a failed WAL, a fenced primary, a
   primary killed between the phases, a commit step dying on an
   exception. *)
let validation_failed fr =
  ( Ab_validation,
    Occ.Commit.fail_message fr,
    match fr with
    | Occ.Commit.Lock_busy -> Obs.Abort.Lock_busy
    | Occ.Commit.Stale_read -> Obs.Abort.Stale_read
    | Occ.Commit.Node_changed -> Obs.Abort.Node_changed
    | Occ.Commit.Key_exists -> Obs.Abort.Key_exists )

let internal m = (Ab_internal, m, Obs.Abort.Internal)
let wal_failed m = internal ("wal write failed: " ^ m)
let fenced = Error (internal "fenced: stale primary generation")

module Make (P : PLATFORM) = struct
  let root (db : (P.slot, P.t) Bootstrap.t) ~txn ~retry ~t_start ?deadline_us
      ~settle ~readonly rx =
    let obs = db.obs in
    let tr = match obs with Some c -> Obs.Collector.trace c | None -> Obs.Trace.none in
    let deadline = match deadline_us with Some d -> t_start +. d | None -> Float.infinity in
    let rsnapshot = if readonly then Some (Pins.Registry.acquire db.registry) else None in
    { txn; retry; obs; tr; t_start; deadline; rsnapshot;
      active_set = Atomic.make []; doomed = Atomic.make None; flush = None;
      unsettled = Atomic.make 1; settle; rx }

  let arrive root =
    if Atomic.fetch_and_add root.unsettled (-1) = 1 then root.settle ()

  let delivered = arrive

  (* Dynamic safety condition (§2.2.4): at most one execution context may
     be active per reactor and root transaction. A root's frames on
     different containers run in parallel, so the check and the
     activation are one CAS. *)
  let rec activate root name =
    let cur = Atomic.get root.active_set in
    if List.mem name cur then
      raise
        (Reactor.Dangerous_call
           (Printf.sprintf "dangerous call structure: reactor %s already active" name));
    if not (Atomic.compare_and_set root.active_set cur (name :: cur)) then
      activate root name

  (* Contexts may end out of call order (sibling sub-calls), so remove by
     name: the most recent entry, the list's first. *)
  let rec deactivate root name =
    let rec drop = function
      | [] -> []
      | n :: rest -> if String.equal n name then rest else n :: drop rest
    in
    let cur = Atomic.get root.active_set in
    if not (Atomic.compare_and_set root.active_set cur (drop cur)) then
      deactivate root name

  let deadline_expired root =
    root.deadline < Float.infinity && P.now () > root.deadline

  (* Deadline checks sit at phase boundaries only — dequeue, sub-call
     start, resume after an await, implicit sync, collect, commit entry,
     2PC prepare — never inside application code, so an expired deadline
     always unwinds through the same typed abort path as any other abort
     (children awaited, active set cleaned, locks released). *)
  let check_deadline root ~where =
    if deadline_expired root then
      raise (Obs.Abort.Timed_out ("deadline expired " ^ where))

  (* A cross-container sub-call of a frame. Its reactor stays in the
     active set until the calling frame joins it (a [get], a collect or the
     implicit sync), not merely until its body returns: a root's frames
     run in parallel, and this keeps the dangerous-call verdict from
     depending on whether the child happened to finish first. *)
  type child = {
    fut : (Util.Value.t, exn) result P.future;
    callee : string;
    mutable joined : bool;
  }

  (* Invocation frame: one (sub-)transaction execution on one reactor. *)
  type frame = {
    froot : P.rx root;
    target : P.slot Bootstrap.reactor;
    fname : string;
    fhome : int;
        (* stable for the frame's lifetime: a migration flips a placement
           only after every root allowed at the old home completed *)
    fex : P.exec;
    on_root_path : bool;
    mutable children : child list;
  }

  let join db frame ch =
    let r =
      match P.peek ch.fut with
      | Some r -> r
      | None ->
        P.await_sub db frame.froot frame.fex ~container:frame.fhome
          ~on_root_path:frame.on_root_path ch.fut
    in
    if not ch.joined then begin
      ch.joined <- true;
      deactivate frame.froot ch.callee
    end;
    r

  (* Fork–join barrier: consume every future (resolved ones are peeked for
     free, so completion order does not matter), capturing per-future
     errors so a failure in one sub-call never unwinds while siblings are
     outstanding. Only then re-raise the first non-deadline error in list
     order. A deadline expiry seen by any per-future resume check is the
     root's one budget, so it is reported as the collect-boundary check
     firing. *)
  let collect root futures =
    let results =
      List.map (fun f -> try Ok (f.Reactor.get ()) with e -> Error e) futures
    in
    List.iter
      (function
        | Error (Obs.Abort.Timed_out _) | Ok _ -> () | Error e -> raise e)
      results;
    if List.exists Result.is_error results then
      raise (Obs.Abort.Timed_out "deadline expired at collect boundary");
    check_deadline root ~where:"at collect boundary";
    List.map Result.get_ok results

  let rec run_procedure db root target ~home ex ~on_root_path ~proc ~args =
    let e = target.Bootstrap.re in
    let procfn = Reactor.find_proc e.Bootstrap.bs_rtype proc in
    let frame =
      { froot = root; target; fname = e.Bootstrap.bs_name; fhome = home;
        fex = ex; on_root_path; children = [] }
    in
    let charge, work = P.enter db root target ~home ex ~on_root_path in
    let ctx =
      {
        Reactor.db =
          Query.Exec.make_ctx ?snapshot:root.rsnapshot ~txn:root.txn
            ~container:home ~catalog:e.Bootstrap.bs_catalog ~charge ~work ();
        self = frame.fname;
        call = (fun ~reactor ~proc ~args -> do_call db frame ~reactor ~proc ~args);
        collect = collect root;
      }
    in
    let result = try Ok (procfn ctx args) with e -> Error e in
    P.leave target ex;
    (* Implicit synchronization: a (sub-)transaction completes only when
       all its children complete — even on the abort path, since in-flight
       children mutate the shared transaction context. *)
    let first_err = ref (match result with Error e -> Some e | Ok _ -> None) in
    List.iter
      (fun ch ->
        match join db frame ch with
        | Ok _ -> ()
        | Error e -> if !first_err = None then first_err := Some e)
      (List.rev frame.children);
    (* Every child has completed, so raising here cannot leave a
       sub-transaction mutating the shared context. *)
    if !first_err = None && frame.children <> [] && deadline_expired root then
      first_err := Some (Obs.Abort.Timed_out "deadline expired after implicit sync");
    match !first_err with Some e -> raise e | None -> Result.get_ok result

  (* Run a sub-call synchronously in the caller's execution context; the
     result is immediately available. *)
  and inline db frame target ~home ~proc ~args =
    let v =
      run_procedure db frame.froot target ~home frame.fex
        ~on_root_path:frame.on_root_path ~proc ~args
    in
    { Reactor.get = (fun () -> v) }

  and do_call db frame ~reactor ~proc ~args =
    let root = frame.froot in
    if reactor = frame.fname then
      (* Self-call: inlined in the same execution context (§2.2.4). *)
      inline db frame frame.target ~home:frame.fhome ~proc ~args
    else begin
      let target = Bootstrap.lookup db reactor in
      activate root reactor;
      let resolved =
        try P.resolve db root ~caller:frame.fex target
        with e ->
          deactivate root reactor;
          raise e
      in
      match resolved with
      | Some h when h = frame.fhome -> (
        (* Same container: execute synchronously in the caller's executor,
           avoiding migration-of-control overhead (§3.2.1). *)
        match inline db frame target ~home:h ~proc ~args with
        | v ->
          deactivate root reactor;
          v
        | exception e ->
          deactivate root reactor;
          raise e)
      | _ ->
        (* Cross-container: asynchronous dispatch to the owner. *)
        let fut =
          P.call db root ~from:frame.fhome ~on_root_path:frame.on_root_path
            target ~parked:(resolved = None) (fun ex home ->
              let res =
                try
                  check_deadline root ~where:"at sub-transaction start";
                  Ok
                    (run_procedure db root target ~home ex ~on_root_path:false
                       ~proc ~args)
                with e -> Error e
              in
              (match res with
              | Error e ->
                ignore (Atomic.compare_and_set root.doomed None (classify_exn e))
              | Ok _ -> ());
              res)
        in
        let ch = { fut; callee = reactor; joined = false } in
        frame.children <- ch :: frame.children;
        {
          Reactor.get =
            (fun () ->
              match join db frame ch with
              | Ok v ->
                (* Resumed after a (possibly long) blocked window: re-check
                   the budget. Raises inside the procedure body, so the
                   implicit sync still awaits every sibling. *)
                check_deadline root ~where:"on resume after sub-transaction";
                v
              | Error e -> raise e);
        }
    end

  (* Trace clock: read only when the root is traced. *)
  let stamp root = if Obs.Trace.enabled root.tr then P.now () else 0.

  let since root phase t =
    if Obs.Trace.enabled root.tr then Obs.Trace.add root.tr phase (P.now () -. t)

  let run_body db root target ~home ex ~queued_since ~proc ~args =
    let t_body = stamp root in
    (* one clock read ends the queue wait and starts the body, so the
       phases telescope to at most the latency *)
    if Obs.Trace.enabled root.tr then
      Obs.Trace.add root.tr Obs.Phase.Queue_wait (t_body -. queued_since);
    let name = target.Bootstrap.re.bs_name in
    activate root name;
    let abort (k, m) = Error (k, m, snd (class_info k)) in
    let res =
      try
        (* Dequeue boundary: a root whose whole budget went to queueing
           aborts before touching any record. *)
        check_deadline root ~where:"before execution";
        let v = run_procedure db root target ~home ex ~on_root_path:true ~proc ~args in
        match Atomic.get root.doomed with Some km -> abort km | None -> Ok v
      with e -> (
        match classify_exn e with
        | Some km -> abort km
        | None ->
          P.on_fatal db e;
          abort (Ab_internal, "internal error: " ^ Printexc.to_string e))
    in
    deactivate root name;
    (* Exec = body span minus the root's blocked windows. *)
    since root Obs.Phase.Exec (t_body +. Obs.Trace.get root.tr Obs.Phase.Suspend_wait);
    res

  (* The commit decision: every participant voted yes and holds its locks.
     Only now does the root take its epoch, as Silo reads the epoch after
     locking, so no hold spans a prepare round trip. In order: the
     group-commit tag of a logged root, the registry's commit hold, the
     TID, the redo record queued ahead of the install — its tag drops
     with the queueing — the history entry of a recorded database, then
     the install. Epochs only grow, so tag <= hold <= TID epoch. The
     commit hold lasts until every install landed, so no snapshot is
     issued at an epoch that can still gain installs: [install] reports
     the installs it leaves posted ([expect n] returns the landing each
     of them calls), and the last of those and this call drops the
     hold. Each posted install also holds the root's
     settlement. Tag and hold are dropped on every path, since a leaked
     tag would freeze the durable bound and a leaked hold snapshots and
     GC. A failed log refuses the record: nothing installs, and the
     caller releases the participants as for a refused vote. *)
  let install_all db root ~install =
    let reg = db.Bootstrap.registry in
    let commit log =
      let epoch = Pins.Registry.hold_commit reg in
      let holders = Atomic.make 1 in
      let drop () =
        if Atomic.fetch_and_add holders (-1) = 1 then Pins.Registry.drop_commit reg epoch
      in
      let expect n =
        ignore (Atomic.fetch_and_add holders n);
        ignore (Atomic.fetch_and_add root.unsettled n);
        fun () ->
          drop ();
          arrive root
      in
      Fun.protect ~finally:drop (fun () ->
          let tid = Occ.Commit.compute_tid root.txn ~epoch in
          match log tid with
          | Error m -> Error (wal_failed m)
          | Ok () ->
            (match db.history with Some h -> record h root.txn ~tid | None -> ());
            install ~tid
              ~horizon:
                (if Pins.Registry.enabled reg then Some (Pins.Registry.horizon reg)
                 else None)
              ~expect;
            Ok ())
    in
    match db.wal with
    | None -> commit (fun _ -> Ok ())
    | Some d -> (
      match redo_writes db.table_owner root.txn with
      | [] -> commit (fun _ -> Ok ())
      | writes ->
        let tag = Durability.register d in
        Fun.protect
          ~finally:(fun () -> if Option.is_none root.flush then Durability.cancel d tag)
          (fun () ->
            commit (fun tid ->
                Durability.queue d ~tag
                  { Wal.le_txn = Occ.Txn.id root.txn; le_tid = tid; le_writes = writes }
                |> Result.map (fun b -> root.flush <- Some b))))

  (* One participant's prepare vote: refuse outright when the root's
     deadline has passed (no locks taken: the coordinator rolls the others
     back as for any abort vote), otherwise validate. *)
  let prepare_vote db root c =
    if deadline_expired root then
      Error (Ab_timeout, "deadline expired during 2pc prepare", Obs.Abort.Timeout)
    else begin
      P.charge_validation db root.txn c;
      let r = Occ.Commit.prepare root.txn ~container:c in
      if Result.is_ok r then P.prepared db;
      Result.map_error validation_failed r
    end

  (* Two-phase commit (§3.2.2): phase one runs Silo validation with locks
     on every participant; phase two installs or releases. Each
     participant's steps run on the executor owning its container; the
     coordinator's own container is inlined. Votes and releases are
     awaited. Installs go through [P.post], so on the runtime a decided
     root finishes without waiting for its remote installs; each of them
     drops its share of the commit hold and of the root's settlement when
     it lands.

     Phase one's order. When the coordinator's container takes part and
     every other participant's reads are covered by its own write locks
     ([Occ.Txn.reads_covered]), the coordinator commits as the last
     agent: it sends the other prepares first and prepares its own
     container inline only once every one of them voted yes, so its
     locks are never held across a vote's round trip. That keeps Silo's
     rule: a covered read cannot change between its prepare and its
     install, and the coordinator validates its own reads only after
     every participant has locked. Any other root prepares every
     participant at once, its own container inline. *)
  let two_phase db root ~coord containers =
    let me = P.cid coord in
    (* Run [f] on every container in [cs], the coordinator's own inline,
       the others through [via] (default [P.remote]), then wait for all.
       An exception out of a remote step would leave the coordinator
       waiting forever; it yields [dead] instead. *)
    let on_each ?(via = P.remote) cs f ~dead =
      List.map
        (fun c ->
          if c = me then `Done (f c)
          else
            `Pending
              (via db root ~coord c (fun () ->
                   try f c with e -> P.on_fatal db e; dead)))
        cs
      |> List.map (function
           | `Done r -> r
           | `Pending fut -> (
             match P.peek fut with Some r -> r | None -> P.await db coord fut))
    in
    let release cs =
      ignore (on_each cs (fun c -> Occ.Commit.release root.txn ~container:c) ~dead:())
    in
    let t_val = stamp root in
    let vote = prepare_vote db root in
    let dead = Error (internal "validation failed (2pc): internal vote error") in
    let last_agent =
      List.mem me containers
      && List.for_all
           (fun c -> c = me || Occ.Txn.reads_covered root.txn ~container:c)
           containers
    in
    (* (container, vote) pairs of the participants that voted *)
    let votes =
      if last_agent then
        let others = List.filter (( <> ) me) containers in
        let remote = List.combine others (on_each others vote ~dead) in
        if List.for_all (fun (_, v) -> Result.is_ok v) remote then
          remote @ [ (me, vote me) ]
        else remote
      else List.combine containers (on_each containers vote ~dead)
    in
    since root Obs.Phase.Validation t_val;
    let t_dec = stamp root in
    let prepared = List.filter_map (function c, Ok () -> Some c | _, Error _ -> None) votes in
    (* Chaos: the primary dies between the phases and fences itself. A
       fenced primary installs and logs nothing, so the root rolls back as
       on an abort vote. *)
    if Chaos.draw_us db.chaos Chaos.Kill_primary <> None then Atomic.set db.fenced true;
    let r =
      match List.find_map (function _, Error r -> Some r | _, Ok () -> None) votes with
      | _ when Atomic.get db.fenced -> Error (internal "primary killed mid-2pc")
      | Some reason -> Error reason
      | None ->
        install_all db root ~install:(fun ~tid ~horizon ~expect ->
            let landed = expect (List.length (List.filter (( <> ) me) containers)) in
            ignore
              (on_each containers ~via:P.post ~dead:() (fun c ->
                   Fun.protect
                     ~finally:(fun () -> if c <> me then landed ())
                     (fun () ->
                       P.charge_install db;
                       Occ.Commit.install ?horizon root.txn ~container:c ~tid))))
    in
    if Result.is_error r then release prepared;
    since root Obs.Phase.Commit t_dec;
    r

  (* Single-container commit on [c]'s owner: no votes, but validation
     (from [t0]) and install still land in their own trace phases. *)
  let commit_one db root c ~t0 ~prepare =
    let prepared = prepare c in
    since root Obs.Phase.Validation t0;
    match prepared with
    | Error _ as e -> e
    | Ok () ->
      let t1 = stamp root in
      let r =
        install_all db root ~install:(fun ~tid ~horizon ~expect:_ ->
            Occ.Commit.install ?horizon root.txn ~container:c ~tid)
      in
      if Result.is_error r then Occ.Commit.release root.txn ~container:c;
      since root Obs.Phase.Commit t1;
      r

  let do_commit db root ~coord =
    let t0 = stamp root in
    match Occ.Txn.containers root.txn with
    | [] ->
      P.charge_install db;
      since root Obs.Phase.Commit t0;
      Ok ()
    | [ c ] when c = P.cid coord ->
      commit_one db root c ~t0 ~prepare:(fun c ->
          P.charge_validation db root.txn c;
          Result.map_error validation_failed (Occ.Commit.prepare root.txn ~container:c))
    | [ c ] ->
      (* The one container is not the coordinator's: prepare and install
         re-pin to its owner as one step, so the write locks are never
         held across a round trip. Messaging both ways and owner-queue
         residence count toward validation. *)
      let fut =
        P.remote db root ~coord c (fun () ->
            let r =
              try commit_one db root c ~t0 ~prepare:(prepare_vote db root)
              with e ->
                P.on_fatal db e;
                Error (internal ("internal commit error: " ^ Printexc.to_string e))
            in
            (r, stamp root))
      in
      let r, t_reply = match P.peek fut with Some x -> x | None -> P.await db coord fut in
      since root Obs.Phase.Validation t_reply;
      r
    | containers -> two_phase db root ~coord containers

  let decide db root ~coord body =
    match body with
    | Ok v when root.rsnapshot <> None ->
      (* Read-only snapshot root: nothing to validate, lock, install or
         log, so the result is final once the body returns. *)
      Ok v
    | Ok _ when deadline_expired root ->
      (* Commit entry: nothing is prepared yet, so expiring here just
         drops the read/write sets. *)
      Error (Ab_timeout, "deadline expired before commit", Obs.Abort.Timeout)
    | Ok v -> (
      (* Validation, and the votes of a multi-container root, come first;
         the epoch is taken at the decision ([install_all]). *)
      match do_commit db root ~coord with
      | r -> Result.map (fun () -> v) r
      | exception e ->
        P.on_fatal db e;
        Error (internal ("internal commit error: " ^ Printexc.to_string e)))
    | Error _ as aborted -> aborted

  let finish db root verdict ~container =
    Option.iter (Pins.Registry.release db.Bootstrap.registry) root.rsnapshot;
    let counters = db.counters in
    let retry = root.retry and tr = root.tr in
    (* A commit is acknowledged by the flush that writes its record; one
       that failed turns the commit into an internal abort. *)
    let verdict =
      match verdict with
      | Error _ -> verdict
      | Ok _ -> (
        let t = stamp root in
        let flushed = Option.fold ~none:(Ok ()) ~some:(P.wait_durable db) root.flush in
        since root Obs.Phase.Flush_wait t;
        match flushed with Ok () -> verdict | Error m -> Error (wal_failed m))
    in
    let latency = P.now () -. root.t_start in
    let participants = Stdlib.max 1 (List.length (Occ.Txn.containers root.txn)) in
    let readonly = root.rsnapshot <> None in
    let cause =
      match verdict with
      | Ok _ ->
        Atomic.incr counters.committed;
        if readonly then Atomic.incr counters.ro_commits;
        None
      | Error (k, _, kind) ->
        count_abort counters k;
        Some (Obs.Abort.cause ~participants ~retry kind)
    in
    (match (root.obs, cause) with
    | None, _ -> ()
    | Some c, None ->
      Obs.Collector.record_commit c ~container ~participants ~retry ~readonly
        ~latency_us:latency tr
    | Some c, Some cause ->
      Obs.Collector.record_abort c ~container ~latency_us:latency ~cause tr);
    (Result.map_error (fun (_, m, _) -> m) verdict, latency, cause)
end
