module Registry = struct
  type t = {
    mu : Mutex.t;
    epoch : unit -> int;
    live : Epochs.t;  (* live snapshots per snapshot epoch *)
    commits : Epochs.t;  (* commit holds per TID epoch *)
    enabled : bool Atomic.t;
  }

  let create ~epoch =
    { mu = Mutex.create (); epoch; live = Epochs.create ();
      commits = Epochs.create (); enabled = Util.Padded.atomic true }

  let enabled t = Atomic.get t.enabled
  let set_enabled t b = Atomic.set t.enabled b

  (* A commit's TID epoch is at least the epoch it held (compute_tid takes
     the max with observed TIDs, which never exceed the current epoch), and
     the hold reads the clock under [mu]; so every install at an epoch
     <= the result has landed. *)
  let safe_locked t = Stdlib.max 0 (Epochs.minimum t.commits ~default:(t.epoch ()) - 1)
  let safe_snapshot t = Mutex.protect t.mu (fun () -> safe_locked t)

  let acquire t =
    Mutex.protect t.mu (fun () ->
        let s = safe_locked t in
        Epochs.add t.live s;
        s)

  let release t s = Mutex.protect t.mu (fun () -> Epochs.remove t.live s)

  let horizon t =
    Mutex.protect t.mu (fun () -> Epochs.minimum t.live ~default:(safe_locked t))

  let hold_commit t =
    Mutex.protect t.mu (fun () ->
        let e = t.epoch () in
        Epochs.add t.commits e;
        e)

  let drop_commit t e = Mutex.protect t.mu (fun () -> Epochs.remove t.commits e)
end

module Gate = struct
  type stub = { cutoff : int; mutable parked : (unit -> unit) list (* newest first *) }

  (* [mu] guards the stub table, the drain waiter and the admission queue.
     [active] is set under [mu] before the generation bump, so a root that
     registered after a mark always sees it. *)
  type t = {
    mu : Mutex.t;
    active : bool Atomic.t;
    gen : int Atomic.t;
    inflight : int Atomic.t array;  (* length 2, indexed by generation parity *)
    stubs : (string, stub) Hashtbl.t;
    mutable drain_waiter : (int * (unit -> unit)) option;  (* (parity, waker) *)
    mutable busy : bool;
    queued : (unit -> unit) Queue.t;  (* migrations waiting for [busy] *)
    n_migrations : int Atomic.t;
    placement_epoch : int Atomic.t;
    pause_last : float Atomic.t;
  }

  let create () =
    let padded = Util.Padded.atomic in
    { mu = Mutex.create (); active = padded false; gen = padded 0;
      inflight = [| padded 0; padded 0 |]; stubs = Hashtbl.create 4;
      drain_waiter = None; busy = false; queued = Queue.create ();
      n_migrations = Atomic.make 0; placement_epoch = Atomic.make 0;
      pause_last = Atomic.make 0. }

  (* The retire that empties a slot wakes the drain waiting on it. With no
     migration active no waiter can exist, and a mark after the decrement
     re-reads the emptied slot itself. *)
  let retire t g =
    let p = g land 1 in
    if Atomic.fetch_and_add t.inflight.(p) (-1) = 1 && Atomic.get t.active then begin
      Mutex.lock t.mu;
      match t.drain_waiter with
      | Some (dp, w) when dp = p && Atomic.get t.inflight.(p) = 0 ->
        t.drain_waiter <- None;
        Mutex.unlock t.mu;
        w ()
      | _ -> Mutex.unlock t.mu
    end

  let rec register t =
    let g = Atomic.get t.gen in
    Atomic.incr t.inflight.(g land 1);
    if Atomic.get t.gen = g then g
    else begin
      retire t g;
      register t
    end

  let admits t ~rgen reactor =
    (not (Atomic.get t.active))
    || Mutex.protect t.mu (fun () ->
           match Hashtbl.find_opt t.stubs reactor with
           | Some s -> rgen <= s.cutoff
           | None -> true)

  let park t reactor k =
    Mutex.lock t.mu;
    match Hashtbl.find_opt t.stubs reactor with
    | Some s ->
      s.parked <- k :: s.parked;
      Mutex.unlock t.mu
    | None ->
      Mutex.unlock t.mu;
      k ()

  (* Bump the generation, running [f cutoff] under [mu] first. *)
  let advance t f =
    Mutex.protect t.mu (fun () ->
        Atomic.set t.active true;
        let cutoff = Atomic.get t.gen in
        f cutoff;
        Atomic.incr t.gen;
        cutoff)

  let mark t reactor =
    advance t (fun cutoff -> Hashtbl.replace t.stubs reactor { cutoff; parked = [] })

  (* Under [mu]: the last stub gone ends the active period. *)
  let settle t = if Hashtbl.length t.stubs = 0 then Atomic.set t.active false

  let flip t reactor =
    Mutex.protect t.mu (fun () ->
        let parked =
          match Hashtbl.find_opt t.stubs reactor with
          | Some s ->
            Hashtbl.remove t.stubs reactor;
            List.rev s.parked
          | None -> []
        in
        settle t;
        parked)

  (* Block until [ready ()] holds under [mu]. Not ready: the waker is
     re-checked and registered by [enqueue] in one critical section, so the
     party that makes [ready] true under [mu] always finds it. *)
  let wait_for t ~suspend ~ready ~enqueue =
    if not (Mutex.protect t.mu ready) then
      suspend (fun w ->
          Mutex.lock t.mu;
          if ready () then begin
            Mutex.unlock t.mu;
            w ()
          end
          else begin
            enqueue w;
            Mutex.unlock t.mu
          end)

  let drain t ~suspend cutoff =
    let p = cutoff land 1 in
    wait_for t ~suspend
      ~ready:(fun () -> Atomic.get t.inflight.(p) = 0)
      ~enqueue:(fun w -> t.drain_waiter <- Some (p, w))

  (* Migrations run one at a time; a finishing one hands [busy] straight to
     the oldest queued caller. *)
  let claim t () =
    if t.busy then false
    else begin
      t.busy <- true;
      true
    end

  let dismiss t =
    Mutex.lock t.mu;
    match Queue.take_opt t.queued with
    | Some w ->
      Mutex.unlock t.mu;
      w ()
    | None ->
      t.busy <- false;
      Mutex.unlock t.mu

  let serialized t ~suspend f =
    wait_for t ~suspend ~ready:(claim t) ~enqueue:(fun w -> Queue.add w t.queued);
    Fun.protect ~finally:(fun () -> dismiss t) f

  let migrate t ~suspend ~now ~reactor ~home ~set_home ~dst ~log =
    serialized t ~suspend (fun () ->
        if home () = dst then 0.
        else begin
          let t0 = now () in
          let cutoff = mark t reactor in
          drain t ~suspend cutoff;
          (* the placement record is logged write-ahead of the flip *)
          log ~seq:(1 + Atomic.fetch_and_add t.n_migrations 1);
          (* new home first, then the stub goes: a root passing [admits]
             once the stub is gone reads the new placement *)
          set_home dst;
          Atomic.incr t.placement_epoch;
          let parked = flip t reactor in
          let pause = now () -. t0 in
          Atomic.set t.pause_last pause;
          List.iter (fun k -> k ()) parked;
          pause
        end)

  (* A mark of the whole primary with no stub; see the interface. *)
  let fence t ~suspend flag =
    serialized t ~suspend (fun () ->
        drain t ~suspend (advance t (fun _ -> Atomic.set flag true));
        Mutex.protect t.mu (fun () -> settle t))

  let n_migrations t = Atomic.get t.n_migrations
  let placement_epoch t = Atomic.get t.placement_epoch
  let pause_last t = Atomic.get t.pause_last
end
