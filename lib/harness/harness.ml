open Util
module DB = Reactdb.Database
module RDb = Runtime.Db

type breakdown_avg = {
  avg_sync_exec : float;
  avg_cs : float;
  avg_cr : float;
  avg_async_exec : float;
  avg_overhead : float;
}

type run_result = {
  throughput : float;
  throughput_std : float;
  avg_latency : float;
  latency_std : float;
  p50_latency : float;
  p95_latency : float;
  p99_latency : float;
  abort_rate : float;
  committed : int;
  aborted : int;
  retries : int;
  aborts_by_reason : (string * int) list;
  breakdown : breakdown_avg option;
  utilizations : float array;
}

type spec = {
  n_workers : int;
  gen : int -> Rng.t -> Workloads.Wl.request;
  epochs : int;
  epoch_us : float;
  warmup_epochs : int;
  seed : int;
  max_retries : int;
  deadline_us : float option;
  backoff : Backoff.policy option;
}

let spec ?(epochs = 20) ?(epoch_us = 20_000.) ?(warmup_epochs = 3) ?(seed = 42)
    ?(max_retries = 0) ?deadline_us ?(backoff = Some Backoff.default)
    ~n_workers gen =
  { n_workers; gen; epochs; epoch_us; warmup_epochs; seed; max_retries;
    deadline_us; backoff }

let build ?(profile = Reactdb.Profile.default) decl config =
  let eng = Sim.Engine.create () in
  DB.create eng decl config profile

let zero_bd =
  { avg_sync_exec = 0.; avg_cs = 0.; avg_cr = 0.; avg_async_exec = 0.;
    avg_overhead = 0. }

let add_bd acc (b : DB.breakdown) =
  {
    avg_sync_exec = acc.avg_sync_exec +. b.DB.bd_sync_exec;
    avg_cs = acc.avg_cs +. b.DB.bd_cs;
    avg_cr = acc.avg_cr +. b.DB.bd_cr;
    avg_async_exec = acc.avg_async_exec +. b.DB.bd_async_exec;
    avg_overhead = acc.avg_overhead +. b.DB.bd_overhead;
  }

let scale_bd acc n =
  let d = Float.max 1. (float_of_int n) in
  {
    avg_sync_exec = acc.avg_sync_exec /. d;
    avg_cs = acc.avg_cs /. d;
    avg_cr = acc.avg_cr /. d;
    avg_async_exec = acc.avg_async_exec /. d;
    avg_overhead = acc.avg_overhead /. d;
  }

(* ------------------------------------------------------------------ *)
(* Backends: what the closed loop needs from an execution platform. All
   times are µs of the backend's clock (virtual or wall, DESIGN.md §6.2). *)

type outcome = {
  latency_us : float;
  cause : Obs.Abort.cause option;  (* [None]: committed *)
  breakdown : DB.breakdown option;  (* the simulator's Figure 6 split *)
}

type backend = {
  submit :
    retry:int -> ?deadline_us:float -> Workloads.Wl.request ->
    (outcome -> unit) -> unit;
      (* run one attempt, then hand its outcome to the continuation *)
  after : float -> (unit -> unit) -> unit;
  now : unit -> float;
  sleep : float -> unit;  (* the controller's *)
  run :
    (unit -> unit) list -> (unit -> unit) -> settled:(unit -> bool) -> unit;
      (* start the client chains, run the controller to completion, and
         return once [settled ()] holds and no attempt is in flight *)
  busy : unit -> float array;  (* cumulative busy µs per executor *)
  fatal : exn -> unit;  (* a workload generator raised *)
  fenced : unit -> bool;  (* the primary is fenced: it refuses every root *)
}

(* Simulator: each chain is an engine process running its attempts inline,
   so a continuation is a tail call in the same process. *)
let sim db =
  let eng = DB.engine db in
  {
    submit =
      (fun ~retry ?deadline_us req k ->
        let o =
          DB.exec_txn ~retry ?deadline_us db ~reactor:req.Workloads.Wl.reactor
            ~proc:req.Workloads.Wl.proc ~args:req.Workloads.Wl.args
        in
        k
          { latency_us = o.DB.latency; cause = o.DB.abort_cause;
            breakdown = Some o.DB.breakdown });
    after =
      (fun d f ->
        Sim.Engine.delay d;
        f ());
    now = Sim.Engine.current_time;
    sleep = Sim.Engine.delay;
    run =
      (fun chains control ~settled ->
        List.iter (Sim.Engine.spawn eng) chains;
        Sim.Engine.spawn eng control;
        ignore (Sim.Engine.run eng);
        if not (settled ()) then
          failwith "Harness: the simulation ran dry with client chains live");
    busy = (fun () -> DB.busy_times db);
    fatal = raise;
    fenced = (fun () -> DB.fenced db);
  }

(* Deferred-work timer on its own domain, used for backoff pauses between
   retry attempts and for the post-shed pause — both must not block an
   executor domain nor recurse on the submitter's stack. [Condition] has
   no timed wait in the stdlib, so with items pending the loop polls on a
   0.2 ms quantum; idle, it parks on the condition. *)
module Timer = struct
  type item = { due : float; thunk : unit -> unit }

  type t = {
    mu : Mutex.t;
    cond : Condition.t;
    mutable items : item list;
    mutable stopped : bool;
    mutable dom : unit Domain.t option;
    on_error : exn -> unit;
  }

  let rec loop t =
    Mutex.lock t.mu;
    if t.items = [] then
      if t.stopped then Mutex.unlock t.mu
      else begin
        Condition.wait t.cond t.mu;
        Mutex.unlock t.mu;
        loop t
      end
    else begin
      let now = Unix.gettimeofday () in
      let due, rest = List.partition (fun i -> i.due <= now) t.items in
      t.items <- rest;
      Mutex.unlock t.mu;
      List.iter (fun i -> try i.thunk () with e -> t.on_error e) due;
      if due = [] then Unix.sleepf 2e-4;
      loop t
    end

  let start ~on_error =
    let t =
      { mu = Mutex.create (); cond = Condition.create (); items = [];
        stopped = false; dom = None; on_error }
    in
    t.dom <- Some (Domain.spawn (fun () -> loop t));
    t

  let after t delay_us thunk =
    let due = Unix.gettimeofday () +. (delay_us *. 1e-6) in
    Mutex.lock t.mu;
    t.items <- { due; thunk } :: t.items;
    Condition.signal t.cond;
    Mutex.unlock t.mu

  (* Drains remaining items before exiting (callers quiesce first, so
     there normally are none). *)
  let stop t =
    Mutex.lock t.mu;
    t.stopped <- true;
    Condition.signal t.cond;
    Mutex.unlock t.mu;
    (match t.dom with Some d -> Domain.join d | None -> ());
    t.dom <- None
end

(* Runtime: completion-driven virtual clients. A chain's next attempt is
   submitted from the previous one's completion callback, so client think
   time is zero and no client threads are needed; pauses park on the
   timer domain for the length of one [run]. *)
let runtime db =
  let timer = ref None in
  {
    submit =
      (fun ~retry ?deadline_us req k ->
        RDb.submit ~retry ?deadline_us db ~reactor:req.Workloads.Wl.reactor
          ~proc:req.Workloads.Wl.proc ~args:req.Workloads.Wl.args
          ~k:(fun o ->
            k
              { latency_us = o.RDb.latency_us; cause = o.RDb.abort_cause;
                breakdown = None }));
    after = (fun d f -> Timer.after (Option.get !timer) d f);
    now = (fun () -> Unix.gettimeofday () *. 1e6);
    sleep = (fun us -> Unix.sleepf (us *. 1e-6));
    run =
      (fun chains control ~settled ->
        let t = Timer.start ~on_error:(RDb.record_fatal db) in
        timer := Some t;
        List.iter (fun chain -> chain ()) chains;
        control ();
        (* Chains first (a retry parked on the timer is not yet submitted,
           so submitted = completed can hold mid-transaction), then the
           in-flight roots, then the timer. *)
        while not (settled ()) do
          Unix.sleepf 2e-4
        done;
        RDb.quiesce db;
        Timer.stop t;
        timer := None;
        RDb.publish_sched_obs db);
    busy = (fun () -> Array.map (fun s -> s *. 1e6) (RDb.busy_times db));
    fatal = RDb.record_fatal db;
    fenced = (fun () -> RDb.fenced db);
  }

(* ------------------------------------------------------------------ *)
(* The closed loop. *)

(* After a shed the worker pauses before offering new work (the
   backpressure response); on the runtime the pause also keeps a
   synchronous shed from recursing submit → shed → submit. *)
let shed_pause_us = 500.

(* One chain per worker: generate, attempt, and resubmit transient aborts
   up to [max_retries] times with an increasing retry index, paced by the
   seeded backoff (an immediate retry would re-contend on exactly the state
   it just lost to). [observe] sees every attempt outcome exactly once with
   the retry decision made for it; [more n] says whether a worker that has
   finished [n] logical transactions starts another. An abort seen while
   the backend is fenced ends the chain: a deposed primary serves nothing,
   so neither a retry nor a next transaction would do more than be
   refused. *)
let drive b ~n_workers ~seed ~max_retries ~deadline_us ~backoff ~gen ~more
    ~observe control =
  let live = Atomic.make n_workers in
  let chain w () =
    (* Distinct workers draw distinct jitter schedules from one run seed,
       which is what de-synchronizes retry stampedes on a contended key. *)
    let bseed = seed lxor (w * 0x9e3779b9) in
    let rng = Rng.stream ~seed w in
    let rec attempt req idx k =
      b.submit ~retry:idx ?deadline_us req (fun o ->
          let will_retry =
            match o.cause with
            | Some c ->
              Obs.Abort.transient c.Obs.Abort.kind && idx < max_retries
              && not (b.fenced ())
            | None -> false
          in
          observe o ~will_retry;
          if not will_retry then k o
          else
            let again () = attempt req (idx + 1) k in
            match backoff with
            | None -> again ()
            | Some p ->
              b.after (Backoff.delay_us p ~seed:bseed ~attempt:(idx + 1)) again)
    in
    let rec step n =
      if not (more n) then Atomic.decr live
      else
        match gen w rng with
        | exception e ->
          b.fatal e;
          Atomic.decr live
        | req ->
          attempt req 0 (fun o ->
              let next () = step (n + 1) in
              match o.cause with
              | Some _ when b.fenced () -> Atomic.decr live
              | Some { Obs.Abort.kind = Obs.Abort.Overloaded; _ } ->
                b.after shed_pause_us next
              | _ -> next ())
    in
    step 0
  in
  b.run (List.init n_workers chain) control ~settled:(fun () ->
      Atomic.get live = 0)

let run b s =
  let stop = Atomic.make false in
  let measuring = Atomic.make false in
  let committed = Atomic.make 0 and aborted = Atomic.make 0 in
  let retries = Atomic.make 0 and epoch_commits = Atomic.make 0 in
  let kinds = Array.init Obs.Abort.n_kinds (fun _ -> Atomic.make 0) in
  let mu = Mutex.create () in
  let reservoir = Stats.Reservoir.create ~seed:s.seed 8192 in
  let epoch_lat = ref (Stats.create ()) in
  let bd_sum = ref zero_bd and bd_n = ref 0 in
  (* One [measuring] read attributes the attempt, its latency sample and its
     retry decision to the same side of the window boundary, so
     commits + aborts = logical + retries holds exactly within the window.
     Totals are read after the drain, so no in-window attempt is lost. *)
  let observe o ~will_retry =
    if Atomic.get measuring then begin
      match o.cause with
      | None ->
        Atomic.incr committed;
        Atomic.incr epoch_commits;
        Mutex.lock mu;
        Stats.add !epoch_lat o.latency_us;
        Stats.Reservoir.add reservoir o.latency_us;
        Option.iter
          (fun bd ->
            bd_sum := add_bd !bd_sum bd;
            incr bd_n)
          o.breakdown;
        Mutex.unlock mu
      | Some c ->
        Atomic.incr aborted;
        Atomic.incr kinds.(Obs.Abort.kind_index c.Obs.Abort.kind);
        if will_retry then Atomic.incr retries
    end
  in
  let tputs = Stats.create () and lat_means = Stats.create () in
  let utilizations = ref [||] in
  let control () =
    b.sleep (s.epoch_us *. float_of_int s.warmup_epochs);
    let busy0 = b.busy () in
    let t0 = b.now () in
    Atomic.set measuring true;
    for _ = 1 to s.epochs do
      b.sleep s.epoch_us;
      Stats.add tputs
        (float_of_int (Atomic.exchange epoch_commits 0) /. s.epoch_us *. 1e6);
      Mutex.lock mu;
      let lat = !epoch_lat in
      epoch_lat := Stats.create ();
      Mutex.unlock mu;
      if Stats.count lat > 0 then Stats.add lat_means (Stats.mean lat)
    done;
    Atomic.set measuring false;
    let busy1 = b.busy () in
    let window = Float.max 1e-9 (b.now () -. t0) in
    utilizations :=
      Array.mapi (fun i b1 -> (b1 -. busy0.(i)) /. window) busy1;
    Atomic.set stop true
  in
  drive b ~n_workers:s.n_workers ~seed:s.seed ~max_retries:s.max_retries
    ~deadline_us:s.deadline_us ~backoff:s.backoff ~gen:s.gen
    ~more:(fun _ -> not (Atomic.get stop))
    ~observe control;
  let c = Atomic.get committed and a = Atomic.get aborted in
  {
    throughput = Stats.mean tputs;
    throughput_std = Stats.stddev tputs;
    avg_latency = Stats.mean lat_means;
    latency_std = Stats.stddev lat_means;
    p50_latency = Stats.Reservoir.percentile reservoir 50.;
    p95_latency = Stats.Reservoir.percentile reservoir 95.;
    p99_latency = Stats.Reservoir.percentile reservoir 99.;
    abort_rate =
      (if c + a = 0 then 0. else float_of_int a /. float_of_int (c + a));
    committed = c;
    aborted = a;
    retries = Atomic.get retries;
    aborts_by_reason =
      List.filter_map
        (fun k ->
          let n = Atomic.get kinds.(Obs.Abort.kind_index k) in
          if n > 0 then Some (Obs.Abort.kind_name k, n) else None)
        Obs.Abort.all_kinds;
    breakdown = (if !bd_n = 0 then None else Some (scale_bd !bd_sum !bd_n));
    utilizations = !utilizations;
  }

let run_fixed ?(max_retries = 0) ?deadline_us ?(backoff = Some Backoff.default)
    b ~n_workers ~per_worker ~seed gen =
  let retries = Atomic.make 0 in
  drive b ~n_workers ~seed ~max_retries ~deadline_us ~backoff ~gen
    ~more:(fun n -> n < per_worker)
    ~observe:(fun _ ~will_retry -> if will_retry then Atomic.incr retries)
    ignore;
  Atomic.get retries

(* ------------------------------------------------------------------ *)
(* Serial latency driver (simulator). *)

let measure_txns db ?(warmup = 5) ?(seed = 42) ~n gen =
  let eng = DB.engine db in
  let outs = ref [] in
  Sim.Engine.spawn eng (fun () ->
      let rng = Rng.create seed in
      for _ = 1 to warmup do
        let req = gen rng in
        ignore
          (DB.exec_txn db ~reactor:req.Workloads.Wl.reactor
             ~proc:req.Workloads.Wl.proc ~args:req.Workloads.Wl.args)
      done;
      for _ = 1 to n do
        let req = gen rng in
        outs :=
          DB.exec_txn db ~reactor:req.Workloads.Wl.reactor
            ~proc:req.Workloads.Wl.proc ~args:req.Workloads.Wl.args
          :: !outs
      done);
  ignore (Sim.Engine.run eng);
  List.rev !outs

let committed_outcomes outs =
  List.filter (fun o -> Result.is_ok o.DB.result) outs

let mean_latency outs =
  let ok = committed_outcomes outs in
  if ok = [] then 0.
  else
    List.fold_left (fun acc o -> acc +. o.DB.latency) 0. ok
    /. float_of_int (List.length ok)

let mean_breakdown outs =
  let ok = committed_outcomes outs in
  scale_bd
    (List.fold_left (fun acc o -> add_bd acc o.DB.breakdown) zero_bd ok)
    (List.length ok)
