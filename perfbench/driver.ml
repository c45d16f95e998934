(* Fixed-work closed-loop drivers, one per backend.

   Every request of a pre-generated array is run exactly once as a
   logical transaction. [clients] virtual clients each keep one logical
   transaction in flight and take the next unclaimed request when it
   completes, so all clients finish within one transaction of each other.
   On the runtime the next request is submitted from the completion
   callback: there are no client threads. Transient aborts are resubmitted
   at once, up to [max_retries] times. Every latency is kept. The simulator
   driver also times [Probe]s, to state its wall time at a fixed host
   speed. *)

module Db = Runtime.Db
module DB = Reactdb.Database
module Wl = Workloads.Wl

type status = Committed | User_abort | Failed

type result = {
  lat_us : float array;
      (* per request: first submission to final completion, in wall µs on
         the runtime and virtual µs on the simulator; nan unless committed *)
  status : status array;
  retries : int array;  (* resubmitted attempts per request *)
  multi : int array;  (* attempts of the request that touched >1 container *)
  abort_kinds : int array;  (* aborted attempts by [Obs.Abort.kind_index] *)
  ro_aborts : int;  (* aborted attempts of read-only requests *)
  wall_s : float;  (* first submission to last completion, probes excluded *)
  ref_wall_s : float;
      (* [wall_s] at the probes' reference host speed on the simulator;
         [wall_s] itself on the runtime *)
  outcomes : DB.outcome list;
      (* committed attempts, when the simulator driver is asked to keep them *)
}

(* Immediate retries take a few µs each on the runtime, so 1000 of them
   can all fall inside one stall of the other vCPU of a shared host while
   it holds the lock they wait for. A million last seconds: running out of
   them means a livelock, not a busy host. *)
let max_retries = 1_000_000

let count st r =
  Array.fold_left (fun a s -> if s = st then a + 1 else a) 0 r.status

let logical r = Array.length r.status
let committed r = count Committed r
let failed r = count Failed r
let retries r = Array.fold_left ( + ) 0 r.retries
let attempts r = logical r + retries r
let multi_attempts r = Array.fold_left ( + ) 0 r.multi

(* Latencies of the committed logical transactions, ascending. *)
let committed_latencies r =
  let l = ref [] in
  Array.iteri (fun i s -> if s = Committed then l := r.lat_us.(i) :: !l) r.status;
  Pstats.sorted_copy (Array.of_list !l)

let kind_of (cause : Obs.Abort.cause option) =
  match cause with Some c -> c.Obs.Abort.kind | None -> Obs.Abort.Internal

let final_status kind = if kind = Obs.Abort.User then User_abort else Failed

let report_failure (req : Wl.request) kind retries =
  if final_status kind = Failed then
    Printf.eprintf "perfbench: %s on %s failed (%s) after %d retries\n%!" req.Wl.proc
      req.Wl.reactor (Obs.Abort.kind_name kind) retries

let runtime db ~clients ~readonly reqs =
  let n = Array.length reqs in
  let lat_us = Array.make n Float.nan and status = Array.make n Failed in
  let retries = Array.make n 0 and multi = Array.make n 0 in
  let kinds = Array.init Obs.Abort.n_kinds (fun _ -> Atomic.make 0) in
  let ro_aborts = Atomic.make 0 in
  let next = Atomic.make 0 in
  let m = Mutex.create () and all_done = Condition.create () in
  let active = ref clients in
  let client_done () =
    Mutex.lock m;
    decr active;
    if !active = 0 then Condition.signal all_done;
    Mutex.unlock m
  in
  let rec take () =
    let i = Atomic.fetch_and_add next 1 in
    if i >= n then client_done () else attempt i 0 (Unix.gettimeofday ())
  and attempt i r t_first =
    let req = reqs.(i) in
    Db.submit ~retry:r db ~reactor:req.Wl.reactor ~proc:req.Wl.proc
      ~args:req.Wl.args ~k:(fun (o : Db.outcome) ->
        if o.Db.containers_touched > 1 then multi.(i) <- multi.(i) + 1;
        match o.Db.result with
        | Ok _ ->
          lat_us.(i) <- (Unix.gettimeofday () -. t_first) *. 1e6;
          status.(i) <- Committed;
          retries.(i) <- r;
          take ()
        | Error _ ->
          let kind = kind_of o.Db.abort_cause in
          Atomic.incr kinds.(Obs.Abort.kind_index kind);
          if readonly req.Wl.proc then Atomic.incr ro_aborts;
          if Obs.Abort.transient kind && r < max_retries then
            attempt i (r + 1) t_first
          else begin
            report_failure req kind r;
            status.(i) <- final_status kind;
            retries.(i) <- r;
            take ()
          end)
  in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to clients do
    take ()
  done;
  Mutex.lock m;
  while !active > 0 do
    Condition.wait all_done m
  done;
  Mutex.unlock m;
  let wall_s = Unix.gettimeofday () -. t0 in
  { lat_us; status; retries; multi;
    abort_kinds = Array.map Atomic.get kinds;
    ro_aborts = Atomic.get ro_aborts; wall_s; ref_wall_s = wall_s; outcomes = [] }

let sim ?(keep_outcomes = false) db ~clients ~readonly reqs =
  let eng = DB.engine db in
  let n = Array.length reqs in
  let lat_us = Array.make n Float.nan and status = Array.make n Failed in
  let retries = Array.make n 0 and multi = Array.make n 0 in
  let kinds = Array.make Obs.Abort.n_kinds 0 in
  let ro_aborts = ref 0 and outcomes = ref [] and next = ref 0 in
  let rec attempt i r t_first =
    let req = reqs.(i) in
    let o =
      DB.exec_txn ~retry:r db ~reactor:req.Wl.reactor ~proc:req.Wl.proc
        ~args:req.Wl.args
    in
    if o.DB.containers_touched > 1 then multi.(i) <- multi.(i) + 1;
    match o.DB.result with
    | Ok _ ->
      lat_us.(i) <- Sim.Engine.current_time () -. t_first;
      status.(i) <- Committed;
      retries.(i) <- r;
      if keep_outcomes then outcomes := o :: !outcomes
    | Error _ ->
      let kind = kind_of o.DB.abort_cause in
      let k = Obs.Abort.kind_index kind in
      kinds.(k) <- kinds.(k) + 1;
      if readonly req.Wl.proc then incr ro_aborts;
      if Obs.Abort.transient kind && r < max_retries then
        attempt i (r + 1) t_first
      else begin
        report_failure req kind r;
        status.(i) <- final_status kind;
        retries.(i) <- r
      end
  in
  (* One probe before the run and one every [Probe.every] claimed requests;
     the stretches of simulator time between them are timed apart. *)
  let probes = ref [] and stretches = ref [] and mark = ref 0. in
  let probe salt =
    if !probes <> [] then stretches := (Unix.gettimeofday () -. !mark) :: !stretches;
    probes := Probe.time salt :: !probes;
    mark := Unix.gettimeofday ()
  in
  let rec client () =
    let i = !next in
    if i < n then begin
      incr next;
      if i > 0 && i mod Probe.every = 0 then probe i;
      attempt i 0 (Sim.Engine.current_time ());
      client ()
    end
  in
  for _ = 1 to clients do
    Sim.Engine.spawn eng client
  done;
  probe 0;
  ignore (Sim.Engine.run eng);
  stretches := (Unix.gettimeofday () -. !mark) :: !stretches;
  let stretches = List.rev !stretches in
  { lat_us; status; retries; multi; abort_kinds = kinds; ro_aborts = !ro_aborts;
    wall_s = List.fold_left ( +. ) 0. stretches;
    ref_wall_s = Probe.ref_seconds (List.rev !probes) stretches;
    outcomes = !outcomes }
