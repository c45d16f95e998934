type t = {
  mutable clock : float;
  mutable seq : int;
  events : (unit -> unit) Pqueue.t;
  mutable executed : int;
}

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | SpawnHere : (unit -> unit) -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

let create () = { clock = 0.; seq = 0; events = Pqueue.create (); executed = 0 }

let now t = t.clock
let events_executed t = t.executed

(* The engine whose [run] is executing on this domain; [run] saves and
   restores the outer one when runs nest. A process only ever runs inside
   its own engine's [run], so reading the clock needs no effect. *)
let running : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let schedule t ~at thunk =
  t.seq <- t.seq + 1;
  Pqueue.push t.events ~time:at ~seq:t.seq thunk

let rec start_process t f =
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
            Some
              (fun (k : (a, unit) continuation) ->
                (* [not (d >= 0.)] also rejects NaN, which would break the
                   event queue's order *)
                if not (d >= 0.) then
                  invalid_arg "Sim.Engine.delay: negative or NaN duration";
                schedule t ~at:(t.clock +. d) (fun () -> continue k ()))
          | SpawnHere g ->
            Some
              (fun k ->
                schedule t ~at:t.clock (fun () -> start_process t g);
                continue k ())
          | Suspend registrar ->
            Some
              (fun k ->
                let used = ref false in
                registrar (fun v ->
                    if !used then failwith "Sim.Engine: waker invoked twice";
                    used := true;
                    schedule t ~at:t.clock (fun () -> continue k v)))
          | _ -> None);
    }

let spawn t ?at f =
  let at = match at with Some x -> Stdlib.max x t.clock | None -> t.clock in
  schedule t ~at (fun () -> start_process t f)

let run ?until t =
  let horizon = match until with Some h -> h | None -> infinity in
  let q = t.events in
  let rec loop () =
    if not (Pqueue.is_empty q) then begin
      let time = Pqueue.min_time q in
      if time > horizon then t.clock <- horizon
      else begin
        let thunk = Pqueue.pop q in
        if time > t.clock then t.clock <- time;
        t.executed <- t.executed + 1;
        thunk ();
        loop ()
      end
    end
  in
  let outer = Domain.DLS.get running in
  Domain.DLS.set running (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set running outer) loop;
  t.clock

let delay d = Effect.perform (Delay d)

let current_time () =
  match Domain.DLS.get running with
  | Some t -> t.clock
  | None -> invalid_arg "Sim.Engine.current_time: called outside Engine.run"

let spawn_here f = Effect.perform (SpawnHere f)
let suspend registrar = Effect.perform (Suspend registrar)

module Ivar = struct
  type 'a ivar = {
    mutable value : 'a option;
    mutable waiters : ('a -> unit) list; (* reverse arrival order *)
  }

  let create () = { value = None; waiters = [] }
  let is_filled iv = Option.is_some iv.value

  let fill iv v =
    match iv.value with
    | Some _ -> invalid_arg "Sim.Engine.Ivar.fill: already filled"
    | None ->
      iv.value <- Some v;
      let ws = List.rev iv.waiters in
      iv.waiters <- [];
      List.iter (fun w -> w v) ws

  let peek iv = iv.value

  let read iv =
    match iv.value with
    | Some v -> v
    | None -> suspend (fun waker -> iv.waiters <- waker :: iv.waiters)
end

module Mailbox = struct
  type 'a mb = {
    items : 'a Queue.t;
    waiters : ('a -> unit) Queue.t;
  }

  let create () = { items = Queue.create (); waiters = Queue.create () }

  let push mb x =
    if Queue.is_empty mb.waiters then Queue.add x mb.items
    else (Queue.take mb.waiters) x

  let pop mb =
    if Queue.is_empty mb.items then
      suspend (fun waker -> Queue.add waker mb.waiters)
    else Queue.take mb.items

  let length mb = Queue.length mb.items
  let is_empty mb = Queue.is_empty mb.items
end
