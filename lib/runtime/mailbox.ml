exception Closed

type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable inbox : 'a Queue.t;  (* producers append here, under [mu] *)
  mutable batch : 'a Queue.t;  (* consumer-private drained batch *)
  deferred : 'a Queue.t;
      (* the deferred lane, under [mu]: served one message at a time, only
         when [batch] and [inbox] are both empty *)
  mutable closed : bool;
  mutable waiting : bool;  (* consumer parked in [pop_wait] *)
  capacity : int;  (* admission bound for the [try_push*]; max_int = unbounded *)
  spin : bool;  (* [pop_wait] polls [size] for [spin_s] before it parks *)
  size : int Atomic.t;  (* messages pushed but not yet popped *)
}

let create ?(capacity = max_int) ?(spin = true) () =
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    inbox = Queue.create ();
    batch = Queue.create ();
    deferred = Queue.create ();
    closed = false;
    waiting = false;
    capacity = (if capacity < 1 then 1 else capacity);
    spin;
    size = Util.Padded.atomic 0;
  }

let push t x =
  Mutex.lock t.mu;
  if t.closed then begin
    Mutex.unlock t.mu;
    raise Closed
  end;
  Queue.add x t.inbox;
  Atomic.incr t.size;
  (* Signal only when the consumer is actually parked: a hot mailbox pays
     no condition-variable traffic. *)
  if t.waiting then Condition.signal t.nonempty;
  Mutex.unlock t.mu

let push_many t xs =
  if xs <> [] then begin
    Mutex.lock t.mu;
    if t.closed then begin
      Mutex.unlock t.mu;
      raise Closed
    end;
    List.iter
      (fun x ->
        Queue.add x t.inbox;
        Atomic.incr t.size)
      xs;
    if t.waiting then Condition.signal t.nonempty;
    Mutex.unlock t.mu
  end

(* Admission onto either lane: [lane t] is read under the lock because the
   consumer swaps [inbox]. *)
let admit_to lane t x =
  (* Cheap rejection before taking the lock: [size] counts every message
     pushed and not yet consumed, so a full mailbox turns producers away
     without touching the mutex the consumer is using. The check-then-add
     is not atomic — a burst of producers can overshoot by at most one
     message each — which is fine for admission control; the bound is a
     shedding threshold, not a memory-safety limit. *)
  if Atomic.get t.size >= t.capacity then false
  else begin
    Mutex.lock t.mu;
    if t.closed then begin
      Mutex.unlock t.mu;
      raise Closed
    end;
    Queue.add x (lane t);
    Atomic.incr t.size;
    if t.waiting then Condition.signal t.nonempty;
    Mutex.unlock t.mu;
    true
  end

let try_push t x = admit_to (fun t -> t.inbox) t x
let try_push_deferred t x = admit_to (fun t -> t.deferred) t x

(* Batch admission: one lock acquisition decides the whole prefix. The
   capacity check repeats per message so a racing [try_push] overshoots by
   at most its usual one message, never the batch length. *)
let try_push_many t xs =
  match xs with
  | [] -> 0
  | _ when Atomic.get t.size >= t.capacity -> 0
  | _ ->
    Mutex.lock t.mu;
    if t.closed then begin
      Mutex.unlock t.mu;
      raise Closed
    end;
    let rec admit n = function
      | [] -> n
      | x :: tl ->
        if Atomic.get t.size >= t.capacity then n
        else begin
          Queue.add x t.inbox;
          Atomic.incr t.size;
          admit (n + 1) tl
        end
    in
    let n = admit 0 xs in
    if n > 0 && t.waiting then Condition.signal t.nonempty;
    Mutex.unlock t.mu;
    n

(* Steal-half: a thief takes the oldest half (rounded up) of the messages
   satisfying [stealable], touching only the shared inbox — the consumer's
   private batch is invisible to other domains by construction, so messages
   already drained there can never move. Both the kept and the stolen
   sequences preserve their relative FIFO order. *)
let steal_half t ~stealable =
  Mutex.lock t.mu;
  let k = Queue.fold (fun n x -> if stealable x then n + 1 else n) 0 t.inbox in
  if k = 0 then begin
    Mutex.unlock t.mu;
    []
  end
  else begin
    let target = (k + 1) / 2 in
    let kept = Queue.create () in
    let stolen = ref [] and taken = ref 0 in
    Queue.iter
      (fun x ->
        if !taken < target && stealable x then begin
          stolen := x :: !stolen;
          incr taken
        end
        else Queue.add x kept)
      t.inbox;
    t.inbox <- kept;
    (* stolen messages left this mailbox: its size must reflect that, or
       admission control would shed against phantom occupancy *)
    ignore (Atomic.fetch_and_add t.size (- !taken));
    Mutex.unlock t.mu;
    List.rev !stolen
  end

(* Under the lock: hand the consumer the shared inbox by swapping it for
   the (empty) private batch — the consumer then owns the old inbox
   outright — or, when the inbox is empty too, one deferred message. *)
let swap_in t =
  if not (Queue.is_empty t.inbox) then begin
    let full = t.inbox in
    t.inbox <- t.batch;
    t.batch <- full
  end
  else
    match Queue.take_opt t.deferred with
    | Some x -> Queue.add x t.batch
    | None -> ()

(* How long an idle spinning consumer polls [size] before it parks on the
   condition variable. Waking a parked domain costs 8–9 µs per hop on a
   2-vCPU host; a message that lands within the spin pays none of it.
   The bound keeps an idle consumer from holding its core for long. *)
let spin_s = 50e-6

(* The wall clock may be stepped: a step backwards ends the spin too, so
   the bound holds whatever the clock does. *)
let spin_wait t =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if Atomic.get t.size = 0 then begin
      let now = Unix.gettimeofday () in
      if now >= t0 && now -. t0 < spin_s then begin
        Domain.cpu_relax ();
        go ()
      end
    end
  in
  go ()

let refill t =
  if t.spin then spin_wait t;
  Mutex.lock t.mu;
  let rec wait () =
    if Queue.is_empty t.inbox && Queue.is_empty t.deferred && not t.closed
    then begin
      t.waiting <- true;
      Condition.wait t.nonempty t.mu;
      t.waiting <- false;
      wait ()
    end
  in
  wait ();
  swap_in t;
  Mutex.unlock t.mu

let take_opt t =
  match Queue.take_opt t.batch with
  | Some _ as r ->
    Atomic.decr t.size;
    r
  | None -> None

let pop_wait t =
  if Queue.is_empty t.batch then refill t;
  take_opt t

let try_pop t =
  if Queue.is_empty t.batch then begin
    Mutex.lock t.mu;
    swap_in t;
    Mutex.unlock t.mu
  end;
  take_opt t

let close t =
  Mutex.lock t.mu;
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.mu

let length t = Atomic.get t.size

let is_closed t =
  Mutex.lock t.mu;
  let c = t.closed in
  Mutex.unlock t.mu;
  c
