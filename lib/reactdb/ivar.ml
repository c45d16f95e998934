(* Thread-safe write-once cell. Wakers registered with [on_fill] run on the
   filler's thread (or immediately on the caller's if already full), so
   each backend waits on one through its own suspension: the runtime turns
   the callback into a mailbox re-enqueue on the fiber's home domain, the
   simulator into an engine wake-up. *)

type 'a state = Empty of ('a -> unit) list | Full of 'a

type 'a t = { mu : Mutex.t; cond : Condition.t; mutable st : 'a state }

let create () = { mu = Mutex.create (); cond = Condition.create (); st = Empty [] }

let fill iv v =
  Mutex.lock iv.mu;
  match iv.st with
  | Full _ ->
    Mutex.unlock iv.mu;
    invalid_arg "Ivar: filled twice"
  | Empty ws ->
    iv.st <- Full v;
    Condition.broadcast iv.cond;
    Mutex.unlock iv.mu;
    (* callbacks run outside the lock: they may take other locks *)
    List.iter (fun w -> w v) (List.rev ws)

let peek iv =
  Mutex.lock iv.mu;
  let r = match iv.st with Full v -> Some v | Empty _ -> None in
  Mutex.unlock iv.mu;
  r

(* Whether a waker was registered, or the cell is full. *)
let waited iv = Mutex.protect iv.mu (fun () -> match iv.st with Empty [] -> false | _ -> true)

let on_fill iv w =
  Mutex.lock iv.mu;
  match iv.st with
  | Full v ->
    Mutex.unlock iv.mu;
    w v
  | Empty ws ->
    iv.st <- Empty (w :: ws);
    Mutex.unlock iv.mu

let read_block iv =
  Mutex.lock iv.mu;
  let rec wait () =
    match iv.st with
    | Full v ->
      Mutex.unlock iv.mu;
      v
    | Empty _ ->
      Condition.wait iv.cond iv.mu;
      wait ()
  in
  wait ()
