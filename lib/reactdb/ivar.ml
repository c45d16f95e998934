(* Thread-safe write-once cell in one [Atomic.t] word: no pthread object
   per future. Wakers registered with [on_fill] run on the filler's thread
   (or immediately on the caller's if already full), so each backend waits
   on one through its own suspension: the runtime turns the callback into a
   mailbox re-enqueue on the fiber's home domain, the simulator into an
   engine wake-up.

   Ordering: OCaml 5 atomics are sequentially consistent, so the CAS that
   publishes [Full v] is the happens-before edge a mutex gave before.
   Everything the filler wrote before [fill] is visible to whoever reads
   [Full v] ([peek], a waker, [read_block]). A waker is registered by a CAS
   on [Empty], so it either lands in the list the filler takes or sees
   [Full] and runs at once: never both, never neither. *)

type 'a state = Empty of ('a -> unit) list | Full of 'a

type 'a t = 'a state Atomic.t

let create () = Atomic.make (Empty [])

let rec fill iv v =
  match Atomic.get iv with
  | Full _ -> invalid_arg "Ivar: filled twice"
  | Empty ws as cur ->
    if Atomic.compare_and_set iv cur (Full v) then
      List.iter (fun w -> w v) (List.rev ws)
    else fill iv v

let peek iv = match Atomic.get iv with Full v -> Some v | Empty _ -> None

let waited iv = match Atomic.get iv with Empty [] -> false | _ -> true

let rec on_fill iv w =
  match Atomic.get iv with
  | Full v -> w v
  | Empty ws as cur ->
    if not (Atomic.compare_and_set iv cur (Empty (w :: ws))) then on_fill iv w

(* Client and admin threads only, never a fiber: the blocking pair is
   this caller's, not the ivar's. *)
let read_block iv =
  match peek iv with
  | Some v -> v
  | None ->
    let mu = Mutex.create () and cond = Condition.create () in
    let got = ref None in
    on_fill iv (fun v ->
        Mutex.protect mu (fun () ->
            got := Some v;
            Condition.signal cond));
    Mutex.lock mu;
    let rec wait () =
      match !got with
      | Some v ->
        Mutex.unlock mu;
        v
      | None ->
        Condition.wait cond mu;
        wait ()
    in
    wait ()
