(** Epoch group commit, written once for both backends (DESIGN.md §8.3).

    A committing root takes an epoch tag at its commit decision
    ({!register}), then queues its encoded redo record before its install
    ({!queue}), which drops the tag. A commit that reads or overwrites
    those writes does so after that install, so it queues later. A
    {!flush} writes the queue oldest first and then fills that batch, so
    every prefix of the log is closed under depends-on and replays to a
    consistent state: a commit is acknowledged by the flush that writes
    its record.

    The tags only bound {!durable_epoch}: a flush publishes, after its
    write, [min (current epoch, min registered tag) - 1]. A later
    registration gets a tag beyond that bound, and a tag is at most its
    record's TID epoch, so every record whose TID epoch is at most the
    bound is in the log.

    One failure rule: the first failed write or flush fails the sink for
    the rest of the run. That batch and every later one are filled with
    [Error], naming the WAL; no later record is queued ({!queue}
    refuses, so its commit never installs) or written, so the log stays
    a consistent prefix; the failure is recorded once ({!error}); and no
    bound is published again.

    Each backend supplies only when to flush and how to wait on a batch:
    the simulator flushes at the next epoch boundary once a batch has a
    waiter and suspends on the engine, the runtime's committer tries a
    flush and a fiber suspends. Thread-safe: [mu] guards the queue and
    tags and is a leaf lock; [fmu] serializes flushes and is held across
    the write and the batch's fill. *)

(** Filled by the flush that writes the batch's records. *)
type batch = (unit, string) result Ivar.t

type t = {
  log : Wal.t;  (* appended to and flushed under [fmu] only *)
  epoch : unit -> int;  (* the backend's Silo epoch clock *)
  flushes : int Atomic.t;  (* flushes that wrote records *)
  mu : Mutex.t;
  fmu : Mutex.t;
  mutable pending : Wal.record list;  (* queue order, newest first *)
  mutable batch : batch;  (* filled by the flush that writes [pending] *)
  inflight : Epochs.t;  (* tags registered but not yet queued *)
  durable : int Atomic.t;
  mutable closed : bool;  (* nothing can be in flight any more *)
  mutable error : string option;  (* the first failure *)
}

let create ~epoch ~flushes log =
  { log; epoch; flushes; mu = Mutex.create (); fmu = Mutex.create (); pending = [];
    batch = Ivar.create (); inflight = Epochs.create (); durable = Atomic.make 0;
    closed = false; error = None }

(** Register a commit at its decision and return its epoch tag. Reading
    the epoch under [mu] orders it against a flush's own read. *)
let register d =
  Mutex.protect d.mu (fun () ->
      let e = d.epoch () in
      Epochs.add d.inflight e;
      e)

(** The commit ended without queueing a record: drop its tag. *)
let cancel d tag = Mutex.protect d.mu (fun () -> Epochs.remove d.inflight tag)

(** Encode [e] on the caller, outside [mu], queue it and drop [tag];
    returns the batch the record joined. Once the log failed it refuses
    with the failure instead and leaves [tag] to {!cancel}. *)
let queue d ~tag e =
  let r = Wal.record d.log e in
  Mutex.protect d.mu (fun () ->
      match d.error with
      | Some m -> Error m
      | None ->
        Epochs.remove d.inflight tag;
        d.pending <- r :: d.pending;
        Ok d.batch)

(* One flush; the caller holds [fmu]. *)
let flush_held d =
  Mutex.lock d.mu;
  let epoch = d.epoch () in
  let bound =
    Stdlib.min epoch
      (Epochs.minimum d.inflight ~default:(if d.closed then max_int else epoch) - 1)
  in
  let ready = d.pending and written = d.batch and failed = d.error in
  d.pending <- [];
  d.batch <- Ivar.create ();
  Mutex.unlock d.mu;
  let r =
    match failed with
    | Some m -> Error m
    | None when ready = [] -> Ok ()
    | None -> (
      Atomic.incr d.flushes;
      try
        Wal.append_many d.log (List.rev ready);
        Wal.flush d.log;
        Ok ()
      with Wal.Io_error m ->
        Mutex.protect d.mu (fun () -> d.error <- Some m);
        Error m)
  in
  (* after the write, so a shipper reading the bound finds the records *)
  if Result.is_ok r then Atomic.set d.durable bound;
  Ivar.fill written r

(** Write everything queued, waiting for a flush under way to finish. *)
let flush d = Mutex.protect d.fmu (fun () -> flush_held d)

(** Flush unless one is under way. Combining: after releasing [fmu] the
    holder flushes again while records wait, so a record queued before a
    caller's [try_lock] failed is written by that holder or a later one. *)
let rec try_flush d =
  if Mutex.try_lock d.fmu then begin
    Fun.protect ~finally:(fun () -> Mutex.unlock d.fmu) (fun () -> flush_held d);
    if Mutex.protect d.mu (fun () -> d.pending <> []) then try_flush d
  end

(** Nothing can be in flight any more: from here on a flush publishes the
    current epoch itself. *)
let close d = Mutex.protect d.mu (fun () -> d.closed <- true)

let closed d = Mutex.protect d.mu (fun () -> d.closed)

(** The last published bound: every record whose TID epoch is at most
    this is in the log. *)
let durable_epoch d = Atomic.get d.durable

let error d = Mutex.protect d.mu (fun () -> d.error)
