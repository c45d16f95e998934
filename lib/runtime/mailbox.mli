(** Multi-producer/single-consumer mailbox for the parallel runtime.

    Producers on any domain [push]; the owning domain consumes with
    {!pop_wait} (blocking) or {!try_pop}. Built on [Mutex]/[Condition] with
    two-queue batching: the consumer swaps the shared inbox for a private
    queue under the lock, then drains it lock-free, so a busy mailbox costs
    roughly one lock acquisition per batch rather than per message.

    Two lanes. Everything but {!try_push_deferred} enqueues on the main
    lane; {!try_push_deferred} enqueues on the deferred lane, which the
    consumer serves one message at a time and only when the main lane is
    empty — work that may wait for idle time (the runtime sends a root
    there once it has lost a conflict).

    Ordering guarantee: within a lane, messages from one producer are
    delivered in the order that producer pushed them (per-producer FIFO);
    messages from different producers interleave in lock-acquisition
    order. A deferred message is delivered only once no main-lane message
    is pending.

    Shutdown: {!close} stops further pushes (they raise {!Closed}) but lets
    the consumer drain everything already enqueued, on both lanes;
    [pop_wait] returns [None] only once the mailbox is both closed and
    empty. *)

(** A mailbox carrying messages of type ['a]. *)
type 'a t

(** Raised by {!push} after {!close}. *)
exception Closed

(** A fresh, open, empty mailbox. [capacity] (default unbounded, clamped to
    at least 1) bounds admission through {!try_push},
    {!try_push_deferred} and {!try_push_many} only. [spin] (default
    [true]) makes {!pop_wait} poll an empty mailbox before it parks; it
    pays only when the consumer has a core to itself, since on an
    oversubscribed host the spin takes the core from a busy domain. *)
val create : ?capacity:int -> ?spin:bool -> unit -> 'a t

(** [push t x] enqueues [x] unconditionally, ignoring [capacity]. The
    runtime uses this for control traffic — resumptions, 2PC votes,
    forwarded roots — which must never be shed: dropping it would wedge an
    in-flight transaction rather than refuse a new one. Thread-safe.
    @raise Closed after {!close}. *)
val push : 'a t -> 'a -> unit

(** [push_many t xs] enqueues every message of [xs] in order under one lock
    acquisition, ignoring [capacity] (same contract as {!push}). Cheaper
    than repeated {!push} for a batch — one mutex round and at most one
    consumer wakeup. Thread-safe.
    @raise Closed after {!close}. *)
val push_many : 'a t -> 'a list -> unit

(** [try_push t x] enqueues [x] if fewer than [capacity] messages are
    pending, else returns [false] (the overload signal — callers shed the
    work at admission). Under concurrent producers the bound may overshoot
    by at most one message per producer. Thread-safe.
    @raise Closed after {!close}. *)
val try_push : 'a t -> 'a -> bool

(** [try_push_deferred t x] is {!try_push} onto the deferred lane: same
    [capacity] check against the pending messages of both lanes, same
    refusal and overshoot bound. The consumer takes a deferred message only
    when its private batch and the shared inbox are both empty, and takes
    one at a time, so main-lane traffic pushed meanwhile goes first.
    Thread-safe.
    @raise Closed after {!close}. *)
val try_push_deferred : 'a t -> 'a -> bool

(** [try_push_many t xs] admits the longest prefix of [xs] that fits under
    [capacity] in one lock acquisition and returns its length; the suffix
    is shed. Admitted messages keep their order. Overshoot bound as for
    {!try_push}. Thread-safe.
    @raise Closed after {!close}. *)
val try_push_many : 'a t -> 'a list -> int

(** [steal_half t ~stealable] removes and returns the oldest half (rounded
    up) of the pending messages satisfying [stealable], in their queue
    order; the rest keep their relative order. Only messages still in the
    shared inbox are candidates — the deferred lane, and anything the
    consumer has already drained into its private batch, stay put, so the
    single-consumer discipline of {!pop_wait}/{!try_pop} is unaffected.
    Intended for work stealing by idle peer domains; [stealable] must be
    fast and must not raise. Returns [[]] when nothing qualifies.
    Thread-safe. *)
val steal_half : 'a t -> stealable:('a -> bool) -> 'a list

(** [pop_wait t] dequeues the next message, main lane first, blocking
    while both lanes are empty and the mailbox is open; [None] once closed
    and both lanes are drained. Single consumer only. With [spin], an
    empty mailbox is first polled for a bounded 50 µs, without the lock,
    before the consumer parks on the condition variable: work that
    arrives within it pays no wake-up. *)
val pop_wait : 'a t -> 'a option

(** [try_pop t] dequeues without blocking, main lane first; [None] if
    nothing is ready on either lane. *)
val try_pop : 'a t -> 'a option

(** [close t] rejects subsequent pushes and wakes the consumer. Idempotent. *)
val close : 'a t -> unit

(** Messages pushed but not yet popped, both lanes (racy snapshot,
    lock-free). *)
val length : 'a t -> int

(** Whether {!close} has been called (there may still be messages left
    to drain). *)
val is_closed : 'a t -> bool
