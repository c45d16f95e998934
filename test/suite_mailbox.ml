(* Unit and property tests for the parallel runtime's MPSC mailbox, with
   real producer domains. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [n_producers] domains each push (pid, 0), (pid, 1), ... (pid, per - 1);
   the main thread consumes exactly [n_producers * per] messages. Checks no
   message is lost or duplicated and each producer's messages arrive in
   push order. *)
let fifo_run ?spin ~n_producers ~per () =
  let mb = Runtime.Mailbox.create ?spin () in
  let producers =
    Array.init n_producers (fun pid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Runtime.Mailbox.push mb (pid, i)
            done))
  in
  let next = Array.make n_producers 0 in
  let ok = ref true in
  for _ = 1 to n_producers * per do
    match Runtime.Mailbox.pop_wait mb with
    | None -> ok := false
    | Some (pid, i) ->
      if i <> next.(pid) then ok := false;
      next.(pid) <- i + 1
  done;
  Array.iter Domain.join producers;
  !ok && Array.for_all (fun n -> n = per) next

let test_fifo_four_producers () =
  check_bool "per-producer FIFO, none lost or duplicated" true
    (fifo_run ~n_producers:4 ~per:2000 ())

let test_single_producer_order () =
  check_bool "single producer is globally FIFO" true
    (fifo_run ~n_producers:1 ~per:5000 ())

let test_drain_after_close () =
  let mb = Runtime.Mailbox.create () in
  for i = 0 to 99 do
    Runtime.Mailbox.push mb i
  done;
  Runtime.Mailbox.close mb;
  (* close lets the consumer drain everything already queued *)
  for i = 0 to 99 do
    match Runtime.Mailbox.pop_wait mb with
    | Some v -> check_int "drained in order" i v
    | None -> Alcotest.fail "mailbox empty before drain finished"
  done;
  check_bool "closed and drained" true (Runtime.Mailbox.pop_wait mb = None);
  check_bool "stays drained" true (Runtime.Mailbox.pop_wait mb = None)

let test_push_after_close () =
  let mb = Runtime.Mailbox.create () in
  Runtime.Mailbox.push mb 1;
  Runtime.Mailbox.close mb;
  Runtime.Mailbox.close mb (* idempotent *);
  check_bool "is_closed" true (Runtime.Mailbox.is_closed mb);
  Alcotest.check_raises "push after close" Runtime.Mailbox.Closed (fun () ->
      Runtime.Mailbox.push mb 2)

let test_try_pop () =
  let mb = Runtime.Mailbox.create () in
  check_bool "empty try_pop" true (Runtime.Mailbox.try_pop mb = None);
  Runtime.Mailbox.push mb 7;
  check_bool "nonempty try_pop" true (Runtime.Mailbox.try_pop mb = Some 7);
  check_bool "drained again" true (Runtime.Mailbox.try_pop mb = None)

let test_blocking_wakeup () =
  let mb = Runtime.Mailbox.create () in
  let producer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Runtime.Mailbox.push mb 42)
  in
  (* consumer parks in pop_wait until the producer's push wakes it *)
  check_bool "woken by push" true (Runtime.Mailbox.pop_wait mb = Some 42);
  Domain.join producer

(* With and without the spin: messages that land during the spin, after
   the consumer parked, and from several producers all arrive once and in
   order, and [close] still ends [pop_wait]. *)
let test_spin_or_park () =
  List.iter
    (fun spin ->
      let name s = Printf.sprintf "spin %b: %s" spin s in
      check_bool (name "per-producer FIFO") true
        (fifo_run ~spin ~n_producers:2 ~per:2000 ());
      let mb = Runtime.Mailbox.create ~spin () in
      let producer =
        Domain.spawn (fun () ->
            Runtime.Mailbox.push mb 1;
            Unix.sleepf 0.05;
            Runtime.Mailbox.push mb 2;
            Unix.sleepf 0.05;
            Runtime.Mailbox.close mb)
      in
      check_bool (name "first") true (Runtime.Mailbox.pop_wait mb = Some 1);
      check_bool (name "woken after parking") true
        (Runtime.Mailbox.pop_wait mb = Some 2);
      check_bool (name "closed") true (Runtime.Mailbox.pop_wait mb = None);
      Domain.join producer)
    [ true; false ]

(* --- bounded capacity / admission control --- *)

let test_capacity_basics () =
  let mb = Runtime.Mailbox.create ~capacity:2 () in
  check_bool "accepts below cap" true (Runtime.Mailbox.try_push mb 1);
  check_bool "accepts at cap-1" true (Runtime.Mailbox.try_push mb 2);
  check_bool "refuses at cap" false (Runtime.Mailbox.try_push mb 3);
  (* unconditional push bypasses the cap: internal runtime traffic must
     never be shed *)
  Runtime.Mailbox.push mb 4;
  check_int "length counts both paths" 3 (Runtime.Mailbox.length mb);
  check_bool "still refusing" false (Runtime.Mailbox.try_push mb 5);
  (* drain one; admission opens again *)
  check_bool "drained 1" true (Runtime.Mailbox.pop_wait mb = Some 1);
  check_bool "drained 2" true (Runtime.Mailbox.pop_wait mb = Some 2);
  check_bool "accepts after drain" true (Runtime.Mailbox.try_push mb 6);
  check_bool "order kept" true (Runtime.Mailbox.pop_wait mb = Some 4);
  check_bool "order kept 2" true (Runtime.Mailbox.pop_wait mb = Some 6)

(* Four real producer domains hammer try_push against a small cap while a
   consumer drains slowly: some pushes must be refused, every accepted
   message must be delivered exactly once, and once the consumer fully
   drains, admission must open again. *)
let test_capacity_four_producers () =
  let cap = 8 and n_producers = 4 and per = 500 in
  let mb = Runtime.Mailbox.create ~capacity:cap () in
  let accepted = Atomic.make 0 and refused = Atomic.make 0 in
  let producers =
    Array.init n_producers (fun pid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              if Runtime.Mailbox.try_push mb (pid, i) then
                Atomic.incr accepted
              else Atomic.incr refused
            done))
  in
  let received = ref 0 in
  (* slow consumer: sleep between pops so the producers saturate the cap *)
  let rec drain_slow n =
    if n > 0 then begin
      Unix.sleepf 0.0002;
      (match Runtime.Mailbox.try_pop mb with
      | Some _ -> incr received
      | None -> ());
      drain_slow (n - 1)
    end
  in
  drain_slow 50;
  Array.iter Domain.join producers;
  (* producers done; drain the remainder *)
  let rec drain_rest () =
    match Runtime.Mailbox.try_pop mb with
    | Some _ ->
      incr received;
      drain_rest ()
    | None -> ()
  in
  drain_rest ();
  check_bool "some pushes refused under saturation" true
    (Atomic.get refused > 0);
  check_int "every accepted message delivered exactly once"
    (Atomic.get accepted) !received;
  check_int "accepted + refused = offered"
    (n_producers * per)
    (Atomic.get accepted + Atomic.get refused);
  (* fully drained: admission is open again *)
  check_bool "accepts after full drain" true (Runtime.Mailbox.try_push mb (0, 0))

let prop_no_loss =
  QCheck.Test.make ~name:"mailbox: no loss/dup, per-producer FIFO" ~count:15
    QCheck.(pair (int_range 1 4) (int_range 0 200))
    (fun (n_producers, per) -> fifo_run ~n_producers ~per ())

(* --- batch push --- *)

let test_push_many () =
  let mb = Runtime.Mailbox.create () in
  Runtime.Mailbox.push_many mb [ 1; 2; 3 ];
  Runtime.Mailbox.push_many mb [] (* empty batch is a no-op *);
  Runtime.Mailbox.push_many mb [ 4 ];
  check_int "length counts the batches" 4 (Runtime.Mailbox.length mb);
  for i = 1 to 4 do
    check_bool "batch order kept" true (Runtime.Mailbox.pop_wait mb = Some i)
  done;
  Runtime.Mailbox.close mb;
  Alcotest.check_raises "push_many after close" Runtime.Mailbox.Closed
    (fun () -> Runtime.Mailbox.push_many mb [ 9 ])

let test_try_push_many () =
  let mb = Runtime.Mailbox.create ~capacity:3 () in
  check_int "admits the prefix that fits" 3
    (Runtime.Mailbox.try_push_many mb [ 1; 2; 3; 4; 5 ]);
  check_int "full mailbox admits none" 0 (Runtime.Mailbox.try_push_many mb [ 6 ]);
  check_bool "drain 1" true (Runtime.Mailbox.pop_wait mb = Some 1);
  check_int "one slot -> one admitted" 1
    (Runtime.Mailbox.try_push_many mb [ 7; 8 ]);
  check_bool "drain 2" true (Runtime.Mailbox.pop_wait mb = Some 2);
  check_bool "drain 3" true (Runtime.Mailbox.pop_wait mb = Some 3);
  check_bool "admitted prefix follows" true (Runtime.Mailbox.pop_wait mb = Some 7)

(* --- work stealing (steal_half) --- *)

let test_steal_half_basics () =
  let mb = Runtime.Mailbox.create () in
  (* messages tagged (idx, stealable) *)
  Runtime.Mailbox.push_many mb
    [ (0, true); (1, false); (2, true); (3, true); (4, false); (5, true) ];
  (* 4 stealable -> the oldest 2 go *)
  let stolen = Runtime.Mailbox.steal_half mb ~stealable:snd in
  check_bool "oldest stealable half, in queue order" true
    (List.map fst stolen = [ 0; 2 ]);
  check_int "length decremented by the steal" 4 (Runtime.Mailbox.length mb);
  let rec drain acc =
    match Runtime.Mailbox.try_pop mb with
    | Some m -> drain (fst m :: acc)
    | None -> List.rev acc
  in
  check_bool "survivors keep their relative order" true
    (drain [] = [ 1; 3; 4; 5 ]);
  check_bool "empty inbox steals nothing" true
    (Runtime.Mailbox.steal_half mb ~stealable:snd = [])

let test_steal_respects_consumer_batch () =
  let mb = Runtime.Mailbox.create () in
  Runtime.Mailbox.push_many mb [ 1; 2; 3 ];
  (* the consumer's first pop swaps the whole inbox into its private
     batch; everything already drained there is off-limits to thieves *)
  check_bool "consumer got head" true (Runtime.Mailbox.try_pop mb = Some 1);
  check_bool "batched messages are not stealable" true
    (Runtime.Mailbox.steal_half mb ~stealable:(fun _ -> true) = []);
  Runtime.Mailbox.push mb 4;
  (* 4 is in the shared inbox again: one stealable message -> steal it *)
  check_bool "fresh inbox message is stealable" true
    (Runtime.Mailbox.steal_half mb ~stealable:(fun _ -> true) = [ 4 ]);
  check_bool "consumer continues its batch" true
    (Runtime.Mailbox.try_pop mb = Some 2)

let test_steal_capacity_accounting () =
  let mb = Runtime.Mailbox.create ~capacity:4 () in
  for i = 0 to 3 do
    check_bool "fills" true (Runtime.Mailbox.try_push mb i)
  done;
  check_bool "full sheds" false (Runtime.Mailbox.try_push mb 99);
  let stolen = Runtime.Mailbox.steal_half mb ~stealable:(fun _ -> true) in
  check_int "stole half" 2 (List.length stolen);
  check_int "length reflects the steal" 2 (Runtime.Mailbox.length mb);
  check_bool "admission reopened" true (Runtime.Mailbox.try_push mb 4);
  check_bool "reopened twice" true (Runtime.Mailbox.try_push mb 5);
  check_bool "full again at cap" false (Runtime.Mailbox.try_push mb 6)

(* Sequential model property: a mailbox is a pair of queues — the shared
   inbox and the consumer's private batch. try_push appends to the inbox if
   under capacity; try_pop moves the whole inbox behind the batch when the
   batch is empty, then pops the batch head; steal_half takes the oldest
   ceil(k/2) stealable (here: even) messages out of the inbox only. The
   real mailbox must agree with this model on every op's result. *)
let prop_steal_model =
  QCheck.Test.make
    ~name:"mailbox: push/pop/steal agree with the two-queue model" ~count:500
    QCheck.(pair (int_range 1 6) (small_list (int_range 0 2)))
    (fun (cap, ops) ->
      let mb = Runtime.Mailbox.create ~capacity:cap () in
      let batch = ref [] and inbox = ref [] and next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            let v = !next in
            incr next;
            let fits = List.length !batch + List.length !inbox < cap in
            if fits then inbox := !inbox @ [ v ];
            Runtime.Mailbox.try_push mb v = fits
          | 1 ->
            (if !batch = [] then begin
               batch := !inbox;
               inbox := []
             end);
            let expect =
              match !batch with
              | [] -> None
              | h :: tl ->
                batch := tl;
                Some h
            in
            Runtime.Mailbox.try_pop mb = expect
          | _ ->
            let stealable v = v mod 2 = 0 in
            let k = List.length (List.filter stealable !inbox) in
            let target = (k + 1) / 2 in
            let taken = ref 0 in
            let expect, kept =
              List.partition
                (fun v ->
                  if stealable v && !taken < target then begin
                    incr taken;
                    true
                  end
                  else false)
                !inbox
            in
            inbox := kept;
            Runtime.Mailbox.steal_half mb ~stealable = expect
            && Runtime.Mailbox.length mb
               = List.length !batch + List.length !inbox)
        ops)

(* Four real producer domains + two thief domains + the consumer: thieves
   repeatedly steal_half the even-indexed messages while the consumer
   drains. Every message must end up at exactly one place, thieves must
   only ever hold stealable messages, and the consumer's view of each
   producer must stay a FIFO subsequence (all odd messages in order). *)
let test_steal_four_domains () =
  let n_producers = 4 and per = 1500 in
  let mb = Runtime.Mailbox.create () in
  let stop = Atomic.make false in
  let stolen = Array.init 2 (fun _ -> ref []) in
  let thieves =
    Array.init 2 (fun t ->
        Domain.spawn (fun () ->
            let acc = stolen.(t) in
            while not (Atomic.get stop) do
              match
                Runtime.Mailbox.steal_half mb ~stealable:(fun (_, i) ->
                    i mod 2 = 0)
              with
              | [] -> Domain.cpu_relax ()
              | xs -> acc := List.rev_append xs !acc
            done))
  in
  let producers_done = Atomic.make 0 in
  let producers =
    Array.init n_producers (fun pid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Runtime.Mailbox.push mb (pid, i)
            done;
            Atomic.incr producers_done))
  in
  let received = Array.init n_producers (fun _ -> ref []) in
  let rec consume () =
    match Runtime.Mailbox.try_pop mb with
    | Some (pid, i) ->
      received.(pid) := i :: !(received.(pid));
      consume ()
    | None ->
      if
        Atomic.get producers_done < n_producers
        || Runtime.Mailbox.length mb > 0
      then begin
        Domain.cpu_relax ();
        consume ()
      end
  in
  consume ();
  Array.iter Domain.join producers;
  Atomic.set stop true;
  Array.iter Domain.join thieves;
  (* no loss, no duplication: each (pid, i) lands in exactly one place *)
  let seen = Array.make_matrix n_producers per 0 in
  let mark (pid, i) = seen.(pid).(i) <- seen.(pid).(i) + 1 in
  Array.iter (fun r -> List.iter (fun i -> mark i) !r) stolen;
  Array.iteri (fun pid r -> List.iter (fun i -> mark (pid, i)) !r) received;
  Array.iter
    (fun row -> Array.iter (fun c -> check_int "delivered exactly once" 1 c) row)
    seen;
  (* thieves only ever held stealable (even) messages *)
  Array.iter
    (fun r ->
      check_bool "thieves hold only stealable messages" true
        (List.for_all (fun (_, i) -> i mod 2 = 0) !r))
    stolen;
  (* consumer kept per-producer FIFO on what it received; the never-
     stealable odd messages are all there *)
  Array.iter
    (fun r ->
      let in_order = !r (* reversed: newest first *) in
      check_bool "consumer sequence is a FIFO subsequence" true
        (fst
           (List.fold_left
              (fun (ok, prev) i -> (ok && i < prev, i))
              (true, max_int) in_order));
      check_int "every odd message reached the consumer" (per / 2)
        (List.length (List.filter (fun i -> i mod 2 = 1) in_order)))
    received

(* --- the deferred lane --- *)

(* A deferred message comes out only once the main lane — the private
   batch and the shared inbox — is empty, one at a time, so main-lane
   traffic pushed between two deferred pops overtakes the rest. *)
let deferred_order pop =
  let mb = Runtime.Mailbox.create () in
  check_bool "deferred 10 admitted" true
    (Runtime.Mailbox.try_push_deferred mb 10);
  check_bool "deferred 11 admitted" true
    (Runtime.Mailbox.try_push_deferred mb 11);
  Runtime.Mailbox.push mb 1;
  check_bool "main 2 admitted" true (Runtime.Mailbox.try_push mb 2);
  check_int "length counts both lanes" 4 (Runtime.Mailbox.length mb);
  check_bool "main lane first" true (pop mb = Some 1);
  (* pushed while the consumer's batch still holds 2 *)
  Runtime.Mailbox.push mb 3;
  check_bool "batch before inbox" true (pop mb = Some 2);
  check_bool "inbox before deferred" true (pop mb = Some 3);
  check_bool "then the oldest deferred" true (pop mb = Some 10);
  Runtime.Mailbox.push mb 4;
  check_bool "main traffic overtakes the rest of the lane" true
    (pop mb = Some 4);
  check_bool "deferred FIFO" true (pop mb = Some 11);
  check_int "drained" 0 (Runtime.Mailbox.length mb)

let test_deferred_after_main_pop_wait () = deferred_order Runtime.Mailbox.pop_wait

let test_deferred_after_main_try_pop () =
  deferred_order Runtime.Mailbox.try_pop;
  check_bool "try_pop on two empty lanes" true
    (Runtime.Mailbox.try_pop (Runtime.Mailbox.create ()) = None)

let test_deferred_capacity () =
  let mb = Runtime.Mailbox.create ~capacity:3 () in
  check_bool "main 1" true (Runtime.Mailbox.try_push mb 1);
  check_bool "deferred 10" true (Runtime.Mailbox.try_push_deferred mb 10);
  check_bool "main 2" true (Runtime.Mailbox.try_push mb 2);
  check_int "length counts both lanes" 3 (Runtime.Mailbox.length mb);
  check_bool "main refused: deferred messages take capacity" false
    (Runtime.Mailbox.try_push mb 3);
  check_bool "deferred refused at capacity" false
    (Runtime.Mailbox.try_push_deferred mb 11);
  check_bool "drain 1" true (Runtime.Mailbox.pop_wait mb = Some 1);
  check_bool "deferred admitted after a drain" true
    (Runtime.Mailbox.try_push_deferred mb 11);
  check_bool "full again" false (Runtime.Mailbox.try_push_deferred mb 12);
  check_bool "drain 2" true (Runtime.Mailbox.pop_wait mb = Some 2);
  check_bool "drain 10" true (Runtime.Mailbox.pop_wait mb = Some 10);
  check_bool "drain 11" true (Runtime.Mailbox.pop_wait mb = Some 11)

let test_deferred_close_drains () =
  let mb = Runtime.Mailbox.create () in
  ignore (Runtime.Mailbox.try_push_deferred mb 10);
  Runtime.Mailbox.push mb 1;
  ignore (Runtime.Mailbox.try_push_deferred mb 11);
  Runtime.Mailbox.close mb;
  Alcotest.check_raises "try_push_deferred after close" Runtime.Mailbox.Closed
    (fun () -> ignore (Runtime.Mailbox.try_push_deferred mb 12));
  check_bool "main first" true (Runtime.Mailbox.pop_wait mb = Some 1);
  check_bool "deferred drained after close" true
    (Runtime.Mailbox.pop_wait mb = Some 10);
  check_bool "deferred drained after close 2" true
    (Runtime.Mailbox.pop_wait mb = Some 11);
  check_bool "None only once both lanes are empty" true
    (Runtime.Mailbox.pop_wait mb = None)

let test_deferred_not_stolen () =
  let mb = Runtime.Mailbox.create () in
  ignore (Runtime.Mailbox.try_push_deferred mb 10);
  ignore (Runtime.Mailbox.try_push_deferred mb 11);
  check_bool "a deferred-only mailbox has nothing to steal" true
    (Runtime.Mailbox.steal_half mb ~stealable:(fun _ -> true) = []);
  Runtime.Mailbox.push_many mb [ 1; 2 ];
  check_bool "only main-lane messages are stolen" true
    (Runtime.Mailbox.steal_half mb ~stealable:(fun _ -> true) = [ 1 ]);
  check_int "length after the steal" 3 (Runtime.Mailbox.length mb);
  check_bool "main survivor" true (Runtime.Mailbox.try_pop mb = Some 2);
  check_bool "deferred untouched" true (Runtime.Mailbox.try_pop mb = Some 10);
  check_bool "deferred untouched 2" true (Runtime.Mailbox.try_pop mb = Some 11)

(* Producer domains push [(pid, lane, i)], alternating lanes, while the
   consumer blocks in [pop_wait]: every message arrives exactly once, in
   push order per producer and lane. A consumer parked on an empty mailbox
   must be woken by a deferred push too. *)
let prop_two_lanes =
  QCheck.Test.make
    ~name:"mailbox: two lanes deliver exactly once, FIFO per producer and lane"
    ~count:15
    QCheck.(pair (int_range 1 4) (int_range 0 200))
    (fun (n_producers, per) ->
      let mb = Runtime.Mailbox.create () in
      let producers =
        Array.init n_producers (fun pid ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  let lane = (pid + i) mod 2 in
                  if lane = 0 then Runtime.Mailbox.push mb (pid, lane, i)
                  else
                    assert (Runtime.Mailbox.try_push_deferred mb (pid, lane, i))
                done))
      in
      let last = Array.make_matrix n_producers 2 (-1) in
      let ok = ref true and got = ref 0 in
      for _ = 1 to n_producers * per do
        match Runtime.Mailbox.pop_wait mb with
        | None -> ok := false
        | Some (pid, lane, i) ->
          incr got;
          if i <= last.(pid).(lane) || (pid + i) mod 2 <> lane then ok := false;
          last.(pid).(lane) <- i
      done;
      Array.iter Domain.join producers;
      Runtime.Mailbox.close mb;
      (* strictly increasing per producer and lane, and every push
         counted: exactly once *)
      !ok && !got = n_producers * per && Runtime.Mailbox.pop_wait mb = None)

let suite =
  ( "mailbox",
    [
      Alcotest.test_case "four producer domains FIFO" `Quick
        test_fifo_four_producers;
      Alcotest.test_case "single producer order" `Quick
        test_single_producer_order;
      Alcotest.test_case "drain after close" `Quick test_drain_after_close;
      Alcotest.test_case "push after close raises" `Quick test_push_after_close;
      Alcotest.test_case "try_pop" `Quick test_try_pop;
      Alcotest.test_case "capacity basics" `Quick test_capacity_basics;
      Alcotest.test_case "capacity under four producer domains" `Quick
        test_capacity_four_producers;
      Alcotest.test_case "blocking wakeup" `Quick test_blocking_wakeup;
      Alcotest.test_case "spin or park" `Quick test_spin_or_park;
      Alcotest.test_case "push_many batch" `Quick test_push_many;
      Alcotest.test_case "try_push_many admits the fitting prefix" `Quick
        test_try_push_many;
      Alcotest.test_case "steal_half basics" `Quick test_steal_half_basics;
      Alcotest.test_case "steal_half never touches the consumer batch" `Quick
        test_steal_respects_consumer_batch;
      Alcotest.test_case "steal_half reopens admission" `Quick
        test_steal_capacity_accounting;
      Alcotest.test_case "stealing under four producer + two thief domains"
        `Quick test_steal_four_domains;
      QCheck_alcotest.to_alcotest prop_no_loss;
      QCheck_alcotest.to_alcotest prop_steal_model;
      Alcotest.test_case "deferred after the main lane (pop_wait)" `Quick
        test_deferred_after_main_pop_wait;
      Alcotest.test_case "deferred after the main lane (try_pop)" `Quick
        test_deferred_after_main_try_pop;
      Alcotest.test_case "deferred lane shares the capacity" `Quick
        test_deferred_capacity;
      Alcotest.test_case "close drains the deferred lane" `Quick
        test_deferred_close_drains;
      Alcotest.test_case "steal_half never takes a deferred message" `Quick
        test_deferred_not_stolen;
      QCheck_alcotest.to_alcotest prop_two_lanes;
    ] )
