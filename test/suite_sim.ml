(* Tests for the discrete-event engine: clock semantics, determinism,
   ivars, mailboxes. *)

open Sim

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let test_delay_advances_clock () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.spawn e (fun () ->
      seen := ("a", Engine.current_time ()) :: !seen;
      Engine.delay 5.;
      seen := ("b", Engine.current_time ()) :: !seen;
      Engine.delay 2.5;
      seen := ("c", Engine.current_time ()) :: !seen);
  let final = Engine.run e in
  check_float "final clock" 7.5 final;
  Alcotest.(check (list (pair string (float 1e-9))))
    "timeline"
    [ ("a", 0.); ("b", 5.); ("c", 7.5) ]
    (List.rev !seen)

let test_interleaving_deterministic () =
  let run_once () =
    let e = Engine.create () in
    let log = ref [] in
    Engine.spawn e (fun () ->
        for i = 1 to 3 do
          Engine.delay 2.;
          log := (1, i, Engine.current_time ()) :: !log
        done);
    Engine.spawn e (fun () ->
        for i = 1 to 3 do
          Engine.delay 3.;
          log := (2, i, Engine.current_time ()) :: !log
        done);
    ignore (Engine.run e);
    List.rev !log
  in
  let a = run_once () and b = run_once () in
  check_bool "identical logs" true (a = b);
  (* events must be time-ordered *)
  let times = List.map (fun (_, _, t) -> t) a in
  check_bool "time-sorted" true (List.sort Float.compare times = times)

let test_spawn_at () =
  let e = Engine.create () in
  let t = ref (-1.) in
  Engine.spawn e ~at:42. (fun () -> t := Engine.current_time ());
  ignore (Engine.run e);
  check_float "starts at 42" 42. !t

let test_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.spawn e (fun () ->
      for _ = 1 to 100 do
        Engine.delay 1.;
        incr count
      done);
  let final = Engine.run ~until:10. e in
  check_float "stops at horizon" 10. final;
  check_int "only first 10 steps ran" 10 !count

let test_ivar_basic () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  let got = ref 0 and got_at = ref 0. in
  Engine.spawn e (fun () ->
      got := Engine.Ivar.read iv;
      got_at := Engine.current_time ());
  Engine.spawn e (fun () ->
      Engine.delay 10.;
      Engine.Ivar.fill iv 99);
  ignore (Engine.run e);
  check_int "value" 99 !got;
  check_float "woken at fill time" 10. !got_at;
  check_bool "filled" true (Engine.Ivar.is_filled iv);
  Alcotest.(check (option int)) "peek" (Some 99) (Engine.Ivar.peek iv)

let test_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  let got = ref 0 in
  Engine.spawn e (fun () -> Engine.Ivar.fill iv 7);
  Engine.spawn e (fun () ->
      Engine.delay 1.;
      got := Engine.Ivar.read iv);
  ignore (Engine.run e);
  check_int "no suspension needed" 7 !got

let test_ivar_double_fill () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  let raised = ref false in
  Engine.spawn e (fun () ->
      Engine.Ivar.fill iv 1;
      try Engine.Ivar.fill iv 2 with Invalid_argument _ -> raised := true);
  ignore (Engine.run e);
  check_bool "double fill rejected" true !raised

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Engine.Ivar.create () in
  let acc = ref [] in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        let v = Engine.Ivar.read iv in
        acc := (i, v) :: !acc)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 2.;
      Engine.Ivar.fill iv 5);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int)))
    "all readers woken in arrival order"
    [ (1, 5); (2, 5); (3, 5) ]
    (List.rev !acc)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create () in
  let order = ref [] in
  Engine.spawn e (fun () ->
      for i = 1 to 5 do
        Engine.Mailbox.push mb i;
        Engine.delay 1.
      done);
  Engine.spawn e (fun () ->
      for _ = 1 to 5 do
        let v = Engine.Mailbox.pop mb in
        order := v :: !order
      done);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_mailbox_blocking_pop () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create () in
  let popped_at = ref 0. in
  Engine.spawn e (fun () ->
      ignore (Engine.Mailbox.pop mb);
      popped_at := Engine.current_time ());
  Engine.spawn e (fun () ->
      Engine.delay 33.;
      Engine.Mailbox.push mb 0);
  ignore (Engine.run e);
  check_float "pop unblocked at push time" 33. !popped_at

let test_mailbox_multiple_waiters () =
  let e = Engine.create () in
  let mb = Engine.Mailbox.create () in
  let got = ref [] in
  for i = 1 to 3 do
    Engine.spawn e (fun () ->
        let v = Engine.Mailbox.pop mb in
        got := (i, v) :: !got)
  done;
  Engine.spawn e (fun () ->
      Engine.delay 1.;
      Engine.Mailbox.push mb 10;
      Engine.delay 1.;
      Engine.Mailbox.push mb 20;
      Engine.delay 1.;
      Engine.Mailbox.push mb 30);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int)))
    "waiters served fifo"
    [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !got)

let test_spawn_here () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () ->
      Engine.delay 4.;
      Engine.spawn_here (fun () ->
          log := ("child", Engine.current_time ()) :: !log);
      Engine.delay 1.;
      log := ("parent", Engine.current_time ()) :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list (pair string (float 1e-9))))
    "child starts at spawn time"
    [ ("child", 4.); ("parent", 5.) ]
    (List.rev !log)

let test_zero_delay_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.spawn e (fun () -> log := 1 :: !log);
  Engine.spawn e (fun () -> log := 2 :: !log);
  Engine.spawn e (fun () -> log := 3 :: !log);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "spawn order preserved at equal time" [ 1; 2; 3 ]
    (List.rev !log)

let test_process_exception_propagates () =
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "boom");
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () ->
      ignore (Engine.run e))

let test_waker_single_shot () =
  let e = Engine.create () in
  let waker_ref = ref None in
  let raised = ref false in
  Engine.spawn e (fun () ->
      ignore (Engine.suspend (fun waker -> waker_ref := Some waker)));
  Engine.spawn e (fun () ->
      match !waker_ref with
      | Some w -> (
        w 1;
        try w 2 with Failure _ -> raised := true)
      | None -> ());
  ignore (Engine.run e);
  check_bool "second invocation rejected" true !raised

let test_events_executed_counter () =
  let e = Engine.create () in
  Engine.spawn e (fun () ->
      Engine.delay 1.;
      Engine.delay 1.);
  ignore (Engine.run e);
  check_bool "counts events" true (Engine.events_executed e >= 3)

let test_bad_delay_rejected () =
  List.iter
    (fun d ->
      let e = Engine.create () in
      Engine.spawn e (fun () -> Engine.delay d);
      match Engine.run e with
      | _ -> Alcotest.failf "delay %g accepted" d
      | exception Invalid_argument _ -> ())
    [ Float.nan; -1. ]

(* Pushes at few distinct times (so many ties) interleaved with pops, past
   the initial capacity, pop in exactly the (time, seq) order of a sorted
   list. *)
let prop_pqueue_order =
  let op =
    QCheck.Gen.(frequency [ (3, map Option.some (int_bound 4)); (1, return None) ])
  in
  QCheck.Test.make ~name:"pqueue pops in (time, seq) order" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 200) op))
    (fun ops ->
      let q = Pqueue.create () in
      let model = ref [] and seq = ref 0 in
      let pop_agrees () =
        match List.sort compare !model with
        | [] -> Pqueue.is_empty q
        | ((time, _) as top) :: rest ->
          model := rest;
          let t = Pqueue.min_time q in
          t = time && Pqueue.pop q = top
      in
      List.for_all
        (function
          | Some t ->
            incr seq;
            let time = float_of_int t /. 2. in
            Pqueue.push q ~time ~seq:!seq (time, !seq);
            model := (time, !seq) :: !model;
            Pqueue.size q = List.length !model
          | None -> pop_agrees ())
        ops
      && List.for_all (fun _ -> pop_agrees ()) !model
      && Pqueue.is_empty q)

let test_clock_outside_run () =
  Alcotest.check_raises "no engine running"
    (Invalid_argument "Sim.Engine.current_time: called outside Engine.run")
    (fun () -> ignore (Engine.current_time ()))

(* A process of one engine runs a second engine to completion: inside, the
   inner clock; after, the outer one again, also when the inner run raises. *)
let test_nested_run_clock () =
  let outer = Engine.create () in
  let seen = ref [] in
  let note tag = seen := (tag, Engine.current_time ()) :: !seen in
  Engine.spawn outer (fun () ->
      Engine.delay 5.;
      note "outer before";
      let inner = Engine.create () in
      Engine.spawn inner (fun () ->
          Engine.delay 2.;
          note "inner");
      ignore (Engine.run inner);
      note "outer after";
      let failing = Engine.create () in
      Engine.spawn failing (fun () ->
          Engine.delay 1.;
          failwith "inner boom");
      (try ignore (Engine.run failing) with Failure _ -> ());
      note "outer after raise";
      Engine.delay 1.;
      note "outer end");
  ignore (Engine.run outer);
  Alcotest.(check (list (pair string (float 0.))))
    "each read sees its own engine"
    [ ("outer before", 5.); ("inner", 2.); ("outer after", 5.);
      ("outer after raise", 5.); ("outer end", 6.) ]
    (List.rev !seen);
  let e = Engine.create () in
  Engine.spawn e (fun () -> failwith "boom");
  (try ignore (Engine.run e) with Failure _ -> ());
  test_clock_outside_run ()

(* Two domains, each running its own engine at its own pace, read their own
   clocks. *)
let test_clock_per_domain () =
  let run_on step () =
    let e = Engine.create () in
    let ok = ref true in
    Engine.spawn e (fun () ->
        for i = 1 to 20_000 do
          Engine.delay step;
          if Engine.current_time () <> float_of_int i *. step then ok := false
        done);
    ignore (Engine.run e);
    !ok
  in
  let a = Domain.spawn (run_on 1.) and b = Domain.spawn (run_on 3.) in
  check_bool "domain a" true (Domain.join a);
  check_bool "domain b" true (Domain.join b)

let suite =
  ( "sim",
    [
      Alcotest.test_case "delay advances clock" `Quick test_delay_advances_clock;
      Alcotest.test_case "deterministic interleaving" `Quick
        test_interleaving_deterministic;
      Alcotest.test_case "spawn at" `Quick test_spawn_at;
      Alcotest.test_case "run until horizon" `Quick test_run_until;
      Alcotest.test_case "ivar basic" `Quick test_ivar_basic;
      Alcotest.test_case "ivar read after fill" `Quick test_ivar_read_after_fill;
      Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
      Alcotest.test_case "ivar multiple readers" `Quick test_ivar_multiple_readers;
      Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
      Alcotest.test_case "mailbox blocking pop" `Quick test_mailbox_blocking_pop;
      Alcotest.test_case "mailbox multiple waiters" `Quick
        test_mailbox_multiple_waiters;
      Alcotest.test_case "spawn_here" `Quick test_spawn_here;
      Alcotest.test_case "zero-delay ordering" `Quick test_zero_delay_ordering;
      Alcotest.test_case "process exception propagates" `Quick
        test_process_exception_propagates;
      Alcotest.test_case "waker is single-shot" `Quick test_waker_single_shot;
      Alcotest.test_case "event counter" `Quick test_events_executed_counter;
      Alcotest.test_case "negative or NaN delay rejected" `Quick test_bad_delay_rejected;
      QCheck_alcotest.to_alcotest prop_pqueue_order;
      Alcotest.test_case "clock outside run raises" `Quick test_clock_outside_run;
      Alcotest.test_case "nested run clocks" `Quick test_nested_run_clock;
      Alcotest.test_case "clock per domain" `Quick test_clock_per_domain;
    ] )
