(* Unit tests for [Reactdb.Ivar], the one-word write-once cell behind every
   runtime future, with real domains and a systhread. At most three domains
   run at once. *)

module Ivar = Reactdb.Ivar

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [n_reg] registerer domains each put [per] wakers on ivar [i] while the
   main domain fills it, for [rounds] ivars in turn. The filler waits until
   every registerer has started on an ivar. With [lockstep], a registerer
   starts on ivar [i] only once [i - 1] is full, so the fill often lands
   mid-registration (in most rounds on 2 vCPUs); without it the
   registerers run ahead and race each other's [on_fill]. A waker records
   where it ran: on the filler (registered before the fill) or on its
   registerer (registered after). For each registerer and ivar, the filler
   must have run a prefix of its wakers in registration order and the
   registerer the rest, each exactly once, with the filled value. *)
let race ~n_reg ~lockstep () =
  let rounds = 1000 and per = 16 in
  let ivs = Array.init rounds (fun _ -> Ivar.create ()) in
  let started = Array.init rounds (fun _ -> Atomic.make 0) in
  let on_filler = Array.make rounds [] in
  let on_reg = Array.init n_reg (fun _ -> Array.make rounds []) in
  let bad_value = Atomic.make 0 in
  let filler = Domain.self () in
  let regs =
    Array.init n_reg (fun r ->
        Domain.spawn (fun () ->
            for i = 0 to rounds - 1 do
              if lockstep && i > 0 then
                while Ivar.peek ivs.(i - 1) = None do
                  Domain.cpu_relax ()
                done;
              Atomic.incr started.(i);
              for j = 0 to per - 1 do
                Ivar.on_fill ivs.(i) (fun v ->
                    if v <> i then Atomic.incr bad_value;
                    if Domain.self () = filler then
                      on_filler.(i) <- (r, j) :: on_filler.(i)
                    else on_reg.(r).(i) <- j :: on_reg.(r).(i));
                (* widen the registration window so fills land inside it *)
                for _ = 1 to 10 do
                  Domain.cpu_relax ()
                done
              done
            done))
  in
  for i = 0 to rounds - 1 do
    while Atomic.get started.(i) < n_reg do
      Domain.cpu_relax ()
    done;
    Ivar.fill ivs.(i) i
  done;
  Array.iter Domain.join regs;
  check_int "every waker saw the filled value" 0 (Atomic.get bad_value);
  for i = 0 to rounds - 1 do
    for r = 0 to n_reg - 1 do
      let before =
        List.rev (List.filter_map (fun (r', j) -> if r' = r then Some j else None) on_filler.(i))
      in
      let after = List.rev on_reg.(r).(i) in
      if before @ after <> List.init per Fun.id then
        Alcotest.failf "ivar %d, registerer %d: filler ran [%s], registerer ran [%s]" i r
          (String.concat ";" (List.map string_of_int before))
          (String.concat ";" (List.map string_of_int after))
    done
  done

let test_on_fill_after_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 7;
  let seen = ref None in
  Ivar.on_fill iv (fun v -> seen := Some v);
  check_bool "ran at once with the value" true (!seen = Some 7)

let test_second_fill_raises () =
  let iv = Ivar.create () in
  let ran = ref 0 in
  Ivar.on_fill iv (fun _ -> incr ran);
  Ivar.fill iv 1;
  Alcotest.check_raises "second fill" (Invalid_argument "Ivar: filled twice")
    (fun () -> Ivar.fill iv 2);
  check_bool "first value kept" true (Ivar.peek iv = Some 1);
  check_int "waker ran once" 1 !ran

(* A systhread blocks in [read_block] while a spawned domain fills, after a
   delay that varies by round so the fill lands before, during and after
   the reader parks. *)
let test_read_block_systhread () =
  for round = 0 to 39 do
    let iv = Ivar.create () in
    let got = ref (-1) in
    let reader = Thread.create (fun () -> got := Ivar.read_block iv) () in
    let filler =
      Domain.spawn (fun () ->
          Unix.sleepf (float_of_int (round mod 4) *. 5e-4);
          Ivar.fill iv round)
    in
    Domain.join filler;
    Thread.join reader;
    check_int "reader got the value" round !got
  done;
  let full = Ivar.create () in
  Ivar.fill full "x";
  Alcotest.(check string) "read_block on a full ivar" "x" (Ivar.read_block full)

let test_peek_and_waited () =
  let iv = Ivar.create () in
  check_bool "empty: peek" true (Ivar.peek iv = None);
  check_bool "empty: waited" false (Ivar.waited iv);
  Ivar.on_fill iv ignore;
  check_bool "waker: peek" true (Ivar.peek iv = None);
  check_bool "waker: waited" true (Ivar.waited iv);
  Ivar.fill iv 3;
  check_bool "full: peek" true (Ivar.peek iv = Some 3);
  check_bool "full: waited" true (Ivar.waited iv);
  let bare = Ivar.create () in
  Ivar.fill bare 4;
  check_bool "full without a waker: waited" true (Ivar.waited bare);
  check_bool "full without a waker: peek" true (Ivar.peek bare = Some 4)

let suite =
  ( "ivar",
    [
      Alcotest.test_case "fill races on_fill across domains" `Quick
        (race ~n_reg:1 ~lockstep:true);
      Alcotest.test_case "on_fill races on_fill across domains" `Quick
        (race ~n_reg:2 ~lockstep:false);
      Alcotest.test_case "on_fill after fill runs at once" `Quick
        test_on_fill_after_fill;
      Alcotest.test_case "second fill raises" `Quick test_second_fill_raises;
      Alcotest.test_case "read_block from a systhread" `Quick
        test_read_block_systhread;
      Alcotest.test_case "peek and waited" `Quick test_peek_and_waited;
    ] )
