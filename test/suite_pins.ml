(* The pin registry both backends share (DESIGN.md §10.3, §11.1): the
   snapshot/commit epoch registry and the migration generation gate,
   tested once here rather than through each backend. *)

open Util
module R = Reactdb.Pins.Registry
module G = Reactdb.Pins.Gate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A registry over a hand-driven epoch clock. *)
let registry_at e0 =
  let clock = ref e0 in
  (R.create ~epoch:(fun () -> !clock), clock)

(* ------------------------------------------------------------------ *)
(* Epoch registry *)

let test_commit_hold_bounds_snapshot () =
  let r, clock = registry_at 5 in
  let e = R.hold_commit r in
  check_int "hold takes the current epoch" 5 e;
  clock := e + 3;
  check_bool "safe snapshot stays below the held epoch" true (R.safe_snapshot r <= e - 1);
  check_int "acquire is bounded the same way" (e - 1) (R.acquire r);
  R.drop_commit r e;
  check_int "dropping the hold frees the boundary" (e + 2) (R.safe_snapshot r)

let test_live_snapshot_pins_horizon () =
  let r, clock = registry_at 3 in
  let s = R.acquire r in
  check_int "snapshot below the current epoch" 2 s;
  clock := 10;
  check_int "the live snapshot pins the horizon" s (R.horizon r);
  R.release r s;
  check_int "the horizon advances after release" 9 (R.horizon r)

let test_release_unheld_noop () =
  let r, clock = registry_at 4 in
  let s = R.acquire r in
  clock := 9;
  R.release r (s + 5);
  check_int "releasing an unheld epoch changes nothing" s (R.horizon r);
  R.release r s;
  R.release r s;
  check_int "a second release of the same epoch is a no-op" 8 (R.horizon r);
  R.drop_commit r 7;
  check_int "dropping an unheld commit epoch is a no-op" 8 (R.safe_snapshot r)

(* Issued snapshots never decrease while the clock advances and commit
   holds and live snapshots come and go in a seeded random order. *)
let test_snapshots_monotone () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let r, clock = registry_at 1 in
      let holds = ref [] and live = ref [] and last = ref 0 in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let drop x l =
        let rec go = function [] -> [] | y :: t when y = x -> t | y :: t -> y :: go t in
        go l
      in
      for _ = 1 to 2_000 do
        (match Rng.int rng 6 with
        | 0 -> incr clock
        | 1 -> holds := R.hold_commit r :: !holds
        | 2 when !holds <> [] ->
          let e = pick !holds in
          holds := drop e !holds;
          R.drop_commit r e
        | 3 -> live := R.acquire r :: !live
        | 4 when !live <> [] ->
          let s = pick !live in
          live := drop s !live;
          R.release r s
        | _ -> ());
        let s = R.safe_snapshot r in
        if s < !last then Alcotest.failf "seed %d: snapshot %d after %d" seed s !last;
        if R.horizon r > s then Alcotest.failf "seed %d: horizon above safe snapshot" seed;
        last := s
      done)
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Migration generation gate *)

(* Block the calling thread until the registered waker fires; fail after
   [limit_s] rather than hang when a wake-up is lost. *)
let spin_suspend ?(limit_s = 5.) register =
  let fired = Atomic.make false in
  register (fun () -> Atomic.set fired true);
  let t0 = Unix.gettimeofday () in
  while not (Atomic.get fired) do
    if Unix.gettimeofday () -. t0 > limit_s then failwith "drain waker never fired";
    Domain.cpu_relax ()
  done

let no_suspend _ = Alcotest.fail "drain suspended with nothing to wait for"

(* A root domain registers and retires in a loop while the main domain
   marks, drains and flips. A registration that read the generation before
   a mark but incremented its slot after the drain saw it empty would hold
   a generation that is already drained. *)
let test_register_races_mark () =
  let g = G.create () in
  let drained = Atomic.make (-1) and stop = Atomic.make false in
  let violations = Atomic.make 0 and roots = Atomic.make 0 in
  let root_dom =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let gen = G.register g in
          if gen <= Atomic.get drained then Atomic.incr violations;
          for _ = 1 to 20 do Domain.cpu_relax () done;
          if gen <= Atomic.get drained then Atomic.incr violations;
          G.retire g gen;
          Atomic.incr roots
        done)
  in
  for _ = 1 to 200_000 do
    let cutoff = G.mark g "r" in
    G.drain g ~suspend:spin_suspend cutoff;
    Atomic.set drained cutoff;
    ignore (G.flip g "r")
  done;
  Atomic.set stop true;
  Domain.join root_dom;
  check_int "no root held a drained generation" 0 (Atomic.get violations);
  check_bool "roots ran during the marks" true (Atomic.get roots > 0)

let test_drain_fires_once () =
  let g = G.create () in
  G.drain g ~suspend:no_suspend (G.mark g "idle");
  ignore (G.flip g "idle");
  let pre1 = G.register g and pre2 = G.register g in
  let cutoff = G.mark g "x" in
  check_int "pre-mark roots are in the cutoff generation" cutoff pre1;
  let fired = ref 0 in
  G.drain g ~suspend:(fun register -> register (fun () -> incr fired)) cutoff;
  let post1 = G.register g in
  check_bool "post-mark root is in a later generation" true (post1 > cutoff);
  G.retire g post1;
  G.retire g pre1;
  check_int "not before the last pre-mark root" 0 !fired;
  let post2 = G.register g in
  G.retire g post2;
  check_int "not on a post-mark retirement" 0 !fired;
  G.retire g pre2;
  check_int "on the last pre-mark retirement" 1 !fired;
  let post3 = G.register g in
  G.retire g post3;
  check_int "exactly once" 1 !fired;
  ignore (G.flip g "x")

(* The last pre-mark retire runs on another domain, racing the drain's
   waiter registration; a lost wake-up fails [spin_suspend]. *)
let test_drain_retire_race () =
  let g = G.create () in
  let handoff = Atomic.make None and stop = Atomic.make false in
  let retirer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          match Atomic.exchange handoff None with
          | Some gen -> G.retire g gen
          | None -> Domain.cpu_relax ()
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join retirer)
    (fun () ->
      for _ = 1 to 3_000 do
        Atomic.set handoff (Some (G.register g));
        let cutoff = G.mark g "x" in
        G.drain g ~suspend:spin_suspend cutoff;
        ignore (G.flip g "x")
      done);
  check_bool "every drain returned" true (Atomic.get handoff = None)

(* One fence round: its gate, the flag it sets and whether [fence] has
   returned. *)
type round = { rg : G.t; flag : bool Atomic.t; returned : bool Atomic.t }

(* A root domain registers, re-checks the flag and retires in a loop while
   the main domain fences a fresh gate each round. A root admitted by the
   re-check must have retired before [fence] returns; one still live
   after, whether of a pre-fence generation or a later registrant that
   missed the flag, is a violation. *)
let test_fence_waits () =
  let fresh () = { rg = G.create (); flag = Atomic.make false; returned = Atomic.make false } in
  let cur = Atomic.make (fresh ()) and stop = Atomic.make false in
  let violations = Atomic.make 0 and admitted = Atomic.make 0 and refused = Atomic.make 0 in
  let root_dom =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let r = Atomic.get cur in
          let gen = G.register r.rg in
          if Atomic.get r.flag then Atomic.incr refused
          else begin
            Atomic.incr admitted;
            for _ = 1 to 20 do Domain.cpu_relax () done;
            if Atomic.get r.returned then Atomic.incr violations
          end;
          G.retire r.rg gen
        done)
  in
  for _ = 1 to 20_000 do
    let r = fresh () in
    Atomic.set cur r;
    for _ = 1 to 20 do Domain.cpu_relax () done;
    G.fence r.rg ~suspend:spin_suspend r.flag;
    Atomic.set r.returned true;
    let gen = G.register r.rg in
    if not (Atomic.get r.flag) then Atomic.incr violations;
    G.retire r.rg gen
  done;
  Atomic.set stop true;
  Domain.join root_dom;
  check_int "no admitted root outlived the fence" 0 (Atomic.get violations);
  check_bool "roots were admitted and refused" true
    (Atomic.get admitted > 0 && Atomic.get refused > 0)

let test_park_and_flip () =
  let g = G.create () in
  let ran = ref [] in
  let k name () = ran := name :: !ran in
  G.park g "x" (k "unmarked");
  check_bool "no stub: runs at once" true (!ran = [ "unmarked" ]);
  let pre = G.register g in
  let cutoff = G.mark g "x" in
  let post = G.register g in
  check_bool "pre-mark root admitted" true (G.admits g ~rgen:pre "x");
  check_bool "post-mark root parks" false (G.admits g ~rgen:post "x");
  check_bool "other reactors unaffected" true (G.admits g ~rgen:post "y");
  G.park g "x" (k "a");
  G.park g "x" (k "b");
  check_int "parked closures wait" 1 (List.length !ran);
  G.retire g pre;
  G.drain g ~suspend:no_suspend cutoff;
  let parked = G.flip g "x" in
  check_int "flip returns the parked traffic" 2 (List.length parked);
  List.iter (fun f -> f ()) parked;
  check_bool "oldest first" true (!ran = [ "b"; "a"; "unmarked" ]);
  G.park g "x" (k "late");
  check_bool "park after the flip runs at once" true (List.hd !ran = "late");
  check_bool "admitted after the flip" true (G.admits g ~rgen:post "x");
  G.retire g post

let suite =
  ( "pins",
    [ Alcotest.test_case "commit hold bounds the snapshot" `Quick
        test_commit_hold_bounds_snapshot;
      Alcotest.test_case "live snapshot pins the horizon" `Quick
        test_live_snapshot_pins_horizon;
      Alcotest.test_case "issued snapshots never decrease" `Quick
        test_snapshots_monotone;
      Alcotest.test_case "release of an unheld epoch" `Quick test_release_unheld_noop;
      Alcotest.test_case "register races mark" `Quick test_register_races_mark;
      Alcotest.test_case "drain fires once" `Quick test_drain_fires_once;
      Alcotest.test_case "drain waker races retire" `Quick test_drain_retire_race;
      Alcotest.test_case "park and flip" `Quick test_park_and_flip;
      Alcotest.test_case "fence waits for every earlier root" `Quick test_fence_waits ] )
