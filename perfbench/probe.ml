(* A fixed piece of host work, timed to state host-bound times at a fixed
   reference speed of the host. On a shared host the speed of a core drifts
   by a quarter or more within minutes, more than most changes to the code
   would move the simulator's throughput or a set-up time, both the work of
   one thread. The probe builds and folds small integer maps: allocation,
   pointer chasing and unpredictable branches, like that work, and it slows
   down with it. A stretch of such work timed at [w] wall seconds between
   probes that took [p] seconds counts as [w *. ref_s /. p] reference
   seconds. The simulator driver probes every [every] transactions; a round
   probes just before and after its set-up. *)

module IM = Map.Make (Int)

(* Logical transactions between two probes. *)
let every = 1000

(* The probe's median time on the reference host, a 2-vCPU Intel Xeon
   guest (2 MiB L2 per core, OCaml 5.1.1). Any constant would do; this
   one keeps reference seconds close to wall seconds there. *)
let ref_s = 0.4e-3

let work salt =
  let x = ref salt and acc = ref 0 in
  for _ = 1 to 2 do
    let m = ref IM.empty in
    for j = 1 to 1_000 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      m := IM.add (!x land 0xffff) j !m
    done;
    acc := !acc + IM.fold (fun _ v a -> a + v) !m 0
  done;
  !acc

(* Keeps each probe's result live, so its work is never dropped. *)
let sink = ref 0

(* Wall seconds taken by one probe. It starts on an empty minor heap, which
   holds all it allocates (about 120k words of the default 256k), so no
   collection of the program's data runs inside it and its time does not
   depend on that data. *)
let time salt =
  Gc.minor ();
  let t0 = Unix.gettimeofday () in
  sink := !sink + work salt;
  Unix.gettimeofday () -. t0

(* Median wall seconds of [n] probes in a row. *)
let median_time n =
  let t = Array.init n time in
  Array.sort Float.compare t;
  t.(n / 2)

(* Reference seconds of a run timed as [probes] and [stretches]: probe [k]
   ran just before stretch [k] of simulator time. A stretch counts at the
   mean of the probe times at its two ends, the last one at its first. *)
let ref_seconds probes stretches =
  let p = Array.of_list probes and s = Array.of_list stretches in
  let n = Array.length s in
  if n = 0 || Array.length p <> n then invalid_arg "Probe.ref_seconds";
  let total = ref 0. in
  Array.iteri
    (fun k w ->
      let t = if k + 1 < n then (p.(k) +. p.(k + 1)) /. 2. else p.(k) in
      total := !total +. (w *. ref_s /. t))
    s;
  !total
