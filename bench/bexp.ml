(* Experiment registry and shared helpers for the benchmark harness.

   Every table and figure of the paper's evaluation is one registered
   experiment; `dune exec bench/main.exe` runs them all and prints the
   regenerated series. `--fast` shrinks sweeps for smoke runs; `--only ID`
   selects experiments. *)

type t = {
  id : string;
  paper : string; (* which table/figure this regenerates *)
  title : string;
  run : fast:bool -> unit;
}

let registry : t list ref = ref []

let register ~id ~paper ~title run =
  registry := { id; paper; title; run } :: !registry

let all () = List.rev !registry

(* --- shared helpers --- *)

let exec db (req : Workloads.Wl.request) =
  Reactdb.Database.exec_txn db ~reactor:req.Workloads.Wl.reactor
    ~proc:req.Workloads.Wl.proc ~args:req.Workloads.Wl.args

let ms us = us /. 1000.

let header exp =
  Printf.printf "\n==========================================================\n";
  Printf.printf "%s — %s\n" exp.paper exp.title;
  Printf.printf "==========================================================\n%!"

(* Load spec defaults tuned so the full suite completes in minutes of real
   time while keeping per-point variance low. *)
let epochs ~fast = if fast then 4 else 10
let epoch_us = 10_000.
let warmup = 2

let load_spec ~fast ~n_workers gen =
  Harness.spec ~epochs:(epochs ~fast) ~epoch_us ~warmup_epochs:warmup
    ~n_workers gen

let fmt_tput r =
  Printf.sprintf "%.1f±%.1f" (r.Harness.throughput /. 1000.)
    (r.Harness.throughput_std /. 1000.)

let fmt_lat r =
  Printf.sprintf "%.3f±%.3f" (ms r.Harness.avg_latency) (ms r.Harness.latency_std)

(* Mean unattributed latency (commit, input generation, queueing) of the
   committed transactions. *)
let overhead r =
  match r.Harness.breakdown with Some b -> b.Harness.avg_overhead | None -> 0.
