(* YCSB multi_update experiments: Figures 13 & 14 (Appendix C) — the effect
   of skew and queueing on latency and throughput, with cost-model
   predictions for the single-worker configuration.

   Setup mirrors the paper at reduced scale: four containers, each holding a
   contiguous range of key reactors; multi_update touches 10 zipfian keys
   and is invoked on one of them, with remote keys ordered before local
   ones (fork-join shape). *)

open Workloads

let n_keys = 10_000
let containers = 4
let txn_keys = 10

let key_container k =
  (* contiguous ranges, like the paper's 10k-per-container assignment *)
  let i = int_of_string (String.sub k 1 (String.length k - 1)) in
  i * containers / n_keys

let config () =
  Reactdb.Config.custom
    ~executors_per_container:(Array.make containers 1)
    ~router:Reactdb.Config.Affinity
    ~placement:key_container
    ~affinity_slot:(fun _ -> 0)
    ()

let build () = Harness.build (Ycsb.decl ~keys:n_keys ()) (config ())

let gen theta =
  let p = Ycsb.params ~txn_keys ~theta n_keys in
  fun rng -> Ycsb.gen_multi_update rng p ~container_of:key_container

(* Average realized async (remote) and sync (local) update counts under a
   given skew — the paper records these to fit the cost model (App. C). *)
let sample_structure theta =
  let rng = Util.Rng.create 99 in
  let g = gen theta in
  let trials = 400 in
  let remote = ref 0 and local = ref 0 and total = ref 0 in
  for _ = 1 to trials do
    let req = g rng in
    let home = key_container req.Wl.reactor in
    List.iter
      (fun v ->
        incr total;
        if key_container (Util.Value.to_str v) <> home then incr remote
        else incr local)
      (List.tl req.Wl.args)
  done;
  ( float_of_int !remote /. float_of_int trials,
    float_of_int !local /. float_of_int trials )

(* Calibrate per-update processing and communication costs by profiling a
   single-key update, like the paper. *)
let calibrate () =
  let db = build () in
  let outs =
    Harness.measure_txns db ~n:50 (fun rng ->
        let k = Util.Rng.int rng n_keys in
        Wl.request (Ycsb.key_name k) "update" [ Wl.vs (String.make 100 'z') ])
  in
  let bd = Harness.mean_breakdown outs in
  bd.Harness.avg_sync_exec

let predict ~cs ~cr ~p_update theta =
  let remote, local = sample_structure theta in
  let n_remote = int_of_float (Float.round remote) in
  let st =
    Costmodel.node ~at:0
      ~p_ovp:((local +. 1.) *. p_update) (* local keys + the root's own *)
      ~async:(List.init n_remote (fun i -> Costmodel.leaf ~at:(i + 1) p_update))
      ()
  in
  let costs = Costmodel.uniform_costs ~cs ~cr in
  Costmodel.latency costs st

let fig13_14 ~fast =
  let thetas = if fast then [ 0.01; 0.99; 5.0 ] else [ 0.01; 0.5; 0.99; 2.0; 5.0 ] in
  let p_update = calibrate () in
  let prof = Reactdb.Profile.default in
  let t =
    Util.Tablefmt.create
      [ "zipf"; "workers"; "latency [ms]"; "tput [Ktxn/s]"; "abort %";
        "pred [ms]"; "pred+C+I [ms]" ]
  in
  List.iter
    (fun theta ->
      let pred =
        predict ~cs:prof.Reactdb.Profile.cost_send
          ~cr:prof.Reactdb.Profile.cost_recv ~p_update theta
      in
      List.iter
        (fun workers ->
          let db = build () in
          let g = gen theta in
          let r =
            Harness.run (Harness.sim db)
              (Bexp.load_spec ~fast ~n_workers:workers (fun _w rng -> g rng))
          in
          Util.Tablefmt.row t
            [ Printf.sprintf "%.2f" theta; string_of_int workers;
              Bexp.fmt_lat r; Bexp.fmt_tput r;
              Util.Tablefmt.fcell ~digits:2 (100. *. r.Harness.abort_rate);
              (if workers = 1 then Util.Tablefmt.fcell (Bexp.ms pred) else "-");
              (* Pred+C+I: add the measured commit+input-generation cost,
                 as Appendix C does. *)
              (if workers = 1 then
                 Util.Tablefmt.fcell
                   (Bexp.ms (pred +. Bexp.overhead r))
               else "-")
            ])
        [ 1; 4 ])
    thetas;
  Util.Tablefmt.print t;
  Printf.printf
    "Expected shape (App. C): with 1 worker, latency falls as skew rises\n\
     (more sub-transactions become local/synchronous) and the prediction\n\
     tracks it; with 4 workers, skew adds queueing — higher and more\n\
     variable latency and rising aborts that the cost model (by design)\n\
     does not capture. Throughput peaks for the 1-worker case at high\n\
     skew; the 4-worker case loses its advantage as skew concentrates\n\
     load on one executor.\n"

let register () =
  Bexp.register ~id:"fig13" ~paper:"Figures 13-14 (App C)"
    ~title:"YCSB multi_update: effect of skew and queueing" fig13_14
