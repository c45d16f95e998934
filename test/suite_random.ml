(* Randomized end-to-end properties over the whole stack: arbitrary
   deployments and load shapes must preserve money conservation and
   conflict-serializability, and the simulation must be bit-for-bit
   deterministic under a fixed seed. *)

open Util
module DB = Reactdb.Database

let check_bool = Alcotest.(check bool)

type shape =
  | SE of { executors : int; affinity : bool }
  | SN
  | Mixed (* two containers: one multi-executor, one single *)

let shape_to_string = function
  | SE { executors; affinity } ->
    Printf.sprintf "SE{exec=%d;aff=%b}" executors affinity
  | SN -> "SN"
  | Mixed -> "Mixed"

let config_of shape accounts =
  let names = Testlib.names accounts in
  match shape with
  | SE { executors; affinity } ->
    Reactdb.Config.shared_everything ~executors ~affinity names
  | SN -> Reactdb.Config.shared_nothing (List.map (fun n -> [ n ]) names)
  | Mixed ->
    let idx = Hashtbl.create 16 in
    List.iteri (fun i n -> Hashtbl.replace idx n i) names;
    Reactdb.Config.custom
      ~executors_per_container:[| 2; 1 |]
      ~router:Reactdb.Config.Affinity
      ~placement:(fun r -> Hashtbl.find idx r mod 2)
      ~affinity_slot:(fun r -> Hashtbl.find idx r)
      ()

(* One run: returns (committed, aborted, final balances, certify result). *)
let run_once ~shape ~accounts ~workers ~per_worker ~seed =
  Testlib.with_db ~n:accounts (config_of shape accounts) (fun db ->
      DB.enable_history db;
      let eng = DB.engine db in
      for w = 0 to workers - 1 do
        Sim.Engine.spawn eng (fun () ->
            let rng = Rng.create (seed + (w * 31)) in
            for _ = 1 to per_worker do
              let src = Rng.int rng accounts in
              let dst = Rng.pick_except rng accounts src in
              ignore
                (DB.exec_txn db
                   ~reactor:(Printf.sprintf "acct%d" src)
                   ~proc:"transfer_to"
                   ~args:
                     [ Value.Str (Printf.sprintf "acct%d" dst); Value.Float 1. ])
            done)
      done;
      ignore (Sim.Engine.run eng);
      let balances = List.map (Testlib.balance db) (Testlib.names accounts) in
      (DB.n_committed db, DB.n_aborted db, balances, Audit.certify (DB.history db)))

let gen_case =
  QCheck.Gen.(
    let* accounts = int_range 2 8 in
    let* workers = int_range 1 6 in
    let* seed = int_range 0 10_000 in
    let* shape =
      oneof
        [ return SN;
          return Mixed;
          map2
            (fun executors affinity -> SE { executors; affinity })
            (int_range 1 4) bool ]
    in
    return (shape, accounts, workers, seed))

let print_case (shape, accounts, workers, seed) =
  Printf.sprintf "%s accounts=%d workers=%d seed=%d" (shape_to_string shape)
    accounts workers seed

let prop_conservation_and_serializability =
  QCheck.Test.make ~name:"any deployment: conservation + serializability"
    ~count:25
    (QCheck.make gen_case ~print:print_case)
    (fun (shape, accounts, workers, seed) ->
      let committed, aborted, balances, cert =
        run_once ~shape ~accounts ~workers ~per_worker:15 ~seed
      in
      let total = List.fold_left ( +. ) 0. balances in
      let expected = 100. *. float_of_int accounts in
      committed + aborted >= workers * 15 (* balance reads add commits *)
      && Float.abs (total -. expected) < 1e-6
      && Result.is_ok cert)

let prop_determinism =
  QCheck.Test.make ~name:"same seed => identical execution" ~count:10
    (QCheck.make gen_case ~print:print_case)
    (fun (shape, accounts, workers, seed) ->
      run_once ~shape ~accounts ~workers ~per_worker:10 ~seed
      = run_once ~shape ~accounts ~workers ~per_worker:10 ~seed)

let test_seed_changes_interleaving () =
  (* different seeds must eventually produce different abort counts —
     otherwise the workload isn't actually exercising concurrency *)
  let distinct = ref false in
  let _, ab0, _, _ =
    run_once ~shape:SN ~accounts:3 ~workers:4 ~per_worker:25 ~seed:1
  in
  for seed = 2 to 8 do
    let _, ab, _, _ =
      run_once ~shape:SN ~accounts:3 ~workers:4 ~per_worker:25 ~seed
    in
    if ab <> ab0 then distinct := true
  done;
  check_bool "interleavings vary across seeds" true !distinct

let suite =
  ( "random",
    [
      QCheck_alcotest.to_alcotest prop_conservation_and_serializability;
      QCheck_alcotest.to_alcotest prop_determinism;
      Alcotest.test_case "seeds vary interleavings" `Quick
        test_seed_changes_interleaving;
    ] )
