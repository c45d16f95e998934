(* Correctness audits shared by the gated benches. Each returns [Ok ()] or
   an error string that lands in the row's "audit" field and the gate's
   AUDIT FAILURE line; chain them with [>>=]. *)

module RDb = Runtime.Db

let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e

(* The runtime raised nothing that is not an abort. *)
let fatal db =
  if RDb.n_fatal db = 0 then Ok ()
  else
    Error
      (Printf.sprintf "%d internal errors (first: %s)" (RDb.n_fatal db)
         (match RDb.fatal_messages db with m :: _ -> m | [] -> "?"))

(* Smallbank's conserving mix: total money over [n] customers is exactly
   what the loader put there. *)
let money ~n cats =
  let expected = float_of_int n *. 2. *. 10_000. in
  let got = Workloads.Smallbank.total_money cats in
  if Float.abs (got -. expected) < 1e-6 then Ok ()
  else
    Error
      (Printf.sprintf "money not conserved: expected %.1f, got %.1f" expected
         got)

(* Every YCSB key reactor keeps exactly its one loaded row. *)
let ycsb_rows cats =
  if
    List.for_all
      (fun (_, _, rows) -> List.length rows = 1)
      (Faultsim.snapshot cats)
  then Ok ()
  else Error "YCSB key reactor lost or duplicated its row"

(* commits + aborts = logical + retries: every attempt counted once. *)
let accounting ~committed ~aborted ~logical ~retries =
  if committed + aborted = logical + retries then Ok ()
  else
    Error
      (Printf.sprintf
         "attempt accounting: commits(%d) + aborts(%d) <> logical(%d) + \
          retries(%d)"
         committed aborted logical retries)

let secondaries cats =
  match Faultsim.check_secondaries cats with
  | Ok () -> Ok ()
  | Error m -> Error ("secondary-index audit: " ^ m)
