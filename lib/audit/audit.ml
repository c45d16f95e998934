module RDb = Runtime.Db

let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e

let fatal db =
  if RDb.n_fatal db = 0 then Ok ()
  else
    Error
      (Printf.sprintf "%d internal errors (first: %s)" (RDb.n_fatal db)
         (match RDb.fatal_messages db with m :: _ -> m | [] -> "?"))

let money ~n cats =
  let expected = Workloads.Smallbank.loaded_money ~customers:n in
  let got = Workloads.Smallbank.total_money (List.map snd cats) in
  if Float.abs (got -. expected) < 1e-6 then Ok ()
  else
    Error
      (Printf.sprintf "money not conserved: expected %.1f, got %.1f" expected
         got)

let ycsb_rows cats =
  if
    List.for_all
      (fun (_, _, rows) -> List.length rows = 1)
      (Faultsim.snapshot cats)
  then Ok ()
  else Error "YCSB key reactor lost or duplicated its row"

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

let certify entries =
  match Histories.Certify.check entries with
  | Ok _ -> Ok (List.length entries)
  | Error m -> Error m
