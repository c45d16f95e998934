type t = (int, int) Hashtbl.t

let create () = Hashtbl.create 8

let add t e =
  Hashtbl.replace t e (1 + Option.value ~default:0 (Hashtbl.find_opt t e))

let remove t e =
  match Hashtbl.find_opt t e with
  | Some n when n > 1 -> Hashtbl.replace t e (n - 1)
  | Some _ -> Hashtbl.remove t e
  | None -> ()

let minimum t ~default = Hashtbl.fold (fun e _ acc -> Stdlib.min e acc) t default
