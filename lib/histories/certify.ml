type entry = {
  c_txn : int;
  c_tid : int;
  c_reads : (int * int) list;
  c_col_reads : (int * int * int) list;
  c_writes : (int * int) list;
}

module IntMap = Map.Make (Int)

let check entries =
  (* Versions per record: (tid, writer txn, changed columns), sorted by
     tid. TID 0 is the initial loaded version with no writer. *)
  let versions = Hashtbl.create 256 in
  List.iter
    (fun e ->
      List.iter
        (fun (rid, cols) ->
          let vs = Option.value ~default:[] (Hashtbl.find_opt versions rid) in
          Hashtbl.replace versions rid ((e.c_tid, e.c_txn, cols) :: vs))
        e.c_writes)
    entries;
  Hashtbl.iter
    (fun rid vs ->
      Hashtbl.replace versions rid
        (List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) vs))
    versions;
  let error = ref None in
  let edges = Hashtbl.create 256 in
  let add_edge a b = if a <> b then Hashtbl.replace edges (a, b) () in
  (* ww edges *)
  Hashtbl.iter
    (fun _rid vs ->
      let rec chain = function
        | (_, a, _) :: ((_, b, _) :: _ as rest) ->
          add_edge a b;
          chain rest
        | _ -> ()
      in
      chain vs)
    versions;
  let versions_of rid e observed =
    let vs = Option.value ~default:[] (Hashtbl.find_opt versions rid) in
    if observed <> 0 && not (List.exists (fun (t, _, _) -> t = observed) vs) then
      error :=
        Some
          (Printf.sprintf "txn %d read tid %d of record %d, never installed"
             e.c_txn observed rid);
    vs
  in
  (* wr and rw edges of whole-row reads: the writer of the observed
     version, and the writer of the next one *)
  List.iter
    (fun e ->
      List.iter
        (fun (rid, observed) ->
          let vs = versions_of rid e observed in
          List.iter
            (fun (t, writer, _) -> if t = observed then add_edge writer e.c_txn)
            vs;
          match List.find_opt (fun (t, _, _) -> t > observed) vs with
          | Some (_, next_writer, _) -> add_edge e.c_txn next_writer
          | None -> ())
        e.c_reads)
    entries;
  (* Projected reads, at (record, column) granularity: the read saw, of
     each column in its mask, the version of the last write at or before
     the observed TID that changed it. The last such write of any of its
     columns follows every earlier one by the ww chain, so it alone gives
     the wr edge; every later write that changes one of its columns
     follows it. *)
  List.iter
    (fun e ->
      List.iter
        (fun (rid, observed, mask) ->
          let meets (_, _, cols) = cols land mask <> 0 in
          let before, after =
            List.partition (fun (t, _, _) -> t <= observed)
              (List.filter meets (versions_of rid e observed))
          in
          (match List.rev before with
          | (_, writer, _) :: _ -> add_edge writer e.c_txn
          | [] -> ());
          List.iter (fun (_, writer, _) -> add_edge e.c_txn writer) after)
        e.c_col_reads)
    entries;
  match !error with
  | Some msg -> Error msg
  | None ->
    let adjacency =
      let by_src = Hashtbl.create 64 in
      Hashtbl.iter
        (fun (a, b) () ->
          Hashtbl.replace by_src a
            (b :: Option.value ~default:[] (Hashtbl.find_opt by_src a)))
        edges;
      Hashtbl.fold (fun a bs acc -> (a, bs) :: acc) by_src []
    in
    if Model.has_cycle adjacency then
      Error "serialization graph has a cycle"
    else begin
      (* Witness order: topological sort over all transactions. *)
      let nodes = List.map (fun e -> e.c_txn) entries in
      let adj =
        List.fold_left
          (fun m (v, ns) -> IntMap.add v ns m)
          IntMap.empty adjacency
      in
      let visited = Hashtbl.create 64 in
      let out = ref [] in
      let rec visit v =
        if not (Hashtbl.mem visited v) then begin
          Hashtbl.replace visited v ();
          List.iter visit (Option.value ~default:[] (IntMap.find_opt v adj));
          out := v :: !out
        end
      in
      List.iter visit nodes;
      Ok !out
    end
