(* Layer replays: call one layer's public functions directly on inputs
   shaped like the workload's, and report time and minor-heap words per
   operation. Each replay does a fixed amount of work. *)

module Idx = Storage.Table.Idx

type cost = { ns : float; words : float }

(* Run [f] and charge its wall time and the minor words it allocated on
   this domain to [ops] operations. *)
let per_op ops f =
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () and w1 = Gc.minor_words () in
  let ops = float_of_int (Stdlib.max 1 ops) in
  { ns = (t1 -. t0) *. 1e9 /. ops; words = (w1 -. w0) /. ops }

(* Primary-index keys of every table of [catalogs], one array per table,
   in catalog order, stopping once 100 000 keys are collected. *)
let table_keys catalogs =
  let max_keys = 100_000 in
  let total = ref 0 in
  List.concat_map
    (fun (_, cat) ->
      List.filter_map
        (fun (_, (tbl : Storage.Table.t)) ->
          if !total >= max_keys then None
          else begin
            let keys =
              Idx.fold tbl.Storage.Table.idx ~init:[] ~f:(fun acc k _ -> k :: acc)
            in
            total := !total + List.length keys;
            Some (Array.of_list (List.rev keys))
          end)
        (Storage.Catalog.tables cat))
    catalogs

type btree = { find : cost; insert : cost; range_ns_per_key : float }

(* Rebuild each table's primary index from its keys in a seeded random
   order (insert), look every key up (find), and scan each index end to
   end (range). Repeated until 200 000 keys have been inserted. *)
let btree ~seed tables =
  let min_ops = 200_000 in
  let rng = Util.Rng.create seed in
  let tables = List.filter (fun a -> Array.length a > 0) tables in
  let shuffled =
    List.map
      (fun ks ->
        let a = Array.copy ks in
        Util.Rng.shuffle rng a;
        a)
      tables
  in
  let n_keys = List.fold_left (fun a ks -> a + Array.length ks) 0 tables in
  let reps = Stdlib.max 1 ((min_ops + n_keys - 1) / Stdlib.max 1 n_keys) in
  let ops = reps * n_keys in
  let forests = List.init reps (fun _ -> List.map (fun _ -> Idx.create ()) tables) in
  let insert =
    per_op ops (fun () ->
        List.iter
          (fun ts ->
            List.iter2
              (fun t ks -> Array.iter (fun k -> ignore (Idx.insert t k ())) ks)
              ts shuffled)
          forests)
  in
  let trees = List.hd forests in
  let find =
    per_op ops (fun () ->
        for _ = 1 to reps do
          List.iter2
            (fun t ks -> Array.iter (fun k -> ignore (Idx.find t k)) ks)
            trees shuffled
        done)
  in
  let visited = ref 0 in
  let range =
    per_op 1 (fun () ->
        for _ = 1 to reps do
          List.iter
            (fun t ->
              Idx.range t ~f:(fun _ _ ->
                  incr visited;
                  true))
            trees
        done)
  in
  { find; insert;
    range_ns_per_key = range.ns /. float_of_int (Stdlib.max 1 !visited) }

(* Framed WAL encoding of 2 000 entries taken in turn from [entries];
   cost per entry. *)
let wal_encode entries =
  let ops = 2_000 in
  let a = Array.of_list entries in
  let n = Array.length a in
  if n = 0 then { ns = 0.; words = 0. }
  else
    per_op ops (fun () ->
        for i = 0 to ops - 1 do
          ignore (Sys.opaque_identity (Wal.encode_framed a.(i mod n)))
        done)

(* One mailbox hop is a [push] on one domain and the [pop_wait] that
   receives it on another. A second domain echoes every message back, so
   20 000 round trips make 40 000 hops; the words both domains allocate
   are charged to the hops. *)
let mailbox_hop () =
  let round_trips = 20_000 in
  let module M = Runtime.Mailbox in
  let ping = M.create () and pong = M.create () in
  let echo =
    Domain.spawn (fun () ->
        let w0 = Gc.minor_words () in
        let rec loop () =
          match M.pop_wait ping with
          | Some x ->
            M.push pong x;
            loop ()
          | None -> ()
        in
        loop ();
        Gc.minor_words () -. w0)
  in
  let hops = 2 * round_trips in
  let c =
    per_op hops (fun () ->
        for i = 1 to round_trips do
          M.push ping i;
          ignore (M.pop_wait pong)
        done)
  in
  M.close ping;
  let echo_words = Domain.join echo in
  { c with words = c.words +. (echo_words /. float_of_int hops) }
