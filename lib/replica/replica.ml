(* Log-shipping replication and failover (DESIGN.md §12).

   A replica is deliberately engine-free: its catalogs come from
   Faultsim.fresh_catalogs and every batch goes through Wal.replay — the
   exact code path single-node recovery uses. Promotion can therefore
   check itself: replaying the retained shipped log onto fresh catalogs
   must reproduce the replica's live state byte-for-byte, or the replica
   has diverged and must not take over. *)

let epoch_of (e : Wal.entry) = Storage.Record.tid_epoch e.Wal.le_tid

module Batch = struct
  type decoded = {
    b_gen : int;
    b_from : int;
    b_to : int;
    b_entries : Wal.entry list;
  }

  type decode_result =
    | Complete of decoded
    | Torn of { d : decoded; reason : string }
    | Garbage of string

  (* Wire form (v3):

       R|3|gen|from|to|count|crc32hex \n
       <Wal v3 record per entry, back to back>

     The header CRC covers the whole payload, so an undamaged batch is
     accepted without per-record checks; on mismatch we fall back to
     record framing — each record carries its own CRC — and keep the
     readable prefix, mirroring Wal.read_file_tolerant. v2 batches
     ("R|2|…" header, one framed v2 line per entry, '\n'-separated) are
     still decoded. *)

  let encode ~gen ~from_epoch ~to_epoch entries =
    let b = Wal.Buf.create 4096 in
    List.iter (Wal.add_framed b) entries;
    let crc = Wal.Buf.crc32 b ~pos:0 ~len:(Wal.Buf.length b) in
    Wal.Buf.insert b ~at:0
      (Printf.sprintf "R|3|%d|%d|%d|%d|%08x\n" gen from_epoch to_epoch
         (List.length entries) crc);
    Wal.Buf.contents b

  (* Bytes of the records, counted in one scratch buffer cleared per
     record. *)
  let size entries =
    let b = Wal.Buf.create 1024 in
    List.fold_left
      (fun a e ->
        Wal.Buf.clear b;
        Wal.add_framed b e;
        a + Wal.Buf.length b)
      0 entries

  (* Readable prefix of a payload: stop at the first record that fails
     to decode — everything past a tear or a corrupt record is
     unattributable, exactly like a torn WAL tail. *)
  let prefix_v3 payload =
    match Wal.decode_string payload with
    | entries, Wal.Clean -> (entries, None)
    | entries, Wal.Torn { reason; _ } -> (entries, Some reason)

  let prefix_v2 payload =
    let lines = if payload = "" then [] else String.split_on_char '\n' payload in
    let rec go acc = function
      | [] -> (List.rev acc, None)
      | l :: tl -> (
        match Wal.decode_framed l with
        | Ok e -> go (e :: acc) tl
        | Error r -> (List.rev acc, Some r))
    in
    go [] lines

  let decode s =
    let header, payload =
      match String.index_opt s '\n' with
      | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
      | None -> (s, "")
    in
    match String.split_on_char '|' header with
    | [ "R"; ("2" | "3" as v); g; f; t; n; crc ] -> (
      match
        ( int_of_string_opt g,
          int_of_string_opt f,
          int_of_string_opt t,
          int_of_string_opt n )
      with
      | Some b_gen, Some b_from, Some b_to, Some count ->
        let entries, why = (if v = "3" then prefix_v3 else prefix_v2) payload in
        let d = { b_gen; b_from; b_to; b_entries = entries } in
        let crc_ok = String.equal crc (Util.Checksum.crc32_hex payload) in
        (match why with
        | None when crc_ok && List.length entries = count -> Complete d
        (* CRC collision shield: framing disagrees, trust framing *)
        | Some r -> Torn { d; reason = r }
        | None ->
          Torn
            { d;
              reason =
                Printf.sprintf "payload crc or count mismatch (%d/%d records readable)"
                  (List.length entries) count })
      | _ -> Garbage "unparsable header fields")
    | _ -> Garbage "unrecognized batch header"
end

type t = {
  rid : int;
  decl : Reactor.decl;
  cats : (string * Storage.Catalog.t) list;
  cat : string -> Storage.Catalog.t; (* [Faultsim.catalog_of cats] *)
  mutable wmark : int;
  mutable gen : int;
  mutable placements : (string * int) list;
  mutable log_rev : Wal.entry list; (* retained shipped entries, reversed *)
  mutable n_batches : int;
  mutable n_refused : int;
  mutable n_torn : int;
  mutable bytes_applied : int;
  mutable ro_served : int;
}

type apply_result =
  | Applied of { from_epoch : int; to_epoch : int; fresh : int }
  | Applied_torn of { upto : int; fresh : int; reason : string }
  | Refused of string

let create ?(gen = 0) ~id decl =
  Reactor.validate decl;
  let cats = Faultsim.fresh_catalogs decl in
  {
    rid = id;
    decl;
    cats;
    cat = Faultsim.catalog_of cats;
    wmark = 0;
    gen;
    placements = [];
    log_rev = [];
    n_batches = 0;
    n_refused = 0;
    n_torn = 0;
    bytes_applied = 0;
    ro_served = 0;
  }

let id t = t.rid
let watermark t = t.wmark
let generation t = t.gen
let placements t = t.placements
let log t = List.rev t.log_rev
let catalogs t = t.cats
let n_batches t = t.n_batches
let n_refused t = t.n_refused
let n_torn t = t.n_torn
let bytes_applied t = t.bytes_applied
let ro_served t = t.ro_served

(* Replay a (complete-epochs-only) slice through the recovery path:
   update_data keeps secondary indexes aligned, on_move folds placement
   records. The slice is retained in TID order for promotion replay. *)
let apply_entries t entries =
  if entries <> [] then begin
    let entries =
      List.sort (fun a b -> compare a.Wal.le_tid b.Wal.le_tid) entries
    in
    ignore
      (Wal.replay entries
         ~catalog_of:t.cat
         ~on_move:(fun ~reactor ~dst ->
           t.placements <- (reactor, dst) :: List.remove_assoc reactor t.placements));
    t.log_rev <- List.rev_append entries t.log_rev;
    t.bytes_applied <- t.bytes_applied + Batch.size entries
  end

(* Generation and contiguity admission. A batch from a newer primary
   generation is adopted (the promoted replica keeps shipping under its
   bumped stamp); a batch from an older one is the deposed primary still
   talking — refused, never applied (fencing). A batch that does not
   reach back to watermark+1 has a hole we cannot bridge. *)
let admit t ~b_gen ~b_from =
  if b_gen < t.gen then
    Error (Printf.sprintf "stale generation %d < %d" b_gen t.gen)
  else begin
    if b_gen > t.gen then t.gen <- b_gen;
    if b_from > t.wmark + 1 then
      Error
        (Printf.sprintf "epoch gap: batch starts at %d, watermark %d" b_from
           t.wmark)
    else Ok ()
  end

let apply t s =
  match Batch.decode s with
  | Batch.Garbage reason ->
    t.n_refused <- t.n_refused + 1;
    Refused reason
  | Batch.Complete d -> (
    match admit t ~b_gen:d.Batch.b_gen ~b_from:d.Batch.b_from with
    | Error e ->
      t.n_refused <- t.n_refused + 1;
      Refused e
    | Ok () ->
      (* duplicates below the watermark are re-delivery (a delayed batch
         arriving after its re-shipped twin): skip, don't re-apply *)
      let fresh =
        List.filter (fun e -> epoch_of e > t.wmark) d.Batch.b_entries
      in
      apply_entries t fresh;
      if d.Batch.b_to > t.wmark then t.wmark <- d.Batch.b_to;
      t.n_batches <- t.n_batches + 1;
      Applied
        {
          from_epoch = d.Batch.b_from;
          to_epoch = d.Batch.b_to;
          fresh = List.length fresh;
        })
  | Batch.Torn { d; reason } -> (
    match admit t ~b_gen:d.Batch.b_gen ~b_from:d.Batch.b_from with
    | Error e ->
      t.n_refused <- t.n_refused + 1;
      Refused e
    | Ok () ->
      (* Entries ship in TID order, so epochs are nondecreasing: every
         entry of an epoch strictly below the highest epoch visible in
         the readable prefix is provably complete. The highest epoch
         itself may have lost entries to the tear — discard it and let
         the unchanged cursor re-request from the last complete epoch. *)
      let max_seen =
        List.fold_left (fun a e -> max a (epoch_of e)) 0 d.Batch.b_entries
      in
      let safe = max_seen - 1 in
      let fresh =
        List.filter
          (fun e ->
            let ep = epoch_of e in
            ep > t.wmark && ep <= safe)
          d.Batch.b_entries
      in
      apply_entries t fresh;
      if safe > t.wmark then t.wmark <- safe;
      t.n_torn <- t.n_torn + 1;
      Applied_torn { upto = t.wmark; fresh = List.length fresh; reason })

(* ---- replica reads (frozen-epoch visibility, DESIGN.md §10) ---- *)

let rec invoke t ~snapshot ~txn ~reactor ~proc ~args =
  let rt = Reactor.type_of_reactor t.decl reactor in
  if not (Reactor.proc_readonly rt proc) then
    raise
      (Occ.Txn.Abort
         (Printf.sprintf "replica %d: %s.%s is not declared read-only" t.rid
            reactor proc));
  let procfn = Reactor.find_proc rt proc in
  let ctx =
    {
      Reactor.db =
        Query.Exec.make_ctx ~snapshot ~txn ~container:0
          ~catalog:(t.cat reactor)
          ~charge:(fun _ _ -> ())
          ~work:(fun _ -> ())
          ();
      self = reactor;
      call =
        (fun ~reactor ~proc ~args ->
          (* all reactors are local to the replica mirror and the epoch is
             frozen, so sub-calls resolve eagerly and synchronously *)
          let v = invoke t ~snapshot ~txn ~reactor ~proc ~args in
          { Reactor.get = (fun () -> v) });
      collect = (fun fs -> List.map (fun (f : Reactor.future) -> f.get ()) fs);
    }
  in
  procfn ctx args

let exec_ro t ~reactor ~proc ~args =
  let txn = Occ.Txn.create ~id:0 ~containers:1 in
  match invoke t ~snapshot:t.wmark ~txn ~reactor ~proc ~args with
  | v ->
    t.ro_served <- t.ro_served + 1;
    Ok v
  | exception Occ.Txn.Abort m -> Error m
  | exception Occ.Txn.Conflict m -> Error m
  | exception Invalid_argument m -> Error m

(* ---- promotion ---- *)

type promotion = {
  pm_replica : int;
  pm_gen : int;
  pm_epoch : int;
  pm_entries : int;
  pm_note : string;
}

let promote ?gen t =
  let gen = match gen with Some g -> g | None -> t.gen + 1 in
  let entries = log t in
  let oracle = Faultsim.fresh_catalogs t.decl in
  let opl = ref [] in
  ignore
    (Wal.replay entries
       ~catalog_of:(Faultsim.catalog_of oracle)
       ~on_move:(fun ~reactor ~dst ->
         opl := (reactor, dst) :: List.remove_assoc reactor !opl));
  match Faultsim.diff (Faultsim.snapshot oracle) (Faultsim.snapshot t.cats) with
  | Some d -> Error ("promotion refused: replica diverges from its log: " ^ d)
  | None -> (
    match Faultsim.check_secondaries t.cats with
    | Error e -> Error ("promotion refused: secondary-index audit: " ^ e)
    | Ok () ->
      let norm = List.sort compare in
      if norm !opl <> norm t.placements then
        Error "promotion refused: placement divergence from shipped log"
      else begin
        t.gen <- gen;
        Ok
          {
            pm_replica = t.rid;
            pm_gen = gen;
            pm_epoch = t.wmark;
            pm_entries = List.length entries;
            pm_note = "recovery-equivalence oracle passed";
          }
      end)

let freshest = function
  | [] -> None
  | r :: rs ->
    Some
      (List.fold_left (fun best r -> if r.wmark > best.wmark then r else best)
         r rs)

(* ---- the shipper ---- *)

module Shipper = struct
  type peer = {
    pr : t;
    mutable pending : string option; (* batch held by Delay_shipment *)
    mutable p_dropped : int;
    mutable p_delayed : int;
  }

  type shipper = {
    chaos : Chaos.t;
    log : Wal.t;
    mutable read : int;  (* the cursor: entries of [log] read so far *)
    mutable held : Wal.entry list;
        (* read entries above the lowest watermark, in log order: some
           replica may still need them *)
    durable : unit -> int;
    sgen : unit -> int;
    peers : peer list;
    mutable n_rounds : int;
  }

  let create ?(chaos = Chaos.none) ~log ~durable_epoch ~gen rs =
    {
      chaos;
      log;
      read = 0;
      held = [];
      durable = durable_epoch;
      sgen = gen;
      peers =
        List.map
          (fun r -> { pr = r; pending = None; p_dropped = 0; p_delayed = 0 })
          rs;
      n_rounds = 0;
    }

  (* The durable bound, then the entries appended since the last read:
     every entry of an epoch at most the bound was appended before the
     bound was published, so it is read by now. *)
  let pull sh =
    let e = sh.durable () in
    let fresh = Wal.entries_from sh.log sh.read in
    sh.read <- sh.read + List.length fresh;
    sh.held <- sh.held @ fresh;
    e

  let suffix sh ~w ~e =
    List.filter
      (fun en ->
        let ep = epoch_of en in
        ep > w && ep <= e)
      sh.held

  let deliver p b = ignore (apply p.pr b)

  let flush_pending p =
    match p.pending with
    | Some b ->
      p.pending <- None;
      deliver p b
    | None -> ()

  (* Ship the replica everything durable past its watermark as one
     contiguous batch. Chaos probes sit exactly where the network would
     be: a dropped batch is lost silently (the unchanged watermark
     re-requests it next round), a delayed one waits in the peer slot. *)
  let ship_suffix sh ~e ~with_chaos p =
    let w = watermark p.pr in
    if e > w then begin
      let b =
        Batch.encode ~gen:(sh.sgen ()) ~from_epoch:(w + 1) ~to_epoch:e (suffix sh ~w ~e)
      in
      if not with_chaos then deliver p b
      else
        match Chaos.draw_us sh.chaos Chaos.Drop_shipment with
        | Some _ -> p.p_dropped <- p.p_dropped + 1
        | None -> (
          match Chaos.draw_us sh.chaos Chaos.Delay_shipment with
          | Some _ ->
            p.p_delayed <- p.p_delayed + 1;
            p.pending <- Some b
          | None -> deliver p b)
    end

  (* One pass over every replica, then drop what all of them applied. *)
  let ship sh ~with_chaos =
    let e = pull sh in
    List.iter
      (fun p ->
        flush_pending p;
        ship_suffix sh ~e ~with_chaos p)
      sh.peers;
    let low = List.fold_left (fun m p -> Stdlib.min m (watermark p.pr)) max_int sh.peers in
    sh.held <- List.filter (fun en -> epoch_of en > low) sh.held

  let round sh =
    sh.n_rounds <- sh.n_rounds + 1;
    ship sh ~with_chaos:true

  let final_ship sh = ship sh ~with_chaos:false

  let rounds sh = sh.n_rounds

  let dropped sh = List.fold_left (fun a p -> a + p.p_dropped) 0 sh.peers
  let delayed sh = List.fold_left (fun a p -> a + p.p_delayed) 0 sh.peers

  let lag sh =
    let e = pull sh in
    List.map
      (fun p ->
        let w = watermark p.pr in
        let behind = max 0 (e - w) in
        (id p.pr, behind, if behind = 0 then 0 else Batch.size (suffix sh ~w ~e)))
      sh.peers

  let publish_obs sh c =
    let lags = lag sh in
    let rows =
      List.map2
        (fun p (_, behind, bytes) ->
          {
            Obs.rr_replica = id p.pr;
            rr_applied_epoch = watermark p.pr;
            rr_epochs_behind = behind;
            rr_bytes_behind = bytes;
            rr_batches = n_batches p.pr;
            rr_drops = p.p_dropped + n_refused p.pr;
          })
        sh.peers lags
    in
    Obs.Collector.set_repl c rows
end
