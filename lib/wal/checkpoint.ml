type t = {
  ck_tid : int;
  ck_covers : int;
  ck_reactors : string list;
  ck_rows : (string * string * Util.Value.t array) list;
}

let capture ~tid ?(covers = 0) catalogs =
  let rows = ref [] in
  List.iter
    (fun (rname, catalog) ->
      List.iter
        (fun (tname, tbl) ->
          Storage.Table.range tbl ~f:(fun r ->
              if not r.Storage.Record.absent then
                rows := (rname, tname, Array.copy r.Storage.Record.data) :: !rows;
              true))
        (Storage.Catalog.tables catalog))
    catalogs;
  { ck_tid = tid; ck_covers = covers; ck_reactors = List.map fst catalogs;
    ck_rows = List.rev !rows }

let restore ck ~catalog_of =
  (* Clear all tables of every covered reactor, then insert. Clearing first
     makes restore idempotent and removes loader data. The covered set is
     the explicit reactor list — a reactor whose tables were all empty at
     capture time contributes no rows but must still be cleared — unioned
     with the rows' reactors for checkpoints read from legacy files. *)
  let reactors =
    List.sort_uniq String.compare
      (ck.ck_reactors @ List.map (fun (r, _, _) -> r) ck.ck_rows)
  in
  List.iter
    (fun rname ->
      List.iter
        (fun (_, tbl) -> Storage.Table.clear tbl)
        (Storage.Catalog.tables (catalog_of rname)))
    reactors;
  let n = ref 0 in
  List.iter
    (fun (rname, tname, row) ->
      incr n;
      let tbl = Storage.Catalog.table (catalog_of rname) tname in
      let record = Storage.Record.fresh ~absent:false row in
      record.Storage.Record.tid <- ck.ck_tid;
      ignore (Storage.Table.insert tbl record))
    ck.ck_rows;
  !n

(* File format v2:
     ckpt2<TAB>tid<TAB>covers<TAB>hexname,hexname,...   (covered reactors)
     <framed Wal row per checkpoint row>
     end<TAB>row-count<TAB>crc32hex            (completeness trailer)
   The trailer makes a torn checkpoint (crash mid-write) detectable, and its
   CRC covers everything before it — in particular the header, whose tid /
   covers / reactor-name fields the per-row frames cannot protect. The
   writer is additionally atomic (tmp file + rename), so a reader only ever
   sees either the old complete file or the new one.

   Legacy v1 ("tid<TAB>n" header, unframed rows, no trailer) remains
   readable; its covered-reactor set is derived from the rows. *)

let write_file path ck =
  let tmp = path ^ ".tmp" in
  let b = Wal.Buf.create 4096 in
  Wal.Buf.add_string b "ckpt2\t";
  Wal.Buf.add_int b ck.ck_tid;
  Wal.Buf.add_char b '\t';
  Wal.Buf.add_int b ck.ck_covers;
  Wal.Buf.add_char b '\t';
  List.iteri
    (fun i r ->
      if i > 0 then Wal.Buf.add_char b ',';
      Wal.Buf.add_hex b r)
    ck.ck_reactors;
  Wal.Buf.add_char b '\n';
  List.iter
    (fun (reactor, table, row) ->
      Wal.add_framed b
        { Wal.le_txn = 0; le_tid = ck.ck_tid;
          le_writes = [ Wal.Put { reactor; table; row } ] };
      Wal.Buf.add_char b '\n')
    ck.ck_rows;
  let crc = Wal.Buf.crc32 b ~pos:0 ~len:(Wal.Buf.length b) in
  let oc = open_out tmp in
  Wal.Buf.output oc b;
  Printf.fprintf oc "end\t%d\t%08x\n" (List.length ck.ck_rows) crc;
  close_out oc;
  Sys.rename tmp path

let read_file_opt path =
  let parse_row line =
    let entry_of =
      if String.length line >= 2 && line.[0] = '2' && line.[1] = '|' then
        Wal.decode_framed line
      else try Ok (Wal.decode_entry line) with Failure m -> Error m
    in
    match entry_of with
    | Ok { Wal.le_writes = [ Wal.Put { reactor; table; row } ]; _ } ->
      Ok (reactor, table, row)
    | Ok _ -> Error "bad checkpoint row line"
    | Error m -> Error m
  in
  try
    let ic = open_in_bin path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let lines = String.split_on_char '\n' content in
    let lines = List.filter (fun l -> l <> "") lines in
    match lines with
    | [] -> Error "empty checkpoint file"
    | header :: rest -> (
      match String.split_on_char '\t' header with
      | [ "ckpt2"; tid; covers; reactors ] -> (
        match (int_of_string_opt tid, int_of_string_opt covers) with
        | None, _ | _, None -> Error "bad checkpoint header fields"
        | Some ck_tid, Some ck_covers -> (
          let ck_reactors =
            if reactors = "" then []
            else List.map Wal.unhex (String.split_on_char ',' reactors)
          in
          (* Split the trailer off; a missing or mismatched trailer means a
             torn checkpoint. The trailer CRC covers the canonical
             reconstruction of everything before it (header + row lines,
             each newline-terminated) — corruption that splits or merges
             lines is caught by the row count / frame decoding instead. *)
          match List.rev rest with
          | [] -> Error "torn checkpoint (no trailer)"
          | trailer :: rev_rows -> (
            match String.split_on_char '\t' trailer with
            | [ "end"; n; crc ]
              when int_of_string_opt n = Some (List.length rev_rows) ->
              let rows_lines = List.rev rev_rows in
              let body =
                String.concat ""
                  (List.map (fun l -> l ^ "\n") (header :: rows_lines))
              in
              if not (String.equal crc (Util.Checksum.crc32_hex body)) then
                Error "checkpoint checksum mismatch"
              else (
                let rec parse acc = function
                  | [] -> Ok (List.rev acc)
                  | line :: rest -> (
                    match parse_row line with
                    | Ok row -> parse (row :: acc) rest
                    | Error m -> Error m)
                in
                match parse [] rows_lines with
                | Ok ck_rows -> Ok { ck_tid; ck_covers; ck_reactors; ck_rows }
                | Error m -> Error m)
            | [ "end"; _; _ ] -> Error "torn checkpoint (row count mismatch)"
            | _ -> Error "torn checkpoint (no trailer)")))
      | [ "tid"; tid ] -> (
        (* legacy v1: unframed rows, no trailer *)
        match int_of_string_opt tid with
        | None -> Error "bad checkpoint tid"
        | Some ck_tid -> (
          let rec parse acc = function
            | [] -> Ok (List.rev acc)
            | line :: rest -> (
              match parse_row line with
              | Ok row -> parse (row :: acc) rest
              | Error m -> Error m)
          in
          match parse [] rest with
          | Ok ck_rows ->
            let ck_reactors =
              List.sort_uniq String.compare
                (List.map (fun (r, _, _) -> r) ck_rows)
            in
            (* Legacy files carry no log position: covers = 0 makes recovery
               replay the whole log over the restored state, which is slower
               but sound (per-record TID order is monotonic in the log). *)
            Ok { ck_tid; ck_covers = 0; ck_reactors; ck_rows }
          | Error m -> Error m))
      | _ -> Error "bad checkpoint header")
  with
  | Sys_error m -> Error m
  | Failure m -> Error m

let read_file path =
  match read_file_opt path with
  | Ok ck -> ck
  | Error m -> failwith ("Checkpoint.read_file: " ^ m)

let recover ~checkpoint ~log ~catalog_of =
  let restored = restore checkpoint ~catalog_of in
  (* The tail is cut POSITIONALLY: the checkpoint covers the first
     [ck_covers] log entries (append order = commit order). Cutting by TID
     would be unsound — Silo TIDs are not globally monotonic across
     reactors (a post-checkpoint commit on a cold reactor can carry a TID
     below the watermark and would be skipped). With [ck_covers = 0]
     (unknown coverage, e.g. legacy files) the whole log replays over the
     restored state; per-record TID monotonicity makes that sound, merely
     slower. *)
  let tail = List.filteri (fun i _ -> i >= checkpoint.ck_covers) log in
  let replayed = Wal.replay tail ~catalog_of in
  (restored, replayed)
