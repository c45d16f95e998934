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

(* File format v3:
     ckpt3<TAB>tid<TAB>covers<TAB>hexname,hexname,...<LF>   (covered reactors)
     <one Wal v3 record per checkpoint row, back to back>
     end<TAB>row-count<TAB>crc32hex<LF>               (completeness trailer)
   The trailer makes a torn checkpoint (crash mid-write) detectable, and its
   CRC covers every byte before it — in particular the header, whose tid /
   covers / reactor-name fields the per-row records cannot protect. The
   writer is additionally atomic (tmp file + rename), so a reader only ever
   sees either the old complete file or the new one.

   v2 files (header "ckpt2", one framed v2 row line each, the same
   trailer) remain readable; v1 files are no longer read. *)

let write_file path ck =
  let tmp = path ^ ".tmp" in
  let b = Wal.Buf.create 4096 in
  Wal.Buf.add_string b "ckpt3\t";
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
          le_writes = [ Wal.Put { reactor; table; row } ] })
    ck.ck_rows;
  let crc = Wal.Buf.crc32 b ~pos:0 ~len:(Wal.Buf.length b) in
  let oc = open_out_bin tmp in
  Wal.Buf.output oc b;
  Printf.fprintf oc "end\t%d\t%08x\n" (List.length ck.ck_rows) crc;
  close_out oc;
  Sys.rename tmp path

let row_of = function
  | { Wal.le_writes = [ Wal.Put { reactor; table; row } ]; _ } -> Ok (reactor, table, row)
  | _ -> Error "bad checkpoint row"

(* "ckpt<v>\ttid\tcovers\thexnames" *)
let parse_header ~version header =
  match String.split_on_char '\t' header with
  | [ v; tid; covers; reactors ] when v = version -> (
    match (int_of_string_opt tid, int_of_string_opt covers) with
    | Some ck_tid, Some ck_covers -> (
      try
        let ck_reactors =
          if reactors = "" then []
          else List.map Wal.unhex (String.split_on_char ',' reactors)
        in
        Ok (ck_tid, ck_covers, ck_reactors)
      with Failure m -> Error m)
    | _ -> Error "bad checkpoint header fields")
  | _ -> Error "bad checkpoint header"

let check_trailer trailer ~rows ~crc =
  match String.split_on_char '\t' trailer with
  | [ "end"; n; c ] when int_of_string_opt n = Some rows ->
    if String.equal c (Printf.sprintf "%08x" crc) then Ok ()
    else Error "checkpoint checksum mismatch"
  | [ "end"; _; _ ] -> Error "torn checkpoint (row count mismatch)"
  | _ -> Error "torn checkpoint (no trailer)"

let ( let* ) = Result.bind

(* v3: walk the records after the header; the first byte that starts no
   record begins the trailer, which must run to the end of the file. *)
let read_v3 content ~hdr_end =
  let* ck_tid, ck_covers, ck_reactors =
    parse_header ~version:"ckpt3" (String.sub content 0 hdr_end)
  in
  let total = String.length content in
  let rec rows acc pos =
    if pos < total && content.[pos] = Wal.record_magic then
      let* e, next = Wal.decode_record content ~pos in
      let* row = row_of e in
      rows (row :: acc) next
    else Ok (List.rev acc, pos)
  in
  let* ck_rows, tpos = rows [] (hdr_end + 1) in
  if tpos >= total || content.[total - 1] <> '\n' then Error "torn checkpoint (no trailer)"
  else
    let* () =
      check_trailer
        (String.sub content tpos (total - 1 - tpos))
        ~rows:(List.length ck_rows)
        ~crc:(Util.Checksum.crc32_sub content ~pos:0 ~len:tpos)
    in
    Ok { ck_tid; ck_covers; ck_reactors; ck_rows }

(* v2: one text line each for the header, every row and the trailer. The
   trailer CRC covers the canonical reconstruction of everything before
   it (header + row lines, each newline-terminated) — corruption that
   splits or merges lines is caught by the row count / frame decoding
   instead. *)
let read_v2 content =
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' content) with
  | [] -> Error "empty checkpoint file"
  | header :: rest -> (
    let* ck_tid, ck_covers, ck_reactors = parse_header ~version:"ckpt2" header in
    match List.rev rest with
    | [] -> Error "torn checkpoint (no trailer)"
    | trailer :: rev_rows ->
      let row_lines = List.rev rev_rows in
      let body =
        String.concat "" (List.map (fun l -> l ^ "\n") (header :: row_lines))
      in
      let* () =
        check_trailer trailer ~rows:(List.length row_lines)
          ~crc:(Util.Checksum.crc32 body)
      in
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
          let* e = Wal.decode_framed line in
          let* row = row_of e in
          parse (row :: acc) rest
      in
      let* ck_rows = parse [] row_lines in
      Ok { ck_tid; ck_covers; ck_reactors; ck_rows })

let read_file_opt path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error m
  | content -> (
    match String.index_opt content '\n' with
    | Some hdr_end when String.starts_with ~prefix:"ckpt3\t" content ->
      read_v3 content ~hdr_end
    | _ when String.starts_with ~prefix:"ckpt2\t" content -> read_v2 content
    | _ when content = "" -> Error "empty checkpoint file"
    | _ -> Error "bad checkpoint header")

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
