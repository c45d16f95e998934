(* Tests for redo logging and recovery (the durability extension). *)

open Util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let read_checkpoint path =
  match Checkpoint.read_file_opt path with
  | Ok ck -> ck
  | Error m -> Alcotest.failf "checkpoint %s unreadable: %s" path m

let entry txn tid writes = { Wal.le_txn = txn; le_tid = tid; le_writes = writes }

let put r t row = Wal.Put { reactor = r; table = t; row }
let del r t key = Wal.Del { reactor = r; table = t; key }

let sample_entry =
  entry 7 42
    [
      put "acct0" "acct" [| Value.Int 0; Value.Float 1.5 |];
      del "w;1" "ord\ters" [| Value.Str "tricky;,\tstring"; Value.Null |];
      put "x" "y" [| Value.Bool true; Value.Float Float.nan |];
    ]

let entry_eq a b =
  a.Wal.le_txn = b.Wal.le_txn
  && a.Wal.le_tid = b.Wal.le_tid
  && List.length a.Wal.le_writes = List.length b.Wal.le_writes
  && List.for_all2
       (fun x y ->
         match x, y with
         | ( Wal.Put { reactor = r1; table = t1; row = v1 },
             Wal.Put { reactor = r2; table = t2; row = v2 } )
         | ( Wal.Del { reactor = r1; table = t1; key = v1 },
             Wal.Del { reactor = r2; table = t2; key = v2 } ) ->
           r1 = r2 && t1 = t2
           && Array.length v1 = Array.length v2
           && Array.for_all2 Value.equal v1 v2
         | ( Wal.Migrate { reactor = r1; dst = d1 },
             Wal.Migrate { reactor = r2; dst = d2 } ) ->
           r1 = r2 && d1 = d2
         | _ -> false)
       a.Wal.le_writes b.Wal.le_writes

(* [Ref] is a copy of the text v2 encoder that the binary v3 records
   replaced, kept here only as the specification of the v2 bytes: logs,
   checkpoints and replica batches written in v2 must stay readable, so
   the reader has to decode whatever this encoder writes. *)
module Ref = struct
  let hex s =
    let b = Buffer.create (2 * String.length s) in
    String.iter
      (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c)))
      s;
    Buffer.contents b

  let encode_value = function
    | Value.Null -> "N"
    | Value.Bool b -> if b then "B:1" else "B:0"
    | Value.Int i -> "I:" ^ string_of_int i
    | Value.Float f -> Printf.sprintf "F:%h" f
    | Value.Str s -> "S:" ^ hex s

  let encode_write w =
    let kind, reactor, table, vals =
      match w with
      | Wal.Put { reactor; table; row } -> ("P", reactor, table, row)
      | Wal.Del { reactor; table; key } -> ("D", reactor, table, key)
      | Wal.Migrate { reactor; dst } -> ("M", reactor, "", [| Value.Int dst |])
    in
    String.concat ","
      (kind :: hex reactor :: hex table
      :: Array.to_list (Array.map encode_value vals))

  let encode_entry e =
    Printf.sprintf "%d\t%d\t%s" e.Wal.le_txn e.Wal.le_tid
      (String.concat ";" (List.map encode_write e.Wal.le_writes))

  let encode_framed e =
    let payload = encode_entry e in
    Printf.sprintf "2|%s|%d|%s" (Checksum.crc32_hex payload)
      (String.length payload) payload

  let encode_batch ~gen ~from_epoch ~to_epoch entries =
    let payload = String.concat "\n" (List.map encode_framed entries) in
    Printf.sprintf "R|2|%d|%d|%d|%d|%s\n%s" gen from_epoch to_epoch
      (List.length entries)
      (Checksum.crc32_hex payload)
      payload

  let encode_checkpoint ck =
    let body =
      Printf.sprintf "ckpt2\t%d\t%d\t%s\n" ck.Checkpoint.ck_tid ck.Checkpoint.ck_covers
        (String.concat "," (List.map hex ck.Checkpoint.ck_reactors))
      ^ String.concat ""
          (List.map
             (fun (reactor, table, row) ->
               encode_framed
                 (entry 0 ck.Checkpoint.ck_tid [ Wal.Put { reactor; table; row } ])
               ^ "\n")
             ck.Checkpoint.ck_rows)
    in
    Printf.sprintf "%send\t%d\t%s\n" body (List.length ck.Checkpoint.ck_rows)
      (Checksum.crc32_hex body)
end

(* Entries over the encoder's corners: every byte value in names and
   strings, floats at nan / ±inf / -0. / the smallest subnormal /
   [max_float] plus raw bit patterns, [min_int] / [max_int], placement
   records, empty write lists and empty rows. *)
let gen_any_entry =
  let open QCheck.Gen in
  let bytes n = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound n) in
  let gen_int = oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ] in
  let gen_float =
    oneof
      [ float;
        map Int64.float_of_bits ui64;
        oneofl
          [ Float.nan; Float.infinity; Float.neg_infinity; -0.; 0.;
            Int64.float_of_bits 1L; Float.min_float; Float.max_float;
            -.Float.max_float ] ]
  in
  let gen_value =
    oneof
      [ return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) gen_int;
        map (fun f -> Value.Float f) gen_float;
        map (fun s -> Value.Str s) (bytes 40) ]
  in
  let gen_row =
    frequency [ (1, return [||]); (4, array_size (int_bound 6) gen_value) ]
  in
  let gen_write =
    frequency
      [ ( 4,
          map3
            (fun r t row -> Wal.Put { reactor = r; table = t; row })
            (bytes 10) (bytes 10) gen_row );
        ( 2,
          map3
            (fun r t key -> Wal.Del { reactor = r; table = t; key })
            (bytes 10) (bytes 10) gen_row );
        (1, map2 (fun r dst -> Wal.Migrate { reactor = r; dst }) (bytes 10) gen_int)
      ]
  in
  map3 entry gen_int gen_int
    (frequency [ (1, return []); (4, list_size (int_bound 5) gen_write) ])

let test_roundtrip () =
  let r = Wal.encode_framed sample_entry in
  check_bool "starts with the v3 magic" true (r.[0] = Wal.record_magic);
  (match Wal.decode_framed r with
  | Ok e -> check_bool "roundtrip" true (entry_eq sample_entry e)
  | Error m -> Alcotest.fail m);
  match Wal.decode_record (r ^ r) ~pos:(String.length r) with
  | Ok (e, next) ->
    check_bool "second of two records" true (entry_eq sample_entry e);
    check_int "ends at the end" (2 * String.length r) next
  | Error m -> Alcotest.fail m

let test_memory_log () =
  let log = Wal.in_memory () in
  Wal.append log (entry 1 10 [ put "a" "t" [| Value.Int 1 |] ]);
  Wal.append log (entry 2 20 []);
  check_int "length" 2 (Wal.length log);
  check_int "entries in order" 10 (List.hd (Wal.entries log)).Wal.le_tid

let test_file_log () =
  let path = Filename.temp_file "wal" ".log" in
  let log = Wal.to_file path in
  Wal.append log sample_entry;
  Wal.append log (entry 9 90 [ put "z" "t" [| Value.Str "" |] ]);
  Wal.close log;
  (match Testlib.read_log path with
  | [ a; b ] ->
    check_bool "first" true (entry_eq a sample_entry);
    check_int "second tid" 90 b.Wal.le_tid
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  Sys.remove path

let test_corrupt_file () =
  let path = Filename.temp_file "wal" ".log" in
  let oc = open_out path in
  output_string oc "1\t10\t\nthis is not a log line\n";
  close_out oc;
  check_bool "corrupt detected" true
    (try
       ignore (Testlib.read_log path);
       false
     with Failure m -> String.length m > 0);
  Sys.remove path

(* --- v2 framing: torn tails and checksums --- *)

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_raw path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Offsets just past each record of a clean log image. *)
let record_ends content =
  let rec go acc pos =
    if pos >= String.length content then List.rev acc
    else
      match Wal.decode_record content ~pos with
      | Ok (_, next) -> go (next :: acc) next
      | Error m -> Alcotest.fail m
  in
  go [] 0

let test_torn_tail_tolerated () =
  let path = Filename.temp_file "wal" ".log" in
  let log = Wal.to_file path in
  Wal.append log (entry 1 10 [ put "a" "t" [| Value.Int 1 |] ]);
  Wal.append log (entry 2 20 [ put "a" "t" [| Value.Int 2 |] ]);
  Wal.append log sample_entry;
  Wal.close log;
  (* Crash mid-append: keep the first two records plus part of the
     third. *)
  let content = read_raw path in
  write_raw path (String.sub content 0 (List.nth (record_ends content) 1 + 10));
  (match Wal.read_file_tolerant path with
  | entries, Wal.Torn { valid; _ } ->
    check_int "valid prefix" 2 valid;
    check_int "entries returned" 2 (List.length entries);
    check_int "prefix tids intact" 20 (List.nth entries 1).Wal.le_tid
  | _, Wal.Clean -> Alcotest.fail "torn tail not detected");
  check_bool "strict reader raises" true
    (try
       ignore (Testlib.read_log path);
       false
     with Failure _ -> true);
  Sys.remove path

let test_checksum_mismatch_detected () =
  let path = Filename.temp_file "wal" ".log" in
  let log = Wal.to_file path in
  Wal.append log (entry 1 10 [ put "a" "t" [| Value.Int 1 |] ]);
  Wal.append log (entry 2 20 [ put "a" "t" [| Value.Int 2 |] ]);
  Wal.close log;
  (* Flip one payload byte of the second record: the length still matches,
     only the checksum can catch it. *)
  let content = read_raw path in
  let second = List.hd (record_ends content) in
  let off = String.length content - 2 in
  assert (off > second);
  let corrupted =
    String.mapi
      (fun i c -> if i = off then (if c = 'x' then 'y' else 'x') else c)
      content
  in
  write_raw path corrupted;
  (match Wal.read_file_tolerant path with
  | entries, Wal.Torn { valid; reason } ->
    check_int "valid prefix" 1 valid;
    check_int "entries returned" 1 (List.length entries);
    check_bool "reason mentions checksum" true
      (Util.Strutil.contains reason ~sub:"checksum")
  | _, Wal.Clean -> Alcotest.fail "corruption not detected");
  Sys.remove path

let test_reopen_counts_and_appends () =
  (* Satellite fix: reopening an existing log must count its entries, not
     restart at zero. *)
  let path = Filename.temp_file "wal" ".log" in
  let log = Wal.to_file path in
  Wal.append log (entry 1 10 [ put "a" "t" [| Value.Int 1 |] ]);
  Wal.append log (entry 2 20 [ put "a" "t" [| Value.Int 2 |] ]);
  Wal.close log;
  let log2 = Wal.to_file path in
  check_int "reopen counts existing entries" 2 (Wal.length log2);
  Wal.append log2 (entry 3 30 [ put "a" "t" [| Value.Int 3 |] ]);
  check_int "append continues the count" 3 (Wal.length log2);
  Wal.close log2;
  check_int "all three readable" 3 (List.length (Testlib.read_log path));
  Sys.remove path

let test_reopen_truncates_torn_tail () =
  let path = Filename.temp_file "wal" ".log" in
  let log = Wal.to_file path in
  Wal.append log (entry 1 10 [ put "a" "t" [| Value.Int 1 |] ]);
  Wal.append log (entry 2 20 [ put "a" "t" [| Value.Int 2 |] ]);
  Wal.close log;
  let content = read_raw path in
  write_raw path (String.sub content 0 (String.length content - 3));
  (* Reopen after the crash: the torn record is dropped, appends land after
     the valid prefix and stay reachable. *)
  let log2 = Wal.to_file path in
  check_int "torn tail dropped" 1 (Wal.length log2);
  Wal.append log2 (entry 3 30 [ put "a" "t" [| Value.Int 3 |] ]);
  Wal.close log2;
  (match Wal.read_file_tolerant path with
  | entries, Wal.Clean ->
    check_int "clean after reopen" 2 (List.length entries);
    check_int "appended record readable" 30 (List.nth entries 1).Wal.le_tid
  | _, Wal.Torn _ -> Alcotest.fail "log still torn after reopen");
  Sys.remove path

(* v3 records round-trip every entry exactly: decoding gives the entry
   back, and encoding it again gives the same bytes (float bits, signed
   zeros and nan payloads included). *)
let prop_roundtrip =
  QCheck.Test.make ~name:"wal entry encode/decode roundtrip" ~count:1000
    (QCheck.make gen_any_entry)
    (fun e ->
      let r = Wal.encode_framed e in
      match Wal.decode_framed r with
      | Ok e' -> entry_eq e e' && String.equal r (Wal.encode_framed e')
      | Error _ -> false)

(* The reader decodes v2 records written by the reference encoder, with
   the encodings most likely to bite: NaN, infinities, negative zero,
   hex-precise floats, and entries with no writes at all. *)
let prop_framed_roundtrip =
  let gen_value =
    QCheck.Gen.(
      oneof
        [ return Value.Null;
          map (fun b -> Value.Bool b) bool;
          map (fun i -> Value.Int i) int;
          map (fun f -> Value.Float f) float;
          oneofl
            [ Value.Float Float.nan;
              Value.Float Float.infinity;
              Value.Float Float.neg_infinity;
              Value.Float (-0.);
              Value.Float 0x1.fffffffffffffp+1023;
              Value.Float 0x1.5bf0a8b145769p+1 ];
          map (fun s -> Value.Str s) (string_size (int_bound 30)) ])
  in
  let gen_write =
    QCheck.Gen.(
      map3
        (fun k (r, t) vals ->
          let vals = Array.of_list vals in
          if k then Wal.Put { reactor = r; table = t; row = vals }
          else Wal.Del { reactor = r; table = t; key = vals })
        bool
        (pair (string_size (int_bound 10)) (string_size (int_bound 10)))
        (list_size (int_bound 6) gen_value))
  in
  let gen_entry =
    QCheck.Gen.(
      map3
        (fun txn tid ws -> entry txn tid ws)
        nat nat
        (list_size (int_bound 4) gen_write))
  in
  QCheck.Test.make ~name:"wal v2 framed encode/decode roundtrip" ~count:300
    (QCheck.make gen_entry)
    (fun e ->
      match Wal.decode_framed (Ref.encode_framed e) with
      | Ok e' -> entry_eq e e'
      | Error _ -> false)

let test_framed_empty_writes () =
  let e = entry 3 33 [] in
  (match Wal.decode_framed (Wal.encode_framed e) with
  | Ok e' -> check_bool "empty write list roundtrips" true (entry_eq e e')
  | Error m -> Alcotest.failf "empty write list rejected: %s" m);
  check_bool "v1 line is not read" true
    (Result.is_error (Wal.decode_framed "3\t33\t"))

(* The reader decodes every v2 record the reference encoder writes, alone
   and as a newline-terminated log line. *)
let prop_byte_identity =
  QCheck.Test.make ~name:"wal encoder bytes = reference encoder" ~count:1000
    (QCheck.make gen_any_entry)
    (fun e ->
      let line = Ref.encode_framed e in
      (match Wal.decode_framed line with Ok e' -> entry_eq e e' | Error _ -> false)
      &&
      match Wal.decode_record (line ^ "\n") ~pos:0 with
      | Ok (e', next) -> entry_eq e e' && next = String.length line + 1
      | Error _ -> false)

(* v2 floats are Printf's [%h]; the reader gets every one back bit for
   bit over raw bit patterns (every class: normals, subnormals, zeros,
   infinities) and the class boundaries. A nan reads back as a nan: [%h]
   spells every nan "nan". *)
let prop_float_byte_identity =
  let edges =
    List.map Int64.float_of_bits
      [ 0L; 1L; 0x000F_FFFF_FFFF_FFFFL; 0x0010_0000_0000_0000L;
        0x7FEF_FFFF_FFFF_FFFFL; 0x7FF0_0000_0000_0000L; 0x7FF0_0000_0000_0001L;
        0x7FF8_0000_0000_0000L; Int64.min_int; 0x8000_0000_0000_0001L;
        0xFFF0_0000_0000_0000L; 0xFFF8_0000_0000_0000L; -1L ]
  in
  let same f = function
    | Value.Float g ->
      if Float.is_nan f then Float.is_nan g
      else Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
    | _ -> false
  in
  QCheck.Test.make ~name:"wal float bytes = Printf %h" ~count:2000
    (QCheck.make
       QCheck.Gen.(
         array_size (int_bound 8)
           (oneof [ map Int64.float_of_bits ui64; float; oneofl edges ])))
    (fun fs ->
      let e = entry 0 0 [ put "r" "t" (Array.map (fun f -> Value.Float f) fs) ] in
      match Wal.decode_framed (Ref.encode_framed e) with
      | Ok { Wal.le_writes = [ Wal.Put { row; _ } ]; _ } ->
        Array.length row = Array.length fs && Array.for_all2 same fs row
      | _ -> false)

(* The batch decoder reads the reference v2 batches; a v3 batch's size is
   its records' bytes. *)
let prop_batch_byte_identity =
  QCheck.Test.make ~name:"replica batch bytes = reference encoder" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 8) gen_any_entry))
    (fun es ->
      (match
         Replica.Batch.decode (Ref.encode_batch ~gen:3 ~from_epoch:4 ~to_epoch:9 es)
       with
      | Replica.Batch.Complete { b_gen = 3; b_from = 4; b_to = 9; b_entries } ->
        List.length b_entries = List.length es && List.for_all2 entry_eq es b_entries
      | _ -> false)
      && Replica.Batch.size es
         = List.fold_left (fun a e -> a + String.length (Wal.encode_framed e)) 0 es)

(* Golden records: literal v2 bytes as the v2 writer wrote them; the
   reader must keep decoding them to the entries they were written
   from. *)
let sample_v2 =
  "2|7b6e5b9d|118|7\t42\tP,6163637430,61636374,I:0,F:0x1.8p+0;D,773b31,\
   6f726409657273,S:747269636b793b2c09737472696e67,N;P,78,79,B:1,F:nan"

let mig = entry 1 2 [ Wal.Migrate { reactor = "r1"; dst = 3 } ]

let golden_ck =
  {
    Checkpoint.ck_tid = 77;
    ck_covers = 3;
    ck_reactors = [ "r,0"; ""; "s" ];
    ck_rows =
      [ ("r,0", "kv", [| Value.Int 1; Value.Str "\x00\xff" |]); ("s", "t", [||]) ];
  }

let decodes_to name expected s =
  match Wal.decode_framed s with
  | Ok e -> check_bool name true (entry_eq expected e)
  | Error m -> Alcotest.failf "%s: %s" name m

let batch_entries = function
  | Replica.Batch.Complete { b_gen = 4; b_from = 5; b_to = 6; b_entries } -> b_entries
  | _ -> Alcotest.fail "golden batch did not decode Complete"

let test_golden_records () =
  decodes_to "sample_entry v2" sample_entry sample_v2;
  let es =
    batch_entries
      (Replica.Batch.decode
         ("R|2|4|5|6|2|f134722f\n" ^ sample_v2 ^ "\n2|6e1a1aa2|15|1\t2\tM,7231,,I:3"))
  in
  check_bool "replica batch" true (List.for_all2 entry_eq [ sample_entry; mig ] es);
  let path = Filename.temp_file "ck" ".dump" in
  write_raw path
    "ckpt2\t77\t3\t722c30,,73\n2|e8a78bd9|29|0\t77\tP,722c30,6b76,I:1,S:00ff\n\
     2|e94115b9|12|0\t77\tP,73,74\nend\t2\t34c39ad4\n";
  check_bool "checkpoint reads back" true (read_checkpoint path = golden_ck);
  Sys.remove path

(* Golden v3 bytes: any drift of the format fails, not just a
   disagreement between the encoder and the decoder. *)
let test_golden_v3 () =
  let mig_v3 = "\xb3\x0b\x00\x00\x00=\xbd\xb9\x88\x01\x04\x01M\x02r1\x00\x01\x03\x06" in
  Alcotest.(check string) "migrate record" mig_v3 (Wal.encode_framed mig);
  decodes_to "migrate record decodes" mig mig_v3;
  let sample_v3 =
    "\xb3K\x00\x00\x00k\x13:\xc6\x07T\x03P\x05acct0\x04acct\x02\x03\x00\
     \x04\x00\x00\x00\x00\x00\x00\xf8?D\x03w;1\x07ord\ters\x02\x05\x0ftricky;,\tstring\
     \x00P\x01x\x01y\x02\x02\x04\x01\x00\x00\x00\x00\x00\xf8\x7f"
  in
  Alcotest.(check string) "sample_entry record" sample_v3 (Wal.encode_framed sample_entry);
  let batch = Replica.Batch.encode ~gen:4 ~from_epoch:5 ~to_epoch:6 [ sample_entry; mig ] in
  Alcotest.(check string) "replica batch" ("R|3|4|5|6|2|3b248ae5\n" ^ sample_v3 ^ mig_v3) batch;
  check_bool "replica batch decodes" true
    (List.for_all2 entry_eq [ sample_entry; mig ] (batch_entries (Replica.Batch.decode batch)));
  let path = Filename.temp_file "ck" ".dump" in
  Checkpoint.write_file path golden_ck;
  Alcotest.(check string) "checkpoint file"
    "ckpt3\t77\t3\t722c30,,73\n\
     \xb3\x13\x00\x00\x00\x8d\x95\xe5\xbe\x00\x9a\x01\x01P\x03r,0\x02kv\x02\x03\x02\x05\x02\x00\xff\
     \xb3\x0a\x00\x00\x00\x0cS\x19\xd4\x00\x9a\x01\x01P\x01s\x01t\x00\
     end\t2\t40bb7807\n"
    (read_raw path);
  check_bool "checkpoint reads back" true (read_checkpoint path = golden_ck);
  Sys.remove path

(* A 1 000-entry group-commit batch through the file sink, each record
   encoded before the append: the file holds exactly the records, back to
   back, and reads back entry for entry. *)
let test_append_many_file_roundtrip () =
  let es =
    QCheck.Gen.generate ~rand:(Random.State.make [| 13 |]) ~n:1000 gen_any_entry
  in
  let path = Filename.temp_file "wal" ".log" in
  let log = Wal.to_file path in
  Wal.append_many log (List.map (Wal.record log) es);
  Wal.close log;
  check_bool "file bytes = the records" true
    (String.equal (read_raw path) (String.concat "" (List.map Wal.encode_framed es)));
  let back = Testlib.read_log path in
  Sys.remove path;
  check_int "entries read" 1000 (List.length back);
  check_bool "entries equal" true (List.for_all2 entry_eq es back)

(* A record is made for one kind of log: appending it to the other kind
   is refused and appends nothing. *)
let test_append_many_rejects_other_kind () =
  let e = { Wal.le_txn = 1; le_tid = 1; le_writes = [] } in
  let path = Filename.temp_file "wal" ".log" in
  let file = Wal.to_file path and mem = Wal.in_memory () in
  let refused log r =
    try Wal.append_many log [ r ]; false with Invalid_argument _ -> true
  in
  check_bool "memory record refused by a file log" true (refused file (Wal.record mem e));
  check_bool "file record refused by a memory log" true (refused mem (Wal.record file e));
  Wal.close file;
  check_int "file log empty" 0 (List.length (Testlib.read_log path));
  check_int "memory log empty" 0 (List.length (Wal.entries mem));
  Sys.remove path

(* The hex codec is exact: only pairs of [0-9a-f] decode. A well-framed
   record (length and CRC correct) whose payload holds a non-canonical
   digit must come back as [Error], not as a value another encoding also
   maps to. *)
let test_strict_hex () =
  let all_bytes = String.init 256 Char.chr in
  let b = Wal.Buf.create 16 in
  Wal.Buf.add_hex b all_bytes;
  Alcotest.(check string)
    "hex = reference" (Ref.hex all_bytes) (Wal.Buf.contents b);
  Alcotest.(check string)
    "hex roundtrip" all_bytes (Wal.unhex (Wal.Buf.contents b));
  let frame payload =
    Printf.sprintf "2|%s|%d|%s" (Checksum.crc32_hex payload)
      (String.length payload) payload
  in
  (match Wal.decode_framed (frame "1\t2\tP,72,74,S:f0") with
  | Ok { Wal.le_writes = [ Wal.Put { row = [| Value.Str "\xf0" |]; _ } ]; _ }
    -> ()
  | Ok _ -> Alcotest.fail "canonical record decoded to the wrong entry"
  | Error m -> Alcotest.failf "canonical record rejected: %s" m);
  List.iter
    (fun payload ->
      check_bool payload true
        (Result.is_error (Wal.decode_framed (frame payload))))
    [ "1\t2\tP,72,74,S:f_"; "1\t2\tP,72,74,S:F0"; "1\t2\tP,72,74,S:f";
      "1\t2\tP,7G,74"; "1\t2\tP,72,74,S: 0"; "1\t2\tP,72,74,S:+f" ];
  (* checkpoint reactor names go through the same codec *)
  let body = "ckpt2\t1\t0\tf_\n" in
  let path = Filename.temp_file "ck" ".dump" in
  write_raw path (body ^ Printf.sprintf "end\t0\t%s\n" (Checksum.crc32_hex body));
  check_bool "checkpoint with bad reactor hex rejected" true
    (Result.is_error (Checkpoint.read_file_opt path));
  Sys.remove path

(* --- replay semantics --- *)

let kv_schema =
  Storage.Schema.make ~name:"kv"
    ~columns:[ ("k", Value.TInt); ("v", Value.TInt) ]
    ~key:[ "k" ]

let test_replay () =
  let catalog = Storage.Catalog.create () in
  let tbl = Storage.Catalog.create_table catalog kv_schema in
  ignore
    (Storage.Table.insert tbl
       (Storage.Record.fresh ~absent:false [| Value.Int 1; Value.Int 10 |]));
  let entries =
    [
      (* later tid wins even though listed first: replay sorts by tid *)
      entry 2 200 [ put "r" "kv" [| Value.Int 1; Value.Int 999 |] ];
      entry 1 100
        [ put "r" "kv" [| Value.Int 1; Value.Int 500 |];
          put "r" "kv" [| Value.Int 2; Value.Int 20 |] ];
      entry 3 300 [ del "r" "kv" [| Value.Int 2 |] ];
    ]
  in
  let n = Wal.replay entries ~catalog_of:(fun _ -> catalog) in
  check_int "writes applied" 4 n;
  (match Storage.Table.find tbl [| Value.Int 1 |] with
  | Some r -> check_int "tid-ordered replay" 999 (Value.to_int r.Storage.Record.data.(1))
  | None -> Alcotest.fail "missing");
  check_bool "delete replayed" true (Storage.Table.find tbl [| Value.Int 2 |] = None)

let test_replay_maintains_secondaries () =
  (* Regression for the replay path mutating record data in place: a Put
     that changes an indexed column must relocate the secondary entry, or
     post-recovery secondary lookups return phantoms / miss rows. *)
  let catalog = Storage.Catalog.create () in
  let tbl =
    Storage.Catalog.create_table ~secondaries:[ ("by_v", [ "v" ]) ] catalog
      kv_schema
  in
  ignore
    (Storage.Table.insert tbl
       (Storage.Record.fresh ~absent:false [| Value.Int 1; Value.Int 10 |]));
  ignore
    (Wal.replay
       [ entry 1 100 [ put "r" "kv" [| Value.Int 1; Value.Int 20 |] ] ]
       ~catalog_of:(fun _ -> catalog));
  let lookup v =
    let lo, hi = Storage.Table.key_prefix_bounds [| Value.Int v |] in
    let hits = ref [] in
    Storage.Table.scan_secondary tbl ~lo ~hi ~index:"by_v" ~f:(fun r ->
        if not r.Storage.Record.absent then hits := r :: !hits;
        true);
    !hits
  in
  check_int "old secondary key vacated" 0 (List.length (lookup 10));
  (match lookup 20 with
  | [ r ] ->
    check_int "row found through secondary" 20
      (Value.to_int r.Storage.Record.data.(1))
  | l -> Alcotest.failf "expected 1 hit under new key, got %d" (List.length l))

(* --- end-to-end: crash-recovery equivalence --- *)

(* Physical snapshot of a database: (reactor, table, key, row) list. *)
let snapshot db reactor_names =
  List.concat_map
    (fun rname ->
      let catalog = Reactdb.Database.catalog_of db rname in
      List.concat_map
        (fun (tname, tbl) ->
          let rows = ref [] in
          Storage.Table.range tbl ~f:(fun r ->
              if not r.Storage.Record.absent then
                rows := (rname, tname, Array.to_list r.Storage.Record.data) :: !rows;
              true);
          !rows)
        (Storage.Catalog.tables catalog))
    reactor_names
  |> List.sort compare

let test_recovery_bank () =
  let log = Wal.in_memory () in
  let final =
    Testlib.with_db (Testlib.sn_config 4) (fun db ->
        Reactdb.Database.attach_wal db log;
        Testlib.run_conflict_workload db ~workers:5 ~per_worker:30;
        snapshot db (Testlib.names 4))
  in
  check_bool "log non-empty" true (Wal.length log > 0);
  (* "Restart": fresh database from the same declaration, replay the log. *)
  let recovered =
    Testlib.with_db (Testlib.sn_config 4) (fun db ->
        ignore
          (Wal.replay (Wal.entries log)
             ~catalog_of:(Reactdb.Database.catalog_of db));
        snapshot db (Testlib.names 4))
  in
  check_bool "recovered state identical" true (final = recovered)

let test_recovery_tpcc () =
  let log = Wal.in_memory () in
  let decl = Workloads.Tpcc.decl ~warehouses:2 ~sizes:Workloads.Tpcc.small_sizes () in
  let cfg =
    Reactdb.Config.shared_nothing
      (List.map (fun w -> [ w ]) (Workloads.Tpcc.warehouses 2))
  in
  let run f = Testlib.in_sim (Harness.build decl cfg) f in
  let ws = Workloads.Tpcc.warehouses 2 in
  let final =
    run (fun db ->
        Reactdb.Database.attach_wal db log;
        let p = Workloads.Tpcc.params ~sizes:Workloads.Tpcc.small_sizes 2 in
        let seq = ref 0 in
        let rng = Rng.create 5 in
        for i = 0 to 79 do
          let req = Workloads.Tpcc.gen_mix rng p ~home:(1 + (i mod 2)) ~seq in
          ignore
            (Reactdb.Database.exec_txn db ~reactor:req.Workloads.Wl.reactor
               ~proc:req.Workloads.Wl.proc ~args:req.Workloads.Wl.args)
        done;
        snapshot db ws)
  in
  let recovered =
    run (fun db ->
        ignore
          (Wal.replay (Wal.entries log)
             ~catalog_of:(Reactdb.Database.catalog_of db));
        snapshot db ws)
  in
  check_bool "tpcc recovered state identical" true (final = recovered)

(* --- checkpoint + tail replay --- *)

let test_checkpoint_roundtrip_file () =
  let catalog = Storage.Catalog.create () in
  let tbl = Storage.Catalog.create_table catalog kv_schema in
  for i = 1 to 5 do
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false [| Value.Int i; Value.Int (i * i) |]))
  done;
  let ck = Checkpoint.capture ~tid:77 [ ("r", catalog) ] in
  check_int "rows captured" 5 (List.length ck.Checkpoint.ck_rows);
  let path = Filename.temp_file "ck" ".dump" in
  Checkpoint.write_file path ck;
  let ck2 = read_checkpoint path in
  Sys.remove path;
  check_int "tid preserved" 77 ck2.Checkpoint.ck_tid;
  check_bool "rows preserved" true (ck.Checkpoint.ck_rows = ck2.Checkpoint.ck_rows)

let test_checkpoint_recovery () =
  (* Run a workload with both a WAL and a mid-run checkpoint; recover from
     checkpoint + log tail; compare with full state. *)
  let log = Wal.in_memory () in
  let checkpoint = ref None in
  let final =
    Testlib.with_db (Testlib.sn_config 4) (fun db ->
        Reactdb.Database.attach_wal db log;
        Testlib.run_conflict_workload db ~workers:3 ~per_worker:20;
        (* quiescent point: snapshot, recording the log position covered *)
        let max_tid =
          List.fold_left (fun m e -> Stdlib.max m e.Wal.le_tid) 0
            (Wal.entries log)
        in
        checkpoint :=
          Some
            (Checkpoint.capture ~tid:max_tid
               ~covers:(List.length (Wal.entries log))
               (List.map
                  (fun n -> (n, Reactdb.Database.catalog_of db n))
                  (Testlib.names 4)));
        (* more work after the checkpoint *)
        Testlib.run_conflict_workload db ~workers:3 ~per_worker:20;
        snapshot db (Testlib.names 4))
  in
  let ck = Option.get !checkpoint in
  let recovered =
    Testlib.with_db (Testlib.sn_config 4) (fun db ->
        let restored, replayed =
          Checkpoint.recover ~checkpoint:ck ~log:(Wal.entries log)
            ~catalog_of:(Reactdb.Database.catalog_of db)
        in
        check_bool "restored rows" true (restored > 0);
        check_bool "replayed only the tail" true
          (replayed < List.length (Wal.entries log) * 2);
        snapshot db (Testlib.names 4))
  in
  check_bool "checkpoint+tail state identical" true (final = recovered)

let test_checkpoint_restore_clears_loader_data () =
  (* restoring an empty-table checkpoint wipes loader rows *)
  let catalog = Storage.Catalog.create () in
  let tbl = Storage.Catalog.create_table catalog kv_schema in
  ignore
    (Storage.Table.insert tbl
       (Storage.Record.fresh ~absent:false [| Value.Int 1; Value.Int 1 |]));
  let empty_catalog = Storage.Catalog.create () in
  ignore (Storage.Catalog.create_table empty_catalog kv_schema);
  let ck =
    { (Checkpoint.capture ~tid:5 [ ("r", empty_catalog) ]) with
      Checkpoint.ck_rows = [ ("r", "kv", [| Value.Int 9; Value.Int 9 |]) ] }
  in
  ignore (Checkpoint.restore ck ~catalog_of:(fun _ -> catalog));
  check_bool "loader row gone" true (Storage.Table.find tbl [| Value.Int 1 |] = None);
  check_bool "checkpoint row present" true
    (Storage.Table.find tbl [| Value.Int 9 |] <> None)

let test_restore_clears_empty_reactor () =
  (* Satellite fix: a reactor whose tables were empty at capture time
     contributes no rows, but restore must still clear its dirty state. *)
  let mk_catalog rows =
    let catalog = Storage.Catalog.create () in
    let tbl = Storage.Catalog.create_table catalog kv_schema in
    List.iter
      (fun (k, v) ->
        ignore
          (Storage.Table.insert tbl
             (Storage.Record.fresh ~absent:false [| Value.Int k; Value.Int v |])))
      rows;
    catalog
  in
  (* Capture r1 with a row and r2 empty. *)
  let ck =
    Checkpoint.capture ~tid:9
      [ ("r1", mk_catalog [ (1, 1) ]); ("r2", mk_catalog []) ]
  in
  check_bool "empty reactor is covered" true
    (List.mem "r2" ck.Checkpoint.ck_reactors);
  (* Roundtrip through a file to make sure coverage survives encoding. *)
  let path = Filename.temp_file "ck" ".dump" in
  Checkpoint.write_file path ck;
  let ck = read_checkpoint path in
  Sys.remove path;
  check_bool "coverage survives the file format" true
    (List.mem "r2" ck.Checkpoint.ck_reactors);
  (* Restore over a database where both reactors have dirty rows. *)
  let dirty1 = mk_catalog [ (5, 5) ] and dirty2 = mk_catalog [ (6, 6) ] in
  let catalog_of = function
    | "r1" -> dirty1
    | "r2" -> dirty2
    | r -> Alcotest.failf "unexpected reactor %s" r
  in
  ignore (Checkpoint.restore ck ~catalog_of);
  check_bool "r1 dirty row gone" true
    (Storage.Table.find (Storage.Catalog.table dirty1 "kv") [| Value.Int 5 |]
    = None);
  check_bool "r1 checkpoint row restored" true
    (Storage.Table.find (Storage.Catalog.table dirty1 "kv") [| Value.Int 1 |]
    <> None);
  check_bool "empty reactor cleared too" true
    (Storage.Table.find (Storage.Catalog.table dirty2 "kv") [| Value.Int 6 |]
    = None)

let test_torn_checkpoint_rejected () =
  (* Crash between checkpoint write and rename is already covered by the
     atomic writer; this covers a checkpoint damaged on disk: the reader
     must reject it so recovery falls back to log-only replay. *)
  let catalog = Storage.Catalog.create () in
  let tbl = Storage.Catalog.create_table catalog kv_schema in
  for i = 1 to 4 do
    ignore
      (Storage.Table.insert tbl
         (Storage.Record.fresh ~absent:false [| Value.Int i; Value.Int i |]))
  done;
  let ck = Checkpoint.capture ~tid:7 [ ("r", catalog) ] in
  let path = Filename.temp_file "ck" ".dump" in
  Checkpoint.write_file path ck;
  check_bool "intact checkpoint reads" true
    (Result.is_ok (Checkpoint.read_file_opt path));
  let content = read_raw path in
  write_raw path (String.sub content 0 (String.length content - 12));
  check_bool "torn checkpoint rejected" true
    (Result.is_error (Checkpoint.read_file_opt path));
  Sys.remove path

(* --- durable commit (epoch group commit) --- *)

let test_durable_group_commit () =
  let path = Filename.temp_file "wal" ".log" in
  let flushes, committed =
    Testlib.with_db (Testlib.sn_config 4) (fun db ->
        let log = Wal.to_file path in
        Reactdb.Database.attach_wal db log;
        Testlib.run_conflict_workload db ~workers:5 ~per_worker:6;
        Wal.close log;
        (Reactdb.Database.n_log_flushes db, Reactdb.Database.n_committed db))
  in
  check_bool "workload committed" true (committed > 0);
  check_bool "flushes happened" true (flushes > 0);
  check_bool "group commit batches transactions" true (flushes < committed);
  (* Everything a client saw commit is on disk and parses cleanly. *)
  (match Wal.read_file_tolerant path with
  | entries, Wal.Clean ->
    check_bool "durable log covers commits" true (List.length entries > 0)
  | _, Wal.Torn _ -> Alcotest.fail "durable log torn");
  Sys.remove path

(* A simulator commit is acknowledged by the flush that writes its record:
   whenever [exec_txn] returns a deposit's new balance, the log file
   already holds that record with a clean tail. A migration with a WAL
   returns only once its placement record is in the file too. *)
let test_sim_ack_after_flush () =
  let path = Filename.temp_file "reactdb_simack" ".wal" in
  let log = Wal.to_file path in
  let db = Harness.build (Testlib.bank_decl 3) (Testlib.sn_config 3) in
  Reactdb.Database.attach_wal db log;
  let eng = Reactdb.Database.engine db in
  let in_file pred =
    match Wal.read_file_tolerant path with
    | entries, Wal.Clean -> List.exists (fun e -> List.exists pred e.Wal.le_writes) entries
    | _, Wal.Torn { reason; _ } -> Alcotest.fail ("log torn: " ^ reason)
  in
  let acked = ref 0 in
  for c = 0 to 2 do
    let reactor = Printf.sprintf "acct%d" c in
    Sim.Engine.spawn eng (fun () ->
        for _ = 1 to 5 do
          match
            (Reactdb.Database.exec_txn db ~reactor ~proc:"deposit"
               ~args:[ Value.Float 5. ])
              .Reactdb.Database.result
          with
          | Ok v ->
            if
              not
                (in_file (function
                  | Wal.Put { reactor = r; row; _ } -> r = reactor && row.(1) = v
                  | _ -> false))
            then Alcotest.failf "%s acknowledged before its record was written" reactor;
            incr acked
          | Error m -> Alcotest.fail m
        done)
  done;
  ignore (Sim.Engine.run eng);
  check_int "every deposit acknowledged" 15 !acked;
  let moved = ref false in
  Sim.Engine.spawn eng (fun () ->
      ignore (Reactdb.Database.migrate db ~reactor:"acct0" ~dst:1);
      moved :=
        in_file (function
          | Wal.Migrate { reactor = "acct0"; dst = 1 } -> true
          | _ -> false));
  ignore (Sim.Engine.run eng);
  check_bool "migrate returns after its record is flushed" true !moved;
  Wal.close log;
  Sys.remove path

(* --- decoder fuzzing ---

   Every decoder of bytes from disk or the wire returns a typed error or a
   value on any input and never raises. Inputs start as real encodings of
   [gen_any_entry] entries, in v3 and in the reference v2 form, and are
   damaged by byte flips, bytes set to the formats' own separators and
   tags, truncations and splices. Half of them then have their checksums,
   lengths and counts recomputed over the damaged bytes, so they get past
   the CRC checks to the field parsers behind. *)

type mutation =
  | Flip of int * int  (* position, xor mask in 1..255 *)
  | Set of int * char  (* position, byte from [fuzz_alphabet] *)
  | Truncate of int  (* keep this many bytes *)
  | Splice of int * int * int * int  (* [a, b) replaced by a copy of [c, d) *)

let fuzz_alphabet =
  "|\t,;:\n0123456789abcdefxp+-.NIFSBPDMRe\255\000\001\002\003\004\005\006\127\128\179"

let gen_mutation =
  let open QCheck.Gen in
  frequency
    [ (3, map2 (fun p m -> Flip (p, m)) nat (int_range 1 255));
      ( 3,
        map2
          (fun p i -> Set (p, fuzz_alphabet.[i]))
          nat
          (int_bound (String.length fuzz_alphabet - 1)) );
      (1, map (fun k -> Truncate k) nat);
      (1, map (fun (a, b, c, d) -> Splice (a, b, c, d)) (quad nat nat nat nat)) ]

(* Positions wrap around the input, so every mutation applies to every
   string. *)
let mutate s = function
  | _ when s = "" -> s
  | Flip (p, m) ->
    let b = Bytes.of_string s in
    let p = p mod String.length s in
    Bytes.set b p (Char.chr (Char.code s.[p] lxor m));
    Bytes.to_string b
  | Set (p, c) ->
    let b = Bytes.of_string s in
    Bytes.set b (p mod String.length s) c;
    Bytes.to_string b
  | Truncate k -> String.sub s 0 (k mod (String.length s + 1))
  | Splice (a, b, c, d) ->
    let n = String.length s + 1 in
    let a, b = (min (a mod n) (b mod n), max (a mod n) (b mod n)) in
    let c, d = (min (c mod n) (d mod n), max (c mod n) (d mod n)) in
    String.sub s 0 a ^ String.sub s c (d - c) ^ String.sub s b (n - 1 - b)

let mutate_all ms s = List.fold_left mutate s ms

(* A v2 frame around [payload], checksum and length recomputed. *)
let reframe_v2 payload =
  Printf.sprintf "2|%s|%d|%s" (Checksum.crc32_hex payload)
    (String.length payload) payload

(* A v3 record around [payload], checksum and length recomputed. *)
let reframe_v3 payload =
  let h = Bytes.create 9 in
  Bytes.set h 0 Wal.record_magic;
  Bytes.set_int32_le h 1 (Int32.of_int (String.length payload));
  Bytes.set_int32_le h 5 (Int32.of_int (Checksum.crc32 payload));
  Bytes.to_string h ^ payload

(* Damage one piece of an input: the payload of a well-formed record,
   framed again (a v2 line keeps its newline), or any other piece (a
   header) as it is. *)
let damage ms piece =
  let n = String.length piece in
  if n >= 9 && piece.[0] = Wal.record_magic then
    reframe_v3 (mutate_all ms (String.sub piece 9 (n - 9)))
  else if String.starts_with ~prefix:"2|" piece then
    let nl = if piece.[n - 1] = '\n' then "\n" else "" in
    let line = String.sub piece 0 (n - String.length nl) in
    let i = String.index_from line 2 '|' in
    let j = String.index_from line (i + 1) '|' in
    reframe_v2 (mutate_all ms (String.sub line (j + 1) (String.length line - j - 1))) ^ nl
  else mutate_all ms piece

(* Replace the [k]-th element (wrapping) of a non-empty list. *)
let map_nth k f l =
  let k = k mod List.length l in
  List.mapi (fun i x -> if i = k then f x else x) l

(* A decoder input: the pieces it is made of (records, headers) and how
   to assemble them, recomputing every checksum, length and count. *)
type input = { pieces : string list; build : string list -> string }

(* How one input is damaged: raw mutations of the whole encoding, or
   mutations of one piece ([k], wrapping) before it is assembled. *)
type damage = Raw of mutation list | Recrc of int * mutation list

let gen_damage =
  let open QCheck.Gen in
  let ms n = list_size (int_range 1 n) gen_mutation in
  frequency [ (1, map (fun m -> Raw m) (ms 4)); (1, map2 (fun k m -> Recrc (k, m)) nat (ms 3)) ]

let fuzz_prop ~name ~count gen_input decode =
  QCheck.Test.make ~name ~count
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         map2
           (fun inp -> function
             | Raw ms -> mutate_all ms (inp.build inp.pieces)
             | Recrc (_, _) when inp.pieces = [] -> inp.build []
             | Recrc (k, ms) -> inp.build (map_nth k (damage ms) inp.pieces))
           gen_input gen_damage))
    (fun bytes ->
      match decode bytes with
      | () -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let with_file bytes f =
  let path = Filename.temp_file "fuzz" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      f path)

let gen_entries = QCheck.Gen.(list_size (int_bound 4) gen_any_entry)

(* One record, v3 three times in four, else a v2 line. *)
let gen_record =
  QCheck.Gen.(
    frequency
      [ (3, map Wal.encode_framed gen_any_entry); (1, map Ref.encode_framed gen_any_entry) ])

let prop_fuzz_framed =
  fuzz_prop ~name:"fuzz: Wal.decode_framed never raises" ~count:1000
    QCheck.Gen.(map (fun r -> { pieces = [ r ]; build = String.concat "" }) gen_record)
    (fun s ->
      match Wal.decode_framed s with
      | Ok _ | Error _ -> ())

(* A log file as a reopened v2 log holds it: v2 lines, each
   newline-terminated, then v3 records back to back. *)
let log_pieces v2 v3 =
  List.map (fun e -> Ref.encode_framed e ^ "\n") v2 @ List.map Wal.encode_framed v3

let prop_fuzz_wal_file =
  fuzz_prop ~name:"fuzz: Wal.read_file_tolerant never raises" ~count:300
    QCheck.Gen.(
      map2
        (fun v2 v3 -> { pieces = log_pieces v2 v3; build = String.concat "" })
        (list_size (int_bound 2) gen_any_entry) gen_entries)
    (fun s ->
      with_file s (fun path ->
          match Wal.read_file_tolerant path with
          | _, (Wal.Clean | Wal.Torn _) -> ()))

(* A v3 batch, or a v2 one; assembling recomputes the header's count and
   CRC. *)
let batch_input v3 (g, f, t) es =
  let version, records, sep =
    if v3 then ("3", List.map Wal.encode_framed es, "")
    else ("2", List.map Ref.encode_framed es, "\n")
  in
  { pieces = records;
    build =
      (fun rs ->
        let payload = String.concat sep rs in
        Printf.sprintf "R|%s|%d|%d|%d|%d|%s\n%s" version g f t (List.length rs)
          (Checksum.crc32_hex payload) payload) }

let prop_fuzz_batch =
  fuzz_prop ~name:"fuzz: Replica.Batch.decode never raises" ~count:1000
    QCheck.Gen.(map3 batch_input bool (triple nat nat nat) gen_entries)
    (fun s ->
      match Replica.Batch.decode s with
      | Replica.Batch.Complete _ | Replica.Batch.Torn _ | Replica.Batch.Garbage _
        ->
        ())

(* A checkpoint of the entries' [Put] rows as the v3 writer writes it, or
   as the v2 writer did, cut into its header and rows; assembling appends
   a trailer recomputed over them. *)
let checkpoint_input v3 (tid, covers) es =
  let rows =
    List.concat_map
      (fun e ->
        List.filter_map
          (function
            | Wal.Put { reactor; table; row } -> Some (reactor, table, row)
            | _ -> None)
          e.Wal.le_writes)
      es
  in
  let ck =
    { Checkpoint.ck_tid = tid; ck_covers = covers;
      ck_reactors = List.sort_uniq compare (List.map (fun (r, _, _) -> r) rows);
      ck_rows = rows }
  in
  let bytes =
    if v3 then
      with_file "" (fun path ->
          Checkpoint.write_file path ck;
          In_channel.with_open_bin path In_channel.input_all)
    else Ref.encode_checkpoint ck
  in
  let hdr_end = String.index bytes '\n' + 1 in
  let rec split pos =
    if bytes.[pos] = 'e' && String.starts_with ~prefix:"end\t" (String.sub bytes pos 4)
    then []
    else
      let next =
        match Wal.decode_record bytes ~pos with
        | Ok (_, next) -> next
        | Error m -> failwith m
      in
      String.sub bytes pos (next - pos) :: split next
  in
  { pieces = String.sub bytes 0 hdr_end :: split hdr_end;
    build =
      (fun pieces ->
        let body = String.concat "" pieces in
        Printf.sprintf "%send\t%d\t%s\n" body (List.length pieces - 1)
          (Checksum.crc32_hex body)) }

let prop_fuzz_checkpoint =
  fuzz_prop ~name:"fuzz: Checkpoint.read_file_opt never raises" ~count:300
    QCheck.Gen.(map3 checkpoint_input bool (pair nat nat) gen_entries)
    (fun s ->
      with_file s (fun path ->
          match Checkpoint.read_file_opt path with
          | Ok _ | Error _ -> ()))

(* --- mixed v2 / v3 logs --- *)

(* A v2 log reopened by this version: its v2 lines stay, v3 records
   follow. Read whole, every entry comes back in order; cut at any byte,
   the reader returns exactly the records that end before the cut, and a
   reopen drops the torn rest so an appended record follows them. *)
let test_mixed_log () =
  let es = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:6 gen_any_entry in
  let v2 = List.filteri (fun i _ -> i < 3) es and v3 = List.filteri (fun i _ -> i >= 3) es in
  let path = Filename.temp_file "wal" ".log" in
  write_raw path (String.concat "" (List.map (fun e -> Ref.encode_framed e ^ "\n") v2));
  let log = Wal.to_file path in
  check_int "reopen counts the v2 entries" 3 (Wal.length log);
  List.iter (Wal.append log) v3;
  Wal.close log;
  let content = read_raw path in
  (match Wal.read_file_tolerant path with
  | back, Wal.Clean -> check_bool "whole log reads back" true (List.for_all2 entry_eq es back)
  | _, Wal.Torn { reason; _ } -> Alcotest.fail reason);
  let ends = record_ends content in
  check_int "six records" 6 (List.length ends);
  let extra = entry 99 990 [ put "z" "t" [| Value.Str "\n" |] ] in
  for cut = 0 to String.length content do
    let whole = List.length (List.filter (fun e -> e <= cut) ends) in
    let prefix = List.filteri (fun i _ -> i < whole) es in
    write_raw path (String.sub content 0 cut);
    (match Wal.read_file_tolerant path with
    | back, tail ->
      if not (List.length back = whole && List.for_all2 entry_eq prefix back) then
        Alcotest.failf "cut at %d: %d entries, expected %d" cut (List.length back) whole;
      let clean = cut = 0 || List.mem cut ends in
      if clean <> (tail = Wal.Clean) then Alcotest.failf "cut at %d: wrong tail" cut);
    let log = Wal.to_file path in
    if Wal.length log <> whole then Alcotest.failf "cut at %d: reopen counts %d" cut (Wal.length log);
    Wal.append log extra;
    Wal.close log;
    match Wal.read_file_tolerant path with
    | back, Wal.Clean ->
      if not (List.for_all2 entry_eq (prefix @ [ extra ]) back) then
        Alcotest.failf "cut at %d: appended record not after the prefix" cut
    | _, Wal.Torn { reason; _ } -> Alcotest.failf "cut at %d: torn after reopen: %s" cut reason
  done;
  Sys.remove path

(* [Truncate_entries n] keeps exactly the first [n] v3 records, though
   their bytes hold newlines. *)
let test_truncate_entries_v3 () =
  let es =
    List.init 5 (fun i -> entry i (10 * i) [ put "r\n" "t" [| Value.Str "a\nb"; Value.Int 10 |] ])
  in
  let src = Filename.temp_file "wal" ".log" and dst = Filename.temp_file "wal" ".cut" in
  let log = Wal.to_file src in
  List.iter (Wal.append log) es;
  Wal.close log;
  for n = 0 to 7 do
    Faultsim.inject (Faultsim.Truncate_entries n) ~src ~dst;
    match Wal.read_file_tolerant dst with
    | back, Wal.Clean ->
      check_int (Printf.sprintf "truncate to %d" n) (min n 5) (List.length back);
      check_bool "a prefix" true
        (List.for_all2 entry_eq (List.filteri (fun i _ -> i < min n 5) es) back)
    | _, Wal.Torn { reason; _ } -> Alcotest.failf "truncate to %d tore a record: %s" n reason
  done;
  Sys.remove src;
  Sys.remove dst

let suite =
  ( "wal",
    [
      Alcotest.test_case "entry roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "memory log" `Quick test_memory_log;
      Alcotest.test_case "file log" `Quick test_file_log;
      Alcotest.test_case "corrupt file" `Quick test_corrupt_file;
      Alcotest.test_case "torn tail tolerated" `Quick test_torn_tail_tolerated;
      Alcotest.test_case "checksum mismatch detected" `Quick
        test_checksum_mismatch_detected;
      Alcotest.test_case "reopen counts entries" `Quick
        test_reopen_counts_and_appends;
      Alcotest.test_case "reopen truncates torn tail" `Quick
        test_reopen_truncates_torn_tail;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_framed_roundtrip;
      QCheck_alcotest.to_alcotest prop_byte_identity;
      QCheck_alcotest.to_alcotest prop_float_byte_identity;
      QCheck_alcotest.to_alcotest prop_batch_byte_identity;
      Alcotest.test_case "golden records" `Quick test_golden_records;
      Alcotest.test_case "golden v3 records" `Quick test_golden_v3;
      Alcotest.test_case "append_many file roundtrip" `Quick
        test_append_many_file_roundtrip;
      Alcotest.test_case "append_many rejects the other kind" `Quick
        test_append_many_rejects_other_kind;
      Alcotest.test_case "strict hex codec" `Quick test_strict_hex;
      Alcotest.test_case "framed empty write list" `Quick
        test_framed_empty_writes;
      Alcotest.test_case "replay semantics" `Quick test_replay;
      Alcotest.test_case "replay maintains secondaries" `Quick
        test_replay_maintains_secondaries;
      Alcotest.test_case "recovery: bank" `Quick test_recovery_bank;
      Alcotest.test_case "recovery: tpcc" `Quick test_recovery_tpcc;
      Alcotest.test_case "checkpoint file roundtrip" `Quick
        test_checkpoint_roundtrip_file;
      Alcotest.test_case "checkpoint + tail recovery" `Quick
        test_checkpoint_recovery;
      Alcotest.test_case "restore clears loader data" `Quick
        test_checkpoint_restore_clears_loader_data;
      Alcotest.test_case "restore clears empty reactors" `Quick
        test_restore_clears_empty_reactor;
      Alcotest.test_case "torn checkpoint rejected" `Quick
        test_torn_checkpoint_rejected;
      Alcotest.test_case "durable group commit" `Quick
        test_durable_group_commit;
      Alcotest.test_case "sim commit acknowledged by its flush" `Quick
        test_sim_ack_after_flush;
      QCheck_alcotest.to_alcotest prop_fuzz_framed;
      QCheck_alcotest.to_alcotest prop_fuzz_wal_file;
      QCheck_alcotest.to_alcotest prop_fuzz_batch;
      QCheck_alcotest.to_alcotest prop_fuzz_checkpoint;
      Alcotest.test_case "v2 then v3 log, whole and torn" `Quick test_mixed_log;
      Alcotest.test_case "faultsim truncate_entries on v3 records" `Quick
        test_truncate_entries_v3;
    ] )
