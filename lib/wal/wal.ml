open Util

type write =
  | Put of { reactor : string; table : string; row : Value.t array }
  | Del of { reactor : string; table : string; key : Value.t array }
  | Migrate of { reactor : string; dst : int }

type entry = { le_txn : int; le_tid : int; le_writes : write list }

(* --- record formats ---

   v3 (written by this version): one self-delimiting binary record per
   entry, so a log file holds records back to back.
     record  := 0xB3 , payload length (u32 LE) , CRC-32 of payload (u32 LE) , payload
     payload := varint txn , zigzag tid , varint write-count , write*
     write   := kind ('P' | 'D' | 'M') , bytes reactor , bytes table ,
                varint value-count , value*
     value   := 0x00 (null) | 0x01 (false) | 0x02 (true)
              | 0x03 , zigzag int | 0x04 , float bits (8 bytes LE)
              | 0x05 , bytes
     bytes   := varint length , raw bytes
   Varints are little-endian base-128 over the 63 bits of an OCaml int, at
   most 9 bytes and minimal; zigzag maps small negative ints to small
   varints. The magic byte is not an ASCII digit, so a reader tells a v3
   record from a v2 line by its first byte.

   v2 (read only): one text line per entry
     2|crc32hex|payload-length|txn<TAB>tid<TAB>write;write;...<LF>
     write  := P|D|M , hex reactor , hex table , value,value,...
     value  := N | B:0/1 | I:n | F:hex-float | S:hexbytes
   Strings are lowercase hex (decoding accepts nothing else).

   The unframed v1 text format is no longer read. *)

let record_magic = '\xb3'
let header_len = 9

(* Nibble value of a lowercase hex digit, -1 for any other byte. *)
let nibble =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - Char.code '0'
      | 'a' .. 'f' -> c - Char.code 'a' + 10
      | _ -> -1)

(* Strict inverse of [Buf.add_hex]: only pairs of [0-9a-f] decode, so
   every string has at most one encoding and a damaged digit is an error,
   not a value. *)
let unhex s =
  let n = String.length s in
  if n land 1 <> 0 then failwith "Wal: odd hex length";
  String.init (n / 2) (fun i ->
      let hi = nibble.(Char.code (String.unsafe_get s (2 * i)))
      and lo = nibble.(Char.code (String.unsafe_get s ((2 * i) + 1))) in
      if hi < 0 || lo < 0 then failwith "Wal: bad hex digit";
      Char.unsafe_chr ((hi lsl 4) lor lo))

(* Growable byte buffer the encoder appends records to. Unlike [Buffer] it
   exposes its bytes in place, so a record's CRC is computed over the range
   it occupies and its header is written in front of it — the payload is
   never copied into a string of its own. *)
module Buf = struct
  type t = { mutable bytes : Bytes.t; mutable len : int }

  let create n = { bytes = Bytes.create (max n 16); len = 0 }
  let length b = b.len
  let clear b = b.len <- 0

  let grow b need =
    let cap = ref (Bytes.length b.bytes) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let nb = Bytes.create !cap in
    Bytes.blit b.bytes 0 nb 0 b.len;
    b.bytes <- nb

  (* Small enough to inline: the common case is one comparison. *)
  let reserve b more =
    if b.len + more > Bytes.length b.bytes then grow b (b.len + more)

  let add_char b c =
    reserve b 1;
    Bytes.unsafe_set b.bytes b.len c;
    b.len <- b.len + 1

  let add_string b s =
    let n = String.length s in
    reserve b n;
    Bytes.blit_string s 0 b.bytes b.len n;
    b.len <- b.len + n

  let add_int b i = add_string b (string_of_int i)

  let add_hex b s =
    let hex_digits = "0123456789abcdef" in
    let n = String.length s in
    reserve b (2 * n);
    let by = b.bytes and p = b.len in
    for i = 0 to n - 1 do
      let c = Char.code (String.unsafe_get s i) in
      Bytes.unsafe_set by (p + (2 * i)) (String.unsafe_get hex_digits (c lsr 4));
      Bytes.unsafe_set by (p + (2 * i) + 1) (String.unsafe_get hex_digits (c land 0xf))
    done;
    b.len <- p + (2 * n)

  (* Unsigned base-128 over all 63 bits, written at [p] of [by], which
     has room for 9 bytes; [lsr] brings a negative int to zero too, in at
     most 9 bytes. Returns the position after it. *)
  let rec put_varint by p n =
    if n lsr 7 = 0 then begin
      Bytes.unsafe_set by p (Char.unsafe_chr n);
      p + 1
    end
    else begin
      Bytes.unsafe_set by p (Char.unsafe_chr (n land 0x7f lor 0x80));
      put_varint by (p + 1) (n lsr 7)
    end

  let add_varint b n =
    reserve b 9;
    b.len <- put_varint b.bytes b.len n

  let crc32 b ~pos ~len =
    if pos < 0 || len < 0 || pos + len > b.len then invalid_arg "Wal.Buf.crc32";
    Checksum.crc32_sub (Bytes.unsafe_to_string b.bytes) ~pos ~len

  let insert b ~at s =
    if at < 0 || at > b.len then invalid_arg "Wal.Buf.insert";
    let n = String.length s in
    reserve b n;
    Bytes.blit b.bytes at b.bytes (at + n) (b.len - at);
    Bytes.blit_string s 0 b.bytes at n;
    b.len <- b.len + n

  let contents b = Bytes.sub_string b.bytes 0 b.len
  let output oc b = Stdlib.output oc b.bytes 0 b.len
end

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor -(z land 1)

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap32 : int32 -> int32 = "%bswap_int32"

let set64 by p x = set64u by p (if Sys.big_endian then bswap64 x else x)
let set32 by p x = set32u by p (if Sys.big_endian then bswap32 x else x)

(* Bytes a value takes at most. *)
let value_room = function
  | Value.Str s -> 10 + String.length s
  | Value.Int _ -> 10
  | Value.Float _ -> 9
  | Value.Null | Value.Bool _ -> 1

(* A length-prefixed string at [p] of [by], which has room for it. *)
let put_bytes by p s =
  let l = String.length s in
  let p = Buf.put_varint by p l in
  Bytes.unsafe_blit_string s 0 by p l;
  p + l

(* One write: a first pass over the row sizes it, then every byte is
   written unchecked. *)
let add_write b w =
  let kind, reactor, table, vals =
    match w with
    | Put { reactor; table; row } -> ('P', reactor, table, row)
    | Del { reactor; table; key } -> ('D', reactor, table, key)
    (* Placement records reuse the write frame with an empty table and the
       destination container as the single value. *)
    | Migrate { reactor; dst } -> ('M', reactor, "", [| Value.Int dst |])
  in
  let n = Array.length vals in
  (* the kind byte and three varints (two name lengths, the value count) *)
  let room = ref (1 + (3 * 9) + String.length reactor + String.length table) in
  for i = 0 to n - 1 do
    room := !room + value_room (Array.unsafe_get vals i)
  done;
  Buf.reserve b !room;
  let by = b.Buf.bytes in
  Bytes.unsafe_set by b.Buf.len kind;
  let p = put_bytes by (b.Buf.len + 1) reactor in
  let p = put_bytes by p table in
  let p = ref (Buf.put_varint by p n) in
  for i = 0 to n - 1 do
    let q = !p in
    p :=
      match Array.unsafe_get vals i with
      | Value.Null ->
        Bytes.unsafe_set by q '\x00';
        q + 1
      | Value.Bool false ->
        Bytes.unsafe_set by q '\x01';
        q + 1
      | Value.Bool true ->
        Bytes.unsafe_set by q '\x02';
        q + 1
      | Value.Int v ->
        Bytes.unsafe_set by q '\x03';
        Buf.put_varint by (q + 1) (zigzag v)
      | Value.Float f ->
        Bytes.unsafe_set by q '\x04';
        set64 by (q + 1) (Int64.bits_of_float f);
        q + 9
      | Value.Str s ->
        Bytes.unsafe_set by q '\x05';
        put_bytes by (q + 1) s
  done;
  b.Buf.len <- !p

let rec add_writes b = function
  | [] -> ()
  | w :: ws ->
    add_write b w;
    add_writes b ws

(* One pass: the header's 9 bytes are reserved, the payload is written
   behind them and checksummed where it lies, then the header is filled
   in. *)
let add_framed b e =
  let start = Buf.length b in
  Buf.reserve b header_len;
  b.Buf.len <- start + header_len;
  Buf.add_varint b e.le_txn;
  Buf.add_varint b (zigzag e.le_tid);
  Buf.add_varint b (List.length e.le_writes);
  add_writes b e.le_writes;
  let len = Buf.length b - start - header_len in
  if len > 0xFFFF_FFFF then invalid_arg "Wal.add_framed: record over 4 GiB";
  let crc = Buf.crc32 b ~pos:(start + header_len) ~len in
  let by = b.Buf.bytes in
  Bytes.unsafe_set by start record_magic;
  set32 by (start + 1) (Int32.of_int len);
  set32 by (start + 5) (Int32.of_int crc)

(* Per-domain scratch buffer for [encode_framed], [record] and [append],
   so a call allocates only its result. *)
let scratch = Domain.DLS.new_key (fun () -> Buf.create 4096)

let encode_framed e =
  let b = Domain.DLS.get scratch in
  Buf.clear b;
  add_framed b e;
  Buf.contents b

(* --- decoding ---

   Every decoder returns [Error reason] on damaged input and never raises.
   [Bad] carries a reason from the field parsers to the record's decoder,
   which turns it into [Error]; it never leaves this module. *)

exception Bad of string

(* v3 payload parser: a cursor over [s] that must not pass [stop]. *)
type cursor = { s : string; mutable p : int; stop : int }

let byte c =
  if c.p >= c.stop then raise (Bad "record payload truncated");
  let x = Char.code (String.unsafe_get c.s c.p) in
  c.p <- c.p + 1;
  x

let varint c =
  let rec go acc shift =
    let x = byte c in
    let acc = acc lor ((x land 0x7f) lsl shift) in
    if x < 0x80 then
      if x = 0 && shift > 0 then raise (Bad "non-minimal varint") else acc
    else if shift = 56 then raise (Bad "varint over 63 bits")
    else go acc (shift + 7)
  in
  go 0 0

(* A count of items each at least [min_size] bytes long, checked against
   the bytes left before anything is allocated for them. *)
let count c ~min_size =
  let n = varint c in
  if n < 0 || n > (c.stop - c.p) / min_size then
    raise (Bad "count exceeds record length");
  n

let raw_bytes c =
  let n = count c ~min_size:1 in
  let v = String.sub c.s c.p n in
  c.p <- c.p + n;
  v

let value c =
  match byte c with
  | 0 -> Value.Null
  | 1 -> Value.Bool false
  | 2 -> Value.Bool true
  | 3 -> Value.Int (unzigzag (varint c))
  | 4 ->
    if c.stop - c.p < 8 then raise (Bad "record payload truncated");
    let f = Int64.float_of_bits (String.get_int64_le c.s c.p) in
    c.p <- c.p + 8;
    Value.Float f
  | 5 -> Value.Str (raw_bytes c)
  | _ -> raise (Bad "bad value tag")

let write c =
  let kind = byte c in
  let reactor = raw_bytes c in
  let table = raw_bytes c in
  let n = count c ~min_size:1 in
  let vals = Array.make n Value.Null in
  for i = 0 to n - 1 do
    vals.(i) <- value c
  done;
  match Char.chr kind with
  | 'P' -> Put { reactor; table; row = vals }
  | 'D' -> Del { reactor; table; key = vals }
  | 'M' -> (
    match (table, vals) with
    | "", [| Value.Int dst |] -> Migrate { reactor; dst }
    | _ -> raise (Bad "bad migrate record"))
  | _ -> raise (Bad "bad write kind")

(* A write is at least its kind, two name lengths and a value count. *)
let payload c =
  let le_txn = varint c in
  let le_tid = unzigzag (varint c) in
  let n = count c ~min_size:4 in
  let rec writes acc k = if k = 0 then List.rev acc else writes (write c :: acc) (k - 1) in
  let le_writes = writes [] n in
  if c.p <> c.stop then raise (Bad "trailing bytes in record");
  { le_txn; le_tid; le_writes }

let get_u32 s p = Int32.to_int (String.get_int32_le s p) land 0xFFFF_FFFF

let decode_v3 s ~pos =
  let avail = String.length s - pos in
  if avail < header_len then Error "partial record at end of log (torn header)"
  else
    let len = get_u32 s (pos + 1) in
    if len > avail - header_len then Error "record length exceeds the data (torn record)"
    else if
      Checksum.crc32_sub s ~pos:(pos + header_len) ~len <> get_u32 s (pos + 5)
    then Error "record checksum mismatch"
    else
      let c = { s; p = pos + header_len; stop = pos + header_len + len } in
      match payload c with
      | e -> Ok (e, c.stop)
      | exception Bad m -> Error m

(* v2 payload text parser; raises [Bad]. *)
let decode_v2_value s =
  if s = "N" then Value.Null
  else
    match String.index_opt s ':' with
    | None -> raise (Bad ("bad value " ^ s))
    | Some i -> (
      let payload = String.sub s (i + 1) (String.length s - i - 1) in
      match String.sub s 0 i with
      | "B" -> Value.Bool (payload = "1")
      | "I" -> (
        match int_of_string_opt payload with
        | Some n -> Value.Int n
        | None -> raise (Bad "bad int value"))
      | "F" -> (
        match float_of_string_opt payload with
        | Some f -> Value.Float f
        | None -> raise (Bad "bad float value"))
      | "S" -> Value.Str (unhex payload)
      | tag -> raise (Bad ("bad value tag " ^ tag)))

let decode_v2_write s =
  match String.split_on_char ',' s with
  | kind :: reactor :: table :: vals -> (
    let reactor = unhex reactor and table = unhex table in
    let vals = Array.of_list (List.map decode_v2_value vals) in
    match kind with
    | "P" -> Put { reactor; table; row = vals }
    | "D" -> Del { reactor; table; key = vals }
    | "M" -> (
      match vals with
      | [| Value.Int dst |] -> Migrate { reactor; dst }
      | _ -> raise (Bad "bad migrate record"))
    | _ -> raise (Bad ("bad write kind " ^ kind)))
  | _ -> raise (Bad ("bad write " ^ s))

let decode_v2_payload p =
  match String.split_on_char '\t' p with
  | [ txn; tid; writes ] -> (
    match (int_of_string_opt txn, int_of_string_opt tid) with
    | Some le_txn, Some le_tid ->
      let le_writes =
        if writes = "" then []
        else List.map decode_v2_write (String.split_on_char ';' writes)
      in
      { le_txn; le_tid; le_writes }
    | _ -> raise (Bad "bad entry ids"))
  | _ -> raise (Bad "bad entry line")

let decode_v2_line line =
  if not (String.length line >= 2 && line.[0] = '2' && line.[1] = '|') then
    Error "not a v2 or v3 record"
  else
    match String.index_from_opt line 2 '|' with
    | None -> Error "torn record header"
    | Some i2 -> (
      match String.index_from_opt line (i2 + 1) '|' with
      | None -> Error "torn record header"
      | Some i3 -> (
        let crc = String.sub line 2 (i2 - 2) in
        match int_of_string_opt (String.sub line (i2 + 1) (i3 - i2 - 1)) with
        | None -> Error "bad record length field"
        | Some len ->
          if String.length line - i3 - 1 <> len then
            Error "record length mismatch (torn record)"
          else
            let payload = String.sub line (i3 + 1) len in
            if Checksum.crc32_hex payload <> crc then
              Error "record checksum mismatch"
            else (
              try Ok (decode_v2_payload payload) with
              | Bad m | Failure m -> Error m)))

let decode_framed s =
  if s <> "" && s.[0] = record_magic then
    match decode_v3 s ~pos:0 with
    | Ok (e, stop) when stop = String.length s -> Ok e
    | Ok _ -> Error "bytes after the record"
    | Error m -> Error m
  else decode_v2_line s

let decode_record s ~pos =
  if pos < 0 || pos >= String.length s then Error "no record at this position"
  else if s.[pos] = record_magic then decode_v3 s ~pos
  else
    match String.index_from_opt s pos '\n' with
    | None -> Error "partial record at end of log (no terminator)"
    | Some nl -> (
      match decode_v2_line (String.sub s pos (nl - pos)) with
      | Ok e -> Ok (e, nl + 1)
      | Error m -> Error m)

(* --- reading --- *)

type tail = Clean | Torn of { valid : int; reason : string }

(* Entries of a log image, the tail state, and the byte offset just past
   the last good record. Blank lines between v2 records are skipped. *)
let scan content =
  let total = String.length content in
  let rec go acc valid pos =
    if pos >= total then (List.rev acc, Clean, pos)
    else if content.[pos] = '\n' then go acc valid (pos + 1)
    else
      match decode_record content ~pos with
      | Ok (e, next) -> go (e :: acc) (valid + 1) next
      | Error reason -> (List.rev acc, Torn { valid; reason }, pos)
  in
  go [] 0 0

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The file is read whole so a final record cut short by a crash is told
   apart from a clean end of log. Stops at the first record that fails
   framing, length, checksum or payload decoding; everything before it is
   returned. *)
let decode_string content =
  let entries, tail, _ = scan content in
  (entries, tail)

let read_file_tolerant path = decode_string (read_whole path)

(* --- sinks --- *)

type file_sink = { oc : out_channel; path : string }

(* The in-memory log is read while another domain appends (a log shipper
   beside the committer that runs the group flush), so it is guarded by a
   lock. *)
type mem = { mu : Mutex.t; items : entry Util.Vec.t }

type sink = Memory of mem | File of file_sink

type t = {
  sink : sink;
  mutable count : int;
  mutable n_flushes : int;
  mutable flush_time_us : float;
}

let in_memory () =
  { sink = Memory { mu = Mutex.create (); items = Util.Vec.create () }; count = 0;
    n_flushes = 0; flush_time_us = 0. }

let to_file path =
  let existing =
    if Sys.file_exists path then begin
      let entries, tail, good = scan (read_whole path) in
      (* Crash-recovery reopen: cut the torn tail off so appended records
         stay reachable. Whatever precedes it, v2 lines included, stays as
         it was written. *)
      (match tail with Clean -> () | Torn _ -> Unix.truncate path good);
      List.length entries
    end
    else 0
  in
  {
    sink = File { oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path; path };
    count = existing;
    n_flushes = 0;
    flush_time_us = 0.;
  }

exception Io_error of string

(* Channel writes fail with [Sys_error] (disk full, revoked fd, …); wrap
   them so the commit path can turn log-device failure into a typed
   Internal abort instead of an arbitrary escaping exception. *)
let wrap_io path f =
  try f ()
  with Sys_error m -> raise (Io_error (Printf.sprintf "wal %s: %s" path m))

(* A record is encoded by whoever makes it, so a file log's append only
   copies finished bytes into its channel. An in-memory log keeps the
   entry itself and encodes nothing. *)
type record = Entry of entry | Encoded of string

let record t e = match t.sink with Memory _ -> Entry e | File _ -> Encoded (encode_framed e)

(* The batch append path: a whole batch in order, copied into the channel's
   buffer with no further encoding; the covering [flush] issues the I/O. *)
let append_many t rs =
  (match t.sink with
  | Memory m ->
    Mutex.protect m.mu (fun () ->
        List.iter
          (function
            | Entry e -> Util.Vec.push m.items e
            | Encoded _ -> invalid_arg "Wal.append_many: record of a file log")
          rs)
  | File { oc; path } ->
    wrap_io path (fun () ->
        List.iter
          (function
            | Encoded s -> output_string oc s
            | Entry _ -> invalid_arg "Wal.append_many: record of an in-memory log")
          rs));
  t.count <- t.count + List.length rs

(* One record, encoded straight into the channel: the simulator's
   per-commit path makes no string for it. *)
let append t e =
  (match t.sink with
  | Memory m -> Mutex.protect m.mu (fun () -> Util.Vec.push m.items e)
  | File { oc; path } ->
    let b = Domain.DLS.get scratch in
    Buf.clear b;
    add_framed b e;
    wrap_io path (fun () -> Buf.output oc b));
  t.count <- t.count + 1

let length t = t.count

let entries_from t n =
  match t.sink with
  | Memory m ->
    Mutex.protect m.mu (fun () ->
        let len = Util.Vec.length m.items in
        List.init (Stdlib.max 0 (len - n)) (fun i -> Util.Vec.get m.items (n + i)))
  | File _ -> invalid_arg "Wal.entries: file-backed log (use read_file)"

let entries t = entries_from t 0

let flush t =
  match t.sink with
  | Memory _ ->
    (* Free, but still a group-commit boundary: count it so flush-wait
       attribution divides by the same flush count in both sink modes. *)
    t.n_flushes <- t.n_flushes + 1
  | File { oc; path; _ } ->
    let t0 = Unix.gettimeofday () in
    wrap_io path (fun () -> flush oc);
    t.n_flushes <- t.n_flushes + 1;
    t.flush_time_us <- t.flush_time_us +. ((Unix.gettimeofday () -. t0) *. 1e6)

let n_flushes t = t.n_flushes
let flush_time_us t = t.flush_time_us

let close t = match t.sink with Memory _ -> () | File { oc; _ } -> close_out oc

let replay ?(on_move = fun ~reactor:_ ~dst:_ -> ()) entries ~catalog_of =
  let ordered =
    List.sort (fun a b -> Int.compare a.le_tid b.le_tid) entries
  in
  let applied = ref 0 in
  List.iter
    (fun e ->
      List.iter
        (fun w ->
          match w with
          | Migrate { reactor; dst } ->
            (* Placement change, not a data write: surface it to the caller
               (which rebuilds the routing table) and leave the catalogs
               alone. Not counted in [applied]. *)
            on_move ~reactor ~dst
          | Put { reactor; table; row } ->
            incr applied;
            let tbl = Storage.Catalog.table (catalog_of reactor) table in
            let key = Storage.Table.key_of_tuple tbl row in
            (match Storage.Table.find tbl key with
            | Some record ->
              (* update_data relocates secondary-index entries whose columns
                 changed — bare [record.data <- row] would leave the old
                 secondary keys pointing at the new tuple. *)
              Storage.Table.update_data tbl record row;
              record.Storage.Record.tid <- e.le_tid;
              record.Storage.Record.absent <- false
            | None ->
              let record = Storage.Record.fresh ~absent:false row in
              record.Storage.Record.tid <- e.le_tid;
              ignore (Storage.Table.insert tbl record))
          | Del { reactor; table; key } ->
            incr applied;
            let tbl = Storage.Catalog.table (catalog_of reactor) table in
            ignore (Storage.Table.remove tbl key))
        e.le_writes)
    ordered;
  !applied
