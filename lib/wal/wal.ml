open Util

type write =
  | Put of { reactor : string; table : string; row : Value.t array }
  | Del of { reactor : string; table : string; key : Value.t array }
  | Migrate of { reactor : string; dst : int }

type entry = { le_txn : int; le_tid : int; le_writes : write list }

(* --- encoding: one entry per line ---

   v1 (legacy, still readable):
     txn<TAB>tid<TAB>write;write;...

   v2 (written by this version): the v1 text becomes the payload of a framed
   record carrying its own length and CRC-32, so a torn or corrupted tail is
   detectable instead of silently mis-parsing:
     2|crc32hex|payload-length|payload

   write  := P|D , reactor , table , value,value,...
   value  := N | B:0/1 | I:n | F:hex-float | S:hexbytes
   Strings are hex-encoded (lowercase; decoding accepts nothing else) so no
   separator can collide; the payload never contains a newline, so records
   remain line-delimited. *)

let hex_digits = "0123456789abcdef"

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
   it occupies and its header is inserted in front of it — the payload is
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

  (* Decimal, as [string_of_int], with the digits written in place. *)
  let add_int b i =
    if i = min_int then add_string b (string_of_int i)
    else begin
      let rec width n = if n < 10 then 1 else 1 + width (n / 10) in
      let digits = width (abs i) in
      let len = digits + if i < 0 then 1 else 0 in
      reserve b len;
      if i < 0 then Bytes.unsafe_set b.bytes b.len '-';
      let rest = ref (abs i) in
      for p = b.len + len - 1 downto b.len + len - digits do
        Bytes.unsafe_set b.bytes p (Char.unsafe_chr (Char.code '0' + (!rest mod 10)));
        rest := !rest / 10
      done;
      b.len <- b.len + len
    end

  let add_hex b s =
    let n = String.length s in
    reserve b (2 * n);
    let by = b.bytes and p = b.len in
    for i = 0 to n - 1 do
      let c = Char.code (String.unsafe_get s i) in
      Bytes.unsafe_set by (p + (2 * i)) (String.unsafe_get hex_digits (c lsr 4));
      Bytes.unsafe_set by (p + (2 * i) + 1) (String.unsafe_get hex_digits (c land 0xf))
    done;
    b.len <- p + (2 * n)

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

(* [Printf.sprintf "%h" f], written in place: the shortest exact hex form
   the runtime's [%h] conversion produces ("0x1.8p+0", "-0x0p+0",
   "0x0.0000000000001p-1022", "nan", "-infinity", …). Floats are most of
   the values in a record, and the Printf route allocates ~50 words per
   call. *)
let add_hex_float b f =
  let bits = Int64.bits_of_float f in
  let exp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let man = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
  if Int64.compare bits 0L < 0 then Buf.add_char b '-';
  if exp = 0x7ff then Buf.add_string b (if man = 0 then "infinity" else "nan")
  else begin
    Buf.add_string b (if exp = 0 then "0x0" else "0x1");
    if man <> 0 then begin
      Buf.add_char b '.';
      let rest = ref man and shift = ref 48 in
      while !rest <> 0 do
        Buf.add_char b hex_digits.[(!rest lsr !shift) land 0xf];
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    let e = if exp = 0 then if man = 0 then 0 else -1022 else exp - 1023 in
    Buf.add_string b (if e >= 0 then "p+" else "p");
    Buf.add_int b e
  end

let add_value b = function
  | Value.Null -> Buf.add_char b 'N'
  | Value.Bool v -> Buf.add_string b (if v then "B:1" else "B:0")
  | Value.Int i ->
    Buf.add_string b "I:";
    Buf.add_int b i
  | Value.Float f ->
    Buf.add_string b "F:";
    add_hex_float b f
  | Value.Str s ->
    Buf.add_string b "S:";
    Buf.add_hex b s

let decode_value s =
  if s = "N" then Value.Null
  else
    match String.index_opt s ':' with
    | None -> failwith ("Wal: bad value " ^ s)
    | Some i -> (
      let tag = String.sub s 0 i in
      let payload = String.sub s (i + 1) (String.length s - i - 1) in
      match tag with
      | "B" -> Value.Bool (payload = "1")
      | "I" -> Value.Int (int_of_string payload)
      | "F" -> Value.Float (float_of_string payload)
      | "S" -> Value.Str (unhex payload)
      | _ -> failwith ("Wal: bad value tag " ^ tag))

(* write := kind , hex reactor , hex table {, value} *)
let add_write b w =
  let kind, reactor, table, vals =
    match w with
    | Put { reactor; table; row } -> ('P', reactor, table, row)
    | Del { reactor; table; key } -> ('D', reactor, table, key)
    (* Placement records reuse the write frame with an empty table and the
       destination container as the single value — the v1/v2 line format
       stays uniform and old readers fail loudly on the unknown kind. *)
    | Migrate { reactor; dst } -> ('M', reactor, "", [| Value.Int dst |])
  in
  Buf.add_char b kind;
  Buf.add_char b ',';
  Buf.add_hex b reactor;
  Buf.add_char b ',';
  Buf.add_hex b table;
  for i = 0 to Array.length vals - 1 do
    Buf.add_char b ',';
    add_value b vals.(i)
  done

let decode_write s =
  match String.split_on_char ',' s with
  | kind :: reactor :: table :: vals ->
    let reactor = unhex reactor and table = unhex table in
    let vals = Array.of_list (List.map decode_value vals) in
    (match kind with
    | "P" -> Put { reactor; table; row = vals }
    | "D" -> Del { reactor; table; key = vals }
    | "M" -> (
      match vals with
      | [| Value.Int dst |] -> Migrate { reactor; dst }
      | _ -> failwith "Wal: bad migrate record")
    | _ -> failwith ("Wal: bad write kind " ^ kind))
  | _ -> failwith ("Wal: bad write " ^ s)

let add_entry b e =
  Buf.add_int b e.le_txn;
  Buf.add_char b '\t';
  Buf.add_int b e.le_tid;
  Buf.add_char b '\t';
  match e.le_writes with
  | [] -> ()
  | w :: ws ->
    add_write b w;
    List.iter
      (fun w ->
        Buf.add_char b ';';
        add_write b w)
      ws

(* Per-domain scratch buffer for the string-returning wrappers, so a call
   allocates only its result, and for [append]. *)
let scratch = Domain.DLS.new_key (fun () -> Buf.create 4096)

let with_scratch f e =
  let b = Domain.DLS.get scratch in
  Buf.clear b;
  f b e;
  Buf.contents b

let encode_entry e = with_scratch add_entry e

let decode_entry line =
  match String.split_on_char '\t' line with
  | [ txn; tid; writes ] ->
    let ws =
      if writes = "" then []
      else List.map decode_write (String.split_on_char ';' writes)
    in
    { le_txn = int_of_string txn; le_tid = int_of_string tid; le_writes = ws }
  | _ -> failwith ("Wal: bad entry line " ^ line)

(* --- v2 framing --- *)

(* ["2|" ^ crc32 as 8 hex digits ^ "|" ^ len ^ "|"] *)
let frame_header crc len =
  let l = string_of_int len in
  let n = String.length l in
  let h = Bytes.make (12 + n) '|' in
  Bytes.set h 0 '2';
  for i = 0 to 7 do
    Bytes.set h (2 + i) hex_digits.[(crc lsr (28 - (4 * i))) land 0xf]
  done;
  Bytes.blit_string l 0 h 11 n;
  Bytes.unsafe_to_string h

(* One pass: the payload is written where the record ends up, checksummed
   over that range, and the header is slid in front of it. *)
let add_framed b e =
  let start = Buf.length b in
  add_entry b e;
  let len = Buf.length b - start in
  Buf.insert b ~at:start (frame_header (Buf.crc32 b ~pos:start ~len) len)

let encode_framed e = with_scratch add_framed e

(* One framed record and its newline, as it lies in a log file. *)
let add_line b e =
  add_framed b e;
  Buf.add_char b '\n'

let is_framed line =
  String.length line >= 2 && line.[0] = '2' && line.[1] = '|'

let decode_framed line =
  if not (is_framed line) then Error "not a v2 record"
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
              try Ok (decode_entry payload) with Failure m -> Error m)))

(* --- reading --- *)

type tail = Clean | Torn of { valid : int; reason : string }

(* Byte-exact tolerant scan: the file is read whole so a final record with
   no terminating newline (a crash mid-append) is distinguishable from a
   clean end of log. Stops at the first record that fails framing, length,
   checksum or payload decoding; everything before it is returned. *)
let read_file_tolerant path =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let total = String.length content in
  let out = ref [] and valid = ref 0 and torn = ref None in
  let pos = ref 0 in
  (try
     while !pos < total do
       match String.index_from_opt content !pos '\n' with
       | None ->
         torn := Some "partial record at end of log (no terminator)";
         raise Exit
       | Some nl ->
         let line = String.sub content !pos (nl - !pos) in
         pos := nl + 1;
         if line <> "" then begin
           let parsed =
             if is_framed line then decode_framed line
             else try Ok (decode_entry line) with Failure m -> Error m
           in
           match parsed with
           | Ok e ->
             out := e :: !out;
             incr valid
           | Error reason ->
             torn := Some reason;
             raise Exit
         end
     done
   with Exit -> ());
  ( List.rev !out,
    match !torn with
    | None -> Clean
    | Some reason -> Torn { valid = !valid; reason } )

let read_file path =
  match read_file_tolerant path with
  | entries, Clean -> entries
  | _, Torn { valid; reason } ->
    failwith
      (Printf.sprintf "Wal.read_file: %s (after %d valid entries)" reason valid)

(* --- sinks --- *)

type file_sink = { oc : out_channel; path : string }

(* The in-memory log is read while another domain appends (a log shipper
   beside the group-commit flusher), so it is guarded by a lock. *)
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
      match read_file_tolerant path with
      | entries, Clean -> List.length entries
      | entries, Torn _ ->
        (* Crash-recovery reopen: truncate the torn tail (re-encoding the
           valid prefix as v2) so appended records stay reachable. *)
        let buf = Buf.create 4096 in
        let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 path in
        List.iter (add_line buf) entries;
        Buf.output oc buf;
        close_out oc;
        List.length entries
    end
    else 0
  in
  {
    sink = File { oc = open_out_gen [ Open_append; Open_creat ] 0o644 path; path };
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
   copies finished lines into its channel. An in-memory log keeps the
   entry itself and encodes nothing. *)
type record = Entry of entry | Line of string

let record t e = match t.sink with Memory _ -> Entry e | File _ -> Line (with_scratch add_line e)

(* The batch append path: a whole batch in order, copied into the channel's
   buffer with no further encoding; the covering [flush] issues the I/O. *)
let append_many t rs =
  (match t.sink with
  | Memory m ->
    Mutex.protect m.mu (fun () ->
        List.iter
          (function
            | Entry e -> Util.Vec.push m.items e
            | Line _ -> invalid_arg "Wal.append_many: record of a file log")
          rs)
  | File { oc; path } ->
    wrap_io path (fun () ->
        List.iter
          (function
            | Line l -> output_string oc l
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
    add_line b e;
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
