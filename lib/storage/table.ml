module Key = struct
  type t = Util.Value.t array

  (* A top-level loop rather than a local closure: without flambda, a
     local [go] capturing the keys is allocated on every call, and this
     compare runs at every B+tree node a find or insert visits. *)
  let rec compare_from a b i n =
    if i = n then Int.compare (Array.length a) (Array.length b)
    else
      (* Same-constructor scalar fast paths keep the common case (int and
         string key columns) free of the generic dispatch. *)
      let c =
        match Array.unsafe_get a i, Array.unsafe_get b i with
        | Util.Value.Int x, Util.Value.Int y -> Int.compare x y
        | Util.Value.Str x, Util.Value.Str y -> String.compare x y
        | x, y -> Util.Value.compare x y
      in
      if c <> 0 then c else compare_from a b (i + 1) n

  let compare a b =
    if a == b then 0
    else compare_from a b 0 (Stdlib.min (Array.length a) (Array.length b))

  (* Normalized key word: the columns packed most significant first into
     61 payload bits (bits 61..1), then the cut bit (bit 0, set = inexact);
     bit 62 stays clear, so words compare as non-negative ints. Each column
     opens with a 3-bit tag in [Value.compare]'s constructor order, starting
     at 1: a key then never pads (with zeros) to the word of a key it
     extends. An [Int] of at most 6 significant bytes follows with a 5-bit
     sign-and-length class and its bytes, a negative [x] as the complement
     of [lnot x]; [Null] is its tag alone. [Bool], [Float], [Str], a longer
     [Int] or running out of bits write what fits, set the cut bit and
     stop. *)
  let payload_bits = 61

  (* Significant bytes of [y >= 0]. *)
  let byte_len y =
    if y < 0x100 then if y = 0 then 0 else 1
    else if y < 0x1_0000 then 2
    else if y < 0x100_0000 then 3
    else if y < 0x1_0000_0000 then 4
    else if y < 0x100_0000_0000 then 5
    else if y < 0x1_0000_0000_0000 then 6
    else if y < 0x100_0000_0000_0000 then 7
    else 8

  (* Append the top bits of the [len]-bit field [v] that still fit, pad and
     mark the word inexact. *)
  let cut acc used v len =
    let avail = payload_bits - used in
    if len <= avail then (((acc lsl len) lor v) lsl (avail - len + 1)) lor 1
    else (((acc lsl avail) lor (v lsr (len - avail))) lsl 1) lor 1

  let rec norm_from k i n acc used =
    if i = n then acc lsl (payload_bits - used + 1)
    else
      match Array.unsafe_get k i with
      | Util.Value.Null ->
        if used + 3 <= payload_bits then
          norm_from k (i + 1) n ((acc lsl 3) lor 1) (used + 3)
        else cut acc used 1 3
      | Util.Value.Int x ->
        let len = byte_len (if x < 0 then lnot x else x) in
        let hdr = (3 lsl 5) lor (if x < 0 then 15 - len else 16 + len) in
        let bits = 8 * len in
        if len <= 6 && used + 8 + bits <= payload_bits then
          let payload = x land ((1 lsl bits) - 1) in
          let acc = (((acc lsl 8) lor hdr) lsl bits) lor payload in
          norm_from k (i + 1) n acc (used + 8 + bits)
        else if used + 8 <= payload_bits then
          (* The header fits, the payload does not: its top [avail] bits
             (an arithmetic shift keeps an 8-byte negative's sign bits). *)
          let avail = payload_bits - used - 8 in
          let acc = (acc lsl 8) lor hdr in
          let top =
            if avail = 0 then 0 else (x asr (bits - avail)) land ((1 lsl avail) - 1)
          in
          (((acc lsl avail) lor top) lsl 1) lor 1
        else cut acc used hdr 8
      | Util.Value.Bool _ -> cut acc used 2 3
      | Util.Value.Float _ -> cut acc used 4 3
      | Util.Value.Str _ -> cut acc used 5 3

  let norm k = norm_from k 0 (Array.length k) 0 0
end

module Idx = Btree.Make (Key)

(* A secondary index maps (indexed columns @ primary key) -> record; the
   primary-key suffix makes entries unique and gives deterministic order
   among equal secondary keys. [sec_plan] is the flat column-extraction
   plan (indexed columns then primary-key columns) precomputed at table
   creation, so building a secondary key is a single loop — no per-operation
   Array.map + Array.append. [sec_scratch] is a reusable buffer for keys
   that are only looked up, never stored (deletions, comparisons). *)
type secondary = {
  sec_name : string;
  sec_cols : int array;
  sec_plan : int array;
  sec_scratch : Util.Value.t array;
  sec_idx : Record.t Idx.t;
}

(* Committed-delete tombstones awaiting reclamation, (key, record) in
   install order: delete epochs are nondecreasing along it up to the spread
   of the epochs whose commits are still installing. *)
type graveyard = (Key.t * Record.t) Queue.t

type t = {
  uid : int;
  schema : Schema.t;
  idx : Record.t Idx.t;
  secondaries : secondary list;
  mutable graveyard : graveyard option;
  mutable changed : int;
}

type witness = Idx.witness

let uid_counter = Atomic.make 0

let create ?(secondaries = []) schema =
  let uid = 1 + Atomic.fetch_and_add uid_counter 1 in
  let mk (sec_name, cols) =
    let sec_cols =
      Array.of_list
        (List.map
           (fun c ->
             try Schema.column_index schema c
             with Not_found ->
               invalid_arg
                 (Printf.sprintf "Table.create: index %S on unknown column %S"
                    sec_name c))
           cols)
    in
    let sec_plan = Array.append sec_cols schema.Schema.key in
    { sec_name; sec_cols; sec_plan;
      sec_scratch = Array.make (Array.length sec_plan) Util.Value.Null;
      sec_idx = Idx.create () }
  in
  let secondaries = List.map mk secondaries in
  let names = List.map (fun s -> s.sec_name) secondaries in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Table.create: duplicate index name";
  { uid; schema; idx = Idx.create (); secondaries; graveyard = None;
    changed = 0 }

(* Column [i]'s bit in a column mask; columns from 62 on share the top
   bit, which can only make masks meet more often. *)
let col_bit i = 1 lsl (if i < 62 then i else 62)

let all_cols = -1

(* Columns whose value an update replaced: a column counts as changed
   unless the new tuple holds the very same value (a copy-and-set keeps the
   others physically equal). *)
let changed_cols old data =
  let m = ref 0 in
  for i = 0 to Array.length data - 1 do
    if
      i >= Array.length old
      || Array.unsafe_get old i != Array.unsafe_get data i
    then m := !m lor col_bit i
  done;
  !m

let secondary t name =
  match List.find_opt (fun s -> s.sec_name = name) t.secondaries with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Table: no index %S on %s" name t.schema.Schema.sname)

(* Secondary key of a tuple under index [s]: indexed columns then the
   primary key, extracted through the precomputed plan. *)
let sec_key_of _t s data =
  Array.map (fun i -> Array.unsafe_get data i) s.sec_plan

(* Same key, built into the per-secondary scratch buffer: valid only until
   the next call for this secondary, and must never be handed to an index
   insertion (the B+tree stores keys). Safe for delete/compare lookups. *)
let sec_key_scratch s data =
  let plan = s.sec_plan in
  for i = 0 to Array.length plan - 1 do
    Array.unsafe_set s.sec_scratch i
      (Array.unsafe_get data (Array.unsafe_get plan i))
  done;
  s.sec_scratch

let sec_insert t record =
  List.iter
    (fun s ->
      ignore (Idx.insert s.sec_idx (sec_key_of t s record.Record.data) record))
    t.secondaries

let sec_remove t data =
  List.iter
    (fun s -> ignore (Idx.delete s.sec_idx (sec_key_scratch s data)))
    t.secondaries

let clear t =
  Idx.clear t.idx;
  List.iter (fun s -> Idx.clear s.sec_idx) t.secondaries;
  t.graveyard <- None

let size t = Idx.size t.idx
let find ?on_node t key = Idx.find ?on_node t.idx key

let insert t record =
  Schema.validate t.schema record.Record.data;
  let prev = Idx.insert t.idx (Schema.key_of_tuple t.schema record.Record.data) record in
  (match prev with Some old -> sec_remove t old.Record.data | None -> ());
  sec_insert t record;
  prev

let remove t key =
  match Idx.delete t.idx key with
  | Some record as r ->
    sec_remove t record.Record.data;
    r
  | None -> None

(* Tombstone retention (snapshot mode): a logical delete keeps the record in
   the primary index — version-chain readers must still reach it by key —
   but drops its secondary entries, exactly what [remove] would have done to
   them. *)
let sec_forget t record = sec_remove t record.Record.data

(* The graveyard is allocated on the table's first delete: most tables
   (one row per reactor) never delete and carry no queue. *)
let bury t key record =
  let g =
    match t.graveyard with
    | Some g -> g
    | None ->
      let g = Queue.create () in
      t.graveyard <- Some g;
      g
  in
  Queue.add (key, record) g

(* Unlink buried tombstones whose delete epoch is at most [horizon]: every
   live and future snapshot is at an epoch >= horizon and reads such a key
   as dead whether or not the tombstone is there. An entry whose record has
   left the index under its key since (displaced by an insert, or an
   earlier duplicate entry reclaimed it) is dropped; a tombstone still
   locked (a writer is preparing on it) stops the pass until a later
   install. *)
let rec reclaim_from t g ~horizon =
  if not (Queue.is_empty g) then begin
    let key, r = Queue.peek g in
    if Record.tid_epoch r.Record.tid <= horizon then
      match Idx.find t.idx key with
      | Some r' when r' == r && r.Record.absent ->
        if not (Record.is_locked r) then begin
          ignore (Queue.pop g);
          ignore (Idx.delete t.idx key);
          Record.reclaim r;
          reclaim_from t g ~horizon
        end
      | _ ->
        ignore (Queue.pop g);
        reclaim_from t g ~horizon
  end

let reclaim t ~horizon =
  match t.graveyard with None -> () | Some g -> reclaim_from t g ~horizon

(* Reinstate a displaced tombstone in the primary index only (its secondary
   entries were already dropped when its delete installed), and bury it
   again: a reclaim pass may have dropped its entry while the displacing
   insert held the key. Used when the insert that displaced it rolls
   back. *)
let reinstate t record =
  let key = Schema.key_of_tuple t.schema record.Record.data in
  ignore (Idx.insert t.idx key record);
  bury t key record

(* In-place data update with secondary-index maintenance; the primary key
   must be unchanged (the query layer enforces this). Called by the commit
   protocol's install phase. *)
let update_data t record data =
  List.iter
    (fun s ->
      if
        (* With an unchanged primary key the secondary key moves only if an
           indexed column changed; compare those positions in place instead
           of materializing both keys. *)
        Array.exists
          (fun i ->
            Util.Value.compare (Array.unsafe_get record.Record.data i)
              (Array.unsafe_get data i)
            <> 0)
          s.sec_cols
      then begin
        ignore (Idx.delete s.sec_idx (sec_key_scratch s record.Record.data));
        ignore (Idx.insert s.sec_idx (sec_key_of t s data) record)
      end)
    t.secondaries;
  record.Record.data <- data

let scan_secondary ?on_node ?lo ?hi ?(rev = false) t ~index ~f =
  let s = secondary t index in
  if rev then Idx.range_rev ?on_node ?lo ?hi s.sec_idx ~f:(fun _ r -> f r)
  else Idx.range ?on_node ?lo ?hi s.sec_idx ~f:(fun _ r -> f r)

(* [Str "\255..."] sentinel would be fragile; instead rely on the
   prefix-order property of Key.compare: extensions of [prefix] sort
   immediately after [prefix] and before [prefix'] where [prefix'] bumps the
   last component. We append a maximal sentinel component instead, which is
   simpler: no real column value compares above it because schemas never
   store it. *)
let sentinel_hi = Util.Value.Str "\xff\xff\xff\xff\xff\xff\xff\xff"

let key_prefix_bounds prefix =
  (prefix, Array.append prefix [| sentinel_hi |])

let range ?on_node ?lo ?hi t ~f = Idx.range ?on_node ?lo ?hi t.idx ~f:(fun _ r -> f r)

let range_rev ?on_node ?lo ?hi t ~f =
  Idx.range_rev ?on_node ?lo ?hi t.idx ~f:(fun _ r -> f r)

let key_of_tuple t tuple = Schema.key_of_tuple t.schema tuple
