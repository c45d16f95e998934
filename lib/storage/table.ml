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

type t = {
  uid : int;
  schema : Schema.t;
  idx : Record.t Idx.t;
  secondaries : secondary list;
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
  { uid; schema; idx = Idx.create (); secondaries }

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
  List.iter (fun s -> Idx.clear s.sec_idx) t.secondaries

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

(* Reinstate a displaced tombstone in the primary index only (its secondary
   entries were already dropped when its delete installed). Used when the
   insert that displaced it rolls back. *)
let reinstate t record =
  ignore (Idx.insert t.idx (Schema.key_of_tuple t.schema record.Record.data) record)

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
