(* Tables in creation order. A reactor has a handful of tables, so a scan
   comparing names is cheaper than hashing the name. *)
type t = { mutable tables : Table.t array }

let create () = { tables = [||] }
let name_of (tbl : Table.t) = tbl.schema.Schema.sname

let rec index_of tables name i =
  if i = Array.length tables then -1
  else if String.equal (name_of (Array.unsafe_get tables i)) name then i
  else index_of tables name (i + 1)

let mem t name = index_of t.tables name 0 >= 0

let create_table ?secondaries t schema =
  let name = schema.Schema.sname in
  if mem t name then
    invalid_arg (Printf.sprintf "Catalog.create_table: %S already exists" name);
  let table = Table.create ?secondaries schema in
  t.tables <- Array.append t.tables [| table |];
  table

let table t name =
  let i = index_of t.tables name 0 in
  if i < 0 then raise Not_found else t.tables.(i)

let tables t = Array.fold_right (fun tbl acc -> (name_of tbl, tbl) :: acc) t.tables []

let total_records t =
  Array.fold_left (fun acc tbl -> acc + Table.size tbl) 0 t.tables
