type future = { get : unit -> Util.Value.t }

type ctx = {
  db : Query.Exec.ctx;
  self : string;
  call : reactor:string -> proc:string -> args:Util.Value.t list -> future;
  collect : future list -> Util.Value.t list;
}

type proc = ctx -> Util.Value.t list -> Util.Value.t

type rtype = {
  rt_name : string;
  rt_schemas : Storage.Schema.t list;
  rt_indexes : (string * (string * string list) list) list;
  rt_procs : (string * proc) list;
  rt_readonly : string list;
  rt_morphs : (string * string) list;
}

let rtype ~name ~schemas ?(indexes = []) ~procs ?(readonly = []) ?(morphs = [])
    () =
  { rt_name = name; rt_schemas = schemas; rt_indexes = indexes;
    rt_procs = procs; rt_readonly = readonly; rt_morphs = morphs }

type decl = {
  types : rtype list;
  reactors : (string * string) list;
  loaders : (string * (Storage.Catalog.t -> unit)) list;
}

let decl ~types ~reactors ?(loaders = []) () = { types; reactors; loaders }

let abort msg = raise (Occ.Txn.Abort msg)

(* Raised by the runtime when the dynamic safety condition of §2.2.4 is
   violated (a reactor is called while already active in the same root
   transaction). Typed so abort accounting can distinguish structural
   errors from user aborts without inspecting message text. *)
exception Dangerous_call of string

(* Name lookups run on every frame and admission: compare with
   [String.equal] rather than [List.assoc_opt]/[List.mem], whose
   polymorphic compare is one C call per entry. *)
let rec assoc_str name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else assoc_str name rest

let find_type d name =
  match List.find_opt (fun t -> String.equal t.rt_name name) d.types with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Reactor: unknown reactor type %S" name)

let type_of_reactor d name =
  match assoc_str name d.reactors with
  | Some tyname -> find_type d tyname
  | None -> invalid_arg (Printf.sprintf "Reactor: unknown reactor %S" name)

let find_proc rt name =
  match assoc_str name rt.rt_procs with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Reactor: type %s has no procedure %S" rt.rt_name name)

let rec mem_str name = function
  | [] -> false
  | k :: rest -> String.equal k name || mem_str name rest

let proc_readonly rt name = mem_str name rt.rt_readonly
let morph_target rt name = assoc_str name rt.rt_morphs

let morph_of rt name =
  List.find_map
    (fun (seq, par) -> if par = name then Some seq else None)
    rt.rt_morphs

let check_unique what names =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg (Printf.sprintf "Reactor: duplicate %s %S" what n);
      Hashtbl.add seen n ())
    names

let validate d =
  check_unique "reactor type" (List.map (fun t -> t.rt_name) d.types);
  check_unique "reactor" (List.map fst d.reactors);
  List.iter
    (fun t ->
      check_unique
        (Printf.sprintf "procedure in type %s" t.rt_name)
        (List.map fst t.rt_procs);
      check_unique
        (Printf.sprintf "schema in type %s" t.rt_name)
        (List.map (fun s -> s.Storage.Schema.sname) t.rt_schemas);
      List.iter
        (fun (table, _) ->
          if
            not
              (List.exists
                 (fun s -> s.Storage.Schema.sname = table)
                 t.rt_schemas)
          then
            invalid_arg
              (Printf.sprintf "Reactor: type %s declares indexes on unknown table %S"
                 t.rt_name table))
        t.rt_indexes;
      List.iter
        (fun p ->
          if not (List.mem_assoc p t.rt_procs) then
            invalid_arg
              (Printf.sprintf
                 "Reactor: type %s declares unknown procedure %S read-only"
                 t.rt_name p))
        t.rt_readonly;
      List.iter
        (fun (seq, par) ->
          List.iter
            (fun p ->
              if not (List.mem_assoc p t.rt_procs) then
                invalid_arg
                  (Printf.sprintf
                     "Reactor: type %s declares a morph over unknown procedure %S"
                     t.rt_name p))
            [ seq; par ])
        t.rt_morphs)
    d.types;
  List.iter (fun (_, ty) -> ignore (find_type d ty)) d.reactors;
  (* One name index, not a scan of [reactors] per loader: declarations
     with tens of thousands of reactors each carry a loader. *)
  let names = Hashtbl.create (List.length d.reactors) in
  List.iter (fun (r, _) -> Hashtbl.replace names r ()) d.reactors;
  List.iter
    (fun (r, _) ->
      if not (Hashtbl.mem names r) then
        invalid_arg (Printf.sprintf "Reactor: unknown reactor %S" r))
    d.loaders

let arg args i =
  match List.nth_opt args i with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Reactor: missing argument %d" i)

let arg_int args i = Util.Value.to_int (arg args i)
let arg_float args i = Util.Value.to_number (arg args i)
let arg_str args i = Util.Value.to_str (arg args i)
