type entry = {
  bs_name : string;
  bs_rtype : Reactor.rtype;
  bs_catalog : Storage.Catalog.t;
  bs_home : int;
}

let build decl cfg =
  Reactor.validate decl;
  let n_containers = Config.n_containers cfg in
  let table_owner = Hashtbl.create 256 in
  let entries =
    List.map
      (fun (name, tyname) ->
        let rt = Reactor.find_type decl tyname in
        let catalog = Storage.Catalog.create () in
        List.iter
          (fun schema ->
            let secondaries =
              List.assoc_opt schema.Storage.Schema.sname rt.Reactor.rt_indexes
            in
            ignore (Storage.Catalog.create_table ?secondaries catalog schema))
          rt.Reactor.rt_schemas;
        let home = cfg.Config.placement name in
        if home < 0 || home >= n_containers then
          invalid_arg
            (Printf.sprintf "ReactDB: reactor %S placed in bad container %d"
               name home);
        List.iter
          (fun (tname, tbl) ->
            Hashtbl.replace table_owner tbl.Storage.Table.uid (name, tname))
          (Storage.Catalog.tables catalog);
        { bs_name = name; bs_rtype = rt; bs_catalog = catalog; bs_home = home })
      decl.Reactor.reactors
  in
  let by_name = Hashtbl.create (List.length entries) in
  List.iter (fun e -> Hashtbl.replace by_name e.bs_name e.bs_catalog) entries;
  let catalog_of name =
    match Hashtbl.find_opt by_name name with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "ReactDB: unknown reactor %S" name)
  in
  List.iter
    (fun (rname, loader) -> loader (catalog_of rname))
    decl.Reactor.loaders;
  (entries, table_owner)
