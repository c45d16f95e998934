(* Benchmark harness entry point: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the experiment index).

   Usage:
     dune exec bench/main.exe                 run everything
     dune exec bench/main.exe -- --fast       shrunken sweeps (smoke run)
     dune exec bench/main.exe -- --only fig5  one experiment (comma-separable)
     dune exec bench/main.exe -- --list       list experiment ids *)

let () =
  Exp_smallbank.register ();
  Exp_tpcc.register ();
  Exp_ycsb.register ();
  Exp_exchange.register ();
  Exp_ablation.register ()

let () =
  let fast = ref false in
  let only = ref [] in
  let list_only = ref false in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      parse rest
    | "--list" :: rest ->
      list_only := true;
      parse rest
    | "--only" :: ids :: rest ->
      only := !only @ String.split_on_char ',' ids;
      parse rest
    | arg :: _ when arg <> Sys.argv.(0) ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
    | _ :: rest -> parse rest
  in
  parse args;
  let experiments = Bexp.all () in
  if !list_only then begin
    List.iter
      (fun e -> Printf.printf "%-8s %-22s %s\n" e.Bexp.id e.Bexp.paper e.Bexp.title)
      experiments;
    exit 0
  end;
  let selected =
    match !only with
    | [] -> experiments
    | ids ->
      List.iter
        (fun id ->
          if not (List.exists (fun e -> e.Bexp.id = id) experiments) then begin
            Printf.eprintf "unknown experiment id %S (try --list)\n" id;
            exit 2
          end)
        ids;
      List.filter (fun e -> List.mem e.Bexp.id ids) experiments
  in
  Printf.printf
    "ReactDB benchmark harness — %d experiment(s)%s\n"
    (List.length selected)
    (if !fast then " [fast mode]" else "");
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun e ->
      let start = Unix.gettimeofday () in
      Bexp.header e;
      e.Bexp.run ~fast:!fast;
      Printf.printf "[%s done in %.1fs]\n%!" e.Bexp.id
        (Unix.gettimeofday () -. start))
    selected;
  Printf.printf "\nAll experiments completed in %.1fs.\n"
    (Unix.gettimeofday () -. t0)
