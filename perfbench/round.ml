(* One fixed-work round of one workload, in its own process so that its
   peak RSS is its own. Usage: round.exe WORKLOAD SEED TRACE(0|1).
   Prints one JSON object on stdout; run.py aggregates the rounds. *)

module J = Obs.Json

let metrics ms =
  J.Obj
    (List.map
       (fun (x : Perfbench.Scenario.metric) ->
         ( x.Perfbench.Scenario.m_name,
           J.Obj [ ("value", J.Num x.m_value); ("unit", J.Str x.m_unit) ] ))
       ms)

let () =
  match Sys.argv with
  | [| _; name; seed; trace |] -> (
    match (Perfbench.Scenario.find name, int_of_string_opt seed) with
    | Some w, Some seed when trace = "0" || trace = "1" ->
      let r = Perfbench.Scenario.run_round w ~seed ~trace:(trace = "1") in
      let spans =
        List.map
          (fun (n, total, self) ->
            J.Obj [ ("name", J.Str n); ("total_s", J.Num total); ("self_s", J.Num self) ])
          (Perfbench.Span.summary r.Perfbench.Scenario.spans)
      in
      print_endline
        (J.to_string
           (J.Obj
              [ ("errors", J.List (List.map (fun e -> J.Str e) r.errors));
                ("attempted", J.Num (float_of_int r.attempted));
                ("failed", J.Num (float_of_int r.failed));
                ("end_to_end", metrics r.end_to_end);
                ("per_layer", metrics r.per_layer);
                ("envelope", J.Obj r.envelope);
                ("spans", J.List spans) ]))
    | _ ->
      prerr_endline "round.exe: unknown workload, bad seed or trace flag";
      exit 2)
  | _ ->
    prerr_endline "usage: round.exe WORKLOAD SEED TRACE(0|1)";
    exit 2
