(* Host facts written into the "host" block of the runtime benches' JSON
   (scheduler, chaos_sweep, parallel_scaling), so a committed result names
   the machine and the code that produced it: online CPUs ([nproc]), the
   OCaml runtime's recommended domain count, the compiler version and the
   checked-out commit (uncommitted changes are not recorded). A fact that
   cannot be read is [null]. *)

(* First line of a command's stdout; [None] if it cannot run or fails. *)
let first_line prog args =
  match
    Unix.open_process_args_full prog
      (Array.of_list (prog :: args))
      (Unix.environment ())
  with
  | exception Unix.Unix_error _ -> None
  | (out, inp, err) as p ->
    close_out inp;
    let line = In_channel.input_line out in
    ignore (In_channel.input_all err);
    (match Unix.close_process_full p with
    | Unix.WEXITED 0 -> line
    | _ -> None)

let json () =
  let or_null f = function Some v -> f v | None -> "null" in
  Printf.sprintf
    "{\"nproc\": %s, \"recommended_domains\": %d, \"ocaml_version\": \"%s\", \
     \"git_commit\": %s}"
    (or_null string_of_int
       (Option.bind (first_line "nproc" []) int_of_string_opt))
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (or_null (Printf.sprintf "\"%s\"") (first_line "git" [ "rev-parse"; "HEAD" ]))
