type router = Round_robin | Affinity | Cost

type morph = Sequential | Parallel | Auto

type t = {
  executors_per_container : int array;
  router : router;
  mpl : int;
  placement : string -> int;
  affinity_slot : string -> int;
  machine_of : int -> int;
  morph : morph;
}

let default_mpl = 8

(* Stable slot assignment: position in the declaration order. Unknown
   reactors (never the case in well-formed apps) hash. *)
let slot_of_list reactors =
  let tbl = Hashtbl.create (List.length reactors) in
  List.iteri (fun i r -> Hashtbl.replace tbl r i) reactors;
  fun r ->
    match Hashtbl.find_opt tbl r with
    | Some i -> i
    | None -> Hashtbl.hash r

let shared_everything ~executors ~affinity ?(mpl = default_mpl) reactors =
  if executors <= 0 then invalid_arg "Config: executors must be positive";
  {
    executors_per_container = [| executors |];
    router = (if affinity then Affinity else Round_robin);
    mpl;
    placement = (fun _ -> 0);
    affinity_slot = slot_of_list reactors;
    machine_of = (fun _ -> 0);
    morph = Sequential;
  }

let shared_nothing ?(mpl = default_mpl) groups =
  if groups = [] then invalid_arg "Config: no reactor groups";
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun ci group -> List.iter (fun r -> Hashtbl.replace tbl r ci) group)
    groups;
  let placement r =
    match Hashtbl.find_opt tbl r with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Config: reactor %S not placed" r)
  in
  {
    executors_per_container = Array.make (List.length groups) 1;
    router = Affinity;
    mpl;
    placement;
    affinity_slot = (fun _ -> 0);
    machine_of = (fun _ -> 0);
    morph = Sequential;
  }

let shared_nothing_async ?mpl groups =
  { (shared_nothing ?mpl groups) with morph = Parallel }

let of_groups ~router groups = { (shared_nothing groups) with router }

let router_name = function
  | Round_robin -> "round-robin"
  | Affinity -> "affinity"
  | Cost -> "cost"

let chunk k xs =
  let groups = Array.make k [] in
  List.iteri (fun i x -> groups.(i mod k) <- x :: groups.(i mod k)) xs;
  Array.to_list (Array.map List.rev groups)

let custom ~executors_per_container ~router ?(mpl = default_mpl) ~placement
    ?(affinity_slot = Hashtbl.hash) ?(machine_of = fun _ -> 0)
    ?(morph = Sequential) () =
  if Array.length executors_per_container = 0 then
    invalid_arg "Config: need at least one container";
  Array.iter
    (fun n -> if n <= 0 then invalid_arg "Config: executors must be positive")
    executors_per_container;
  { executors_per_container; router; mpl; placement; affinity_slot; machine_of;
    morph }

let on_machines t machine_of = { t with machine_of }
let with_morph t morph = { t with morph }

let morph_name = function
  | Sequential -> "sequential"
  | Parallel -> "parallel"
  | Auto -> "auto"

let n_containers t = Array.length t.executors_per_container
let total_executors t = Array.fold_left ( + ) 0 t.executors_per_container

module Spec = struct
  type strategy = SE | SN

  type spec = {
    strategy : strategy;
    executors : int;
    affinity : bool;
    smpl : int;
    groups : [ `Auto of int | `Explicit of string list list ];
    smorph : morph;
  }

  let default_spec =
    { strategy = SE; executors = 1; affinity = true; smpl = default_mpl;
      groups = `Auto 1; smorph = Sequential }

  let of_string text =
    let lines = String.split_on_char '\n' text in
    List.fold_left
      (fun spec line ->
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let words =
          List.filter (fun w -> w <> "")
            (String.split_on_char ' ' (String.trim line))
        in
        match words with
        | [] -> spec
        | [ "strategy"; "shared-everything" ] -> { spec with strategy = SE }
        | [ "strategy"; "shared-nothing" ] -> { spec with strategy = SN }
        | [ "strategy"; "shared-nothing-async" ] ->
          { spec with strategy = SN; smorph = Parallel }
        | [ "morph"; "sequential" ] -> { spec with smorph = Sequential }
        | [ "morph"; "parallel" ] -> { spec with smorph = Parallel }
        | [ "morph"; "auto" ] -> { spec with smorph = Auto }
        | [ "executors"; n ] -> { spec with executors = int_of_string n }
        | [ "affinity"; "on" ] -> { spec with affinity = true }
        | [ "affinity"; "off" ] -> { spec with affinity = false }
        | [ "mpl"; n ] -> { spec with smpl = int_of_string n }
        | [ "groups"; "auto"; n ] ->
          { spec with groups = `Auto (int_of_string n) }
        | [ "groups"; g ] ->
          let groups =
            List.map
              (fun grp ->
                List.filter (fun r -> r <> "") (String.split_on_char ',' grp))
              (String.split_on_char ';' g)
          in
          { spec with groups = `Explicit groups }
        | _ -> invalid_arg (Printf.sprintf "Config.Spec: bad line %S" line))
      default_spec lines

  let of_file path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    of_string s

  let build spec reactors =
    let base =
      match spec.strategy with
      | SE ->
        shared_everything ~executors:spec.executors ~affinity:spec.affinity
          ~mpl:spec.smpl reactors
      | SN ->
        let groups =
          match spec.groups with
          | `Explicit gs -> gs
          | `Auto n ->
            (* Deal reactors round-robin over n containers. *)
            let buckets = Array.make n [] in
            List.iteri (fun i r -> buckets.(i mod n) <- r :: buckets.(i mod n))
              reactors;
            Array.to_list (Array.map List.rev buckets)
        in
        shared_nothing ~mpl:spec.smpl groups
    in
    with_morph base spec.smorph
end
