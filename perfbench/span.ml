(* Benchmark-side spans around the calls into each layer (set-up, warm-up,
   measured run, correctness checks, layer replays). Spans are kept in
   memory and summarised when the round ends; a span's self time is its
   duration minus the part of its interval that its children cover. *)

type span = { id : int; parent : int option; name : string; t0 : float; t1 : float }

type t = { mutable spans : span list; mutable next_id : int; mutable stack : int list }

let create () = { spans = []; next_id = 0; stack = [] }

let now = Unix.gettimeofday

(* [record t name f] runs [f] inside a span named [name], child of the
   innermost open span. *)
let record t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let t0 = now () in
  let finish () =
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; t0; t1 = now () } :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Closed spans in start order (ids are handed out at start). *)
let spans t = List.sort (fun a b -> compare a.id b.id) t.spans

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_time all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.t0, c.t1) else None)
      all
  in
  (s.t1 -. s.t0) -. covered ~lo:s.t0 ~hi:s.t1 children

(* [(name, total seconds, self seconds)] per span, in start order. *)
let summary all =
  List.map (fun s -> (s.name, s.t1 -. s.t0, self_time all s)) all
