(* Seeded crash injection + engine-free recovery, for the
   recovery-equivalence property suite (see faultsim.mli). *)

type fault =
  | Truncate_entries of int
  | Truncate_bytes of int
  | Corrupt_byte of { off : int; xor : int }

let pp_fault = function
  | Truncate_entries n -> Printf.sprintf "truncate to %d entries" n
  | Truncate_bytes n -> Printf.sprintf "truncate to %d bytes" n
  | Corrupt_byte { off; xor } ->
    Printf.sprintf "corrupt byte %d (xor 0x%02x)" off xor

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_whole path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

let choose rng ~path =
  let size = file_size path in
  match Util.Rng.int rng 3 with
  | 0 ->
    let entries, _ = Wal.read_file_tolerant path in
    Truncate_entries (Util.Rng.int rng (List.length entries + 1))
  | 1 -> Truncate_bytes (Util.Rng.int rng (size + 1))
  | _ ->
    if size = 0 then Truncate_bytes 0
    else
      Corrupt_byte
        { off = Util.Rng.int rng size; xor = 1 + Util.Rng.int rng 255 }

let inject fault ~src ~dst =
  let content = read_whole src in
  let faulted =
    match fault with
    | Truncate_bytes n -> String.sub content 0 (min n (String.length content))
    | Truncate_entries n ->
      (* Cut after the [n]-th record; keep everything if fewer decode. *)
      let rec cut pos k =
        if k = 0 then pos
        else
          match Wal.decode_record content ~pos with
          | Ok (_, next) -> cut next (k - 1)
          | Error _ -> String.length content
      in
      String.sub content 0 (cut 0 n)
    | Corrupt_byte { off; xor } ->
      if off >= String.length content then content
      else
        String.mapi
          (fun i c -> if i = off then Char.chr (Char.code c lxor xor) else c)
          content
  in
  write_whole dst faulted

(* ---- engine-free database images ---- *)

(* Partial application builds the name index once, so a lookup per
   replayed write stays O(1) instead of scanning every reactor. *)
let catalog_of cats =
  let by_name = Hashtbl.create (List.length cats) in
  List.iter (fun (name, c) -> Hashtbl.replace by_name name c) cats;
  fun name ->
    match Hashtbl.find_opt by_name name with
    | Some c -> c
    | None -> invalid_arg (Printf.sprintf "Faultsim: unknown reactor %S" name)

let fresh_catalogs decl =
  Reactor.validate decl;
  let cats =
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
        (name, catalog))
      decl.Reactor.reactors
  in
  let cat = catalog_of cats in
  List.iter (fun (rname, loader) -> loader (cat rname)) decl.Reactor.loaders;
  cats

type state = (string * string * Util.Value.t array list) list

let snapshot catalogs =
  let tables =
    List.concat_map
      (fun (rname, catalog) ->
        List.map
          (fun (tname, tbl) ->
            let rows = ref [] in
            Storage.Table.range tbl ~f:(fun r ->
                if not r.Storage.Record.absent then
                  rows := Array.copy r.Storage.Record.data :: !rows;
                true);
            (rname, tname, List.rev !rows))
          (Storage.Catalog.tables catalog))
      catalogs
  in
  List.sort
    (fun (r1, t1, _) (r2, t2, _) -> Stdlib.compare (r1, t1) (r2, t2))
    tables

let pp_row row =
  "("
  ^ String.concat ", "
      (Array.to_list (Array.map Util.Value.to_string row))
  ^ ")"

let diff a b =
  let tables =
    List.sort_uniq Stdlib.compare
      (List.map (fun (r, t, _) -> (r, t)) a
      @ List.map (fun (r, t, _) -> (r, t)) b)
  in
  let rows_of st r t =
    match List.find_opt (fun (r', t', _) -> r' = r && t' = t) st with
    | Some (_, _, rows) -> Some rows
    | None -> None
  in
  let rec first_diff = function
    | [] -> None
    | (r, t) :: rest -> (
      match (rows_of a r t, rows_of b r t) with
      | None, _ | _, None ->
        Some (Printf.sprintf "%s.%s present on one side only" r t)
      | Some ra, Some rb ->
        if List.length ra <> List.length rb then
          Some
            (Printf.sprintf "%s.%s: %d rows vs %d rows" r t (List.length ra)
               (List.length rb))
        else (
          match
            List.find_opt
              (fun (x, y) -> not (Array.for_all2 Util.Value.equal x y))
              (List.combine ra rb)
          with
          | Some (x, y) ->
            Some
              (Printf.sprintf "%s.%s: row %s vs %s" r t (pp_row x) (pp_row y))
          | None -> first_diff rest))
  in
  first_diff tables

let check_secondaries catalogs =
  let err = ref None in
  let fail m = if !err = None then err := Some m in
  List.iter
    (fun (rname, catalog) ->
      List.iter
        (fun (tname, tbl) ->
          let live = ref [] and n_live = ref 0 in
          Storage.Table.range tbl ~f:(fun r ->
              if not r.Storage.Record.absent then begin
                live := r :: !live;
                incr n_live
              end;
              true);
          List.iter
            (fun (sec : Storage.Table.secondary) ->
              let n_sec = ref 0 in
              Storage.Table.scan_secondary tbl
                ~index:sec.Storage.Table.sec_name ~f:(fun r ->
                  if not r.Storage.Record.absent then incr n_sec;
                  true);
              if !n_sec <> !n_live then
                fail
                  (Printf.sprintf
                     "%s.%s secondary %s: %d entries vs %d live rows" rname
                     tname sec.Storage.Table.sec_name !n_sec !n_live);
              List.iter
                (fun (r : Storage.Record.t) ->
                  let key =
                    Storage.Table.sec_key_of tbl sec r.Storage.Record.data
                  in
                  let lo, hi = Storage.Table.key_prefix_bounds key in
                  let found = ref false in
                  Storage.Table.scan_secondary tbl ~lo ~hi
                    ~index:sec.Storage.Table.sec_name ~f:(fun r' ->
                      if r'.Storage.Record.rid = r.Storage.Record.rid then
                        found := true;
                      not !found);
                  if not !found then
                    fail
                      (Printf.sprintf
                         "%s.%s secondary %s: live row %s unreachable under \
                          its current key"
                         rname tname sec.Storage.Table.sec_name
                         (pp_row r.Storage.Record.data)))
                !live)
            tbl.Storage.Table.secondaries)
        (Storage.Catalog.tables catalog))
    catalogs;
  match !err with None -> Ok () | Some m -> Error m

(* ---- recovery ---- *)

type recovery = {
  rc_catalogs : (string * Storage.Catalog.t) list;
  rc_entries : Wal.entry list;
  rc_tail : Wal.tail;
  rc_checkpoint : Checkpoint.t option;
  rc_restored : int;
  rc_replayed : int;
  rc_placements : (string * int) list;
  rc_note : string;
}

(* Recovered placement: fold the surviving [Migrate] records in TID order —
   the last move per reactor wins, exactly as the engines applied them.
   Reactors never migrated are absent (they keep the config placement). *)
let placements_of entries =
  let ordered =
    List.sort (fun a b -> Int.compare a.Wal.le_tid b.Wal.le_tid) entries
  in
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun e ->
      List.iter
        (function
          | Wal.Migrate { reactor; dst } ->
            if not (Hashtbl.mem tbl reactor) then order := reactor :: !order;
            Hashtbl.replace tbl reactor dst
          | Wal.Put _ | Wal.Del _ -> ())
        e.Wal.le_writes)
    ordered;
  List.rev_map (fun r -> (r, Hashtbl.find tbl r)) !order

let recover ?checkpoint ~log decl =
  let cats = fresh_catalogs decl in
  let cat = catalog_of cats in
  let entries, tail = Wal.read_file_tolerant log in
  let placements = placements_of entries in
  let log_only note =
    let replayed = Wal.replay entries ~catalog_of:cat in
    {
      rc_catalogs = cats;
      rc_entries = entries;
      rc_tail = tail;
      rc_checkpoint = None;
      rc_restored = 0;
      rc_replayed = replayed;
      rc_placements = placements;
      rc_note = note;
    }
  in
  match checkpoint with
  | None -> log_only "log-only"
  | Some ckpath -> (
    match Checkpoint.read_file_opt ckpath with
    | Error m -> log_only (Printf.sprintf "checkpoint unreadable (%s); log-only fallback" m)
    | Ok ck ->
      let restored, replayed =
        Checkpoint.recover ~checkpoint:ck ~log:entries ~catalog_of:cat
      in
      {
        rc_catalogs = cats;
        rc_entries = entries;
        rc_tail = tail;
        rc_checkpoint = Some ck;
        rc_restored = restored;
        rc_replayed = replayed;
        rc_placements = placements;
        rc_note = "checkpoint + log tail";
      })

let verify ~decl ~reference_log recovery =
  let ref_cats = fresh_catalogs decl in
  (* What recovery may legitimately know: entries durably captured by the
     restored checkpoint (even if the crash destroyed their log records)
     plus entries surviving in the damaged log. Replaying that union over a
     fresh image is the committed-prefix reference — a code path independent
     of checkpoint capture/restore. *)
  let covered =
    match recovery.rc_checkpoint with
    | None -> []
    | Some ck ->
      (* Positional coverage: the checkpoint's effects are exactly the
         first [ck_covers] entries of the undamaged history. *)
      List.filteri
        (fun i _ -> i < ck.Checkpoint.ck_covers)
        reference_log
  in
  let seen = Hashtbl.create 64 in
  let union =
    List.filter
      (fun (e : Wal.entry) ->
        let k = (e.Wal.le_txn, e.Wal.le_tid) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (covered @ recovery.rc_entries)
  in
  ignore (Wal.replay union ~catalog_of:(catalog_of ref_cats));
  match diff (snapshot ref_cats) (snapshot recovery.rc_catalogs) with
  | Some m -> Error ("recovered state diverges from committed prefix: " ^ m)
  | None -> check_secondaries recovery.rc_catalogs

(* ---- sweeping ---- *)

type report = {
  rp_points : int;
  rp_clean_tail : int;
  rp_torn_tail : int;
  rp_ckpt_fallback : int;
  rp_failures : (int * string) list;
}

let crash_sweep ?checkpoint ?extra_check ~log ~scratch ~decl ~seeds () =
  let reference_log =
    match Wal.read_file_tolerant log with
    | entries, Wal.Clean -> entries
    | _, Wal.Torn { reason; _ } ->
      failwith ("Faultsim.crash_sweep: reference log is damaged: " ^ reason)
  in
  let scratch_log = scratch ^ ".log" in
  let scratch_ck = scratch ^ ".ckpt" in
  let clean = ref 0 and torn = ref 0 and fallback = ref 0 in
  let failures = ref [] in
  List.iter
    (fun seed ->
      let rng = Util.Rng.create seed in
      let fault = choose rng ~path:log in
      inject fault ~src:log ~dst:scratch_log;
      (* One time in four, the crash also lands between checkpoint write
         and log flush: the checkpoint is damaged too and recovery must
         fall back to log-only replay. *)
      let ck_arg =
        match checkpoint with
        | None -> None
        | Some ckpath ->
          if Util.Rng.int rng 4 = 0 then begin
            let ck_fault = choose rng ~path:ckpath in
            inject ck_fault ~src:ckpath ~dst:scratch_ck;
            Some scratch_ck
          end
          else Some ckpath
      in
      let r = recover ?checkpoint:ck_arg ~log:scratch_log decl in
      (match r.rc_tail with
      | Wal.Clean -> incr clean
      | Wal.Torn _ -> incr torn);
      if checkpoint <> None && r.rc_checkpoint = None then incr fallback;
      let outcome =
        match verify ~decl ~reference_log r with
        | Error m -> Error m
        | Ok () -> (
          match extra_check with
          | None -> Ok ()
          | Some f -> f r.rc_catalogs)
      in
      match outcome with
      | Ok () -> ()
      | Error m ->
        failures :=
          (seed, Printf.sprintf "[%s] %s" (pp_fault fault) m) :: !failures)
    seeds;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ scratch_log; scratch_ck ];
  {
    rp_points = List.length seeds;
    rp_clean_tail = !clean;
    rp_torn_tail = !torn;
    rp_ckpt_fallback = !fallback;
    rp_failures = List.rev !failures;
  }
