type version = {
  v_tid : int;
  v_data : Util.Value.t array;
  v_absent : bool;
  mutable v_next : version option;
}

type t = {
  rid : int;
  mutable data : Util.Value.t array;
  mutable tid : int;
  mutable lock : int;
  mutable absent : bool;
  mutable hist : version option;
}

(* Atomic: records are allocated concurrently by the parallel runtime's
   per-container domains, and rids must stay globally unique (they define
   the deadlock-free lock order). Single-domain allocation sequences are
   unchanged. *)
let counter = Util.Padded.atomic 0

let fresh ~absent data =
  { rid = 1 + Atomic.fetch_and_add counter 1; data; tid = 0; lock = 0; absent;
    hist = None }

let seq_bits = 32
let seq_mask = (1 lsl seq_bits) - 1

let tid_make ~epoch ~seq =
  if seq > seq_mask then invalid_arg "Record.tid_make: sequence overflow";
  (epoch lsl seq_bits) lor seq

let tid_epoch tid = tid lsr seq_bits
let tid_seq tid = tid land seq_mask

let next_tid ~epoch observed =
  let mx = List.fold_left Stdlib.max 0 observed in
  let e = Stdlib.max epoch (tid_epoch mx) in
  if e > tid_epoch mx then tid_make ~epoch:e ~seq:1
  else tid_make ~epoch:e ~seq:(tid_seq mx + 1)

let is_locked r = r.lock <> 0
let locked_by r = if r.lock = 0 then None else Some r.lock

let try_lock r ~txn =
  if r.lock = 0 then begin
    r.lock <- txn;
    true
  end
  else r.lock = txn

let unlock r ~txn = if r.lock = txn then r.lock <- 0

(* ---- multi-version snapshot support ----

   The chain holds superseded versions newest-first with strictly
   decreasing commit epochs; [data]/[tid]/[absent] on the record itself are
   always the newest version. Visibility is epoch-granular: a snapshot at
   epoch [s] observes the newest version whose committing epoch is <= [s].
   TIDs within one epoch are not globally ordered across records, so a
   finer-than-epoch rule would be unsound; the backends only hand out
   snapshot epochs strictly below every in-flight commit epoch, which makes
   the epoch cut consistent. *)

let rec chain_find v ~snapshot =
  match v with
  | None -> None
  | Some v ->
    if tid_epoch v.v_tid <= snapshot then
      if v.v_absent then None else Some v.v_data
    else chain_find v.v_next ~snapshot

let snapshot_read r ~snapshot =
  if tid_epoch r.tid <= snapshot then
    if r.absent then None else Some r.data
  else chain_find r.hist ~snapshot

(* Drop every version strictly older than the newest version with epoch
   <= [horizon]: no live or future snapshot (all at epochs >= horizon) can
   reach past that version. The record's own version counts as the newest
   link of the chain. *)
let trim r ~horizon =
  if tid_epoch r.tid <= horizon then r.hist <- None
  else begin
    let rec cut v =
      match v with
      | None -> ()
      | Some v -> if tid_epoch v.v_tid <= horizon then v.v_next <- None else cut v.v_next
    in
    cut r.hist
  end

(* Called by the commit install path just before overwriting the record
   with a version committing at [tid_epoch new_tid]; the caller trims once
   the new version is in place. A same-epoch successor shadows the old
   version immediately (snapshots are only issued at epochs strictly below
   any in-flight commit epoch), so only cross-epoch installs push. *)
let retire r ~new_tid =
  if tid_epoch new_tid > tid_epoch r.tid then
    r.hist <-
      Some { v_tid = r.tid; v_data = r.data; v_absent = r.absent; v_next = r.hist }

(* Splice the superseded record [old_r] (typically a delete tombstone being
   displaced by a re-insert of its key) into [r]'s history. *)
let graft r ~from:old_r =
  r.hist <-
    Some
      { v_tid = old_r.tid; v_data = old_r.data; v_absent = old_r.absent;
        v_next = old_r.hist }

let chain_length r =
  let rec go n = function None -> n | Some v -> go (n + 1) v.v_next in
  go 0 r.hist

(* Transaction ids are positive (a replica's read-only context uses 0, the
   free value), so no transaction ever owns this lock. *)
let reclaimed_owner = -1

let reclaim r =
  r.lock <- reclaimed_owner;
  r.hist <- None

let is_reclaimed r = r.lock = reclaimed_owner
