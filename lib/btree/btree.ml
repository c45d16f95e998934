module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

(* Maximum keys per leaf and children per internal node. Chosen small enough
   to exercise splits heavily in tests, large enough for decent constant
   factors in benchmarks. *)
let leaf_cap = 32
let internal_cap = 32

module Make (K : ORDERED) = struct
  type 'v leaf = {
    mutable lkeys : K.t array; (* slots [0, ln) are valid *)
    mutable lvals : 'v array;
    mutable ln : int;
    mutable version : int;
    mutable next : 'v leaf option;
    mutable prev : 'v leaf option;
  }

  type 'v internal = {
    mutable ikeys : K.t array; (* separators; child i < ikeys.(i) <= child i+1 *)
    mutable children : 'v node array;
    mutable nchildren : int;
  }

  and 'v node = L of 'v leaf | I of 'v internal

  type 'v t = { mutable root : 'v node; mutable size : int }

  type witness = W : 'v leaf * int -> witness

  let new_leaf () =
    { lkeys = [||]; lvals = [||]; ln = 0; version = 0; next = None; prev = None }

  let create () = { root = L (new_leaf ()); size = 0 }
  let size t = t.size
  let witness_valid (W (leaf, v)) = leaf.version = v

  (* First index in [0, n) with keys.(i) >= k, else n. *)
  let lower_bound keys n k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare keys.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* First index in [0, n) with keys.(i) > k, else n. *)
  let upper_bound keys n k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare keys.(mid) k <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Child index to descend into for key [k]: number of separators <= k would
     be wrong for duplicate separators; we route equal keys right, matching
     the separator convention (separator s = smallest key of right child). *)
  let child_index node k = upper_bound node.ikeys (node.nchildren - 1) k

  let rec descend_leaf node k =
    match node with
    | L leaf -> leaf
    | I inner -> descend_leaf inner.children.(child_index inner k) k

  let rec leftmost_leaf = function
    | L leaf -> leaf
    | I inner -> leftmost_leaf inner.children.(0)

  let rec rightmost_leaf = function
    | L leaf -> leaf
    | I inner -> rightmost_leaf inner.children.(inner.nchildren - 1)

  (* Silo's rule: only a miss needs the leaf's witness; a hit is guarded by
     the value's own validation word. *)
  let find ?on_node t k =
    let leaf = descend_leaf t.root k in
    let i = lower_bound leaf.lkeys leaf.ln k in
    if i < leaf.ln && K.compare leaf.lkeys.(i) k = 0 then Some leaf.lvals.(i)
    else begin
      (match on_node with Some f -> f (W (leaf, leaf.version)) | None -> ());
      None
    end

  let mem t k = Option.is_some (find t k)

  (* Grow backing arrays if full, using the incoming binding as fill. *)
  let ensure_leaf_capacity leaf k v =
    let cap = Array.length leaf.lkeys in
    if leaf.ln = cap then begin
      let newcap = if cap = 0 then 4 else Stdlib.min leaf_cap (cap * 2) in
      let ks = Array.make newcap k in
      let vs = Array.make newcap v in
      Array.blit leaf.lkeys 0 ks 0 leaf.ln;
      Array.blit leaf.lvals 0 vs 0 leaf.ln;
      leaf.lkeys <- ks;
      leaf.lvals <- vs
    end

  let leaf_insert_at leaf i k v =
    ensure_leaf_capacity leaf k v;
    Array.blit leaf.lkeys i leaf.lkeys (i + 1) (leaf.ln - i);
    Array.blit leaf.lvals i leaf.lvals (i + 1) (leaf.ln - i);
    leaf.lkeys.(i) <- k;
    leaf.lvals.(i) <- v;
    leaf.ln <- leaf.ln + 1;
    leaf.version <- leaf.version + 1

  (* Split a full leaf; returns (separator, right leaf). *)
  let split_leaf leaf =
    let mid = leaf.ln / 2 in
    let rn = leaf.ln - mid in
    let right =
      {
        lkeys = Array.sub leaf.lkeys mid rn;
        lvals = Array.sub leaf.lvals mid rn;
        ln = rn;
        version = 0;
        next = leaf.next;
        prev = Some leaf;
      }
    in
    (match leaf.next with Some n -> n.prev <- Some right | None -> ());
    leaf.next <- Some right;
    leaf.ln <- mid;
    leaf.version <- leaf.version + 1;
    (right.lkeys.(0), right)

  let split_internal inner =
    (* nchildren = internal_cap + 1 at this point. *)
    let midchild = inner.nchildren / 2 in
    (* Separator promoted upward is ikeys.(midchild - 1). *)
    let sep = inner.ikeys.(midchild - 1) in
    let rchildren = inner.nchildren - midchild in
    let right =
      {
        ikeys = Array.sub inner.ikeys midchild (rchildren - 1);
        children = Array.sub inner.children midchild rchildren;
        nchildren = rchildren;
      }
    in
    inner.nchildren <- midchild;
    (sep, I right)

  (* Returns (previous binding, overflow split). *)
  let rec insert_node node k v =
    match node with
    | L leaf ->
      let i = lower_bound leaf.lkeys leaf.ln k in
      if i < leaf.ln && K.compare leaf.lkeys.(i) k = 0 then begin
        let prev = leaf.lvals.(i) in
        leaf.lvals.(i) <- v;
        (Some prev, None)
      end
      else if leaf.ln >= leaf_cap then begin
        let sep, right = split_leaf leaf in
        let target = if K.compare k sep < 0 then leaf else right in
        let j = lower_bound target.lkeys target.ln k in
        leaf_insert_at target j k v;
        (None, Some (sep, L right))
      end
      else begin
        leaf_insert_at leaf i k v;
        (None, None)
      end
    | I inner ->
      let ci = child_index inner k in
      let prev, split = insert_node inner.children.(ci) k v in
      (match split with
      | None -> (prev, None)
      | Some (sep, rnode) ->
        (* Insert separator at position ci and child at ci+1. *)
        let nsep = inner.nchildren - 1 in
        let ikeys = Array.make (nsep + 1) sep in
        Array.blit inner.ikeys 0 ikeys 0 ci;
        Array.blit inner.ikeys ci ikeys (ci + 1) (nsep - ci);
        let children = Array.make (inner.nchildren + 1) rnode in
        Array.blit inner.children 0 children 0 (ci + 1);
        Array.blit inner.children (ci + 1) children (ci + 2)
          (inner.nchildren - ci - 1);
        inner.ikeys <- ikeys;
        inner.children <- children;
        inner.nchildren <- inner.nchildren + 1;
        if inner.nchildren > internal_cap then (prev, Some (split_internal inner))
        else (prev, None))

  let insert t k v =
    let prev, split = insert_node t.root k v in
    (match split with
    | None -> ()
    | Some (sep, right) ->
      t.root <-
        I { ikeys = [| sep |]; children = [| t.root; right |]; nchildren = 2 });
    if prev = None then t.size <- t.size + 1;
    prev

  let delete t k =
    let leaf = descend_leaf t.root k in
    let i = lower_bound leaf.lkeys leaf.ln k in
    if i < leaf.ln && K.compare leaf.lkeys.(i) k = 0 then begin
      let prev = leaf.lvals.(i) in
      Array.blit leaf.lkeys (i + 1) leaf.lkeys i (leaf.ln - i - 1);
      Array.blit leaf.lvals (i + 1) leaf.lvals i (leaf.ln - i - 1);
      leaf.ln <- leaf.ln - 1;
      leaf.version <- leaf.version + 1;
      t.size <- t.size - 1;
      Some prev
    end
    else None

  let note on_node leaf =
    match on_node with Some f -> f (W (leaf, leaf.version)) | None -> ()

  let range ?on_node ?lo ?hi t ~f =
    let start =
      match lo with
      | Some k -> descend_leaf t.root k
      | None -> leftmost_leaf t.root
    in
    let above_hi k =
      match hi with Some h -> K.compare k h > 0 | None -> false
    in
    let rec walk leaf =
      note on_node leaf;
      let i0 =
        match lo with Some k -> lower_bound leaf.lkeys leaf.ln k | None -> 0
      in
      let rec scan i =
        if i >= leaf.ln then true
        else
          let k = leaf.lkeys.(i) in
          if above_hi k then false
          else if f k leaf.lvals.(i) then scan (i + 1)
          else false
      in
      if scan i0 then
        match leaf.next with Some n -> walk_next n | None -> ()
    and walk_next leaf =
      note on_node leaf;
      let rec scan i =
        if i >= leaf.ln then true
        else
          let k = leaf.lkeys.(i) in
          if above_hi k then false
          else if f k leaf.lvals.(i) then scan (i + 1)
          else false
      in
      if scan 0 then
        match leaf.next with Some n -> walk_next n | None -> ()
    in
    walk start

  let range_rev ?on_node ?lo ?hi t ~f =
    let start =
      match hi with
      | Some k -> descend_leaf t.root k
      | None -> rightmost_leaf t.root
    in
    let below_lo k =
      match lo with Some l -> K.compare k l < 0 | None -> false
    in
    let rec walk leaf first =
      note on_node leaf;
      let i0 =
        if first then
          match hi with
          | Some k -> upper_bound leaf.lkeys leaf.ln k - 1
          | None -> leaf.ln - 1
        else leaf.ln - 1
      in
      let rec scan i =
        if i < 0 then true
        else
          let k = leaf.lkeys.(i) in
          if below_lo k then false
          else if f k leaf.lvals.(i) then scan (i - 1)
          else false
      in
      if scan i0 then
        match leaf.prev with Some p -> walk p false | None -> ()
    in
    walk start true

  let iter t ~f =
    range t ~f:(fun k v ->
        f k v;
        true)

  let fold t ~init ~f =
    let acc = ref init in
    iter t ~f:(fun k v -> acc := f !acc k v);
    !acc

  let min_binding t =
    let r = ref None in
    range t ~f:(fun k v ->
        r := Some (k, v);
        false);
    !r

  let max_binding t =
    let r = ref None in
    range_rev t ~f:(fun k v ->
        r := Some (k, v);
        false);
    !r

  let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

  let clear t =
    t.root <- L (new_leaf ());
    t.size <- 0

  let check_invariants t =
    let fail fmt = Printf.ksprintf failwith fmt in
    (* 1. Keys strictly ascending across the leaf chain; count matches. *)
    let count = ref 0 in
    let last = ref None in
    let rec walk_chain leaf =
      for i = 0 to leaf.ln - 1 do
        (match !last with
        | Some k when K.compare k leaf.lkeys.(i) >= 0 ->
          fail "btree: keys not strictly ascending"
        | _ -> ());
        last := Some leaf.lkeys.(i);
        incr count
      done;
      match leaf.next with
      | Some n ->
        (match n.prev with
        | Some p when p == leaf -> ()
        | _ -> fail "btree: broken prev link");
        walk_chain n
      | None -> ()
    in
    walk_chain (leftmost_leaf t.root);
    if !count <> t.size then fail "btree: size mismatch (%d vs %d)" !count t.size;
    (* 2. Separator invariants: every key in child i is < sep i, keys in
       child i+1 are >= sep i. *)
    let rec check_node node lo hi =
      let in_bounds k =
        (match lo with Some l -> K.compare l k <= 0 | None -> true)
        && match hi with Some h -> K.compare k h < 0 | None -> true
      in
      match node with
      | L leaf ->
        for i = 0 to leaf.ln - 1 do
          if not (in_bounds leaf.lkeys.(i)) then
            fail "btree: leaf key outside separator bounds"
        done
      | I inner ->
        if inner.nchildren < 2 then fail "btree: internal with < 2 children";
        for i = 0 to inner.nchildren - 1 do
          let lo' = if i = 0 then lo else Some inner.ikeys.(i - 1) in
          let hi' = if i = inner.nchildren - 1 then hi else Some inner.ikeys.(i) in
          check_node inner.children.(i) lo' hi'
        done
    in
    check_node t.root None None
end
