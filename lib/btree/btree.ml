module type ORDERED = sig
  type t

  val compare : t -> t -> int
  val norm : t -> int
end

(* Maximum keys per leaf and children per internal node. Chosen small enough
   to exercise splits heavily in tests, large enough for decent constant
   factors in benchmarks. *)
let leaf_cap = 32
let internal_cap = 32

module Make (K : ORDERED) = struct
  (* Every key slot carries its normalized word ([K.norm]) in a parallel
     unboxed [int array]: searches compare words and reach for the stored
     key only on a tie between inexact words (low bit set). *)
  type 'v leaf = {
    mutable lkeys : K.t array; (* slots [0, ln) are valid *)
    mutable lnorms : int array; (* lnorms.(i) = K.norm lkeys.(i) *)
    mutable lvals : 'v array;
    mutable ln : int;
    mutable version : int;
    mutable next : 'v leaf option;
    mutable prev : 'v leaf option;
  }

  (* Internal arrays are allocated at full capacity ([internal_cap]
     separators, one more child) and shifted in place: internal nodes are
     few, and a separator insert then allocates nothing. *)
  type 'v internal = {
    ikeys : K.t array; (* separators; child i < ikeys.(i) <= child i+1 *)
    inorms : int array; (* inorms.(i) = K.norm ikeys.(i) *)
    children : 'v node array; (* slots [0, nchildren) are valid *)
    mutable nchildren : int;
  }

  and 'v node = L of 'v leaf | I of 'v internal

  type 'v t = { mutable root : 'v node; mutable size : int }

  type witness = W : 'v leaf * int -> witness

  let new_leaf () =
    { lkeys = [||]; lnorms = [||]; lvals = [||]; ln = 0; version = 0;
      next = None; prev = None }

  let create () = { root = L (new_leaf ()); size = 0 }
  let size t = t.size
  let witness_valid (W (leaf, v)) = leaf.version = v

  (* First index in [0, n) with keys.(i) >= k, else n. Here and below [kn]
     is [K.norm k]: distinct words order their keys, an equal exact word
     (low bit clear) means an equal key, and only an equal inexact word
     needs [K.compare]. *)
  let lower_bound norms keys n k kn =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let w = Array.unsafe_get norms mid in
      if w < kn || (w = kn && kn land 1 = 1 && K.compare keys.(mid) k < 0)
      then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* First index in [0, n) with keys.(i) > k, else n. *)
  let upper_bound norms keys n k kn =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let w = Array.unsafe_get norms mid in
      if w < kn || (w = kn && (kn land 1 = 0 || K.compare keys.(mid) k <= 0))
      then lo := mid + 1
      else hi := mid
    done;
    !lo

  (* Slot [i] (already a lower bound for [k]) holds [k]. *)
  let hit leaf i k kn =
    i < leaf.ln
    && Array.unsafe_get leaf.lnorms i = kn
    && (kn land 1 = 0 || K.compare leaf.lkeys.(i) k = 0)

  (* Child index to descend into for key [k]: number of separators <= k would
     be wrong for duplicate separators; we route equal keys right, matching
     the separator convention (separator s = smallest key of right child). *)
  let child_index node k kn =
    upper_bound node.inorms node.ikeys (node.nchildren - 1) k kn

  let rec descend_leaf node k kn =
    match node with
    | L leaf -> leaf
    | I inner -> descend_leaf inner.children.(child_index inner k kn) k kn

  let rec leftmost_leaf = function
    | L leaf -> leaf
    | I inner -> leftmost_leaf inner.children.(0)

  let rec rightmost_leaf = function
    | L leaf -> leaf
    | I inner -> rightmost_leaf inner.children.(inner.nchildren - 1)

  (* Silo's rule: only a miss needs the leaf's witness; a hit is guarded by
     the value's own validation word. *)
  let find ?on_node t k =
    let kn = K.norm k in
    let leaf = descend_leaf t.root k kn in
    let i = lower_bound leaf.lnorms leaf.lkeys leaf.ln k kn in
    if hit leaf i k kn then Some leaf.lvals.(i)
    else begin
      (match on_node with Some f -> f (W (leaf, leaf.version)) | None -> ());
      None
    end

  let mem t k = Option.is_some (find t k)

  (* Grow backing arrays if full, using the incoming binding as fill. A
     leaf starts at one slot: tables of one row (one per reactor) are the
     common case, and splits still happen at [leaf_cap]. *)
  let ensure_leaf_capacity leaf k kn v =
    let cap = Array.length leaf.lkeys in
    if cap = 0 then begin
      leaf.lkeys <- [| k |];
      leaf.lnorms <- [| kn |];
      leaf.lvals <- [| v |]
    end
    else if leaf.ln = cap then begin
      let newcap = Stdlib.min leaf_cap (cap * 2) in
      let ks = Array.make newcap k in
      let ns = Array.make newcap kn in
      let vs = Array.make newcap v in
      Array.blit leaf.lkeys 0 ks 0 leaf.ln;
      Array.blit leaf.lnorms 0 ns 0 leaf.ln;
      Array.blit leaf.lvals 0 vs 0 leaf.ln;
      leaf.lkeys <- ks;
      leaf.lnorms <- ns;
      leaf.lvals <- vs
    end

  let leaf_insert_at leaf i k kn v =
    ensure_leaf_capacity leaf k kn v;
    let tail = leaf.ln - i in
    if tail > 0 then begin
      Array.blit leaf.lkeys i leaf.lkeys (i + 1) tail;
      Array.blit leaf.lnorms i leaf.lnorms (i + 1) tail;
      Array.blit leaf.lvals i leaf.lvals (i + 1) tail
    end;
    leaf.lkeys.(i) <- k;
    leaf.lnorms.(i) <- kn;
    leaf.lvals.(i) <- v;
    leaf.ln <- leaf.ln + 1;
    leaf.version <- leaf.version + 1

  (* The first [n] slots of [a] from [pos], in an array of [cap] slots. *)
  let sub_cap a pos n cap =
    let b = Array.make cap a.(pos) in
    Array.blit a pos b 0 n;
    b

  (* Split a full leaf; returns (separator, its word, right leaf). The right
     half gets full-size arrays: the insert that split the leaf, or a later
     one, would grow them to that at once. *)
  let split_leaf leaf ~append =
    let mid = leaf.ln / 2 in
    let rn = leaf.ln - mid in
    let right =
      {
        lkeys = sub_cap leaf.lkeys mid rn leaf_cap;
        lnorms = sub_cap leaf.lnorms mid rn leaf_cap;
        lvals = sub_cap leaf.lvals mid rn leaf_cap;
        ln = rn;
        version = 0;
        next = leaf.next;
        prev = Some leaf;
      }
    in
    (match leaf.next with Some n -> n.prev <- Some right | None -> ());
    leaf.next <- Some right;
    (* A split by an insert past the leaf's last key (every load, every
       appended order) leaves a left half that ascending inserts never
       return to: it keeps only its [mid] slots instead of holding twice its
       keys' memory. Other splits keep the capacity they will refill. *)
    if append then begin
      leaf.lkeys <- Array.sub leaf.lkeys 0 mid;
      leaf.lnorms <- Array.sub leaf.lnorms 0 mid;
      leaf.lvals <- Array.sub leaf.lvals 0 mid
    end;
    leaf.ln <- mid;
    leaf.version <- leaf.version + 1;
    (right.lkeys.(0), right.lnorms.(0), right)

  let split_internal inner =
    (* nchildren = internal_cap + 1 at this point. *)
    let midchild = inner.nchildren / 2 in
    (* Separator promoted upward is ikeys.(midchild - 1). *)
    let sep = inner.ikeys.(midchild - 1) in
    let sepn = inner.inorms.(midchild - 1) in
    let rchildren = inner.nchildren - midchild in
    let right =
      {
        ikeys = sub_cap inner.ikeys midchild (rchildren - 1) internal_cap;
        inorms = sub_cap inner.inorms midchild (rchildren - 1) internal_cap;
        children = sub_cap inner.children midchild rchildren (internal_cap + 1);
        nchildren = rchildren;
      }
    in
    inner.nchildren <- midchild;
    (sep, sepn, I right)

  (* Returns (previous binding, overflow split). *)
  let rec insert_node node k kn v =
    match node with
    | L leaf ->
      let i = lower_bound leaf.lnorms leaf.lkeys leaf.ln k kn in
      if hit leaf i k kn then begin
        let prev = leaf.lvals.(i) in
        leaf.lvals.(i) <- v;
        (Some prev, None)
      end
      else if leaf.ln >= leaf_cap then begin
        let sep, sepn, right = split_leaf leaf ~append:(i = leaf.ln) in
        let below_sep =
          sepn > kn || (sepn = kn && kn land 1 = 1 && K.compare k sep < 0)
        in
        let target = if below_sep then leaf else right in
        let j = lower_bound target.lnorms target.lkeys target.ln k kn in
        leaf_insert_at target j k kn v;
        (None, Some (sep, sepn, L right))
      end
      else begin
        leaf_insert_at leaf i k kn v;
        (None, None)
      end
    | I inner ->
      let ci = child_index inner k kn in
      let ((prev, split) as r) = insert_node inner.children.(ci) k kn v in
      (match split with
      | None -> r
      | Some (sep, sepn, rnode) ->
        (* Insert separator at position ci and child at ci+1. *)
        let tail = inner.nchildren - 1 - ci in
        Array.blit inner.ikeys ci inner.ikeys (ci + 1) tail;
        Array.blit inner.inorms ci inner.inorms (ci + 1) tail;
        Array.blit inner.children (ci + 1) inner.children (ci + 2) tail;
        inner.ikeys.(ci) <- sep;
        inner.inorms.(ci) <- sepn;
        inner.children.(ci + 1) <- rnode;
        inner.nchildren <- inner.nchildren + 1;
        if inner.nchildren > internal_cap then (prev, Some (split_internal inner))
        else (prev, None))

  let insert t k v =
    let prev, split = insert_node t.root k (K.norm k) v in
    (match split with
    | None -> ()
    | Some (sep, sepn, right) ->
      let children = Array.make (internal_cap + 1) right in
      children.(0) <- t.root;
      t.root <-
        I
          {
            ikeys = Array.make internal_cap sep;
            inorms = Array.make internal_cap sepn;
            children;
            nchildren = 2;
          });
    if prev = None then t.size <- t.size + 1;
    prev

  (* Unlink an emptied leaf from the leaf chain. Its version is bumped so
     that every witness of it fails: its key range now belongs to a
     neighbour, and an insert there would not bump this leaf. *)
  let unlink_leaf leaf =
    leaf.version <- leaf.version + 1;
    (match leaf.prev with Some p -> p.next <- leaf.next | None -> ());
    match leaf.next with Some n -> n.prev <- leaf.prev | None -> ()

  (* Drop child [ci] and one separator next to it: child 0's range goes to
     child 1, any other child's to its left neighbour. *)
  let remove_child inner ci =
    let si = if ci = 0 then 0 else ci - 1 in
    let ntail = inner.nchildren - 2 - si in
    Array.blit inner.ikeys (si + 1) inner.ikeys si ntail;
    Array.blit inner.inorms (si + 1) inner.inorms si ntail;
    Array.blit inner.children (ci + 1) inner.children ci (inner.nchildren - 1 - ci);
    inner.nchildren <- inner.nchildren - 1;
    (* the vacated slot must not keep the dropped leaf reachable *)
    inner.children.(inner.nchildren) <- inner.children.(0)

  (* Returns (previous binding, what became of [node]): [`Keep], [`Empty]
     (an emptied leaf, already unlinked from the chain; its parent drops
     it) or [`Collapse child] (an internal node left with one child, which
     takes its place). *)
  let rec delete_node node k kn =
    match node with
    | L leaf ->
      let i = lower_bound leaf.lnorms leaf.lkeys leaf.ln k kn in
      if hit leaf i k kn then begin
        let prev = leaf.lvals.(i) in
        let tail = leaf.ln - i - 1 in
        Array.blit leaf.lkeys (i + 1) leaf.lkeys i tail;
        Array.blit leaf.lnorms (i + 1) leaf.lnorms i tail;
        Array.blit leaf.lvals (i + 1) leaf.lvals i tail;
        leaf.ln <- leaf.ln - 1;
        leaf.version <- leaf.version + 1;
        (Some prev, if leaf.ln = 0 then `Empty else `Keep)
      end
      else (None, `Keep)
    | I inner -> (
      let ci = child_index inner k kn in
      let ((prev, _) as r) = delete_node inner.children.(ci) k kn in
      match snd r with
      | `Keep -> r
      | `Collapse child ->
        inner.children.(ci) <- child;
        (prev, `Keep)
      | `Empty ->
        (match inner.children.(ci) with L leaf -> unlink_leaf leaf | I _ -> ());
        remove_child inner ci;
        (prev, if inner.nchildren = 1 then `Collapse inner.children.(0) else `Keep))

  (* An emptied root leaf stays: it is the whole tree. *)
  let delete t k =
    let prev, fate = delete_node t.root k (K.norm k) in
    (match fate with `Collapse child -> t.root <- child | `Keep | `Empty -> ());
    if prev <> None then t.size <- t.size - 1;
    prev

  let note on_node leaf =
    match on_node with Some f -> f (W (leaf, leaf.version)) | None -> ()

  let range ?on_node ?lo ?hi t ~f =
    let lon = match lo with Some k -> K.norm k | None -> 0 in
    let hin = match hi with Some h -> K.norm h | None -> 0 in
    let start =
      match lo with
      | Some k -> descend_leaf t.root k lon
      | None -> leftmost_leaf t.root
    in
    (* Visit [leaf]'s slots from [i]; [false] once a key passes [hi] or [f]
       stops. One closure per scan, none per leaf. *)
    let rec scan leaf i =
      if i >= leaf.ln then true
      else
        let past =
          match hi with
          | Some h ->
            let w = Array.unsafe_get leaf.lnorms i in
            w > hin || (w = hin && hin land 1 = 1 && K.compare leaf.lkeys.(i) h > 0)
          | None -> false
        in
        (not past) && f leaf.lkeys.(i) leaf.lvals.(i) && scan leaf (i + 1)
    in
    let rec walk leaf i =
      note on_node leaf;
      if scan leaf i then
        match leaf.next with Some n -> walk n 0 | None -> ()
    in
    let i0 =
      match lo with
      | Some k -> lower_bound start.lnorms start.lkeys start.ln k lon
      | None -> 0
    in
    walk start i0

  let range_rev ?on_node ?lo ?hi t ~f =
    let lon = match lo with Some l -> K.norm l | None -> 0 in
    let hin = match hi with Some h -> K.norm h | None -> 0 in
    let start =
      match hi with
      | Some k -> descend_leaf t.root k hin
      | None -> rightmost_leaf t.root
    in
    let rec scan leaf i =
      if i < 0 then true
      else
        let past =
          match lo with
          | Some l ->
            let w = Array.unsafe_get leaf.lnorms i in
            w < lon || (w = lon && lon land 1 = 1 && K.compare leaf.lkeys.(i) l < 0)
          | None -> false
        in
        (not past) && f leaf.lkeys.(i) leaf.lvals.(i) && scan leaf (i - 1)
    in
    let rec walk leaf i =
      note on_node leaf;
      if scan leaf i then
        match leaf.prev with Some p -> walk p (p.ln - 1) | None -> ()
    in
    let i0 =
      match hi with
      | Some k -> upper_bound start.lnorms start.lkeys start.ln k hin - 1
      | None -> start.ln - 1
    in
    walk start i0

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
    let check_word what w k =
      if w <> K.norm k then fail "btree: %s word differs from K.norm" what
    in
    (* 1. Keys strictly ascending and words non-decreasing across the leaf
       chain; every word is its key's; count matches. *)
    let count = ref 0 in
    let last = ref None in
    let chain = ref [] in
    let rec walk_chain leaf =
      chain := leaf :: !chain;
      if leaf.ln = 0 && (match t.root with L l -> l != leaf | I _ -> true) then
        fail "btree: empty non-root leaf";
      for i = 0 to leaf.ln - 1 do
        let k = leaf.lkeys.(i) and w = leaf.lnorms.(i) in
        check_word "leaf" w k;
        (match !last with
        | Some (k', _) when K.compare k' k >= 0 ->
          fail "btree: keys not strictly ascending"
        | Some (_, w') when w' > w -> fail "btree: words decrease"
        | _ -> ());
        last := Some (k, w);
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
    let tree_leaves = ref [] in
    (* 2. Separator invariants: every key in child i is < sep i, keys in
       child i+1 are >= sep i, and the words agree. *)
    let rec check_node node lo hi =
      let in_bounds k w =
        (match lo with
        | Some (l, lw) -> K.compare l k <= 0 && lw <= w
        | None -> true)
        &&
        match hi with Some (h, hw) -> K.compare k h < 0 && w <= hw | None -> true
      in
      match node with
      | L leaf ->
        tree_leaves := leaf :: !tree_leaves;
        for i = 0 to leaf.ln - 1 do
          if not (in_bounds leaf.lkeys.(i) leaf.lnorms.(i)) then
            fail "btree: leaf key outside separator bounds"
        done
      | I inner ->
        if inner.nchildren < 2 then fail "btree: internal with < 2 children";
        for i = 0 to inner.nchildren - 2 do
          check_word "separator" inner.inorms.(i) inner.ikeys.(i)
        done;
        let sep i = Some (inner.ikeys.(i), inner.inorms.(i)) in
        for i = 0 to inner.nchildren - 1 do
          let lo' = if i = 0 then lo else sep (i - 1) in
          let hi' = if i = inner.nchildren - 1 then hi else sep i in
          check_node inner.children.(i) lo' hi'
        done
    in
    check_node t.root None None;
    (* 3. The leaf chain links exactly the tree's leaves, in order. *)
    if not (List.equal ( == ) !tree_leaves !chain) then
      fail "btree: leaf chain differs from the tree's leaves"
end
