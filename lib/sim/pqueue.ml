(* Structure-of-arrays binary heap: slot [i] is the entry
   (times.(i), seqs.(i), payloads.(i)). Pushing and popping move slots with
   a hole instead of swapping, and allocate nothing except on growth. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable n : int;
}

let create () =
  { times = Float.Array.create 0; seqs = [||]; payloads = [||]; n = 0 }

let is_empty t = t.n = 0
let size t = t.n

let[@inline] before (t1 : float) s1 (t2 : float) s2 =
  t1 < t2 || (t1 = t2 && s1 < s2)

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

(* The pushed payload fills the new slots, so no dummy value is needed. *)
let grow t fill =
  let cap = Stdlib.max 16 (2 * t.n) in
  let times = Float.Array.create cap in
  Float.Array.blit t.times 0 times 0 t.n;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.n;
  let payloads = Array.make cap fill in
  Array.blit t.payloads 0 payloads 0 t.n;
  t.times <- times;
  t.seqs <- seqs;
  t.payloads <- payloads

let push t ~time ~seq payload =
  if t.n = Array.length t.seqs then grow t payload;
  let i = ref t.n in
  t.n <- t.n + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let p = (!i - 1) / 2 in
    if before time seq (Float.Array.unsafe_get t.times p) (Array.unsafe_get t.seqs p)
    then begin
      move t ~src:p ~dst:!i;
      i := p
    end
    else rising := false
  done;
  Float.Array.unsafe_set t.times !i time;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.payloads !i payload

let min_time t =
  if t.n = 0 then invalid_arg "Pqueue.min_time: empty";
  Float.Array.unsafe_get t.times 0

let pop t =
  if t.n = 0 then invalid_arg "Pqueue.pop: empty";
  let top = Array.unsafe_get t.payloads 0 in
  let n = t.n - 1 in
  t.n <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root's hole. *)
    let time = Float.Array.unsafe_get t.times n and seq = Array.unsafe_get t.seqs n in
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if r < n
             && before (Float.Array.unsafe_get t.times r) (Array.unsafe_get t.seqs r)
                  (Float.Array.unsafe_get t.times l) (Array.unsafe_get t.seqs l)
          then r
          else l
        in
        if before (Float.Array.unsafe_get t.times c) (Array.unsafe_get t.seqs c) time seq
        then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    move t ~src:n ~dst:!i;
    (* Overwrite the vacated slot with a live payload so the heap does not
       retain the last entry's payload after it is popped. *)
    Array.unsafe_set t.payloads n (Array.unsafe_get t.payloads 0)
  end;
  top
