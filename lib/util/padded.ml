(* An ['a Atomic.t] is a one-field block whose operations only touch
   field 0, so a larger block with the cell in field 0 serves as one.
   [Obj.new_block] fills the fields with [()], which the GC scans
   harmlessly. *)
let words = 16

let atomic (v : 'a) : 'a Atomic.t =
  let b = Obj.new_block 0 words in
  Obj.set_field b 0 (Obj.repr v);
  (Obj.obj b : 'a Atomic.t)
