(* CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Used by the WAL
   record framing to detect torn and corrupted log records. Computed in
   plain OCaml ints (the 32-bit value always fits).

   The table is built eagerly at module initialisation: a [lazy] forced
   from two domains at once raises [CamlinternalLazy.Undefined] under
   OCaml 5, and two executors encoding redo records (or an executor and
   the replica shipper) may take their first checksum at the same
   moment. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

(* Slicing-by-4: [t1], [t2], [t3] advance a byte's contribution by one,
   two and three further bytes, so four input bytes fold into the CRC with
   four independent lookups instead of a chain of four. *)
let next t = Array.map (fun c -> (c lsr 8) lxor table.(c land 0xFF)) t
let t1 = next table
let t2 = next t1
let t3 = next t2

let crc32_sub ?(init = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Checksum.crc32_sub";
  let c = ref (init lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop4 = pos + (len land lnot 3) in
  while !i < stop4 do
    let x = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    c :=
      Array.unsafe_get t3 (x land 0xFF)
      lxor Array.unsafe_get t2 ((x lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((x lsr 16) land 0xFF)
      lxor Array.unsafe_get table (x lsr 24);
    i := !i + 4
  done;
  for j = stop4 to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 ?init s = crc32_sub ?init s ~pos:0 ~len:(String.length s)

let crc32_hex s = Printf.sprintf "%08x" (crc32 s)
