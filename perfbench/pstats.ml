(* Order statistics and metric-name rules shared by every workload. *)

(* A percentile is reported only when at least this many samples lie
   beyond it; otherwise the tail it names is a handful of outliers. *)
let min_beyond = 10

let sorted_copy a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Nearest-rank percentile of an ascending array, [p] in (0, 100]. [None]
   unless [min_beyond] samples rank strictly above the one returned. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let rank = Stdlib.max 1 (Stdlib.min n rank) in
  if n = 0 || n - rank < min_beyond then None else Some sorted.(rank - 1)

let median = function
  | [] -> invalid_arg "Pstats.median: no values"
  | xs ->
    let a = sorted_copy (Array.of_list xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Metric names: start with a letter or digit, then letters, digits, [_],
   [.] and [-], at most 64 characters in all. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all ok_char s

(* Units: letters, digits, [_], [/], [%], [.] and [-], at most 16. *)
let valid_unit s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 16 && String.for_all ok_char s
