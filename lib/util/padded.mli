(** Atomics with a cache line to themselves.

    Two domains that write atomics lying in the same cache line make the
    line bounce between their cores even when each writes only its own
    cell (false sharing), and where the allocator places a counter then
    sets how fast both domains run. A padded atomic is a block of 16
    words with the cell in field 0, so the 15 words after it keep every
    later block off its line. This is what OCaml 5.2's
    [Atomic.make_contended] does; 5.1 has no such call. *)

(** [atomic v] is a fresh atomic holding [v], padded to 16 words. Every
    [Atomic] operation works on it unchanged. *)
val atomic : 'a -> 'a Atomic.t
