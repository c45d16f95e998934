(** CRC-32 (IEEE, as in zlib/Ethernet) over strings, for detecting torn or
    corrupted log records. *)

(** [crc32 ?init s] — checksum of [s]; pass a previous checksum as [init] to
    extend it over concatenated data. Result is in [0, 0xFFFFFFFF]. *)
val crc32 : ?init:int -> string -> int

(** [crc32_sub ?init s ~pos ~len] — checksum of the [len] bytes of [s]
    starting at [pos], without copying them; equal to
    [crc32 ?init (String.sub s pos len)]. Raises [Invalid_argument] if the
    range is not inside [s]. *)
val crc32_sub : ?init:int -> string -> pos:int -> len:int -> int

(** Fixed-width lowercase hex rendering of {!crc32}. *)
val crc32_hex : string -> string
