(** Heap layout constants, matching the paper's defaults (§3, §5.1).

    Immix line size equals the PCM line size (256 B); blocks are 32 KB;
    small objects are at most 8 KB; requests to the OS are 4 KB pages. *)

val word : int
(** 8-byte words. *)

val header_bytes : int
(** Standard object header (type/status word). *)

val line : int
(** Immix line size = PCM line size = 256 B. *)

val block : int
(** Immix block size = 32 KB. *)

val lines_per_block : int

val page : int
(** OS page size = 4 KB. *)

val max_small_object : int
(** Objects above this (8 KB) go to the large object space. *)

val min_object : int
(** Smallest object: a header with no payload. *)

val small_mark_threshold : int
(** MDO: objects at most this size (16 B) keep their mark bit in the
    header rather than the DRAM mark table (§4.2.5). *)

val mark_table_bytes_per_region : int
(** MDO: DRAM mark-table bytes reserved per PCM region (262 KB). *)

val mature_region : int
(** MDO: PCM mature space reserves space this many bytes at a time
    (4 MB), each getting a DRAM mark table. *)

val align_up : int -> int -> int
(** [align_up x a] rounds [x] up to a multiple of [a] (a power of 2). *)

val align_object_size : int -> int
(** Round a requested payload+header size to word alignment, clamped to
    at least {!min_object}. *)
