(** One level of set-associative write-back cache.

    Caches absorb most heap writes; only dirty-line evictions reach main
    memory, so modeling them faithfully is essential to reproducing the
    paper's PCM write counts (§6.1: caches "are the first line of
    defense in protecting PCM from writes").

    Each line carries a [tag] identifying the execution phase that last
    wrote it (application, nursery GC, observer GC, major GC). The paper
    modified Sniper the same way for Figure 10: "we modify the simulator
    to track which phase last wrote each cache line, since LRU policies
    evict lines to PCM or DRAM well after their last access". *)

type t

type writeback = { wb_addr : int; wb_tag : int }
(** A dirty line flushed by {!invalidate_all}: its block-aligned
    address and the phase tag that last wrote it. *)

val create : name:string -> size:int -> ways:int -> line_size:int -> latency_ns:float -> t
(** [size] must be divisible by [ways * line_size], and the number of
    sets must be a power of two. *)

val name : t -> string
val line_size : t -> int
val latency_ns : t -> float

val probe_fill : t -> addr:int -> write:bool -> tag:int -> int
(** [probe_fill t ~addr ~write ~tag] looks up the line containing
    [addr]; one scan over its set resolves the hit, the victim choice
    and the writeback. On a hit it updates LRU state and, for a write,
    the dirty bit and phase tag, and returns [0]. On a miss it fills
    the line in place, evicting the LRU way of the set, and returns [1]
    for a clean or invalid victim, or [2] for a dirty victim whose
    address and phase tag are published in {!last_wb_addr} and
    {!last_wb_tag}; the caller writes that victim to the next level.
    Never allocates. *)

val last_wb_addr : t -> int
(** Address of the dirty victim evicted by the last {!probe_fill} that
    returned [2]. Only meaningful immediately after that call. *)

val last_wb_tag : t -> int
(** Phase tag of that victim. *)

val bump_run : t -> addr:int -> count:int -> dirty:bool -> tag:int -> unit
(** Bulk update for the hierarchy's same-line run coalescer: apply the
    effect of [count] consecutive hits to the resident line containing
    [addr] — [count] hits counted, the LRU clock advanced by [count],
    the line restamped to the final clock value, and, if [dirty], the
    dirty bit set with [tag] as the (last) writer. Raises
    [Invalid_argument] if the line is not resident. *)

val prefetch_set : t -> addr:int -> unit
(** Issue the loads for [addr]'s set so its tag and meta lines are in
    flight while the caller does other work. Purely a host-side
    latency hint: simulator state is not modified. *)

val invalidate_all : t -> writeback list
(** Flush the cache, returning all dirty lines (used at simulation end
    to drain resident dirty data into the traffic counts). The list is
    ordered by ascending way index (set-major scan order), so drain
    writeback order is deterministic and documented. *)

(** Hit/miss/writeback counters. *)
type stats = { hits : int; misses : int; writebacks : int }

val stats : t -> stats
