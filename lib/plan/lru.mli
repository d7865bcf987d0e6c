(** A small LRU cache with generation tags.

    Backing store for the compilation and product caches: bounded
    capacity, least-recently-used eviction, and a per-entry generation
    tag so a whole generation can be invalidated in one call (the serve
    session bumps the generation on every [load]).  All operations are
    guarded by a mutex; recency is a monotone tick, eviction scans the
    (small) table for the minimum — O(capacity), which is fine at the
    capacities used here. *)

type ('k, 'v) t

(** [create ~capacity ()] — capacity is clamped to at least 1. *)
val create : capacity:int -> unit -> ('k, 'v) t

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

(** [find t k] returns the cached value and bumps its recency.
    Counts a hit or a miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [peek t k] is {!find} without touching recency or counters. *)
val peek : ('k, 'v) t -> 'k -> 'v option

(** [add t ~gen k v] inserts (replacing any previous binding of [k]),
    evicting the least-recently-used entry when at capacity. *)
val add : ('k, 'v) t -> gen:int -> 'k -> 'v -> unit

(** [drop_generations_except t gen] removes every entry whose generation
    differs from [gen]; returns how many were dropped (also accumulated
    in {!invalidated}). *)
val drop_generations_except : ('k, 'v) t -> int -> int

(** [sweep t ~f] visits every entry and applies [f]'s verdict: keep it,
    drop it (counted into {!invalidated}), or move it to a new key and
    generation with a replacement value, preserving its recency — how
    delta application migrates still-valid product-cache entries to the
    new graph id (re-pointed at the new snapshot) instead of rebuilding
    them.  Returns [(dropped, rekeyed)]. *)
val sweep :
  ('k, 'v) t ->
  f:('k -> 'v -> [ `Keep | `Drop | `Rekey of 'k * int * 'v ]) ->
  int * int

val clear : ('k, 'v) t -> unit

(** {1 Counters} — monotone over the cache's lifetime. *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
val invalidated : ('k, 'v) t -> int
