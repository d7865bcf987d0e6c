(** Cached RPQ compilation pipeline: query text → AST → Glushkov NFA →
    product graph, each stage memoized.

    Query-only artifacts live in a {!Plan_cache.t} (never invalidated);
    graph-dependent artifacts — product graphs and reversed graphs — are
    keyed by {!Elg.id} and generation-invalidated: {!set_generation}
    (called by the serve session on [load]) drops every entry built
    against another graph.  The caches make warm multi-source requests
    skip parse, Glushkov, and product construction entirely; E20
    measures the resulting speedup.  Single-source requests use only the
    query-only artifacts: they walk the product on the fly instead.
    Cached answers are pinned equal to cold evaluation against fresh
    caches by the test suite. *)

type t

(** [create ()] — [capacity] bounds the product/reversed-graph caches
    (default 64); [plans] defaults to a fresh {!Plan_cache.create}. *)
val create : ?capacity:int -> ?plans:Plan_cache.t -> unit -> t

(** Process-wide instance (shares {!Plan_cache.shared}). *)
val shared : t

val plans : t -> Plan_cache.t

(** Parse and compile concrete RPQ syntax, cached under flags ["rpq"]. *)
val compile :
  ?obs:Obs.t -> t -> string -> (Plan_cache.compiled, Gq_error.t) result

(** Compile an already-parsed regex (CRPQ atom dedup). *)
val compile_ast : ?obs:Obs.t -> t -> Sym.t Regex.t -> Plan_cache.compiled

(** [product t g c] — the product of [g] with [c]'s NFA, cached by
    (graph id, query key).  [obs] counts [plan.product.hit] /
    [plan.product.miss]. *)
val product : ?obs:Obs.t -> t -> Elg.t -> Plan_cache.compiled -> Product.t

(** [product_rev t g c] — the product of the {e reversed} graph with the
    {e reversed} regex's NFA: BFS over it explores matching paths
    backward from their targets. *)
val product_rev : ?obs:Obs.t -> t -> Elg.t -> Plan_cache.compiled -> Product.t

(** The edge-reversed twin of [g] ({!Elg.reverse}: same nodes, labels
    and names, src/tgt swapped), cached by graph id. *)
val reversed_graph : t -> Elg.t -> Elg.t

(** Is the forward product for this compiled query already cached?
    (No recency bump; for EXPLAIN output.) *)
val product_cached : t -> Elg.t -> Plan_cache.compiled -> bool

(** [set_generation t gen] — drop graph-dependent entries whose graph id
    differs from [gen]; serve calls this with [Elg.id g] on [load]. *)
val set_generation : t -> int -> unit

val generation : t -> int

(** [apply_delta t ~old_graph ~new_graph ~touched_labels ~nodes_stable]
    — fine-grained invalidation for a delta from [old_graph] to
    [new_graph]: cached forward products whose queries mention only
    labels disjoint from [touched_labels] (and no wildcard/negated
    symbol) stay warm, migrated to the new graph id and re-pointed at
    [new_graph] ({!Product.repoint}), so the cache never keeps
    [old_graph] alive.  Valid because cached evaluation reads only the
    product's states, successors and embedded graph, never its edge ids
    (which stay those of the build snapshot), and with the node set
    unchanged ([nodes_stable]) and no traversable edge touched its
    answers on the new graph are unchanged.  Every other forward entry
    from [old_graph] drops ([plan.invalidated_by_label] /
    [plan.retained] count the split); reversed products and reversed
    graphs always drop.  Serialized with {!set_generation} under the
    same lock. *)
val apply_delta :
  ?obs:Obs.t ->
  t ->
  old_graph:Elg.t ->
  new_graph:Elg.t ->
  touched_labels:string list ->
  nodes_stable:bool ->
  unit

(** Entries dropped by {!apply_delta} because their labels intersected a
    delta (or they could not be proven disjoint). *)
val invalidated_by_label : t -> int

(** Entries migrated warm across a delta by {!apply_delta}. *)
val retained : t -> int

(** {1 Cached evaluation} *)

(** [pairs_bounded t gov g c] — ⟦c⟧_g through the caches, picking the
    evaluation direction with the planner: backward evaluation runs the
    reversed product and swaps the pairs back.  [~planner:false] always
    runs forward — the reference the tests compare against.  Answers are
    always identical to {!Rpq_eval.pairs_bounded}. *)
val pairs_bounded :
  ?pool:Pool.t -> ?obs:Obs.t -> ?planner:bool ->
  t -> Governor.t -> Elg.t -> Plan_cache.compiled ->
  (int * int) list Governor.outcome

(** [from_source_bounded t gov g c ~src] — reachable targets, by an
    on-the-fly walk of the product ({!Rpq_walk}) over [c]'s cached
    automaton: the cost is what [src] reaches, and the product cache is
    neither read nor filled. *)
val from_source_bounded :
  ?obs:Obs.t ->
  t -> Governor.t -> Elg.t -> Plan_cache.compiled -> src:int ->
  int list Governor.outcome

(** [from_source_batch t gov g c ~srcs] — reachable targets for every
    source in [srcs], as one evaluation: the bitset kernel packs the
    whole batch into one multi-source traversal over the cached product
    (serve-mode request coalescing).  [srcs.(i)]'s targets are at index
    [i], sorted ascending —
    each row sliced straight from the kernel's per-source emission
    buffer (no list rebuild).  One governor spans the batch. *)
val from_source_batch :
  ?pool:Pool.t ->
  ?obs:Obs.t ->
  t -> Governor.t -> Elg.t -> Plan_cache.compiled -> srcs:int array ->
  int array array Governor.outcome

(** [count_pairs_bounded t gov g c] — |⟦c⟧_g| through the caches via the
    kernel's count-only mode: no answer is ever materialized (O(blocks)
    allocation).  Under a result budget the count is the number of
    admitted answers, exactly as {!pairs_bounded} would have kept. *)
val count_pairs_bounded :
  ?pool:Pool.t -> ?obs:Obs.t ->
  t -> Governor.t -> Elg.t -> Plan_cache.compiled -> int Governor.outcome

(** {1 Counters} (monotone; plan-cache counters via {!plans}) *)

val product_hits : t -> int
val product_misses : t -> int
val product_entries : t -> int
val invalidated : t -> int
