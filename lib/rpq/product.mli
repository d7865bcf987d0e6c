(** The product graph G× of an edge-labeled graph and an NFA
    (Section 6.2).

    Nodes of G× are pairs (graph node, automaton state); edges pair a graph
    edge with a matching transition.  A path from [(u, q0)] to [(v, q)]
    with [q] accepting witnesses that the path's projection matches the
    RPQ, so RPQ evaluation reduces to reachability, shortest paths to BFS,
    and path enumeration to path enumeration in G× (Sections 6.2–6.4). *)

type t

(** [obs]: the construction runs inside a [product.build] span and
    records [product.states] / [product.edges]. *)
val make : ?obs:Obs.t -> Elg.t -> Sym.t Nfa.t -> t

val graph : t -> Elg.t
val nfa : t -> Sym.t Nfa.t

(** [repoint p g] is [p] over snapshot [g]: the same states, successor
    arrays, finals and (lazily built) reverse CSR, shared rather than
    copied, with {!graph} answering [g] — so the snapshot [p] was built
    on is no longer referenced through the result.  Valid only when [g]
    has [p]'s node set and every edge [p]'s automaton can traverse is
    unchanged between the two snapshots (the delta-migration condition
    of {!Rpq_compile.apply_delta}).  The edge ids of {!csr_edge},
    {!iter_out} and {!out} still name edges of the {e build} snapshot,
    which a delta may renumber: callers of a repointed product read
    only states and successors.  Raises [Invalid_argument] when the
    node counts differ. *)
val repoint : t -> Elg.t -> t
val nb_states : t -> int

(** [state p ~node ~q] encodes a product node. *)
val state : t -> node:int -> q:int -> int

(** [decode p s] is [(node, q)]. *)
val decode : t -> int -> int * int

(** Outgoing product edges: [(graph_edge, successor_state)].  A list
    view over the CSR storage, rebuilt per call; hot loops should use
    {!iter_out} instead. *)
val out : t -> int -> (int * int) list

(** Allocation-free iteration: [f graph_edge successor_state] per product
    edge, in the same order as {!out}. *)
val iter_out : t -> int -> (int -> int -> unit) -> unit

val out_degree : t -> int -> int

(** [out_span t s] is [(lo, hi)]: state [s]'s product edges are
    [(csr_edge t i, csr_succ t i)] for [lo <= i < hi]. *)
val out_span : t -> int -> int * int

val csr_edge : t -> int -> int
val csr_succ : t -> int -> int

(** The raw CSR arrays backing {!out_span}/{!csr_succ}: [(off, succ)],
    for kernel hot loops that cannot afford a call and a pair allocation
    per popped state.  Aliases into the product, not copies — callers
    must not mutate them. *)
val csr : t -> int array * int array

(** Product nodes [(u, q0)] for every initial automaton state. *)
val initials_at : t -> int -> int list

val nb_automaton_states : t -> int

(** Accepting automaton-state ids, ascending: product state
    [v * nb_automaton_states + q] is {!is_final} iff [q] is listed. *)
val final_qs : t -> int array

(** Is the automaton component accepting? *)
val is_final : t -> int -> bool

(** Number of materialized product edges (for size reporting). *)
val nb_product_edges : t -> int

(** Reverse CSR (pull adjacency): [(rin_off, rin_pred)] where state
    [s]'s predecessors are [rin_pred.(i)] for
    [rin_off.(s) <= i < rin_off.(s + 1)], one entry per product edge.
    Built lazily on first use (one counting-sort pass over the forward
    arrays, thread-safe) and cached for the product's lifetime, so the
    plan cache keeps it warm per graph generation.  Aliases, not copies —
    callers must not mutate. *)
val rev_csr : t -> int array * int array
