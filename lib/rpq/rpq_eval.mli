(** RPQ evaluation via the product construction (Sections 3.1.1 and 6.2).

    [⟦R⟧_G = { (u,v) | some path from u to v has elab(p) ∈ L(R) }].

    Every evaluation has a [*_bounded] form taking a {!Governor.t}: it
    charges one step per product-edge relaxation and one result per
    answer, and returns what was computed when a budget trips instead of
    running on.  The unbounded functions are the bounded ones under
    {!Governor.unlimited}.

    Multi-source entry points ([pairs], [pairs_nfa] and their bounded
    forms) run the bit-parallel kernel ({!Rpq_bitset}) and take an
    optional [?pool]: when given, 63-source blocks are distributed
    across that {!Pool}'s domains; when omitted, the default pool is
    used but only once the estimated work (blocks × product edges) is
    large enough to amortize domain spawns.  Results are
    identical to serial evaluation; under a result budget the kept
    subset may differ across widths but stays within the
    Complete/Partial contract.

    Every entry point also takes an optional [?obs] telemetry sink
    (default {!Obs.none}, one branch of cost): multi-source entry
    points record [rpq.sources], [rpq.states_visited], [rpq.answers]
    and the kernel's [rpq.bitset.*] counters inside [rpq.eval] /
    [rpq.bfs] / [rpq.merge] spans; single-source walks record
    [rpq.product_transitions] instead of the [rpq.bitset.*] counters
    (plus whatever {!Product.make} and {!Pool} record). *)

(** [pairs g r] computes ⟦R⟧_G (Example 12).  Polynomial: one
    level-synchronous product-graph BFS per block of 63 source nodes. *)
val pairs : ?pool:Pool.t -> ?obs:Obs.t -> Elg.t -> Sym.t Regex.t -> (int * int) list

val pairs_bounded :
  ?pool:Pool.t -> ?obs:Obs.t ->
  Governor.t -> Elg.t -> Sym.t Regex.t -> (int * int) list Governor.outcome

(** Nodes reachable from [src] along a matching path: an on-the-fly
    walk of the product ({!Rpq_walk}) that never builds it, so the cost
    is what [src] reaches. *)
val from_source : ?obs:Obs.t -> Elg.t -> Sym.t Regex.t -> src:int -> int list

val from_source_bounded :
  ?obs:Obs.t ->
  Governor.t -> Elg.t -> Sym.t Regex.t -> src:int -> int list Governor.outcome

(** Membership of a single pair.  Early-exits: the kernel's probe
    ({!Rpq_bitset.check}) stops at the first level that reaches an
    accepting [(tgt, q)] state instead of computing the full reachable
    set. *)
val check : Elg.t -> Sym.t Regex.t -> src:int -> tgt:int -> bool

val check_bounded :
  ?obs:Obs.t ->
  Governor.t -> Elg.t -> Sym.t Regex.t -> src:int -> tgt:int ->
  bool Governor.outcome

(** As {!pairs} but reusing a compiled automaton. *)
val pairs_nfa : ?pool:Pool.t -> ?obs:Obs.t -> Elg.t -> Sym.t Nfa.t -> (int * int) list

val pairs_nfa_bounded :
  ?pool:Pool.t -> ?obs:Obs.t ->
  Governor.t -> Elg.t -> Sym.t Nfa.t -> (int * int) list Governor.outcome

(** As {!pairs_nfa_bounded} over a prebuilt product graph — the entry
    point the compilation cache uses to skip both automaton and product
    construction on warm requests.  When [?pool] is omitted the adaptive
    policy ({!Par_policy}) picks the width: serial below the work
    threshold, never more domains than hardware threads. *)
val pairs_product_bounded :
  ?pool:Pool.t -> ?obs:Obs.t ->
  Governor.t -> Product.t -> (int * int) list Governor.outcome

(** Stream the answers of a prebuilt product in globally sorted order
    without building the pair list: [f acc u v] per answer.  The fold
    walks the kernel's per-block emission buffers in place, so
    allocation beyond them is whatever [f] does. *)
val fold_pairs_product_gov :
  ?pool:Pool.t -> ?obs:Obs.t ->
  Governor.t -> Product.t -> init:'a -> f:('a -> int -> int -> 'a) -> 'a

(** Number of distinct answers, never materializing any (the kernel's
    count-only mode: O(blocks) allocation however many answers).  Under
    a result budget the count is the number of admitted answers. *)
val count_pairs_product_gov :
  ?pool:Pool.t -> ?obs:Obs.t -> Governor.t -> Product.t -> int

val count_pairs_product_bounded :
  ?pool:Pool.t -> ?obs:Obs.t -> Governor.t -> Product.t -> int Governor.outcome

val count_pairs_bounded :
  ?pool:Pool.t -> ?obs:Obs.t ->
  Governor.t -> Elg.t -> Sym.t Regex.t -> int Governor.outcome

val count_pairs : ?pool:Pool.t -> ?obs:Obs.t -> Elg.t -> Sym.t Regex.t -> int

(** A shortest matching path from [src] to [tgt], if any (BFS in G×). *)
val shortest_witness : Elg.t -> Sym.t Regex.t -> src:int -> tgt:int -> Path.t option

val shortest_witness_bounded :
  Governor.t -> Elg.t -> Sym.t Regex.t -> src:int -> tgt:int ->
  Path.t option Governor.outcome

(** Naive reference evaluation: enumerate all paths of length at most
    [max_len] and test elab(p) against the regex.  Exponential; a test
    oracle for the product construction. *)
val pairs_naive : Elg.t -> Sym.t Regex.t -> max_len:int -> (int * int) list

val pairs_naive_bounded :
  Governor.t -> Elg.t -> Sym.t Regex.t -> max_len:int ->
  (int * int) list Governor.outcome
