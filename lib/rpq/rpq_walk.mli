(** Single-source RPQ evaluation by walking the product on the fly
    (Section 6.2, and the NL algorithm of Foundations).

    For one source only the part of G×A reachable from [(src, q0)]
    matters, so nothing is materialized: a per-query move table maps
    (automaton state, label id) to target states, and a BFS over the
    graph's CSR out-spans generates each product successor when it is
    needed.  A query costs the table — O(|δ| · labels), the same symbol
    matching {!Product.make} does — plus what the search reaches, never
    the whole product.

    Product states are numbered as in {!Product}: [v * nb_automaton_states
    + q], and successors come in {!Product.iter_out}'s order (graph
    edges in declaration order, then matching transitions in δ order), so
    a walk visits states, charges steps and trips budgets exactly as a
    BFS over the built product does.

    Search scratch (stamped visited/queue/target arrays) is kept per
    domain and grown only when a larger [n · |Q|] arrives: a walk
    allocates nothing proportional to the graph. *)

type t

(** [make g nfa] — the move table of [nfa] over [g]'s label table. *)
val make : Elg.t -> Sym.t Nfa.t -> t

val nb_automaton_states : t -> int

(** [targets gov w ~src] — the graph nodes reached from [src] in an
    accepting state, ascending and unique.  One governor step per
    product edge relaxed (a popped state's whole successor count is
    charged before any is visited); answers are {e not} admitted through
    {!Governor.emit} — the caller applies {!Governor.take_results}.
    Checks the [rpq.bfs.step] failpoint once and records
    [rpq.sources], [rpq.product_transitions] and [rpq.states_visited]
    into [obs]. *)
val targets : ?obs:Obs.t -> Governor.t -> t -> src:int -> int list

(** [iter_succ w s f] calls [f edge s'] for every product edge out of
    state [s], in {!Product.iter_out}'s order. *)
val iter_succ : t -> int -> (int -> int -> unit) -> unit

(** [initials w ~src] — the product states [(src, q0)], one per initial
    automaton state. *)
val initials : t -> src:int -> int list

(** [is_final w s] — is [s]'s automaton component accepting? *)
val is_final : t -> int -> bool

(** [with_distances gov w ~src ~tgt f] runs a BFS from [src]'s initial
    states that stops once the level first reaching an accepting
    [(tgt, q)] state is complete, then calls [f ~best ~dist]: [best] is
    that level's depth ([-1] when no such state was reached) and
    [dist s] is [s]'s BFS depth, or [-1] for a state the search did not
    reach.  Every state at depth [<= best] is discovered.  Charges one
    step per product edge relaxed, as {!targets} does, and adds them to
    [expanded].  [dist] reads the walk's scratch: it is valid only
    inside [f]. *)
val with_distances :
  ?expanded:(int -> unit) ->
  Governor.t -> t -> src:int -> tgt:int ->
  (best:int -> dist:(int -> int) -> 'a) -> 'a
