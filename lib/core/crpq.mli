(** Conjunctive regular path queries (Section 3.1.2).

    [q(x1..xk) :- R1(y1,y1'), ..., Rn(yn,yn')] with node homomorphism
    semantics: output tuples are images of the head variables under
    mappings h with [(h(yi), h(yi')) ∈ ⟦Ri⟧_G] for every atom.

    Following footnote 3, atom endpoints may also be constants (graph
    nodes), which map to themselves. *)

type term = TVar of string | TConst of string  (** variable or node name *)

type atom = { re : Sym.t Regex.t; x : term; y : term }
type t

(** Raises [Invalid_argument] if the query is unsafe (a head variable not
    appearing as an endpoint) or has no atoms. *)
val make : head:string list -> atoms:atom list -> t

val head : t -> string list
val atoms : t -> atom list

(** Output tuples (rows of node identifiers), set semantics, sorted.
    [?pool] parallelizes the per-atom RPQ materialization (see
    {!Rpq_eval.pairs}); the join itself stays serial.

    [?planner] (default [true]) selects the cost-based plan: atoms are
    ordered by estimated selectivity via {!Planner}, and an atom whose
    endpoint is already bound (by earlier atoms or a constant) is
    evaluated as a per-binding BFS probe — forward from the
    bound source, or backward over the reversed graph from the bound
    target — instead of materializing its full relation.  With
    [~planner:false], atoms run in query order, all materialized: the
    left-to-right reference.  Both modes return identical answers
    (pinned by [test_plan]).  Identical atom regexes are compiled and
    materialized once per query either way.

    [?obs] records [crpq.atom_pairs] (materialized pairs per atom),
    [crpq.join_candidates] (pairs considered by the nested-loop join),
    [crpq.probes] (per-binding BFS probes), [crpq.atom_dedup] (repeated
    atom regexes served from the per-query memo), [crpq.est_card] /
    [crpq.actual_card] (planner estimates vs. materialized sizes) and
    [crpq.rows] (assignments emitted), inside [crpq.eval] /
    [crpq.atoms] / [crpq.join] spans. *)
val eval :
  ?pool:Pool.t -> ?obs:Obs.t -> ?planner:bool -> Elg.t -> t -> int list list

(** As {!eval} under a governor: one step per candidate pair considered
    in the join, one result per satisfying assignment.  An assignment is
    counted only once it satisfies every atom, so a [Partial] outcome is
    always a subset of the unbounded answer. *)
val eval_bounded :
  ?pool:Pool.t -> ?obs:Obs.t -> ?planner:bool ->
  Governor.t -> Elg.t -> t -> int list list Governor.outcome

(** Boolean evaluation: is the output non-empty? *)
val holds : Elg.t -> t -> bool

(** All satisfying assignments over every endpoint variable (not just the
    head); used by the l-CRPQ layer and by tests. *)
val homomorphisms :
  ?pool:Pool.t -> ?obs:Obs.t -> ?planner:bool ->
  Elg.t -> t -> (string * int) list list

(** The atom in the {!Planner}'s vocabulary (shared with {!Crpq_wcoj}). *)
val to_planner_atom : atom -> Planner.atom

(** The static plan, without evaluating anything: atoms in execution
    order, each with its {!Planner.atom_plan} and execution mode
    (["materialize-forward"], ["materialize-backward"],
    ["probe-forward"] or ["probe-backward"]) — the payload of the serve
    [plan] command.  The [index] fields are a permutation of the query's
    atom positions. *)
val explain : Elg.t -> t -> (Planner.atom_plan * string) list

(** Alternative engine: evaluate each atom to a binary relation and join
    with the relational-algebra substrate — the "relational operations
    over pattern matching" pipeline of Sections 4 and 7.1.  Must agree
    with {!eval} (tested). *)
val eval_relational : Elg.t -> t -> Relation.t
