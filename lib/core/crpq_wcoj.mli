(** Generic (worst-case-optimal-style) join evaluation for CRPQs.

    Section 7.1: "over the last decade we have seen impressive progress on
    worst-case optimal evaluation of conjunctive queries ... For CRPQs we
    have seen little progress so far".  This module is the natural first
    step the paper gestures at: evaluate every atom's RPQ to a binary
    relation (the pattern-matching layer), then join all atoms with a
    {e generic join} — variables are assigned one at a time, and each
    candidate set is the intersection of the constraints from every atom
    touching the variable — rather than with a fixed binary-join plan
    whose intermediate results can exceed the AGM bound.

    Benchmark E15 compares this against {!Crpq.eval}'s pairwise joins on
    triangle queries, where the intermediate-result gap is the classical
    worst case. *)

(** Same specification as {!Crpq.eval}.  [?pool] parallelizes the
    per-atom RPQ materialization; the generic join stays serial.

    [?planner] (default [true]) uses the {!Planner}'s first-appearance
    order along its selectivity-ordered atoms as the variable
    elimination order; [~planner:false] sorts the names instead, the
    reference the tests compare against.  Answers are identical either
    way.  Identical atom regexes are compiled and
    materialized once per query.

    [?obs] records [wcoj.index_pairs] (pairs materialized per atom
    index), [wcoj.atom_dedup] (repeated atom regexes served from the
    per-query memo), [wcoj.tuples_explored] (candidate extensions tried)
    and [wcoj.rows], inside [wcoj.eval] / [wcoj.index] spans. *)
val eval :
  ?pool:Pool.t -> ?obs:Obs.t -> ?planner:bool -> Elg.t -> Crpq.t -> int list list

(** As {!eval} under a governor: one step per explored tuple extension,
    one result per completed assignment; [Partial] outcomes are subsets
    of the unbounded answer. *)
val eval_bounded :
  ?pool:Pool.t -> ?obs:Obs.t -> ?planner:bool ->
  Governor.t -> Elg.t -> Crpq.t -> int list list Governor.outcome

(** Intermediate-result sizes: [(tuples_explored_generic,
    max_intermediate_binary)] for cost reporting in E15. *)
val compare_costs : Elg.t -> Crpq.t -> int * int
