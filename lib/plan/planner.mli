(** Cost-based CRPQ planner.

    Uses {!Stats} to (1) estimate the cardinality of each atom's RPQ by
    structural recursion over the regex, (2) pick a per-atom evaluation
    direction — forward BFS from sources or backward from targets over
    the reversed graph — and (3) greedily order atoms smallest estimated
    intermediate first, dividing estimates by already-bound endpoints
    and penalizing cross products.  Estimates are heuristics: they only
    steer ordering, never correctness (planned and default evaluation
    must agree, which [test_plan] pins against left-to-right order). *)

type endpoint = Var of string | Const of string

type atom = { re : Sym.t Regex.t; x : endpoint; y : endpoint }

type direction = Forward | Backward

type estimate = {
  card : float;  (** estimated result pairs *)
  sources : float;  (** estimated distinct sources *)
  targets : float;  (** estimated distinct targets *)
}

type atom_plan = {
  index : int;  (** position of the atom in the original query *)
  direction : direction;
  est : estimate;
  cost : float;  (** greedy score at selection time *)
}

type t = { order : atom_plan list  (** chosen execution order *) }

(** Cardinality/source/target estimate for one regex on the graph
    described by the statistics. *)
val estimate : Stats.t -> Sym.t Regex.t -> estimate

(** Direction for a standalone regex: [Backward] only when the estimated
    target side is clearly smaller than the source side. *)
val direction_of : Stats.t -> Sym.t Regex.t -> direction

(** [plan st atoms] — greedy selectivity order over all atoms.
    [order] is always a permutation of [0 .. List.length atoms - 1]. *)
val plan : Stats.t -> atom list -> t

(** Variables in first-appearance order along the planned atom order
    (the WCOJ variable elimination order). *)
val variable_order : atom list -> t -> string list

val direction_to_string : direction -> string
