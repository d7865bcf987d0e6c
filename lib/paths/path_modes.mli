(** Path modes (Sections 3.1.5 and 6.3).

    GQL and SQL/PGQ restrict matched paths to keep outputs finite; the
    paper's l-CRPQs use the four modes below.  [All] is only finite on
    acyclic product graphs, so its enumeration takes an explicit length
    bound.  Finding a simple path or trail matching an RPQ is NP-complete
    in general (Section 6.3), and the implementations here are indeed
    worst-case exponential searches over the product graph — experiment E5
    measures exactly this contrast. *)

type mode = Shortest | Simple | Trail | All

val mode_to_string : mode -> string

(** Every search below also has a [*_bounded] form taking a
    {!Governor.t}: one step is charged per product-edge extension, one
    result per emitted path, and exhaustion returns the paths found so
    far as a [Partial] outcome — these NP-hard searches are the paper's
    canonical blow-up (experiment E5), so the governor is what makes
    them safe to expose. *)

(** [enumerate g r ~mode ~max_len ~src ~tgt] lists matching node-to-node
    paths from [src] to [tgt] under [mode].  [max_len] bounds [All] (and
    acts as a safety bound for the others; simple paths and trails are
    intrinsically bounded by the graph size). *)
val enumerate :
  Elg.t ->
  Sym.t Regex.t ->
  mode:mode ->
  max_len:int ->
  src:int ->
  tgt:int ->
  Path.t list

(** [?obs] (on the bounded forms) records [paths.expansions]
    (product-edge extensions tried by the search) and [paths.emitted],
    inside a [paths.eval] span. *)
val enumerate_bounded :
  ?obs:Obs.t ->
  Governor.t ->
  Elg.t ->
  Sym.t Regex.t ->
  mode:mode ->
  max_len:int ->
  src:int ->
  tgt:int ->
  Path.t list Governor.outcome

(** All shortest matching paths (the full geodesic set, not just one
    witness).  The BFS layers come from an on-the-fly walk of the
    product over the minimized DFA ({!Rpq_walk.with_distances}), which
    stops once the first level reaching [tgt] in an accepting state is
    complete; no product is built. *)
val shortest : Elg.t -> Sym.t Regex.t -> src:int -> tgt:int -> Path.t list

val shortest_bounded :
  ?obs:Obs.t ->
  Governor.t -> Elg.t -> Sym.t Regex.t -> src:int -> tgt:int ->
  Path.t list Governor.outcome

(** Matching paths in length order, lazily: the enumeration-algorithms
    view of Section 6.4.  Stops after [max_len] (paths can repeat states,
    so the sequence may otherwise be infinite). *)
val in_length_order :
  Elg.t -> Sym.t Regex.t -> max_len:int -> src:int -> tgt:int -> Path.t Seq.t

(** The [k] shortest matching paths (ties beyond [k] are cut in
    deterministic order) — the Eppstein-style primitive Section 7.1 points
    to for future evaluation algorithms.  Exact but worst-case exponential
    (it enumerates level by level); [max_len] caps the search. *)
val k_shortest :
  Elg.t -> Sym.t Regex.t -> k:int -> max_len:int -> src:int -> tgt:int ->
  Path.t list

(** [count ~mode] without materializing the paths. *)
val count :
  Elg.t ->
  Sym.t Regex.t ->
  mode:mode ->
  max_len:int ->
  src:int ->
  tgt:int ->
  Nat_big.t

val count_bounded :
  ?obs:Obs.t ->
  Governor.t ->
  Elg.t ->
  Sym.t Regex.t ->
  mode:mode ->
  max_len:int ->
  src:int ->
  tgt:int ->
  Nat_big.t Governor.outcome

(** Does {e some} simple path (resp. trail) from [src] to [tgt] match?
    The NP-complete decision problems of Section 6.3. *)
val exists_simple : Elg.t -> Sym.t Regex.t -> src:int -> tgt:int -> bool

val exists_trail : Elg.t -> Sym.t Regex.t -> src:int -> tgt:int -> bool

val exists_simple_bounded :
  Governor.t -> Elg.t -> Sym.t Regex.t -> src:int -> tgt:int ->
  bool Governor.outcome

val exists_trail_bounded :
  Governor.t -> Elg.t -> Sym.t Regex.t -> src:int -> tgt:int ->
  bool Governor.outcome
