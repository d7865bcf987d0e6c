(** Bit-parallel, direction-optimizing multi-source RPQ kernel.

    Packs 63 sources per native word: product states carry word-packed
    visited/frontier bitsets, and one sweep advances every packed source
    at once — the all-pairs BFS as a blocked bit-matrix product over the
    boolean semiring.  The BFS is level-synchronous and switches
    per-level between *push* (scan frontier out-edges) and *pull* (scan
    incomplete states' in-edges over the reverse product CSR, gathering
    frontier bits with early exit) by a Beamer-style density heuristic.
    Blocks of 63 sources are distributed over a {!Pool}; budgets are
    charged one {!Governor.tick_many} per span scanned, and answers pass
    {!Governor.emit_many}, so Complete/Partial stays sound in both
    directions.

    Emission is node-ordered by construction (dense node scan or
    answered-bitmap walk) — per-source target buffers come out ascending
    and per-block outputs concatenate into the globally sorted answer
    list with no sort.  {!count_pairs} and {!check} never materialize
    answers at all. *)

val word_bits : int
(** Sources per word (63: an OCaml native int). *)

(** {1 Push/pull policy} *)

(** [Adaptive alpha] pulls on a level when
    [alpha * frontier_out_edges >= unexplored_out_edges + product_states];
    [Always_push]/[Always_pull] pin the direction: the references the
    differential tests and bench E25 compare the adaptive default against. *)
type pull_mode = Adaptive of int | Always_push | Always_pull

val default_pull_alpha : int

val pull_mode : unit -> pull_mode
(** The pinned mode if {!set_pull_mode} set one, else
    [Adaptive default_pull_alpha]. *)

val set_pull_mode : pull_mode -> unit
val clear_pull_mode : unit -> unit

(** {1 Evaluation} *)

val nb_blocks : int -> int
(** Number of 63-source blocks covering [n] sources. *)

val pairs_codes :
  ?obs:Obs.t ->
  pool:Pool.t ->
  width:int ->
  Governor.t ->
  Product.t ->
  cand:int array ->
  ncand:int ->
  Ibuf.t array
(** Evaluate all sources [cand.(0 .. ncand-1)] (ascending node ids) and
    return one buffer per block of answer codes [u * n + v], each sorted
    ascending — blocks concatenate in order into the globally sorted
    answer list with no further sort. *)

val count_pairs :
  ?obs:Obs.t ->
  pool:Pool.t ->
  width:int ->
  Governor.t ->
  Product.t ->
  cand:int array ->
  ncand:int ->
  int
(** Number of distinct [(source, target)] answers, without materializing
    any: allocation is O(blocks), pinned by the [rpq.bitset.materialized]
    counter staying at zero.  Result budgets still apply — the count is
    the number of answers the governor admitted. *)

val targets :
  ?obs:Obs.t ->
  ?pool:Pool.t ->
  Governor.t ->
  Product.t ->
  sources:int array ->
  int array array
(** Per-source reachable targets (sorted ascending), one packed run for
    all of [sources] — the serve-mode batching entry point; each row is
    a fresh array sliced straight from the kernel's per-source buffer.
    Without [?pool], width follows {!Par_policy.decide}, and the run is
    reported to {!Par_policy.record} for calibration. *)

val check :
  ?obs:Obs.t -> Governor.t -> Product.t -> src:int -> tgt:int -> bool
(** Single-source early-exit reachability (the first-k fast path):
    probes [tgt]'s accepting rows between levels and stops at the first
    hit — no answer materialization. *)
