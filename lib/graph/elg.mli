(** Edge-labeled graphs (Definition 4).

    A graph is a tuple [(N, E, src, tgt, λ)].  Nodes and edges are dense
    integer identifiers ([0 .. nb_nodes-1], [0 .. nb_edges-1]); every node
    and edge also carries a human-readable name (the paper's [a1], [t1]
    style identifiers).  Unlike RDF triples, two distinct edges may share
    source, target and label (Example 5: [t2] and [t5]). *)

type t

(** [make ~nodes ~edges] builds a graph.  [nodes] lists node names;
    [edges] lists [(edge_name, src_name, label, tgt_name)].  Raises
    [Invalid_argument] on duplicate names or unknown endpoints. *)
val make : nodes:string list -> edges:(string * string * string * string) list -> t

(** [reverse g] is [g] with every edge's source and target swapped: the
    same node and edge names, dense ids and interned labels, and its own
    {!id}.  The name arrays, the node-name table and the label table are
    shared with [g]; the CSR index is rebuilt by counting sorts, O(n + m)
    with no string hashing. *)
val reverse : t -> t

(** [id g] is a process-unique stamp assigned at {!make}.  Caches keyed
    by graph use it as their generation: a fresh [load] yields a fresh
    id, so entries for earlier graphs can be invalidated wholesale. *)
val id : t -> int

val nb_nodes : t -> int
val nb_edges : t -> int

val src : t -> int -> int
val tgt : t -> int -> int

(** [label g e] is λ(e). *)
val label : t -> int -> string

val node_name : t -> int -> string
val edge_name : t -> int -> string

(** Raise [Not_found] when no node/edge has that name.  [node_id] is a
    hash lookup. *)
val node_id : t -> string -> int

(** [edge_id] scans the edge names: O(m) per call, for tools and tests
    only.  The graph keeps no edge-name table; resolve many names at
    once with {!find_edges}. *)
val edge_id : t -> string -> int

(** [find_edges g names] resolves every name of [names] in one O(m)
    pass over the edge names: the result maps each name that names an
    edge of [g] to its dense id (absent names are absent). *)
val find_edges : t -> string list -> (string, int) Hashtbl.t

(** Outgoing / incoming edge identifiers of a node, in declaration
    order.  Each call builds a fresh list from the node's CSR span
    (O(degree) allocation); evaluation code uses {!iter_out} /
    {!iter_in}, which allocate nothing. *)
val out_edges : t -> int -> int list

val in_edges : t -> int -> int list

(** All distinct edge labels occurring in the graph, sorted. *)
val labels : t -> string list

(** {1 Interned labels}

    Labels are interned at {!make} time: dense ids [0 .. nb_labels-1]
    assigned in sorted label order, so ids are stable under edge
    reordering. *)

val nb_labels : t -> int

(** [label_name g l] is the label with id [l]. *)
val label_name : t -> int -> string

(** [label_id_opt g a] is [Some l] iff label [a] occurs in the graph. *)
val label_id_opt : t -> string -> int option

(** [edge_label_id g e] is the interned id of λ(e). *)
val edge_label_id : t -> int -> int

(** {1 CSR adjacency}

    Immutable compressed-sparse-row adjacency, built with each graph
    value ({!make}, {!apply_delta}, {!of_pack_res}).
    Node [n]'s outgoing edges occupy the half-open span {!out_span}
    in a flat int array accessed via {!csr_out_edge}; within a span,
    edges appear in declaration order, matching {!out_edges}.  A second
    copy of each span ({!csr_out_label_edge}) groups the edges by label
    id, giving per-[(node, label)] spans via {!out_label_span}. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

(** [out_span g n] is [(lo, hi)]: node [n]'s outgoing edges are
    [csr_out_edge g i] for [lo <= i < hi]. *)
val out_span : t -> int -> int * int

val in_span : t -> int -> int * int
val csr_out_edge : t -> int -> int
val csr_in_edge : t -> int -> int

(** Allocation-free iteration over a node's outgoing / incoming edges
    (declaration order). *)
val iter_out : t -> int -> (int -> unit) -> unit

val iter_in : t -> int -> (int -> unit) -> unit

(** [out_label_span g n ~label] is the span of [n]'s outgoing edges
    carrying the label with id [label], into {!csr_out_label_edge};
    [(0, 0)] when there are none. *)
val out_label_span : t -> int -> label:int -> int * int

val csr_out_label_edge : t -> int -> int
val iter_out_label : t -> int -> label:int -> (int -> unit) -> unit

(** The label-partitioned edges as a list (declaration order within the
    label). *)
val out_label_edges : t -> int -> label:int -> int list

val fold_edges : (int -> 'a -> 'a) -> t -> 'a -> 'a
val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [edges_between g u v] lists edges with source [u] and target [v], in
    declaration order (a scan of [u]'s outgoing span). *)
val edges_between : t -> int -> int -> int list

val pp : Format.formatter -> t -> unit

(** {1 Delta application}

    [apply_delta] builds a new graph from an existing one plus a batch
    of edge insertions/deletions, without reparsing or re-interning:
    node arrays and the label table are shared when untouched, and the
    next snapshot is published with O(n + m) passes over int arrays
    only — survivors are copied by dense id, label ids are remapped
    through an int array when the label table changes, and the CSR
    index is rebuilt by counting sorts.  No edge name is hashed.  The
    result is indistinguishable from a from-scratch {!make} over the
    surviving declaration sequence (same dense ids, same interned label
    order, same CSR spans) — the model-based update suite pins this. *)

type delta_summary = {
  added_nodes : int;
  removed_nodes : int;
  added_edges : int;
  removed_edges : int;
  touched_labels : string list;
      (** sorted distinct labels of the inserted and deleted edges *)
  relabeled : bool;
      (** the interned label table changed (a label appeared or vanished),
          shifting dense label ids *)
}

(** [apply_delta g ~new_nodes ~add_edges ~del_edges ~del_nodes] —
    [new_nodes] are appended after the surviving nodes in list order;
    [del_nodes] are dense ids of existing nodes (survivors keep their
    relative declaration order and compact to dense ids — deleting a
    node *requires* every incident edge to appear in [del_edges], which
    the Pg layer arranges); [del_edges] are dense ids of existing edges
    (survivors compact likewise); [add_edges] append after the
    surviving edges.  The names of [add_edges] must be distinct and
    must not name a surviving edge: callers resolve names first with
    {!find_edges} (as {!Pg.apply_delta_res} does), and this function
    does not check them again.  Returns [Error msg] on out-of-range or
    repeated ids, duplicate new nodes and unknown endpoints, leaving
    [g] untouched. *)
val apply_delta :
  t ->
  new_nodes:string list ->
  add_edges:(string * string * string * string) list ->
  del_edges:int list ->
  del_nodes:int list ->
  (t * delta_summary, string) result

(** {1 Binary pack}

    The primal arrays of a graph, exactly what the binary snapshot
    format persists.  [of_pack_res] validates structure totally
    (lengths, id ranges, sorted label table, duplicate names) and
    rebuilds the index and the node-name table; the pack arrays are
    adopted, not copied. *)

type pack = {
  pk_nodes : string array;
  pk_edges : string array;
  pk_src : int array;
  pk_tgt : int array;
  pk_labels : string array;  (** sorted distinct, every entry used *)
  pk_elbl : int array;
}

val pack : t -> pack
val of_pack_res : pack -> (t, string) result
