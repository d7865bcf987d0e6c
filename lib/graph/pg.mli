(** Labeled property graphs (Definition 6).

    A property graph extends an edge-labeled graph with a label per node
    and a partial property assignment
    [ρ : (N ∪ E) × Properties → Values].  The underlying edge-labeled
    graph [(N, E, src, tgt, λ|E)] is recovered with {!elg} (the projection
    noted right after Definition 6). *)

type t

(** [make ~nodes ~edges]:
    [nodes] lists [(name, label, properties)];
    [edges] lists [(name, src_name, label, tgt_name, properties)]. *)
val make :
  nodes:(string * string * (string * Value.t) list) list ->
  edges:(string * string * string * string * (string * Value.t) list) list ->
  t

(** The underlying edge-labeled graph. *)
val elg : t -> Elg.t

val node_label : t -> int -> string

(** λ on any object: node label or edge label. *)
val obj_label : t -> Path.obj -> string

(** ρ(object, prop); [None] when undefined. *)
val prop : t -> Path.obj -> string -> Value.t option

val node_prop : t -> int -> string -> Value.t option
val edge_prop : t -> int -> string -> Value.t option

(** All property names occurring on the given object. *)
val props_of : t -> Path.obj -> (string * Value.t) list

(** All values occurring as a property value anywhere in the graph (the
    active domain, used by register-style evaluation). *)
val active_domain : t -> Value.t list

val pp : Format.formatter -> t -> unit

(** {1 Delta application}

    Property-graph face of {!Elg.apply_delta}: a batch of edge
    insertions/deletions and node deletions applied with *sequential*
    semantics ([add e] then [del e] in one batch nets out, though
    implicit nodes the add introduced persist; [del e] frees the name
    for a later add).  Nodes mentioned by an added edge but absent from
    the graph are created implicitly (empty label, no properties), in
    first-mention order — exactly as the text format declares them.
    [Del_node v] drops the node together with every edge incident to it
    at that point in the batch (pending adds touching it are cancelled;
    surviving base edges are deleted), and frees the name for a later
    implicit re-creation.  Total: [Error msg] on duplicate/unknown
    names, leaving the graph untouched. *)

type delta_op =
  | Add_edge of {
      name : string;
      src : string;
      label : string;
      tgt : string;
      props : (string * Value.t) list;
    }
  | Del_edge of string
  | Del_node of string

(** Result of a delta: the new graph, the {!Elg.delta_summary}, and the
    *net* operations that took effect after sequential normalization
    ([ap_adds] in op order as [(name, src, label, tgt)]; [ap_dels] the
    dense ids, in the input graph, of the base edges removed) — what
    incremental statistics maintenance keys on.

    Every edge name the batch mentions is resolved in one
    {!Elg.find_edges} pass, so a batch costs O(m + ops) name work
    however many ops it carries. *)
type applied = {
  ap_pg : t;
  ap_summary : Elg.delta_summary;
  ap_adds : (string * string * string * string) list;
  ap_dels : int list;
}

val apply_delta_res : t -> delta_op list -> (applied, string) result

(** {1 Binary pack} *)

type pack = {
  pk_elg : Elg.pack;
  pk_node_lbl : string array;
  pk_node_props : (string * Value.t) list array;
  pk_edge_props : (string * Value.t) list array;
}

val pack : t -> pack
val of_pack_res : pack -> (t, string) result
