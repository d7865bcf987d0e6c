(** The query compilation cache.

    Maps (query text, semantics flags) to everything the engines need to
    evaluate an RPQ: the parsed AST, its Glushkov NFA, a lazily
    minimized DFA, and the interned symbol table (labels the query
    mentions).  These artifacts depend only on the query, never on the
    graph, so they survive [load]; graph-dependent artifacts (products,
    reversed graphs) live in [Rpq_compile] and are invalidated by
    generation. *)

type compiled = {
  source : string;  (** canonical key text (concrete syntax or rendered AST) *)
  flags : string;  (** semantics-flags component of the cache key *)
  ast : Sym.t Regex.t;
  nfa : Sym.t Nfa.t;  (** Glushkov construction of [ast] *)
  dfa : Dfa.t Lazy.t;  (** minimized, forced on first use *)
  symbols : string list;  (** sorted labels mentioned by the query *)
}

type t

(** [create ()] — [capacity] defaults to 128 entries. *)
val create : ?capacity:int -> unit -> t

(** Process-wide instance used by the one-shot CLI paths. *)
val shared : t

(** [compile t ~flags ~parse text] — cache lookup under key
    [(flags, text)]; on a miss, [parse text] supplies the AST and the
    NFA/DFA/symbol table are built and stored.  Parse errors are never
    cached.  [obs] counts [plan.cache.hit] / [plan.cache.miss]. *)
val compile :
  ?obs:Obs.t ->
  t ->
  flags:string ->
  parse:(string -> (Sym.t Regex.t, Gq_error.t) result) ->
  string ->
  (compiled, Gq_error.t) result

(** [compile_ast t re] — as {!compile} for an already-parsed AST, keyed
    by its rendering; used to deduplicate identical atom regexes inside
    one CRPQ. *)
val compile_ast : ?obs:Obs.t -> t -> Sym.t Regex.t -> compiled

(** [was_cached t ~flags text] — non-destructive membership probe
    (no recency bump, no counters); for EXPLAIN output. *)
val was_cached : t -> flags:string -> string -> bool

val length : t -> int
val hits : t -> int
val misses : t -> int
val evictions : t -> int
val clear : t -> unit
