(* A cached product carries the labels its query mentions (and whether
   it uses a wildcard/negated symbol), so delta application can decide
   per entry: disjoint from the touched labels means the product is
   still exact on the new graph and migrates to the new graph id. *)
type pentry = {
  prod : Product.t;
  psyms : string list; (* sorted labels the query mentions *)
  pwild : bool; (* query matches labels beyond [psyms] (Any / Not) *)
}

type t = {
  plans : Plan_cache.t;
  products : (int * string * bool, pentry) Lru.t; (* graph id, key, reversed? *)
  reversed : (int, Elg.t) Lru.t;
  gen : int Atomic.t; (* last graph id seen by set_generation *)
  gen_lock : Mutex.t; (* serializes generation bumps against each other *)
  enabled : bool;
  by_label : int Atomic.t; (* entries dropped because labels intersected a delta *)
  retained : int Atomic.t; (* entries migrated across a delta *)
}

let create ?(capacity = 64) ?enabled ?plans () =
  let enabled =
    match enabled with Some b -> b | None -> Plan_cache.enabled_from_env ()
  in
  let plans =
    match plans with
    | Some p -> p
    | None -> Plan_cache.create ~enabled ()
  in
  {
    plans;
    products = Lru.create ~capacity ();
    reversed = Lru.create ~capacity:(max 4 (capacity / 8)) ();
    gen = Atomic.make (-1);
    gen_lock = Mutex.create ();
    enabled;
    by_label = Atomic.make 0;
    retained = Atomic.make 0;
  }

let shared = create ~plans:Plan_cache.shared ()
let plans t = t.plans

let compile ?obs t text =
  Plan_cache.compile ?obs t.plans ~flags:"rpq" ~parse:Rpq_parse.parse_res text

let compile_ast ?obs t re = Plan_cache.compile_ast ?obs t.plans re

let key_of (c : Plan_cache.compiled) = c.flags ^ ":" ^ c.source

(* Same node/edge names in the same declaration order, so ids coincide
   with the forward graph and pairs translate back by a plain swap. *)
let build_reversed g =
  let nodes = List.init (Elg.nb_nodes g) (Elg.node_name g) in
  let edges =
    List.init (Elg.nb_edges g) (fun e ->
        ( Elg.edge_name g e,
          Elg.node_name g (Elg.tgt g e),
          Elg.label g e,
          Elg.node_name g (Elg.src g e) ))
  in
  Elg.make ~nodes ~edges

let reversed_graph t g =
  let gid = Elg.id g in
  match if t.enabled then Lru.find t.reversed gid else None with
  | Some rg -> rg
  | None ->
      let rg = build_reversed g in
      if t.enabled then Lru.add t.reversed ~gen:gid gid rg;
      rg

(* [Sym.mentioned] is empty for [Any] and lists the excluded labels for
   [Not], so symbol-intersection alone would wrongly keep wildcard
   products warm across a delta; they get an explicit flag instead. *)
let wildcard (c : Plan_cache.compiled) =
  List.exists
    (function Sym.Lbl _ -> false | Sym.Any | Sym.Not _ -> true)
    (Regex.atoms c.ast)

let product ?(obs = Obs.none) ?(rev = false) t g (c : Plan_cache.compiled) =
  let gid = Elg.id g in
  let key = (gid, key_of c, rev) in
  match if t.enabled then Lru.find t.products key else None with
  | Some e ->
      Obs.incr obs "plan.product.hit";
      e.prod
  | None ->
      Obs.incr obs "plan.product.miss";
      let p =
        if rev then
          Product.make ~obs (reversed_graph t g)
            (Nfa.of_regex (Regex.reverse c.ast))
        else Product.make ~obs g c.nfa
      in
      if t.enabled then
        Lru.add t.products ~gen:gid key
          { prod = p; psyms = c.symbols; pwild = wildcard c };
      p

let product_rev ?obs t g c = product ?obs ~rev:true t g c
let product ?obs t g c = product ?obs ~rev:false t g c

let product_cached t g c =
  t.enabled && Option.is_some (Lru.peek t.products (Elg.id g, key_of c, false))

(* Serialized: two concurrent loads must not interleave their drops, or
   a cache could keep products of a graph that is no longer current.  A
   product built against the *old* snapshot by an in-flight query may be
   re-added after the bump; it is keyed by its own graph id, so it can
   never answer for the new snapshot and is dropped at the next bump. *)
let set_generation t gen =
  Mutex.lock t.gen_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.gen_lock)
    (fun () ->
      Atomic.set t.gen gen;
      ignore (Lru.drop_generations_except t.products gen);
      ignore (Lru.drop_generations_except t.reversed gen))

let generation t = Atomic.get t.gen

(* Fine-grained invalidation across a delta.  A cached product embeds
   its source graph, and every cached-evaluation path reads only that
   embedded graph (node count, labels, successor spans) — so an entry
   stays exact on the post-delta graph when (a) the node set is
   unchanged (dense ids and the ε self-pair range coincide), and (b)
   its query can only match labels disjoint from the touched set (no
   wildcard/negation, no mentioned label in the delta): no edge the
   query can traverse was added or removed.  Such entries migrate to
   the new graph id, keeping the cache warm under a live update
   stream; everything else built against the old snapshot drops.
   Reversed graphs always drop — they mirror the whole edge set. *)
let apply_delta ?(obs = Obs.none) t ~old_graph ~new_graph ~touched_labels
    ~nodes_stable =
  let old_gid = Elg.id old_graph and new_gid = Elg.id new_graph in
  Mutex.lock t.gen_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.gen_lock)
    (fun () ->
      Atomic.set t.gen new_gid;
      let by_label = ref 0 and kept = ref 0 in
      ignore
        (Lru.sweep t.products ~f:(fun (gid, key, rev) e ->
             if gid <> old_gid then `Drop
             else if
               (not nodes_stable) || e.pwild
               || List.exists (fun a -> List.mem a touched_labels) e.psyms
             then begin
               incr by_label;
               `Drop
             end
             else begin
               incr kept;
               `Rekey ((new_gid, key, rev), new_gid)
             end));
      ignore (Lru.drop_generations_except t.reversed new_gid);
      ignore (Atomic.fetch_and_add t.by_label !by_label);
      ignore (Atomic.fetch_and_add t.retained !kept);
      Obs.add obs "plan.invalidated_by_label" !by_label;
      Obs.add obs "plan.retained" !kept)

let invalidated_by_label t = Atomic.get t.by_label
let retained t = Atomic.get t.retained

(* --- cached evaluation -------------------------------------------------- *)

(* Swap pairs sorted by (v, u) into (u, v) pairs sorted by (u, v): a
   stable counting sort on [u] over [n] node ids, O(n + answers) where a
   comparison sort costs O(answers log answers).  Each [u] bucket
   receives its [v]s in input order, already ascending. *)
let transpose_sorted ~n ps =
  let start = Array.make (n + 1) 0 in
  List.iter (fun (_, u) -> start.(u + 1) <- start.(u + 1) + 1) ps;
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let vs = Array.make start.(n) 0 in
  let next = Array.sub start 0 n in
  List.iter
    (fun (v, u) ->
      vs.(next.(u)) <- v;
      next.(u) <- next.(u) + 1)
    ps;
  (* Build the list back to front: position [i] belongs to the last [u]
     whose bucket starts at or before it. *)
  let acc = ref [] and u = ref (n - 1) in
  for i = start.(n) - 1 downto 0 do
    while start.(!u) > i do
      decr u
    done;
    acc := (!u, vs.(i)) :: !acc
  done;
  !acc

let pairs_bounded ?pool ?(obs = Obs.none) ?planner t gov g c =
  let use_planner =
    match planner with Some b -> b | None -> Planner.enabled_from_env ()
  in
  let dir =
    if use_planner then Planner.direction_of (Stats.get g) c.Plan_cache.ast
    else Planner.Forward
  in
  match dir with
  | Planner.Forward ->
      Rpq_eval.pairs_product_bounded ?pool ~obs gov (product ~obs t g c)
  | Planner.Backward ->
      Obs.incr obs "plan.backward";
      Rpq_eval.pairs_product_bounded ?pool ~obs gov (product_rev ~obs t g c)
      |> Governor.map (transpose_sorted ~n:(Elg.nb_nodes g))

let from_source_bounded ?(obs = Obs.none) t gov g c ~src =
  Obs.span obs "rpq.eval" @@ fun () ->
  let p = product ~obs t g c in
  let targets = Rpq_eval.from_source_product ~gov ~obs p ~src in
  let kept = Governor.take_results gov targets in
  Obs.add obs "rpq.answers" (List.length kept);
  Governor.seal gov kept

(* One compiled query, many sources, one evaluation: the serve-mode
   batching path.  Under the bitset kernel all sources run as one packed
   multi-source traversal; the scalar fallback loops a per-source BFS
   over shared compilation artifacts.  Either way the governor spans the
   whole batch, so budgets cover the coalesced run, not each member. *)
let from_source_batch ?pool ?(obs = Obs.none) t gov g c ~srcs =
  Obs.span obs "rpq.eval" @@ fun () ->
  let p = product ~obs t g c in
  let out =
    if Rpq_bitset.enabled () then
      Rpq_bitset.targets ~obs ?pool gov p ~sources:srcs
    else begin
      let res =
        Array.map
          (fun src ->
            if Governor.ok gov then
              Array.of_list
                (Governor.take_results gov
                   (Rpq_eval.from_source_product ~gov ~obs p ~src))
            else [||])
          srcs
      in
      Obs.add obs "rpq.answers"
        (Array.fold_left (fun a l -> a + Array.length l) 0 res);
      res
    end
  in
  Governor.seal gov out

(* Distinct-pair counting through the caches: the planner direction
   choice is irrelevant (|⟦c⟧_g| is symmetric), so always forward —
   keeping the forward product warm for the queries that follow. *)
let count_pairs_bounded ?pool ?(obs = Obs.none) t gov g c =
  Rpq_eval.count_pairs_product_bounded ?pool ~obs gov (product ~obs t g c)

let product_hits t = Lru.hits t.products
let product_misses t = Lru.misses t.products
let product_entries t = Lru.length t.products
let invalidated t = Lru.invalidated t.products + Lru.invalidated t.reversed
