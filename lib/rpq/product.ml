type t = {
  graph : Elg.t;
  nfa : Sym.t Nfa.t;
  (* CSR: product state [s] has out-edges [(edge.(i), succ.(i))] for
     [off.(s) <= i < off.(s+1)], ordered exactly as the original
     list-based construction: graph edges in declaration order, and for
     each edge the matching NFA transitions in delta order. *)
  off : int array;
  edge : int array; (* ids in the build snapshot, see [repoint] *)
  succ : int array;
  finals : bool array; (* per automaton state, aliased from the NFA *)
  (* Reverse CSR (pull adjacency), built lazily on the first pull sweep
     and kept for the product's lifetime — the plan cache retains it per
     graph generation alongside the forward arrays.  Guarded by [rlock]
     so concurrent pool workers build it once; readers go through the
     atomic and never take the lock after publication. *)
  rev : (int array * int array) option Atomic.t;
  rlock : Mutex.t;
}

let nb_automaton_states t = t.nfa.Nfa.nb_states
let state t ~node ~q = (node * nb_automaton_states t) + q
let decode t s = (s / nb_automaton_states t, s mod nb_automaton_states t)

let make ?(obs = Obs.none) graph nfa =
  Failpoint.check "rpq.product.build";
  Obs.span obs "product.build" @@ fun () ->
  let nq = nfa.Nfa.nb_states in
  let nl = Elg.nb_labels graph in
  let nb_states = Elg.nb_nodes graph * nq in
  (* Compile the symbol predicates once per (state, label): [moves]
     maps [q * nl + l] to the NFA states reached from [q] by an edge
     carrying label [l], in delta order.  All string matching happens
     here — O(|delta| * nb_labels) — instead of per (edge, transition). *)
  let moves = Array.make (max 1 (nq * nl)) [||] in
  for q = 0 to nq - 1 do
    for l = 0 to nl - 1 do
      let a = Elg.label_name graph l in
      let targets =
        List.filter_map
          (fun (sym, q') -> if Sym.matches sym a then Some q' else None)
          nfa.Nfa.delta.(q)
      in
      if targets <> [] then moves.((q * nl) + l) <- Array.of_list targets
    done
  done;
  (* Two passes over (node, state): count, prefix-sum, fill.  The count
     pass loads each edge's label once and walks a transposed
     move-length table ([l * nq + q], contiguous per label). *)
  let mlen_t = Array.make (max 1 (nq * nl)) 0 in
  for q = 0 to nq - 1 do
    for l = 0 to nl - 1 do
      mlen_t.((l * nq) + q) <- Array.length moves.((q * nl) + l)
    done
  done;
  let off = Array.make (nb_states + 1) 0 in
  for v = 0 to Elg.nb_nodes graph - 1 do
    let lo, hi = Elg.out_span graph v in
    let base = v * nq in
    for i = lo to hi - 1 do
      let l = Elg.edge_label_id graph (Elg.csr_out_edge graph i) in
      let row = l * nq in
      for q = 0 to nq - 1 do
        off.(base + q + 1) <- off.(base + q + 1) + mlen_t.(row + q)
      done
    done
  done;
  for s = 1 to nb_states do
    off.(s) <- off.(s) + off.(s - 1)
  done;
  let nb_product_edges = off.(nb_states) in
  let edge = Array.make (max 1 nb_product_edges) 0
  and succ = Array.make (max 1 nb_product_edges) 0 in
  for v = 0 to Elg.nb_nodes graph - 1 do
    let lo, hi = Elg.out_span graph v in
    for q = 0 to nq - 1 do
      let s = (v * nq) + q in
      let pos = ref off.(s) in
      for i = lo to hi - 1 do
        let e = Elg.csr_out_edge graph i in
        let l = Elg.edge_label_id graph e in
        let targets = moves.((q * nl) + l) in
        let base = Elg.tgt graph e * nq in
        for j = 0 to Array.length targets - 1 do
          edge.(!pos) <- e;
          succ.(!pos) <- base + targets.(j);
          incr pos
        done
      done
    done
  done;
  Obs.add obs "product.states" nb_states;
  Obs.add obs "product.edges" nb_product_edges;
  {
    graph;
    nfa;
    off;
    edge;
    succ;
    finals = nfa.Nfa.finals;
    rev = Atomic.make None;
    rlock = Mutex.create ();
  }

(* The new record shares every array, and the reverse-CSR cell with its
   lock, so a pull adjacency built through either value serves both. *)
let repoint t graph =
  if Elg.nb_nodes graph <> Elg.nb_nodes t.graph then
    invalid_arg "Product.repoint: node counts differ";
  { t with graph }

let graph t = t.graph
let nfa t = t.nfa
let nb_states t = Elg.nb_nodes t.graph * nb_automaton_states t

let out t s =
  List.init (t.off.(s + 1) - t.off.(s)) (fun i ->
      let j = t.off.(s) + i in
      (t.edge.(j), t.succ.(j)))

let out_degree t s = t.off.(s + 1) - t.off.(s)
let out_span t s = (t.off.(s), t.off.(s + 1))
let csr_edge t i = t.edge.(i)
let csr_succ t i = t.succ.(i)
let csr t = (t.off, t.succ)

let iter_out t s f =
  for i = t.off.(s) to t.off.(s + 1) - 1 do
    f t.edge.(i) t.succ.(i)
  done

let initials_at t v =
  List.map (fun q0 -> state t ~node:v ~q:q0) t.nfa.Nfa.initials

let is_final t s = t.finals.(s mod nb_automaton_states t)

let final_qs t =
  let qs = ref [] in
  for q = Array.length t.finals - 1 downto 0 do
    if t.finals.(q) then qs := q :: !qs
  done;
  Array.of_list !qs

let nb_product_edges t = t.off.(nb_states t)

(* Counting sort of [succ] by target: [rin_pred.(rin_off.(s) ..
   rin_off.(s+1) - 1)] are the predecessors of [s], each listed once per
   parallel product edge, ascending (the forward fill visits sources in
   order).  One O(V + E) pass, same asymptotics as the forward build. *)
let build_rev t =
  let ns = nb_states t in
  let m = t.off.(ns) in
  let rin_off = Array.make (ns + 1) 0 in
  for i = 0 to m - 1 do
    let s = t.succ.(i) in
    rin_off.(s + 1) <- rin_off.(s + 1) + 1
  done;
  for s = 1 to ns do
    rin_off.(s) <- rin_off.(s) + rin_off.(s - 1)
  done;
  let pos = Array.copy rin_off in
  let rin_pred = Array.make (max 1 m) 0 in
  for src = 0 to ns - 1 do
    for i = t.off.(src) to t.off.(src + 1) - 1 do
      let s = t.succ.(i) in
      rin_pred.(pos.(s)) <- src;
      pos.(s) <- pos.(s) + 1
    done
  done;
  (rin_off, rin_pred)

let rev_csr t =
  match Atomic.get t.rev with
  | Some r -> r
  | None ->
      Mutex.lock t.rlock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.rlock)
        (fun () ->
          match Atomic.get t.rev with
          | Some r -> r
          | None ->
              let r = build_rev t in
              Atomic.set t.rev (Some r);
              r)
