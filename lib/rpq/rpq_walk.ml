(* On-the-fly single-source product BFS.  [moves.(q * nl + l)] lists the
   automaton states reached from [q] over an edge labelled [l], in δ
   order; [mlen] holds their lengths so a popped state's successor count
   (what the governor is charged before relaxing) is one pass of integer
   loads over the node's out-span. *)
type t = {
  graph : Elg.t;
  nq : int;
  nl : int;
  initials : int list;
  finals : bool array;
  moves : int array array;
  mlen : int array;
}

let make graph (nfa : Sym.t Nfa.t) =
  let nq = nfa.Nfa.nb_states and nl = Elg.nb_labels graph in
  let moves = Array.make (max 1 (nq * nl)) [||] in
  for q = 0 to nq - 1 do
    for l = 0 to nl - 1 do
      let a = Elg.label_name graph l in
      match
        List.filter_map
          (fun (sym, q') -> if Sym.matches sym a then Some q' else None)
          nfa.Nfa.delta.(q)
      with
      | [] -> ()
      | targets -> moves.((q * nl) + l) <- Array.of_list targets
    done
  done;
  {
    graph;
    nq;
    nl;
    initials = nfa.Nfa.initials;
    finals = nfa.Nfa.finals;
    moves;
    mlen = Array.map Array.length moves;
  }

let nb_automaton_states w = w.nq
let is_final w s = w.finals.(s mod w.nq)
let initials w ~src = List.map (fun q0 -> (src * w.nq) + q0) w.initials

(* Product out-degree of state [s]: the sum of its out-edges' move
   counts. *)
let degree w s =
  let g = w.graph and row = s mod w.nq * w.nl in
  let lo, hi = Elg.out_span g (s / w.nq) in
  let d = ref 0 in
  for i = lo to hi - 1 do
    d := !d + w.mlen.(row + Elg.edge_label_id g (Elg.csr_out_edge g i))
  done;
  !d

let iter_succ w s f =
  let g = w.graph and nq = w.nq in
  let row = s mod nq * w.nl in
  let lo, hi = Elg.out_span g (s / nq) in
  for i = lo to hi - 1 do
    let e = Elg.csr_out_edge g i in
    let ts = w.moves.(row + Elg.edge_label_id g e) in
    if Array.length ts > 0 then begin
      let base = Elg.tgt g e * nq in
      for j = 0 to Array.length ts - 1 do
        f e (base + ts.(j))
      done
    end
  done

(* --- per-domain scratch --------------------------------------------------- *)

(* Stamping replaces clearing: a state is visited in the current walk iff
   [seen.(s) = stamp], a node already reported iff [tmark.(v) = stamp],
   and [dist.(s)] is meaningful only for visited states.  Arrays only
   grow, so a long-lived serve worker settles at the largest [n · |Q|]
   it has seen.  [busy] guards re-entrant use (a walk started from
   inside another walk's callback gets a private scratch). *)
type scratch = {
  mutable seen : int array;
  mutable queue : int array;
  mutable dist : int array;
  mutable tmark : int array;
  mutable stamp : int;
  mutable busy : bool;
}

let fresh () =
  { seen = [||]; queue = [||]; dist = [||]; tmark = [||]; stamp = 0;
    busy = false }

let key = Domain.DLS.new_key fresh

let with_scratch ~dist w f =
  let sc =
    let d = Domain.DLS.get key in
    if d.busy then fresh () else d
  in
  let states = Elg.nb_nodes w.graph * w.nq in
  if Array.length sc.seen < states then begin
    (* Fresh arrays are all-zero and stamps start at 1: nothing reads
       as visited. *)
    sc.seen <- Array.make states 0;
    sc.queue <- Array.make states 0
  end;
  if dist && Array.length sc.dist < states then
    sc.dist <- Array.make states 0;
  if Array.length sc.tmark < Elg.nb_nodes w.graph then
    sc.tmark <- Array.make (Elg.nb_nodes w.graph) 0;
  sc.stamp <- sc.stamp + 1;
  sc.busy <- true;
  match f sc with
  | r ->
      sc.busy <- false;
      r
  | exception e ->
      sc.busy <- false;
      raise e

(* --- walks ------------------------------------------------------------------ *)

let targets ?(obs = Obs.none) gov w ~src =
  Failpoint.check "rpq.bfs.step";
  with_scratch ~dist:false w @@ fun sc ->
  let stamp = sc.stamp and seen = sc.seen and queue = sc.queue in
  let tmark = sc.tmark and nq = w.nq in
  let acc = ref [] and head = ref 0 and tail = ref 0 in
  let visit s =
    if seen.(s) <> stamp then begin
      seen.(s) <- stamp;
      queue.(!tail) <- s;
      incr tail;
      if w.finals.(s mod nq) then begin
        let v = s / nq in
        if tmark.(v) <> stamp then begin
          tmark.(v) <- stamp;
          acc := v :: !acc
        end
      end
    end
  in
  List.iter visit (initials w ~src);
  (* [degree] and [iter_succ], inlined: this loop is every single-source
     request's whole evaluation. *)
  let g = w.graph and moves = w.moves and mlen = w.mlen and nl = w.nl in
  let relaxed = ref 0 and running = ref (Governor.ok gov) in
  while !running && !head < !tail do
    let s = queue.(!head) in
    incr head;
    let row = s mod nq * nl in
    let lo, hi = Elg.out_span g (s / nq) in
    let d = ref 0 in
    for i = lo to hi - 1 do
      d := !d + mlen.(row + Elg.edge_label_id g (Elg.csr_out_edge g i))
    done;
    if Governor.tick_many gov !d then begin
      relaxed := !relaxed + !d;
      if !d > 0 then
        for i = lo to hi - 1 do
          let e = Elg.csr_out_edge g i in
          let ts = moves.(row + Elg.edge_label_id g e) in
          let base = Elg.tgt g e * nq in
          for j = 0 to Array.length ts - 1 do
            visit (base + ts.(j))
          done
        done
    end
    else running := false
  done;
  Obs.add obs "rpq.sources" 1;
  Obs.add obs "rpq.product_transitions" !relaxed;
  Obs.add obs "rpq.states_visited" !tail;
  List.sort_uniq Int.compare !acc

let with_distances ?(expanded = ignore) gov w ~src ~tgt f =
  with_scratch ~dist:true w @@ fun sc ->
  let stamp = sc.stamp and seen = sc.seen and queue = sc.queue in
  let dist = sc.dist and nq = w.nq in
  let best = ref (-1) and head = ref 0 and tail = ref 0 in
  let visit s d =
    if seen.(s) <> stamp then begin
      seen.(s) <- stamp;
      dist.(s) <- d;
      queue.(!tail) <- s;
      incr tail;
      if !best < 0 && s / nq = tgt && w.finals.(s mod nq) then best := d
    end
  in
  List.iter (fun s -> visit s 0) (initials w ~src);
  (* States come off the queue in depth order; once an accepting
     [(tgt, q)] sits at depth [best], every state of depth [best] was
     discovered by the time the first of them is popped. *)
  let running = ref (Governor.ok gov) in
  while !running && !head < !tail do
    let s = queue.(!head) in
    incr head;
    let ds = dist.(s) in
    if !best >= 0 && ds >= !best then running := false
    else begin
      let d = degree w s in
      if Governor.tick_many gov d then begin
        expanded d;
        if d > 0 then iter_succ w s (fun _ s' -> visit s' (ds + 1))
      end
      else running := false
    end
  done;
  f ~best:!best ~dist:(fun s -> if seen.(s) = stamp then dist.(s) else -1)
