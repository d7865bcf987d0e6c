type mode = Shortest | Simple | Trail | All

let mode_to_string = function
  | Shortest -> "shortest"
  | Simple -> "simple"
  | Trail -> "trail"
  | All -> "all"

(* A deterministic (hence unambiguous) automaton guarantees one run per
   path, so searches below never emit duplicates. *)
let det_nfa r = Dfa.to_nfa (Dfa.minimize (Dfa.of_nfa (Nfa.of_regex r)))

let det_product ?obs g r = Product.make ?obs g (det_nfa r)

(* Generic bounded DFS over the product graph.  [node_once]/[edge_once]
   enforce simple-path/trail restrictions on the graph projection.
   [emit] receives completed paths; returning [false] stops the search.
   The governor is charged one step per product-edge extension; these
   searches are worst-case exponential (experiment E5), so this is the
   choke point that keeps hostile instances from hanging. *)
let dfs ?(obs = Obs.none) gov product ~src ~tgt ~max_len ~node_once
    ~edge_once ~emit =
  let expansions = Obs.counter_fn obs "paths.expansions" in
  let expanded = ref 0 in
  let g = Product.graph product in
  let visited_nodes = Array.make (Elg.nb_nodes g) false in
  let visited_edges = Array.make (max 1 (Elg.nb_edges g)) false in
  let stop = ref false in
  let rec go state rev_objs len =
    if not !stop then begin
      let v, _ = Product.decode product state in
      if v = tgt && Product.is_final product state then
        if not (emit (List.rev rev_objs)) then stop := true;
      if (not !stop) && len < max_len then
        Product.iter_out product state (fun e state' ->
            let w = Elg.tgt g e in
            let node_ok = (not node_once) || not visited_nodes.(w) in
            let edge_ok = (not edge_once) || not visited_edges.(e) in
            if node_ok && edge_ok && Governor.tick gov then begin
              incr expanded;
              if node_once then visited_nodes.(w) <- true;
              if edge_once then visited_edges.(e) <- true;
              go state' (Path.N w :: Path.E e :: rev_objs) (len + 1);
              if node_once then visited_nodes.(w) <- false;
              if edge_once then visited_edges.(e) <- false
            end)
    end
  in
  visited_nodes.(src) <- true;
  List.iter
    (fun state -> if not !stop then go state [ Path.N src ] 0)
    (Product.initials_at product src);
  expansions !expanded

(* Geodesic DFS: follow only product edges on shortest-path layers.  The
   layers come from a walk of the product on the fly ({!Rpq_walk}) that
   stops once the first level reaching an accepting [(tgt, q)] is
   complete; deeper states cannot lie on a shortest path. *)
let shortest_search ?(obs = Obs.none) gov g nfa ~src ~tgt ~emit =
  let expansions = Obs.counter_fn obs "paths.expansions" in
  let expanded = ref 0 in
  let w = Rpq_walk.make g nfa in
  let nq = Rpq_walk.nb_automaton_states w in
  Rpq_walk.with_distances
    ~expanded:(fun d -> expanded := !expanded + d)
    gov w ~src ~tgt
    (fun ~best:d ~dist ->
      if d >= 0 then begin
        let rec go state rev_objs len =
          if len = d then begin
            if state / nq = tgt && Rpq_walk.is_final w state then
              ignore (emit (List.rev rev_objs))
          end
          else
            Rpq_walk.iter_succ w state (fun e state' ->
                if dist state' = len + 1 && Governor.tick gov then begin
                  incr expanded;
                  go state' (Path.N (Elg.tgt g e) :: Path.E e :: rev_objs) (len + 1)
                end)
        in
        List.iter
          (fun s -> if dist s = 0 && Governor.ok gov then go s [ Path.N src ] 0)
          (Rpq_walk.initials w ~src)
      end);
  expansions !expanded

let shortest_gov ?(obs = Obs.none) gov g r ~src ~tgt =
  Obs.span obs "paths.eval" @@ fun () ->
  let acc = ref [] in
  let emitted = ref 0 in
  shortest_search ~obs gov g (det_nfa r) ~src ~tgt ~emit:(fun objs ->
      if Governor.emit gov then begin
        incr emitted;
        acc := Path.of_objs_exn g objs :: !acc
      end;
      Governor.ok gov);
  Obs.add obs "paths.emitted" !emitted;
  List.rev !acc

let shortest_bounded ?obs gov g r ~src ~tgt =
  Governor.seal gov (shortest_gov ?obs gov g r ~src ~tgt)

let shortest g r ~src ~tgt =
  Governor.value (shortest_bounded (Governor.unlimited ()) g r ~src ~tgt)

let enumerate_gov ?(obs = Obs.none) gov g r ~mode ~max_len ~src ~tgt =
  match mode with
  | Shortest -> shortest_gov ~obs gov g r ~src ~tgt
  | Simple | Trail | All ->
      Obs.span obs "paths.eval" @@ fun () ->
      let product = det_product ~obs g r in
      let node_once = mode = Simple and edge_once = mode = Trail in
      let bound =
        match mode with
        | Simple -> min max_len (Elg.nb_nodes g - 1)
        | Trail -> min max_len (Elg.nb_edges g)
        | Shortest | All -> max_len
      in
      let acc = ref [] in
      let emitted = ref 0 in
      dfs ~obs gov product ~src ~tgt ~max_len:bound ~node_once ~edge_once
        ~emit:(fun objs ->
          if Governor.emit gov then begin
            incr emitted;
            acc := Path.of_objs_exn g objs :: !acc
          end;
          Governor.ok gov);
      Obs.add obs "paths.emitted" !emitted;
      List.rev !acc

let enumerate_bounded ?obs gov g r ~mode ~max_len ~src ~tgt =
  Governor.seal gov (enumerate_gov ?obs gov g r ~mode ~max_len ~src ~tgt)

let enumerate g r ~mode ~max_len ~src ~tgt =
  Governor.value
    (enumerate_bounded (Governor.unlimited ()) g r ~mode ~max_len ~src ~tgt)

let in_length_order g r ~max_len ~src ~tgt =
  let product = det_product g r in
  let graph = Product.graph product in
  (* Level-synchronous frontier; lazily expanded as the Seq is consumed. *)
  let initial_frontier =
    List.map (fun s -> (s, [ Path.N src ])) (Product.initials_at product src)
  in
  let accepting_paths frontier =
    List.filter_map
      (fun (s, rev_objs) ->
        let v, _ = Product.decode product s in
        if v = tgt && Product.is_final product s then
          Some (Path.of_objs_exn graph (List.rev rev_objs))
        else None)
      frontier
  in
  let expand frontier =
    List.concat_map
      (fun (s, rev_objs) ->
        List.map
          (fun (e, s') ->
            (s', Path.N (Elg.tgt graph e) :: Path.E e :: rev_objs))
          (Product.out product s))
      frontier
  in
  let rec levels frontier len () =
    if len > max_len || frontier = [] then Seq.Nil
    else
      let here = accepting_paths frontier in
      let rest = levels (expand frontier) (len + 1) in
      List.fold_right (fun p tail -> fun () -> Seq.Cons (p, tail)) here rest ()
  in
  levels initial_frontier 0

let k_shortest g r ~k ~max_len ~src ~tgt =
  in_length_order g r ~max_len ~src ~tgt |> Seq.take k |> List.of_seq

let count_gov ?(obs = Obs.none) gov g r ~mode ~max_len ~src ~tgt =
  match mode with
  | All -> Rpq_count.count_paths_upto ~obs g r ~src ~tgt ~max_len
  | Shortest ->
      let n = ref Nat_big.zero in
      shortest_search ~obs gov g (det_nfa r) ~src ~tgt ~emit:(fun _ ->
          n := Nat_big.succ !n;
          Governor.ok gov);
      !n
  | Simple | Trail ->
      let product = det_product ~obs g r in
      let bound =
        if mode = Simple then min max_len (Elg.nb_nodes g - 1)
        else min max_len (Elg.nb_edges g)
      in
      let n = ref Nat_big.zero in
      dfs ~obs gov product ~src ~tgt ~max_len:bound ~node_once:(mode = Simple)
        ~edge_once:(mode = Trail) ~emit:(fun _ ->
          n := Nat_big.succ !n;
          Governor.ok gov);
      !n

let count_bounded ?obs gov g r ~mode ~max_len ~src ~tgt =
  Governor.seal gov (count_gov ?obs gov g r ~mode ~max_len ~src ~tgt)

let count g r ~mode ~max_len ~src ~tgt =
  Governor.value
    (count_bounded (Governor.unlimited ()) g r ~mode ~max_len ~src ~tgt)

let exists_with gov g r ~src ~tgt ~node_once ~edge_once ~max_len =
  let product = det_product g r in
  let found = ref false in
  dfs gov product ~src ~tgt ~max_len ~node_once ~edge_once ~emit:(fun _ ->
      found := true;
      false);
  !found

let exists_simple_bounded gov g r ~src ~tgt =
  let found =
    exists_with gov g r ~src ~tgt ~node_once:true ~edge_once:false
      ~max_len:(Elg.nb_nodes g - 1)
  in
  Governor.seal gov found

let exists_simple g r ~src ~tgt =
  Governor.value (exists_simple_bounded (Governor.unlimited ()) g r ~src ~tgt)

let exists_trail_bounded gov g r ~src ~tgt =
  let found =
    exists_with gov g r ~src ~tgt ~node_once:false ~edge_once:true
      ~max_len:(Elg.nb_edges g)
  in
  Governor.seal gov found

let exists_trail g r ~src ~tgt =
  Governor.value (exists_trail_bounded (Governor.unlimited ()) g r ~src ~tgt)
