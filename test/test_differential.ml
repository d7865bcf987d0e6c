(* Cross-engine differential suite: the same query through independent
   evaluation pipelines must produce identical answer sets, serially and
   under domain parallelism.

   Three RPQ pipelines are compared:
   - [Rpq_eval.pairs_nfa] over the Glushkov NFA (the production engine);
   - the same engine over the minimized-DFA automaton
     ([Dfa.to_nfa (Dfa.minimize (Dfa.of_nfa nfa))]) — a different
     automaton for the same language must not change the answers;
   - two reference implementations that share no code with the product
     construction: a boolean-matrix semiring evaluator (structural
     recursion on the regex over n×n reachability matrices) and, on
     acyclic graphs, [Rpq_eval.pairs_naive] path enumeration.

   CRPQs are run through the pairwise-join engine ([Crpq.eval]) and the
   generic worst-case-optimal join ([Crpq_wcoj.eval]).

   Every property is checked at pool widths 1 and 4. *)

let pool1 = Pool.create ~size:1 ()
let pool4 = Pool.create ~size:4 ()

(* --- boolean-matrix semiring oracle -------------------------------------- *)

(* ⟦R⟧_G by structural recursion over n×n boolean matrices: atoms become
   label-filtered adjacency matrices, concatenation is matrix product,
   disjunction is union, star is reflexive-transitive closure by fixpoint
   iteration.  No automaton, no product graph, no BFS. *)
module Matrix_oracle = struct
  let mul n a b =
    Array.init n (fun i ->
        Array.init n (fun j ->
            let rec hit k = k < n && ((a.(i).(k) && b.(k).(j)) || hit (k + 1)) in
            hit 0))

  let union n a b =
    Array.init n (fun i -> Array.init n (fun j -> a.(i).(j) || b.(i).(j)))

  let identity n = Array.init n (fun i -> Array.init n (fun j -> i = j))

  let closure n a =
    let m = ref (identity n) in
    let stable = ref false in
    while not !stable do
      let next = union n !m (mul n !m a) in
      if next = !m then stable := true else m := next
    done;
    !m

  let of_sym g sym =
    let n = Elg.nb_nodes g in
    let m = Array.make_matrix n n false in
    for e = 0 to Elg.nb_edges g - 1 do
      if Sym.matches sym (Elg.label g e) then
        m.(Elg.src g e).(Elg.tgt g e) <- true
    done;
    m

  let rec eval g = function
    | Regex.Eps -> identity (Elg.nb_nodes g)
    | Regex.Atom sym -> of_sym g sym
    | Regex.Seq (a, b) -> mul (Elg.nb_nodes g) (eval g a) (eval g b)
    | Regex.Alt (a, b) -> union (Elg.nb_nodes g) (eval g a) (eval g b)
    | Regex.Star a -> closure (Elg.nb_nodes g) (eval g a)

  let pairs g r =
    let m = eval g r in
    let acc = ref [] in
    for i = Elg.nb_nodes g - 1 downto 0 do
      for j = Elg.nb_nodes g - 1 downto 0 do
        if m.(i).(j) then acc := (i, j) :: !acc
      done
    done;
    !acc
end

(* --- generators ----------------------------------------------------------- *)

let gen_graph =
  QCheck.Gen.(
    int_range 1 10_000 >|= fun seed ->
    Generators.random_graph ~seed ~nodes:5 ~edges:8 ~labels:[ "a"; "b" ])

(* A random DAG: edges only go from lower to higher node ids, so every
   path has length < n and naive enumeration is exact and cheap. *)
let gen_dag =
  QCheck.Gen.(
    int_range 1 10_000 >|= fun seed ->
    let st = Random.State.make [| seed |] in
    let n = 5 in
    let nodes = List.init n (Printf.sprintf "v%d") in
    let edges = ref [] in
    for e = 0 to 7 do
      let u = Random.State.int st (n - 1) in
      let v = u + 1 + Random.State.int st (n - 1 - u) in
      let lbl = if Random.State.bool st then "a" else "b" in
      edges := (Printf.sprintf "e%d" e, Printf.sprintf "v%d" u, lbl,
                Printf.sprintf "v%d" v) :: !edges
    done;
    Elg.make ~nodes ~edges:!edges)

let gen_regex =
  QCheck.Gen.(
    sized_size (int_range 1 7) @@ fix (fun self size ->
        if size <= 1 then
          oneof
            [
              return Regex.Eps;
              map (fun l -> Regex.Atom (Sym.Lbl l)) (oneofl [ "a"; "b" ]);
              return (Regex.Atom Sym.Any);
            ]
        else
          oneof
            [
              map2 (fun a b -> Regex.Seq (a, b)) (self (size / 2)) (self (size / 2));
              map2 (fun a b -> Regex.Alt (a, b)) (self (size / 2)) (self (size / 2));
              map (fun a -> Regex.Star a) (self (size - 1));
            ]))

let print_regex = Regex.to_string Sym.to_string

let arb_graph_regex =
  QCheck.make ~print:(fun (_, r) -> print_regex r)
    QCheck.Gen.(pair gen_graph gen_regex)

let arb_dag_regex =
  QCheck.make ~print:(fun (_, r) -> print_regex r)
    QCheck.Gen.(pair gen_dag gen_regex)

let norm pairs = List.sort_uniq compare pairs

(* --- RPQ: production engine vs matrix oracle, widths 1 and 4 -------------- *)

let prop_rpq_vs_matrix =
  QCheck.Test.make ~count:120 ~name:"pairs_nfa = matrix oracle (widths 1, 4)"
    arb_graph_regex
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let oracle = norm (Matrix_oracle.pairs g r) in
      norm (Rpq_eval.pairs_nfa ~pool:pool1 g nfa) = oracle
      && norm (Rpq_eval.pairs_nfa ~pool:pool4 g nfa) = oracle)

(* --- RPQ: NFA pipeline vs minimized-DFA pipeline -------------------------- *)

let prop_rpq_nfa_vs_dfa =
  QCheck.Test.make ~count:120 ~name:"pairs_nfa: Glushkov = minimized DFA (widths 1, 4)"
    arb_graph_regex
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let dfa_nfa = Dfa.to_nfa (Dfa.minimize (Dfa.of_nfa nfa)) in
      let reference = norm (Rpq_eval.pairs_nfa ~pool:pool1 g nfa) in
      norm (Rpq_eval.pairs_nfa ~pool:pool1 g dfa_nfa) = reference
      && norm (Rpq_eval.pairs_nfa ~pool:pool4 g dfa_nfa) = reference)

(* --- RPQ: product BFS vs naive path enumeration on DAGs ------------------- *)

let prop_rpq_vs_naive_on_dags =
  QCheck.Test.make ~count:120 ~name:"pairs_nfa = pairs_naive on DAGs (widths 1, 4)"
    arb_dag_regex
    (fun (g, r) ->
      (* Acyclic, so every path has length < nb_nodes: enumeration up to
         that bound is the complete answer set. *)
      let naive = norm (Rpq_eval.pairs_naive g r ~max_len:(Elg.nb_nodes g)) in
      let nfa = Nfa.of_regex r in
      norm (Rpq_eval.pairs_nfa ~pool:pool1 g nfa) = naive
      && norm (Rpq_eval.pairs_nfa ~pool:pool4 g nfa) = naive)

(* --- RPQ: naive is sound on cyclic graphs --------------------------------- *)

let prop_naive_sound_on_cycles =
  QCheck.Test.make ~count:120 ~name:"pairs_naive (bounded) is a subset of pairs_nfa"
    arb_graph_regex
    (fun (g, r) ->
      let full = Rpq_eval.pairs_nfa ~pool:pool1 g (Nfa.of_regex r) in
      List.for_all
        (fun uv -> List.mem uv full)
        (Rpq_eval.pairs_naive g r ~max_len:3))

(* --- single-source walker vs product BFS vs matrix oracle ---------------- *)

(* The single-source engine before the walker: build the whole product,
   then BFS it from [src] with stamped-free scratch, charging one step
   per product edge of each popped state and recording the same
   counters.  Kept here as the walker's oracle. *)
let product_bfs_targets ?(obs = Obs.none) gov product ~src =
  let ns = max 1 (Product.nb_states product) in
  let seen = Array.make ns false and queue = Array.make ns 0 in
  let tmark = Array.make (max 1 (Elg.nb_nodes (Product.graph product))) false in
  let acc = ref [] and head = ref 0 and tail = ref 0 in
  let visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      queue.(!tail) <- s;
      incr tail;
      if Product.is_final product s then begin
        let v, _ = Product.decode product s in
        if not tmark.(v) then begin
          tmark.(v) <- true;
          acc := v :: !acc
        end
      end
    end
  in
  List.iter visit (Product.initials_at product src);
  let relaxed = ref 0 and running = ref (Governor.ok gov) in
  while !running && !head < !tail do
    let s = queue.(!head) in
    incr head;
    let lo, hi = Product.out_span product s in
    if Governor.tick_many gov (hi - lo) then begin
      relaxed := !relaxed + (hi - lo);
      for i = lo to hi - 1 do
        visit (Product.csr_succ product i)
      done
    end
    else running := false
  done;
  Obs.add obs "rpq.sources" 1;
  Obs.add obs "rpq.product_transitions" !relaxed;
  Obs.add obs "rpq.states_visited" !tail;
  List.sort_uniq compare !acc

let gen_walk_graph =
  QCheck.Gen.(
    map3
      (fun seed nodes edges ->
        Generators.random_graph ~seed ~nodes ~edges ~labels:[ "a"; "b"; "c" ])
      (int_range 1 10_000) (int_range 1 7) (int_range 0 14))

(* Like [gen_regex], plus a third label and negated sets, so wildcard
   and [!{...}] transitions meet labels they must and must not match. *)
let gen_walk_regex =
  QCheck.Gen.(
    sized_size (int_range 1 7) @@ fix (fun self size ->
        if size <= 1 then
          oneof
            [
              return Regex.Eps;
              map (fun l -> Regex.Atom (Sym.Lbl l)) (oneofl [ "a"; "b"; "c" ]);
              return (Regex.Atom Sym.Any);
              map (fun s -> Regex.Atom (Sym.Not s))
                (oneofl [ [ "a" ]; [ "b"; "c" ]; [ "zz" ] ]);
            ]
        else
          oneof
            [
              map2 (fun a b -> Regex.Seq (a, b)) (self (size / 2)) (self (size / 2));
              map2 (fun a b -> Regex.Alt (a, b)) (self (size / 2)) (self (size / 2));
              map (fun a -> Regex.Star a) (self (size - 1));
            ]))

(* [None] is unlimited; small caps trip mid-walk on these graphs. *)
let gen_budget =
  QCheck.Gen.(
    pair (opt (int_range 0 30)) (opt (int_range 0 4)))

let arb_walk =
  QCheck.make
    ~print:(fun (_, r, (st, rs)) ->
      let o = function None -> "-" | Some k -> string_of_int k in
      Printf.sprintf "%s  max_steps=%s max_results=%s" (print_regex r) (o st)
        (o rs))
    QCheck.Gen.(triple gen_walk_graph gen_walk_regex gen_budget)

let status = function
  | Governor.Complete _ -> "complete"
  | Governor.Partial (_, r) -> "partial:" ^ Governor.reason_to_string r
  | Governor.Aborted r -> "aborted:" ^ Governor.reason_to_string r

let prop_walk_vs_product =
  QCheck.Test.make ~count:300
    ~name:"walker = product BFS = matrix oracle (widths 1, 4)" arb_walk
    (fun (g, r, (max_steps, max_results)) ->
      let nfa = Nfa.of_regex r in
      let product = Product.make g nfa and w = Rpq_walk.make g nfa in
      let oracle = Matrix_oracle.pairs g r in
      let n = Elg.nb_nodes g in
      let full src = List.filter_map (fun (u, v) -> if u = src then Some v else None) oracle in
      let run eval =
        let metrics = Metrics.create () in
        let obs = Obs.make ~metrics () in
        let gov = Governor.make ?max_steps ?max_results () in
        let out = Governor.seal gov (Governor.take_results gov (eval ~obs gov)) in
        (out, Governor.steps gov, Metrics.counters metrics)
      in
      for src = 0 to n - 1 do
        let wo, wsteps, wcount =
          run (fun ~obs gov -> Rpq_walk.targets ~obs gov w ~src)
        in
        let po, psteps, pcount =
          run (fun ~obs gov -> product_bfs_targets ~obs gov product ~src)
        in
        if status wo <> status po then
          QCheck.Test.fail_reportf "src %d: walker %s, product %s" src
            (status wo) (status po);
        if wsteps <> psteps then
          QCheck.Test.fail_reportf "src %d: walker %d steps, product %d" src
            wsteps psteps;
        if wcount <> pcount then
          QCheck.Test.fail_reportf "src %d: counters differ" src;
        let payload = Governor.payload ~default:[] in
        if payload wo <> payload po then
          QCheck.Test.fail_reportf "src %d: answers differ" src;
        (match wo with
        | Governor.Complete ts ->
            if ts <> full src then
              QCheck.Test.fail_reportf "src %d: complete walk <> oracle" src
        | Governor.Partial (ts, _) ->
            if not (List.for_all (fun v -> List.mem v (full src)) ts) then
              QCheck.Test.fail_reportf "src %d: partial walk not a subset" src
        | Governor.Aborted _ -> ())
      done;
      (* One walker shared by concurrent domains, each walking with its
         own per-domain scratch: every source's answer is the oracle's. *)
      List.for_all
        (fun pool ->
          let width = Pool.size pool in
          let got = Array.make n [] in
          Pool.fork_join pool ~width (fun k ->
              let src = ref k in
              while !src < n do
                got.(!src) <-
                  Rpq_walk.targets (Governor.unlimited ()) w ~src:!src;
                src := !src + width
              done);
          Array.for_all Fun.id (Array.mapi (fun src ts -> ts = full src) got))
        [ pool1; pool4 ])

(* --- shortest paths: walker layers vs the full product BFS ---------------- *)

(* [Path_modes.shortest] as it was before the walker: BFS the whole
   product built over the minimized DFA, take the least depth of an
   accepting [(tgt, q)], then enumerate the geodesics depth-first along
   the BFS layers.  The walker's version must list the same paths in the
   same order. *)
let product_shortest g r ~src ~tgt =
  let product =
    Product.make g (Dfa.to_nfa (Dfa.minimize (Dfa.of_nfa (Nfa.of_regex r))))
  in
  let n = Product.nb_states product in
  let dist = Array.make (max 1 n) (-1) in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    (Product.initials_at product src);
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Product.iter_out product s (fun _ s' ->
        if dist.(s') < 0 then begin
          dist.(s') <- dist.(s) + 1;
          Queue.add s' queue
        end)
  done;
  let best = ref max_int in
  for s = 0 to n - 1 do
    let v, _ = Product.decode product s in
    if v = tgt && Product.is_final product s && dist.(s) >= 0 then
      best := min !best dist.(s)
  done;
  let acc = ref [] in
  if !best < max_int then begin
    let d = !best in
    let rec go state rev_objs len =
      let v, _ = Product.decode product state in
      if len = d then begin
        if v = tgt && Product.is_final product state then
          acc := Path.of_objs_exn g (List.rev rev_objs) :: !acc
      end
      else
        Product.iter_out product state (fun e state' ->
            if dist.(state') = len + 1 then
              go state' (Path.N (Elg.tgt g e) :: Path.E e :: rev_objs) (len + 1))
    in
    List.iter
      (fun s -> if dist.(s) = 0 then go s [ Path.N src ] 0)
      (Product.initials_at product src)
  end;
  List.rev !acc

let prop_shortest_vs_product =
  QCheck.Test.make ~count:200 ~name:"shortest on the walker = product BFS, in order"
    (QCheck.make ~print:(fun (_, r) -> print_regex r)
       QCheck.Gen.(pair gen_walk_graph gen_walk_regex))
    (fun (g, r) ->
      let n = Elg.nb_nodes g in
      List.for_all
        (fun src ->
          List.for_all
            (fun tgt ->
              let want = product_shortest g r ~src ~tgt in
              Path_modes.shortest g r ~src ~tgt = want
              && Nat_big.to_int
                   (Path_modes.count g r ~mode:Path_modes.Shortest ~max_len:0
                      ~src ~tgt)
                 = Some (List.length want))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* --- CRPQ: pairwise joins vs worst-case-optimal join ---------------------- *)

let gen_crpq =
  (* 2–3 atoms over up to three variables: cyclic shapes included. *)
  QCheck.Gen.(
    let gen_var = oneofl [ "x"; "y"; "z" ] in
    let gen_atom =
      map3
        (fun re x y -> { Crpq.re; x = Crpq.TVar x; y = Crpq.TVar y })
        gen_regex gen_var gen_var
    in
    list_size (int_range 2 3) gen_atom >|= fun atoms ->
    let vars =
      List.concat_map
        (fun a ->
          List.filter_map
            (function Crpq.TVar v -> Some v | Crpq.TConst _ -> None)
            [ a.Crpq.x; a.Crpq.y ])
        atoms
      |> List.sort_uniq compare
    in
    Crpq.make ~head:vars ~atoms)

let arb_graph_crpq =
  QCheck.make
    ~print:(fun (_, q) ->
      String.concat " , "
        (List.map (fun a -> print_regex a.Crpq.re) (Crpq.atoms q)))
    QCheck.Gen.(pair gen_graph gen_crpq)

let prop_crpq_vs_wcoj =
  QCheck.Test.make ~count:120 ~name:"Crpq.eval = Crpq_wcoj.eval (widths 1, 4)"
    arb_graph_crpq
    (fun (g, q) ->
      let reference = norm (Crpq.eval ~pool:pool1 g q) in
      norm (Crpq_wcoj.eval ~pool:pool1 g q) = reference
      && norm (Crpq.eval ~pool:pool4 g q) = reference
      && norm (Crpq_wcoj.eval ~pool:pool4 g q) = reference)

(* --- telemetry does not change answers ------------------------------------ *)

let prop_obs_transparent =
  (* An enabled sink must be observation-only: identical answers with and
     without metrics attached, and the counted work must be non-zero
     whenever there are answers. *)
  QCheck.Test.make ~count:120 ~name:"attaching a metrics sink changes nothing"
    arb_graph_regex
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let plain = Rpq_eval.pairs_nfa ~pool:pool1 g nfa in
      let metrics = Metrics.create () in
      let obs = Obs.make ~metrics () in
      let counted = Rpq_eval.pairs_nfa ~pool:pool1 ~obs g nfa in
      counted = plain
      && (plain = []
         || List.assoc_opt "rpq.answers" (Metrics.counters metrics)
            = Some (List.length plain)))

let () =
  Alcotest.run "differential"
    [
      ( "rpq",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rpq_vs_matrix;
            prop_rpq_nfa_vs_dfa;
            prop_rpq_vs_naive_on_dags;
            prop_naive_sound_on_cycles;
            prop_walk_vs_product;
            prop_shortest_vs_product;
          ] );
      ( "crpq",
        List.map QCheck_alcotest.to_alcotest [ prop_crpq_vs_wcoj ] );
      ( "telemetry",
        List.map QCheck_alcotest.to_alcotest [ prop_obs_transparent ] );
    ]
