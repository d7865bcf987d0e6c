(* Bit-parallel kernel suite: the word-packed multi-source engine
   ([Rpq_bitset]) must be answer-for-answer interchangeable with the
   boolean-matrix semiring oracle — at pool widths 1 and 4, and under every frontier direction
   (forced push, forced pull, adaptive); under a budget its Partial
   payload must be a subset of the full answer set (in pull sweeps
   too); the 63-sources-per-word packing must be exercised right at the
   block boundaries (62/63/64/65 sources) in both directions; and the
   count-only mode must count without materializing (the
   [rpq.bitset.materialized] counter stays at zero). *)

let pool1 = Pool.create ~size:1 ()
let pool4 = Pool.create ~size:4 ()

(* Pin the frontier direction for the extent of [f], then restore the
   adaptive default so tests compose in any order. *)
let with_pull m f =
  Rpq_bitset.set_pull_mode m;
  Fun.protect ~finally:Rpq_bitset.clear_pull_mode f

let pull_modes =
  [
    ("push", Rpq_bitset.Always_push);
    ("pull", Rpq_bitset.Always_pull);
    ("adaptive", Rpq_bitset.Adaptive Rpq_bitset.default_pull_alpha);
    (* An aggressive ratio so adaptive runs actually mix directions on
       tiny graphs instead of degenerating to all-push. *)
    ("adaptive-eager", Rpq_bitset.Adaptive 1_000);
  ]

(* --- boolean-matrix semiring oracle (no automaton, no BFS) ---------------- *)

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
    Generators.random_graph ~seed ~nodes:6 ~edges:10 ~labels:[ "a"; "b" ])

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

let norm pairs = List.sort_uniq compare pairs

(* --- equivalence: kernel (push/pull/adaptive/adaptive-eager) = matrix
   oracle, at widths 1 and 4 ------------------------------------------------ *)

let prop_kernel_vs_matrix =
  QCheck.Test.make ~count:150
    ~name:"kernel = matrix oracle (all modes)"
    arb_graph_regex
    (fun (g, r) ->
      let oracle = norm (Matrix_oracle.pairs g r) in
      let nfa = Nfa.of_regex r in
      (* Not normalized: answers come back sorted and duplicate-free by
         contract, so the merge order is checked too. *)
      List.for_all
        (fun (_, m) ->
          with_pull m (fun () ->
              Rpq_eval.pairs_nfa ~pool:pool1 g nfa = oracle
              && Rpq_eval.pairs_nfa ~pool:pool4 g nfa = oracle))
        pull_modes)

(* --- budgets: Partial is a subset, Complete is everything ------------------ *)

let arb_budgeted =
  QCheck.make
    ~print:(fun ((_, r), k) -> Printf.sprintf "%s / max_steps=%d" (print_regex r) k)
    QCheck.Gen.(pair (pair gen_graph gen_regex) (int_range 1 60))

let prop_partial_subset_under_budget =
  QCheck.Test.make ~count:150
    ~name:"bitset under step budget: Partial subset / Complete equal"
    arb_budgeted
    (fun ((g, r), max_steps) ->
      let full = norm (Rpq_eval.pairs g r) in
      let gov = Governor.make ~max_steps () in
      match Rpq_eval.pairs_bounded gov g r with
      | Governor.Complete ps -> norm ps = full
      | Governor.Partial (ps, _) -> List.for_all (fun uv -> List.mem uv full) ps
      | Governor.Aborted _ -> true)

let prop_partial_subset_under_budget_pull =
  (* A budget trip mid-pull-sweep must also leave only true
     reachability facts behind. *)
  QCheck.Test.make ~count:150
    ~name:"pull sweeps under step budget: Partial subset / Complete equal"
    arb_budgeted
    (fun ((g, r), max_steps) ->
      with_pull Rpq_bitset.Always_pull (fun () ->
          let full = norm (Rpq_eval.pairs g r) in
          let gov = Governor.make ~max_steps () in
          match Rpq_eval.pairs_bounded gov g r with
          | Governor.Complete ps -> norm ps = full
          | Governor.Partial (ps, _) ->
              List.for_all (fun uv -> List.mem uv full) ps
          | Governor.Aborted _ -> true))

let prop_count_matches_pairs =
  (* Count-only mode: same cardinality as the materializing run, zero
     materialized answers (the O(blocks) allocation claim), under every
     direction. *)
  QCheck.Test.make ~count:150 ~name:"count-only = |pairs|, materializes nothing"
    arb_graph_regex
    (fun (g, r) ->
      let expected = List.length (norm (Matrix_oracle.pairs g r)) in
      List.for_all
        (fun (_, m) ->
          with_pull m (fun () ->
              let metrics = Metrics.create () in
              let obs = Obs.make ~metrics () in
              let got = Rpq_eval.count_pairs ~pool:pool1 ~obs g r in
              got = expected
              && Option.value ~default:0
                   (List.assoc_opt "rpq.bitset.materialized"
                      (Metrics.counters metrics))
                 = 0))
        pull_modes)

let prop_count_result_cap =
  QCheck.Test.make ~count:100 ~name:"count-only respects the result cap"
    arb_graph_regex
    (fun (g, r) ->
      let full = List.length (norm (Matrix_oracle.pairs g r)) in
      let cap = 3 in
      let gov = Governor.make ~max_results:cap () in
      let got =
        Governor.payload ~default:0
          (Rpq_eval.count_pairs_bounded ~pool:pool1 gov g r)
      in
      got = min cap full)

let prop_check_matches_oracle =
  (* The kernel first-k path behind [check]: membership must agree with
     the oracle for every (src, tgt), under every direction. *)
  QCheck.Test.make ~count:75 ~name:"kernel check = oracle"
    arb_graph_regex
    (fun (g, r) ->
      let oracle = norm (Matrix_oracle.pairs g r) in
      let n = Elg.nb_nodes g in
      let ok = ref true in
      for src = 0 to n - 1 do
        for tgt = 0 to n - 1 do
          let expected = List.mem (src, tgt) oracle in
          List.iter
            (fun (_, m) ->
              if with_pull m (fun () -> Rpq_eval.check g r ~src ~tgt) <> expected
              then ok := false)
            pull_modes
        done
      done;
      !ok)

let prop_result_cap_exact =
  (* [emit_many] must admit exactly up to the cap, not a word-granular
     approximation of it. *)
  QCheck.Test.make ~count:150 ~name:"bitset result cap is exact" arb_graph_regex
    (fun (g, r) ->
      let full = norm (Rpq_eval.pairs g r) in
      let cap = 3 in
      let gov = Governor.make ~max_results:cap () in
      let ps = Governor.payload ~default:[] (Rpq_eval.pairs_bounded gov g r) in
      List.length ps = min cap (List.length full)
      && List.for_all (fun uv -> List.mem uv full) ps)

(* --- block boundaries: 62 / 63 / 64 / 65 sources --------------------------- *)

(* A star: spoke s_i -a-> hub -b-> t.  Under a.b exactly the spokes are
   multi-source candidates, so [m] spokes occupy [nb_blocks m] words. *)
let star m =
  let nodes =
    "hub" :: "t" :: List.init m (Printf.sprintf "s%d")
  in
  let edges =
    ("eb", "hub", "b", "t")
    :: List.init m (fun i ->
           (Printf.sprintf "ea%d" i, Printf.sprintf "s%d" i, "a", "hub"))
  in
  Elg.make ~nodes ~edges

let re_ab = Regex.Seq (Regex.Atom (Sym.Lbl "a"), Regex.Atom (Sym.Lbl "b"))

(* The benchmark's high-overlap workload, shrunk: every spoke crosses the
   same core clique, which drives the kernel down its dense-emission
   path (most of the graph reached per block) — the sparse touched-scan
   path is what the random QCheck graphs exercise. *)
let test_hub_equivalence () =
  let g = Generators.hub ~spokes:10 ~core:4 ~targets:2 in
  let r =
    Regex.Seq
      ( Regex.Atom (Sym.Lbl "a"),
        Regex.Seq (Regex.Star (Regex.Atom (Sym.Lbl "b")), Regex.Atom (Sym.Lbl "c")) )
  in
  let oracle = norm (Matrix_oracle.pairs g r) in
  let nfa = Nfa.of_regex r in
  List.iter
    (fun (mname, m) ->
      let got = with_pull m (fun () -> norm (Rpq_eval.pairs_nfa ~pool:pool1 g nfa)) in
      Alcotest.(check bool) ("kernel = oracle on hub (" ^ mname ^ ")") true (got = oracle))
    pull_modes;
  Alcotest.(check int) "every spoke reaches every sink" 20 (List.length oracle)

let test_block_boundaries () =
  List.iter
    (fun (mname, pm) ->
      List.iter
        (fun m ->
          let g = star m in
          let expected = norm (Matrix_oracle.pairs g re_ab) in
          let metrics = Metrics.create () in
          let obs = Obs.make ~metrics () in
          let got =
            with_pull pm (fun () -> norm (Rpq_eval.pairs ~pool:pool4 ~obs g re_ab))
          in
          Alcotest.(check bool)
            (Printf.sprintf "answers at %d sources (%s)" m mname)
            true (got = expected);
          Alcotest.(check (option int))
            (Printf.sprintf "blocks at %d sources (%s)" m mname)
            (Some (Rpq_bitset.nb_blocks m))
            (List.assoc_opt "rpq.bitset.blocks" (Metrics.counters metrics));
          (* Positive control for the count-only O(blocks) pin: a
             materializing run on an ε-free query must account for every
             answer under [rpq.bitset.materialized]. *)
          Alcotest.(check (option int))
            (Printf.sprintf "materialized at %d sources (%s)" m mname)
            (Some m)
            (List.assoc_opt "rpq.bitset.materialized"
               (Metrics.counters metrics)))
        [ 62; 63; 64; 65 ])
    [ ("push", Rpq_bitset.Always_push); ("pull", Rpq_bitset.Always_pull) ]

let test_targets_boundaries () =
  (* The serve-mode entry point: per-source target slices must line up
     with their sources across the word boundary, in both directions. *)
  List.iter
    (fun (mname, pm) ->
      List.iter
        (fun m ->
          let g = star m in
          let p = Product.make g (Nfa.of_regex re_ab) in
          let sources =
            Array.append
              (Array.init m (fun i -> Elg.node_id g (Printf.sprintf "s%d" i)))
              [| Elg.node_id g "hub"; Elg.node_id g "t" |]
          in
          let oracle = norm (Matrix_oracle.pairs g re_ab) in
          let expected src =
            Array.of_list
              (List.filter_map
                 (fun (u, v) -> if u = src then Some v else None)
                 oracle)
          in
          let out =
            with_pull pm (fun () ->
                Rpq_bitset.targets (Governor.unlimited ()) p ~sources)
          in
          Alcotest.(check int)
            (Printf.sprintf "slices at %d spokes (%s)" m mname)
            (m + 2) (Array.length out);
          Array.iteri
            (fun i src ->
              Alcotest.(check (array int))
                (Printf.sprintf "source %d of %d spokes (%s)" i m mname)
                (expected src) out.(i))
            sources)
        [ 62; 63; 64; 65 ])
    [ ("push", Rpq_bitset.Always_push); ("pull", Rpq_bitset.Always_pull) ]

let () =
  Alcotest.run "bitset"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_kernel_vs_matrix;
            prop_partial_subset_under_budget;
            prop_partial_subset_under_budget_pull;
            prop_result_cap_exact;
            prop_count_matches_pairs;
            prop_count_result_cap;
            prop_check_matches_oracle;
          ] );
      ( "blocks",
        [
          Alcotest.test_case "boundary sources 62-65" `Quick
            test_block_boundaries;
          Alcotest.test_case "targets slicing 62-65" `Quick
            test_targets_boundaries;
          Alcotest.test_case "hub workload equivalence" `Quick
            test_hub_equivalence;
        ] );
    ]
