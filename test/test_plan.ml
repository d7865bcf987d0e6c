(* The plan layer (ISSUE 5): the LRU compilation cache, graph statistics,
   the cost-based CRPQ planner, and the adaptive parallelism policy.
   Deterministic pins on the bank graph plus QCheck properties that the
   planner and the caches never change answers. *)

let bank = Generators.bank_elg ()
let parse = Rpq_parse.parse

(* --- Lru: recency, eviction, generations -------------------------------- *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c ~gen:0 "a" 1;
  Lru.add c ~gen:0 "b" 2;
  (* Touch [a] so [b] becomes the LRU victim of the next insert. *)
  Alcotest.(check (option int)) "a hit" (Some 1) (Lru.find c "a");
  Lru.add c ~gen:0 "c" 3;
  Alcotest.(check int) "still at capacity" 2 (Lru.length c);
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check int) "hits" 3 (Lru.hits c);
  Alcotest.(check int) "misses" 1 (Lru.misses c);
  (* Replacing an existing key at capacity evicts nothing. *)
  Lru.add c ~gen:0 "c" 30;
  Alcotest.(check int) "replace is not an eviction" 1 (Lru.evictions c);
  Alcotest.(check (option int)) "replaced" (Some 30) (Lru.peek c "c")

let test_lru_generations () =
  let c = Lru.create ~capacity:8 () in
  Lru.add c ~gen:1 "p1" 1;
  Lru.add c ~gen:1 "p2" 2;
  Lru.add c ~gen:2 "q" 3;
  Alcotest.(check int) "drop gen-1 entries" 2 (Lru.drop_generations_except c 2);
  Alcotest.(check (option int)) "survivor" (Some 3) (Lru.peek c "q");
  Alcotest.(check (option int)) "dropped" None (Lru.peek c "p1");
  Alcotest.(check int) "invalidated counter" 2 (Lru.invalidated c);
  Alcotest.(check int) "idempotent" 0 (Lru.drop_generations_except c 2)

(* --- Plan_cache: hit/miss accounting, disabled mode, error paths -------- *)

let test_plan_cache_hits () =
  let pc = Plan_cache.create ~enabled:true () in
  let compile text =
    Plan_cache.compile pc ~flags:"rpq" ~parse:Rpq_parse.parse_res text
  in
  (match compile "a.b*" with
  | Ok c ->
      Alcotest.(check string) "source" "a.b*" c.Plan_cache.source;
      Alcotest.(check (list string)) "symbols" [ "a"; "b" ] c.Plan_cache.symbols
  | Error _ -> Alcotest.fail "compile failed");
  Alcotest.(check int) "first is a miss" 1 (Plan_cache.misses pc);
  ignore (compile "a.b*");
  Alcotest.(check int) "second is a hit" 1 (Plan_cache.hits pc);
  Alcotest.(check int) "one entry" 1 (Plan_cache.length pc);
  (* Same text, different flags: a distinct entry. *)
  ignore (Plan_cache.compile pc ~flags:"other" ~parse:Rpq_parse.parse_res "a.b*");
  Alcotest.(check int) "flags key the cache" 2 (Plan_cache.length pc);
  (* Parse errors are never cached. *)
  (match compile "a.(b" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error _ -> ());
  ignore (compile "a.(b");
  Alcotest.(check int) "errors not stored" 2 (Plan_cache.length pc);
  (* The DFA is shared across hits, built at most once. *)
  match (compile "a.b*", compile "a.b*") with
  | Ok c1, Ok c2 ->
      Alcotest.(check bool) "hit returns the same compiled value" true
        (c1 == c2);
      Alcotest.(check bool) "minimized DFA accepts a.b" true
        (Dfa.accepts (Lazy.force c1.Plan_cache.dfa) [ "a"; "b" ])
  | _ -> Alcotest.fail "recompile failed"

let test_plan_cache_disabled () =
  let pc = Plan_cache.create ~enabled:false () in
  let compile () =
    Plan_cache.compile pc ~flags:"rpq" ~parse:Rpq_parse.parse_res "a*"
  in
  (match compile () with Ok _ -> () | Error _ -> Alcotest.fail "compile");
  (match compile () with Ok _ -> () | Error _ -> Alcotest.fail "compile");
  Alcotest.(check int) "nothing stored" 0 (Plan_cache.length pc);
  Alcotest.(check int) "no hits" 0 (Plan_cache.hits pc);
  Alcotest.(check int) "every request misses" 2 (Plan_cache.misses pc)

(* --- Rpq_compile: product cache + generation invalidation --------------- *)

let test_generation_invalidation () =
  let t = Rpq_compile.create ~enabled:true () in
  let c =
    match Rpq_compile.compile t "Transfer*" with
    | Ok c -> c
    | Error _ -> Alcotest.fail "compile"
  in
  let eval g =
    Governor.payload ~default:[]
      (Rpq_compile.pairs_bounded t (Governor.unlimited ()) g c)
  in
  let before = eval bank in
  Alcotest.(check bool) "product cached after eval" true
    (Rpq_compile.product_cached t bank c);
  ignore (eval bank);
  Alcotest.(check bool) "warm product hits" true (Rpq_compile.product_hits t >= 1);
  (* A new load: graph-dependent entries die, the compiled plan survives. *)
  let other = Generators.clique 4 "Transfer" in
  Rpq_compile.set_generation t (Elg.id other);
  Alcotest.(check int) "products dropped" 0 (Rpq_compile.product_entries t);
  Alcotest.(check bool) "invalidation counted" true
    (Rpq_compile.invalidated t >= 1);
  Alcotest.(check bool) "plan survives the load" true
    (Plan_cache.was_cached (Rpq_compile.plans t) ~flags:"rpq" "Transfer*");
  Alcotest.(check int) "generation recorded" (Elg.id other)
    (Rpq_compile.generation t);
  (* Rebuilt against the new graph, and the old answers are unchanged if
     the old graph comes back. *)
  Alcotest.(check int) "clique pairs" 16 (List.length (eval other));
  Alcotest.(check bool) "bank answers unchanged after invalidation" true
    (eval bank = before)

(* --- Stats: pins on the bank graph -------------------------------------- *)

let test_stats () =
  let st = Stats.get bank in
  Alcotest.(check int) "nodes" (Elg.nb_nodes bank) st.Stats.nb_nodes;
  Alcotest.(check int) "edges" (Elg.nb_edges bank) st.Stats.nb_edges;
  Alcotest.(check int) "Transfer edges" 10
    (Stats.sym_edges st (Stats.Lbl "Transfer"));
  Alcotest.(check int) "unknown label" 0 (Stats.sym_edges st (Stats.Lbl "zzz"));
  Alcotest.(check int) "wildcard = all edges" (Elg.nb_edges bank)
    (Stats.sym_edges st Stats.Any);
  Alcotest.(check bool) "negation excludes the set" true
    (Stats.sym_edges st (Stats.Not [ "Transfer" ])
    <= Elg.nb_edges bank - 10);
  Alcotest.(check bool) "distinct sources <= edges" true
    (Stats.sym_sources st (Stats.Lbl "Transfer") <= 10);
  Alcotest.(check bool) "memoized" true (Stats.get bank == st)

(* --- Par_policy ---------------------------------------------------------- *)

let test_par_policy () =
  let d = Par_policy.decide ~max_width:8 ~sources:10 ~product_edges:10 () in
  Alcotest.(check int) "tiny work stays serial" 1 d.Par_policy.width;
  Alcotest.(check int) "work = sources x edges" 100 d.Par_policy.work;
  Alcotest.(check bool) "below-threshold reason" true
    (d.Par_policy.reason = Par_policy.Below_threshold);
  let d2 =
    Par_policy.decide ~max_width:8 ~sources:1_000_000 ~product_edges:1_000_000
      ()
  in
  Alcotest.(check bool) "work saturates without overflow" true
    (d2.Par_policy.work > 0);
  Alcotest.(check int) "wide work forks up to hardware"
    (max 1 (min 8 (Par_policy.hardware ())))
    d2.Par_policy.width;
  let d3 =
    Par_policy.decide ~max_width:1 ~sources:max_int ~product_edges:2 ()
  in
  Alcotest.(check int) "max_width caps the decision" 1 d3.Par_policy.width;
  (* Bitset work is counted in 63-source blocks. *)
  let db =
    Par_policy.decide ~kernel:Par_policy.Bitset ~max_width:8 ~sources:126
      ~product_edges:10 ()
  in
  Alcotest.(check int) "bitset units are blocks" 2 db.Par_policy.units;
  Alcotest.(check int) "bitset work = blocks x edges" 20 db.Par_policy.work;
  (* The last decision is recorded for serve stats. *)
  (match Par_policy.last () with
  | Some l -> Alcotest.(check int) "last records the decision" 20 l.Par_policy.work
  | None -> Alcotest.fail "expected a last decision");
  let dp = Par_policy.pinned ~width:4 in
  Alcotest.(check bool) "pinned reason" true
    (dp.Par_policy.reason = Par_policy.Pinned);
  Alcotest.(check int) "pinned width" 4 dp.Par_policy.width

(* The two serial gates that sit between "work is big enough" and
   "fork": too few parallel grains per worker, and a calibration memory
   that has watched this width lose.  [?hardware] pins the machine shape
   so the test is deterministic on any runner. *)
let test_par_policy_gating () =
  Par_policy.reset_calibration ();
  let m = Metrics.create () in
  let obs = Obs.make ~metrics:m () in
  (* 3 bitset blocks of work over 2 claimed cores: under the default
     4-units-per-worker floor, forking leaves a worker idle — serial. *)
  let df =
    Par_policy.decide ~obs ~kernel:Par_policy.Bitset ~hardware:2 ~max_width:8
      ~sources:180 ~product_edges:1_000_000 ()
  in
  Alcotest.(check int) "few units stay serial" 1 df.Par_policy.width;
  Alcotest.(check bool) "few-units reason" true
    (df.Par_policy.reason = Par_policy.Few_units);
  (* Plenty of blocks: same shape forks once the grain count clears. *)
  let dw =
    Par_policy.decide ~obs ~kernel:Par_policy.Bitset ~hardware:2 ~max_width:8
      ~sources:(63 * 16) ~product_edges:1_000_000 ()
  in
  Alcotest.(check int) "ample units fork" 2 dw.Par_policy.width;
  (* Inject measurements: width 2 ran no faster than serial, so the
     calibration memory overrides the static verdict. *)
  Par_policy.record ~kernel:Par_policy.Bitset ~width:1 ~sources:(63 * 16)
    ~product_edges:1_000_000 ~elapsed:0.10 ();
  Par_policy.record ~kernel:Par_policy.Bitset ~width:2 ~sources:(63 * 16)
    ~product_edges:1_000_000 ~elapsed:0.11 ();
  let dc =
    Par_policy.decide ~obs ~kernel:Par_policy.Bitset ~hardware:2 ~max_width:8
      ~sources:(63 * 16) ~product_edges:1_000_000 ()
  in
  Alcotest.(check int) "calibrated loser stays serial" 1 dc.Par_policy.width;
  Alcotest.(check bool) "calibrated-serial reason" true
    (dc.Par_policy.reason = Par_policy.Calibrated_serial);
  (* A measured parallel win (beats serial by > 5%) re-enables forking. *)
  Par_policy.record ~kernel:Par_policy.Bitset ~width:2 ~sources:(63 * 16)
    ~product_edges:1_000_000 ~elapsed:0.02 ();
  Par_policy.record ~kernel:Par_policy.Bitset ~width:2 ~sources:(63 * 16)
    ~product_edges:1_000_000 ~elapsed:0.02 ();
  Par_policy.record ~kernel:Par_policy.Bitset ~width:2 ~sources:(63 * 16)
    ~product_edges:1_000_000 ~elapsed:0.02 ();
  let dr =
    Par_policy.decide ~obs ~kernel:Par_policy.Bitset ~hardware:2 ~max_width:8
      ~sources:(63 * 16) ~product_edges:1_000_000 ()
  in
  Alcotest.(check int) "measured win re-forks" 2 dr.Par_policy.width;
  (* Each gate left its audit trail in the decision counters. *)
  let counters = Metrics.counters m in
  let c name = match List.assoc_opt name counters with Some n -> n | None -> 0 in
  Alcotest.(check int) "few_units counted" 1 (c "rpq.par_decision.few_units");
  Alcotest.(check int) "calibrated_serial counted" 1
    (c "rpq.par_decision.calibrated_serial");
  Alcotest.(check int) "parallel counted" 2 (c "rpq.par_decision.parallel");
  Par_policy.reset_calibration ()

(* --- Planner: pins ------------------------------------------------------- *)

let v x = Planner.Var x

let test_planner_orders_selective_first () =
  (* Adversarial order: the huge Transfer* atom first, the 2-edge
     isBlocked atom second.  The planner flips them and probes the big
     atom from its bound endpoint. *)
  let q =
    Crpq.make ~head:[ "x"; "y"; "z" ]
      ~atoms:
        [
          { Crpq.re = parse "Transfer*"; x = Crpq.TVar "x"; y = Crpq.TVar "y" };
          { Crpq.re = parse "isBlocked"; x = Crpq.TVar "y"; y = Crpq.TVar "z" };
        ]
  in
  match Crpq.explain bank q with
  | [ (ap1, mode1); (ap2, mode2) ] ->
      Alcotest.(check int) "selective atom first" 1 ap1.Planner.index;
      Alcotest.(check int) "big atom second" 0 ap2.Planner.index;
      Alcotest.(check bool) "first atom materializes" true
        (String.length mode1 >= 11 && String.sub mode1 0 11 = "materialize");
      Alcotest.(check string) "bound endpoint turns into a backward probe"
        "probe-backward" mode2;
      Alcotest.(check bool) "isBlocked estimate is the small one" true
        (ap1.Planner.est.Planner.card <= ap2.Planner.est.Planner.card)
  | plans ->
      Alcotest.failf "expected 2 planned atoms, got %d" (List.length plans)

let test_variable_order () =
  let atoms =
    [
      { Planner.re = parse "Transfer*"; x = v "x"; y = v "y" };
      { Planner.re = parse "isBlocked"; x = v "y"; y = v "z" };
    ]
  in
  let st = Stats.get bank in
  let p = Planner.plan st atoms in
  Alcotest.(check (list string)) "first-appearance along the plan"
    [ "y"; "z"; "x" ]
    (Planner.variable_order atoms p)

(* --- properties ---------------------------------------------------------- *)

let gen_graph =
  QCheck.Gen.(
    int_range 1 10_000 >|= fun seed ->
    Generators.random_graph ~seed ~nodes:6 ~edges:12 ~labels:[ "a"; "b"; "c" ])

let gen_regex =
  QCheck.Gen.(
    sized_size (int_range 1 6)
    @@ fix (fun self size ->
           if size <= 1 then
             oneof
               [
                 return Regex.Eps;
                 map (fun l -> Regex.Atom (Sym.Lbl l)) (oneofl [ "a"; "b"; "c" ]);
                 return (Regex.Atom Sym.Any);
               ]
           else
             oneof
               [
                 map2 (fun a b -> Regex.Seq (a, b)) (self (size / 2)) (self (size / 2));
                 map2 (fun a b -> Regex.Alt (a, b)) (self (size / 2)) (self (size / 2));
                 map (fun a -> Regex.Star a) (self (size - 1));
               ]))

let gen_crpq =
  QCheck.Gen.(
    let term = oneofl [ "x"; "y"; "z"; "w" ] >|= fun v -> Crpq.TVar v in
    list_size (int_range 1 3)
      (map3 (fun re x y -> { Crpq.re; x; y }) gen_regex term term)
    >|= fun atoms ->
    let head =
      List.concat_map
        (fun a ->
          List.filter_map
            (function Crpq.TVar v -> Some v | Crpq.TConst _ -> None)
            [ a.Crpq.x; a.Crpq.y ])
        atoms
      |> List.sort_uniq String.compare
    in
    Crpq.make ~head ~atoms)

let crpq_to_string q =
  String.concat ", "
    (List.map
       (fun a ->
         let t = function Crpq.TVar v -> v | Crpq.TConst c -> "@" ^ c in
         Printf.sprintf "%s -[%s]-> %s" (t a.Crpq.x)
           (Regex.to_string Sym.to_string a.Crpq.re)
           (t a.Crpq.y))
       (Crpq.atoms q))

let arb_graph_crpq =
  QCheck.make
    ~print:(fun (_, q) -> crpq_to_string q)
    QCheck.Gen.(pair gen_graph gen_crpq)

let prop_planner_equals_default =
  QCheck.Test.make ~count:60
    ~name:"planner-ordered CRPQ = default-order answers (widths 1, 4)"
    arb_graph_crpq
    (fun (g, q) ->
      let base =
        Crpq.homomorphisms ~planner:false ~pool:(Pool.create ~size:1 ()) g q
      in
      List.for_all
        (fun (planner, size) ->
          Crpq.homomorphisms ~planner ~pool:(Pool.create ~size ()) g q = base)
        [ (true, 1); (true, 4); (false, 4) ])

let prop_wcoj_planner_equals_default =
  QCheck.Test.make ~count:40
    ~name:"WCOJ with planner variable order = default order"
    arb_graph_crpq
    (fun (g, q) ->
      Crpq_wcoj.eval ~planner:true g q = Crpq_wcoj.eval ~planner:false g q)

let prop_cached_equals_cold =
  QCheck.Test.make ~count:60 ~name:"cached evaluation = cold evaluation"
    (QCheck.make
       ~print:(fun (_, r) -> Regex.to_string Sym.to_string r)
       QCheck.Gen.(pair gen_graph gen_regex))
    (fun (g, r) ->
      let cold = Rpq_eval.pairs g r in
      let t = Rpq_compile.create ~enabled:true () in
      let c = Rpq_compile.compile_ast t r in
      let eval () =
        Governor.payload ~default:[]
          (Rpq_compile.pairs_bounded t (Governor.unlimited ()) g c)
      in
      (* First evaluation builds the product; the second one hits it. *)
      eval () = cold && eval () = cold)

let prop_plan_is_permutation =
  QCheck.Test.make ~count:100 ~name:"plan atom order is a permutation"
    arb_graph_crpq
    (fun (g, q) ->
      let atoms = List.map Crpq.to_planner_atom (Crpq.atoms q) in
      let p = Planner.plan (Stats.get g) atoms in
      List.sort compare (List.map (fun ap -> ap.Planner.index) p.Planner.order)
      = List.init (List.length atoms) Fun.id)

let prop_reverse_is_language_reversal =
  QCheck.Test.make ~count:60 ~name:"pairs of reversed regex on reversed graph"
    (QCheck.make
       ~print:(fun (_, r) -> Regex.to_string Sym.to_string r)
       QCheck.Gen.(pair gen_graph gen_regex))
    (fun (g, r) ->
      let rg = Rpq_compile.reversed_graph (Rpq_compile.create ~enabled:false ()) g in
      List.sort compare
        (List.map (fun (u, v) -> (v, u)) (Rpq_eval.pairs rg (Regex.reverse r)))
      = Rpq_eval.pairs g r)

(* A funnel: random [a]/[b] edges, and a [c] edge from every node but
   the two sinks into a sink — many sources, two targets, so the planner
   evaluates the [c]-ending queries backward and [pairs_bounded] must
   transpose the reversed run's answers back into forward order. *)
let gen_funnel =
  QCheck.Gen.(
    pair (int_range 1 10_000) (int_range 8 40) >|= fun (seed, n) ->
    let rnd = Random.State.make [| seed |] in
    let name i = Printf.sprintf "n%d" i in
    let random_edges lbl k =
      List.init k (fun i ->
          ( Printf.sprintf "%s%d" lbl i,
            name (Random.State.int rnd n),
            lbl,
            name (Random.State.int rnd n) ))
    in
    let funnel =
      List.init (n - 2) (fun i ->
          (Printf.sprintf "c%d" i, name (i + 2), "c", name (i mod 2)))
    in
    Elg.make
      ~nodes:(List.init n name)
      ~edges:(random_edges "a" (2 * n) @ random_edges "b" n @ funnel))

let funnel_queries = [| "c"; "(a|b).c"; "a*.c"; "b.a*.c" |]

let prop_backward_capped_is_sorted_subset =
  QCheck.Test.make ~count:60
    ~name:"backward pairs under a result cap = sorted subset of forward"
    (QCheck.make
       ~print:(fun (_, q, k) -> Printf.sprintf "%s cap %d" q k)
       QCheck.Gen.(
         triple gen_funnel (oneofa funnel_queries) (int_range 0 60)))
    (fun (g, text, cap) ->
      let t = Rpq_compile.create ~enabled:true () in
      let c = Result.get_ok (Rpq_compile.compile t text) in
      if Planner.direction_of (Stats.get g) c.Plan_cache.ast <> Planner.Backward
      then QCheck.Test.fail_reportf "%s is not evaluated backward" text;
      let forward =
        Governor.value
          (Rpq_compile.pairs_bounded ~planner:false t (Governor.unlimited ()) g c)
      in
      let backward ?max_results () =
        Governor.payload ~default:[]
          (Rpq_compile.pairs_bounded ~planner:true t
             (Governor.make ?max_results ()) g c)
      in
      let capped = backward ~max_results:cap () in
      let rec strictly_sorted = function
        | x :: (y :: _ as rest) -> compare x y < 0 && strictly_sorted rest
        | _ -> true
      in
      backward () = forward
      && strictly_sorted capped
      && List.length capped <= cap
      && List.for_all (fun p -> List.mem p forward) capped)

let () =
  Alcotest.run "plan"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction + recency" `Quick test_lru_eviction;
          Alcotest.test_case "generation drop" `Quick test_lru_generations;
        ] );
      ( "plan cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_plan_cache_hits;
          Alcotest.test_case "disabled mode" `Quick test_plan_cache_disabled;
          Alcotest.test_case "generation invalidation" `Quick
            test_generation_invalidation;
        ] );
      ( "stats + policy",
        [
          Alcotest.test_case "bank statistics" `Quick test_stats;
          Alcotest.test_case "parallelism policy" `Quick test_par_policy;
          Alcotest.test_case "serial gates + calibration" `Quick
            test_par_policy_gating;
        ] );
      ( "planner",
        [
          Alcotest.test_case "selective atom first" `Quick
            test_planner_orders_selective_first;
          Alcotest.test_case "variable order" `Quick test_variable_order;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_planner_equals_default;
          QCheck_alcotest.to_alcotest prop_wcoj_planner_equals_default;
          QCheck_alcotest.to_alcotest prop_cached_equals_cold;
          QCheck_alcotest.to_alcotest prop_plan_is_permutation;
          QCheck_alcotest.to_alcotest prop_reverse_is_language_reversal;
          QCheck_alcotest.to_alcotest prop_backward_capped_is_sorted_subset;
        ] );
    ]
