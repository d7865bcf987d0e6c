(* The paper's core languages (Section 3): l-RPQs, CRPQs, l-CRPQs,
   dl-RPQs, dl-CRPQs, nested CRPQs — validated against the paper's own
   worked examples. *)

let bank = Generators.bank_elg ()
let bank_pg = Generators.bank_pg ()
let parse = Rpq_parse.parse
let id name = Elg.node_id bank name
let eid name = Elg.edge_id bank name

(* --- CRPQs (Examples 13) ------------------------------------------------ *)

let test_example13_q1 () =
  let t = Regex.atom (Sym.Lbl "Transfer") in
  let q =
    Crpq.make ~head:[ "x1"; "x2"; "x3" ]
      ~atoms:
        [
          { Crpq.re = t; x = Crpq.TVar "x1"; y = Crpq.TVar "x2" };
          { Crpq.re = t; x = Crpq.TVar "x1"; y = Crpq.TVar "x3" };
          { Crpq.re = t; x = Crpq.TVar "x2"; y = Crpq.TVar "x3" };
        ]
  in
  let result = Crpq.eval bank q in
  let expected =
    List.sort Stdlib.compare
      [ [ id "a3"; id "a2"; id "a4" ]; [ id "a6"; id "a3"; id "a5" ] ]
  in
  Alcotest.(check (list (list int))) "exactly the paper's two triples" expected result

let test_example13_q2 () =
  let q =
    Crpq.make ~head:[ "x"; "x1"; "x2" ]
      ~atoms:
        [
          { Crpq.re = parse "owner"; x = Crpq.TVar "y"; y = Crpq.TVar "x1" };
          { Crpq.re = parse "isBlocked"; x = Crpq.TVar "y"; y = Crpq.TVar "x2" };
          { Crpq.re = parse "Transfer.Transfer?"; x = Crpq.TVar "x"; y = Crpq.TVar "y" };
        ]
  in
  let result = Crpq.eval bank q in
  Alcotest.(check bool) "(a4, Rebecca, no) returned" true
    (List.mem [ id "a4"; id "Rebecca"; id "no" ] result);
  (* Sanity: every row's x2 is yes/no. *)
  List.iter
    (fun row ->
      match row with
      | [ _; _; b ] ->
          Alcotest.(check bool) "blocked flag" true (b = id "yes" || b = id "no")
      | _ -> Alcotest.fail "arity")
    result

let test_crpq_constants () =
  let q =
    Crpq.make ~head:[ "y" ]
      ~atoms:[ { Crpq.re = parse "Transfer"; x = Crpq.TConst "a3"; y = Crpq.TVar "y" } ]
  in
  let result = Crpq.eval bank q |> List.concat in
  Alcotest.(check (list string)) "a3's transfer successors" [ "a2"; "a4"; "a5" ]
    (List.sort_uniq String.compare (List.map (Elg.node_name bank) result))

let test_crpq_unsafe_rejected () =
  Alcotest.(check bool) "unsafe head" true
    (match
       Crpq.make ~head:[ "z" ]
         ~atoms:[ { Crpq.re = parse "a"; x = Crpq.TVar "x"; y = Crpq.TVar "y" } ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_crpq_relational_engine () =
  (* The relational-algebra pipeline agrees with the homomorphism join. *)
  let queries =
    [
      Crpq.make ~head:[ "x1"; "x2"; "x3" ]
        ~atoms:
          [
            { Crpq.re = parse "Transfer"; x = Crpq.TVar "x1"; y = Crpq.TVar "x2" };
            { Crpq.re = parse "Transfer"; x = Crpq.TVar "x1"; y = Crpq.TVar "x3" };
            { Crpq.re = parse "Transfer"; x = Crpq.TVar "x2"; y = Crpq.TVar "x3" };
          ];
      Crpq.make ~head:[ "y" ]
        ~atoms:[ { Crpq.re = parse "Transfer+"; x = Crpq.TConst "a3"; y = Crpq.TVar "y" } ];
      Crpq.make ~head:[ "x"; "x1" ]
        ~atoms:
          [
            { Crpq.re = parse "owner"; x = Crpq.TVar "y"; y = Crpq.TVar "x1" };
            { Crpq.re = parse "Transfer.Transfer?"; x = Crpq.TVar "x"; y = Crpq.TVar "y" };
          ];
    ]
  in
  List.iter
    (fun q ->
      let direct = Crpq.eval bank q in
      let relational =
        Relation.rows (Crpq.eval_relational bank q)
        |> List.map
             (List.map (function
               | Relation.Cnode n -> n
               | Relation.Cedge _ | Relation.Cval _ -> -1))
        |> List.sort compare
      in
      Alcotest.(check (list (list int))) "same rows" direct relational)
    queries

let test_crpq_generic_join () =
  (* The generic join agrees with both other engines on random graphs. *)
  let t = Regex.atom (Sym.Lbl "a") in
  let triangle =
    Crpq.make ~head:[ "x"; "y"; "z" ]
      ~atoms:
        [
          { Crpq.re = t; x = Crpq.TVar "x"; y = Crpq.TVar "y" };
          { Crpq.re = t; x = Crpq.TVar "y"; y = Crpq.TVar "z" };
          { Crpq.re = t; x = Crpq.TVar "z"; y = Crpq.TVar "x" };
        ]
  in
  List.iter
    (fun seed ->
      let g = Generators.random_graph ~seed ~nodes:8 ~edges:20 ~labels:[ "a" ] in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "triangles seed %d" seed)
        (Crpq.eval g triangle) (Crpq_wcoj.eval g triangle))
    [ 1; 2; 3; 4; 5 ];
  (* Constants and self-loop atoms. *)
  let q =
    Crpq.make ~head:[ "y" ]
      ~atoms:
        [
          { Crpq.re = parse "Transfer+"; x = Crpq.TConst "a3"; y = Crpq.TVar "y" };
          { Crpq.re = parse "Transfer"; x = Crpq.TVar "y"; y = Crpq.TVar "y2" };
        ]
  in
  Alcotest.(check (list (list int))) "constants agree" (Crpq.eval bank q)
    (Crpq_wcoj.eval bank q)

(* --- l-RPQs (Example 16) ------------------------------------------------ *)

let test_example16 () =
  (* R = (Transfer^z)* . isBlocked *)
  let r =
    Regex.seq
      (Regex.star (Lrpq.cap "Transfer" "z"))
      (Lrpq.lbl "isBlocked")
  in
  let results = Lrpq.enumerate_from bank r ~src:(id "a3") ~max_len:4 in
  let find_binding path_edges =
    List.find_opt
      (fun (p, _) ->
        List.map (Elg.edge_name bank) (Path.edges p) = path_edges)
      results
  in
  (* path(a3, r9, no) with z -> list() *)
  (match find_binding [ "r9" ] with
  | Some (_, mu) -> Alcotest.(check (list string)) "mu5 empty" [] (Lbinding.domain mu)
  | None -> Alcotest.fail "path(a3,r9,no) missing");
  (* path(a3, t2, a2, t3, a4, r10, yes) with z -> list(t2, t3) *)
  (match find_binding [ "t2"; "t3"; "r10" ] with
  | Some (_, mu) ->
      Alcotest.(check (list string)) "mu3 = t2 t3" [ "t2"; "t3" ]
        (List.map
           (function Path.E e -> Elg.edge_name bank e | Path.N _ -> "?")
           (Lbinding.get mu "z"))
  | None -> Alcotest.fail "path via t2,t3 missing");
  (* The parallel-edge variant via t5 is a distinct result (edge identity). *)
  Alcotest.(check bool) "t5 variant present" true (find_binding [ "t5"; "t3"; "r10" ] <> None)

let test_lrpq_square_law () =
  (* ⟦R⟧² = ⟦R·R⟧: the law that fixes Example 1 (here on a small regex). *)
  let r = Lrpq.cap "Transfer" "z" in
  let rr = Regex.seq r r in
  (* Compare against composing single steps manually. *)
  let singles = Lrpq.enumerate bank r ~max_len:1 in
  let composed =
    List.concat_map
      (fun (p1, m1) ->
        List.filter_map
          (fun (p2, m2) ->
            match Path.concat bank p1 p2 with
            | Some p when Path.len p = 2 -> Some (p, Lbinding.concat m1 m2)
            | _ -> None)
          singles)
      singles
    |> List.sort_uniq Stdlib.compare
  in
  let direct = Lrpq.enumerate bank rr ~max_len:2 |> List.filter (fun (p, _) -> Path.len p = 2) in
  Alcotest.(check int) "same cardinality" (List.length composed) (List.length direct);
  List.iter
    (fun (p, m) ->
      Alcotest.(check bool) "composed pair found" true
        (List.exists (fun (p', m') -> Path.equal p p' && Lbinding.equal m m') direct))
    composed

(* --- l-CRPQs (Example 17) ----------------------------------------------- *)

let test_example17 () =
  (* q(x1,x2,z) :- owner(y1,x1), owner(y2,x2),
                   shortest (Transfer^z)+ (y1,y2).
     (The paper's prose says "from x1 to x2" but its own example output
     — transfers between accounts, owners in the head — shows the path
     atom must run between the accounts y1, y2.) *)
  let q =
    Lcrpq.make ~head:[ "x1"; "x2"; "z" ]
      ~atoms:
        [
          {
            Lcrpq.mode = Path_modes.All;
            re = Lrpq.lbl "owner";
            x = Lcrpq.TVar "y1";
            y = Lcrpq.TVar "x1";
          };
          {
            Lcrpq.mode = Path_modes.All;
            re = Lrpq.lbl "owner";
            x = Lcrpq.TVar "y2";
            y = Lcrpq.TVar "x2";
          };
          {
            Lcrpq.mode = Path_modes.Shortest;
            re = Regex.plus (Lrpq.cap "Transfer" "z");
            x = Lcrpq.TVar "y1";
            y = Lcrpq.TVar "y2";
          };
        ]
  in
  let rows = Lcrpq.eval bank q in
  let row_strings = List.map (Lcrpq.row_to_string bank) rows in
  (* Jay -> Rebecca via the single transfer t10. *)
  Alcotest.(check bool) "(Jay, Rebecca, list(t10))" true
    (List.mem "(Jay, Rebecca, list(t10))" row_strings);
  (* Mike -> Megan via the shortest two-transfer path t7 t4 — grouping by
     endpoint pair: the global shortest (length-1 paths elsewhere) does not
     suppress this pair. *)
  Alcotest.(check bool) "(Mike, Megan, list(t7, t4))" true
    (List.mem "(Mike, Megan, list(t7, t4))" row_strings)

let test_lcrpq_condition_checks () =
  (* Condition (3): list variable equal to an endpoint variable. *)
  Alcotest.(check bool) "list/endpoint clash rejected" true
    (match
       Lcrpq.make ~head:[ "x" ]
         ~atoms:
           [
             {
               Lcrpq.mode = Path_modes.All;
               re = Lrpq.cap "a" "x";
               x = Lcrpq.TVar "x";
               y = Lcrpq.TVar "y";
             };
           ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* Condition (4): shared list variable across atoms. *)
  Alcotest.(check bool) "shared list var rejected" true
    (match
       Lcrpq.make ~head:[ "x" ]
         ~atoms:
           [
             {
               Lcrpq.mode = Path_modes.All;
               re = Lrpq.cap "a" "z";
               x = Lcrpq.TVar "x";
               y = Lcrpq.TVar "y";
             };
             {
               Lcrpq.mode = Path_modes.All;
               re = Lrpq.cap "b" "z";
               x = Lcrpq.TVar "y";
               y = Lcrpq.TVar "w";
             };
           ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- dl-RPQs (Example 21, Section 6.3) ---------------------------------- *)

let increasing_edge_dates =
  (* [_^z][x := date] ( (_)[_^z][date > x][x := date] )* : edge-to-edge
     paths with increasing date on edges. *)
  Regex.seq
    (Regex.seq (Dlrpq.edge_any_cap "z") (Dlrpq.edge_test (Etest.Assign ("x", "date"))))
    (Regex.star
       (Regex.seq
          (Regex.seq Dlrpq.node_any (Dlrpq.edge_any_cap "z"))
          (Regex.seq
             (Dlrpq.edge_test (Etest.Cmp_var ("date", Value.Gt, "x")))
             (Dlrpq.edge_test (Etest.Assign ("x", "date"))))))

let test_example21_edges () =
  (* On the dated line 3,4,1,2: increasing-edge-date paths exist on the
     first two edges and last two edges but not across the middle. *)
  let pg = Generators.dated_line [ 3; 4; 1; 2 ] in
  let g = Pg.elg pg in
  let results = Dlrpq.enumerate_from pg increasing_edge_dates ~src:(Elg.node_id g "v0") ~max_len:4 () in
  let edge_seqs =
    List.map
      (fun (p, _) -> List.map (Elg.edge_name g) (Path.edges p))
      results
    |> List.sort_uniq Stdlib.compare
  in
  (* From v0: e0 alone, e0 e1 (3 < 4), but not further (4 > 1). *)
  Alcotest.(check (list (list string))) "from v0" [ [ "e0" ]; [ "e0"; "e1" ] ] edge_seqs

let test_example21_on_bank () =
  (* Increasing transfer dates along the full path t1 t2 t3. *)
  let pg = bank_pg in
  let g = Pg.elg pg in
  let p =
    Path.of_objs_exn g
      [
        Path.E (eid "t1"); Path.N (id "a3"); Path.E (eid "t2"); Path.N (id "a2");
        Path.E (eid "t3");
      ]
  in
  Alcotest.(check bool) "t1 t2 t3 increasing" true
    (Dlrpq.matches_path pg increasing_edge_dates p);
  (* t4 (2025-03-01) then t1 (2025-01-01) is not increasing. *)
  let bad =
    Path.of_objs_exn g
      [ Path.E (eid "t4"); Path.N (id "a1"); Path.E (eid "t1") ]
  in
  Alcotest.(check bool) "t4 t1 rejected" false
    (Dlrpq.matches_path pg increasing_edge_dates bad)

let test_dlrpq_stutter () =
  (* (Account^z)(owner = Mike) matches the single node a3: three atoms, one
     object. *)
  let r =
    Regex.seq
      (Dlrpq.node_cap "Account" "z")
      (Dlrpq.node_test (Etest.Cmp_const ("owner", Value.Eq, Value.Text "Mike")))
  in
  let results = Dlrpq.enumerate_from bank_pg r ~src:(id "a3") ~max_len:0 () in
  Alcotest.(check int) "single result" 1 (List.length results);
  let p, mu = List.hd results in
  Alcotest.(check int) "zero edges" 0 (Path.len p);
  Alcotest.(check bool) "z captured a3" true
    (Lbinding.get mu "z" = [ Path.N (id "a3") ]);
  (* No other account matches. *)
  Alcotest.(check int) "a1 does not match" 0
    (List.length (Dlrpq.enumerate_from bank_pg r ~src:(id "a1") ~max_len:0 ()))

let test_data_filter_shortest () =
  (* Section 6.3: shortest transfers Mike -> Rebecca with at least one
     amount < 4.5M must take the length-3 detour t6 t9 t10. *)
  let small = Dlrpq.edge_test (Etest.Cmp_const ("amount", Value.Lt, Value.Real 4.5)) in
  let transfer = Dlrpq.edge_lbl "Transfer" in
  let hop = Regex.seq Dlrpq.node_any transfer in
  (* (_) [Transfer]* [Transfer & amount<4.5] [Transfer]* (_) rendered as a
     disjunction-free expression: hops, one of which is small.  Simpler:
     (_) ([Transfer])* [Transfer][amount<4.5] ([Transfer])* (_) *)
  let small_hop = Regex.seq (Regex.seq Dlrpq.node_any transfer) small in
  let r =
    Regex.seq Dlrpq.node_any
      (Regex.seq (Regex.star hop)
         (Regex.seq small_hop (Regex.seq (Regex.star hop) Dlrpq.node_any)))
  in
  (match Dlrpq.shortest_len bank_pg r ~src:(id "a3") ~tgt:(id "a5") with
  | Some d -> Alcotest.(check int) "needs length 3" 3 d
  | None -> Alcotest.fail "path expected");
  let results =
    Dlrpq.eval_mode bank_pg r ~mode:Path_modes.Shortest ~max_len:10
      ~src:(id "a3") ~tgt:(id "a5") ()
  in
  Alcotest.(check bool) "t6 t9 t10 is the witness" true
    (List.exists
       (fun (p, _) ->
         List.map (Elg.edge_name bank) (Path.edges p) = [ "t6"; "t9"; "t10" ])
       results)

let test_data_filter_two_small_forces_cycle () =
  (* Two transfer occurrences below 4.5M force a cycle through a3: the
     shortest witness is t6 t9 t8 t6 t9 t10 — it re-traverses t6, so both
     small occurrences are the same edge, and the path has length 6 and
     revisits a3, a4, a6 (the "shortest may even force using cycles"
     phenomenon of Section 6.3). *)
  let small = Dlrpq.edge_test (Etest.Cmp_const ("amount", Value.Lt, Value.Real 4.5)) in
  let transfer = Dlrpq.edge_lbl "Transfer" in
  let hop = Regex.seq Dlrpq.node_any transfer in
  let small_hop = Regex.seq (Regex.seq Dlrpq.node_any transfer) small in
  let r =
    Regex.seq Dlrpq.node_any
      (Regex.seq (Regex.star hop)
         (Regex.seq small_hop
            (Regex.seq (Regex.star hop)
               (Regex.seq small_hop (Regex.seq (Regex.star hop) Dlrpq.node_any)))))
  in
  (match Dlrpq.shortest_len bank_pg r ~src:(id "a3") ~tgt:(id "a5") with
  | Some d -> Alcotest.(check int) "cycle-forcing length" 6 d
  | None -> Alcotest.fail "path expected");
  let results =
    Dlrpq.eval_mode bank_pg r ~mode:Path_modes.Shortest ~max_len:10
      ~src:(id "a3") ~tgt:(id "a5") ()
  in
  List.iter
    (fun (p, _) ->
      Alcotest.(check bool) "witness revisits a node (cycle)" false
        (Path.is_simple p))
    results;
  Alcotest.(check bool) "some witness" true (results <> [])

let test_remark20_boolean_combinations () =
  (* Remark 20: dl-RPQs express boolean combinations of ETests —
     conjunction is concatenation (collapsing on the same object),
     disjunction is regex disjunction, negation flips the operator. *)
  let pg = Generators.dated_line [ 2; 5; 8 ] in
  let g = Pg.elg pg in
  (* Node dates: 2 5 8 9. *)
  let nodes_satisfying r =
    List.filter
      (fun v ->
        Dlrpq.enumerate_from pg r ~src:v ~max_len:0 ()
        |> List.exists (fun (p, _) -> Path.len p = 0))
      (List.init (Elg.nb_nodes g) Fun.id)
    |> List.map (Elg.node_name g)
  in
  let test_gt c = Dlrpq.node_test (Etest.Cmp_const ("date", Value.Gt, Value.Int c)) in
  let test_lt c = Dlrpq.node_test (Etest.Cmp_const ("date", Value.Lt, Value.Int c)) in
  let test_neq c = Dlrpq.node_test (Etest.Cmp_const ("date", Value.Neq, Value.Int c)) in
  (* Conjunction: date > 2 AND date < 9, via concatenation. *)
  Alcotest.(check (list string)) "conjunction" [ "v1"; "v2" ]
    (nodes_satisfying (Regex.seq Dlrpq.node_any (Regex.seq (test_gt 2) (test_lt 9))));
  (* Disjunction: date < 5 OR date > 8. *)
  Alcotest.(check (list string)) "disjunction" [ "v0"; "v3" ]
    (nodes_satisfying
       (Regex.seq Dlrpq.node_any (Regex.alt (test_lt 5) (test_gt 8))));
  (* Negation: NOT (date = 5) becomes date <> 5. *)
  Alcotest.(check (list string)) "negation" [ "v0"; "v2"; "v3" ]
    (nodes_satisfying (Regex.seq Dlrpq.node_any (test_neq 5)))

(* --- dl-CRPQs ------------------------------------------------------------ *)

let test_dlcrpq_join () =
  (* Accounts x, y with a one-transfer link of amount < 4.5M; return both. *)
  let small_edge =
    Regex.seq
      (Regex.seq Dlrpq.node_any (Dlrpq.edge_lbl "Transfer"))
      (Regex.seq
         (Dlrpq.edge_test (Etest.Cmp_const ("amount", Value.Lt, Value.Real 4.5)))
         Dlrpq.node_any)
  in
  let q =
    Dlcrpq.make ~head:[ "x"; "y" ]
      ~atoms:
        [
          {
            Dlcrpq.mode = Path_modes.All;
            re = small_edge;
            x = Dlcrpq.TVar "x";
            y = Dlcrpq.TVar "y";
          };
        ]
  in
  let rows = Dlcrpq.eval ~max_len:2 bank_pg q in
  let strings = List.map (Dlcrpq.row_to_string bank) rows in
  Alcotest.(check (list string)) "exactly t2 and t6 endpoints"
    [ "(a3, a2)"; "(a3, a4)" ]
    (List.sort String.compare strings)

(* --- Nested CRPQs (Examples 14-15) --------------------------------------- *)

let test_example15 () =
  (* Mutual transfer pairs don't exist in the bank graph; build a graph
     where they do.  u <-> v, v <-> w: q2 must find (u,w) via two virtual
     edges. *)
  let g =
    Elg.make
      ~nodes:[ "u"; "v"; "w"; "x" ]
      ~edges:
        [
          ("e1", "u", "Transfer", "v");
          ("e2", "v", "Transfer", "u");
          ("e3", "v", "Transfer", "w");
          ("e4", "w", "Transfer", "v");
          ("e5", "w", "Transfer", "x");
        ]
  in
  let t = Regex.atom (Nested.Base (Sym.Lbl "Transfer")) in
  let q1 =
    Nested.make ~hx:"x" ~hy:"y"
      ~body:
        [
          { Nested.re = t; x = "x"; y = "y" };
          { Nested.re = t; x = "y"; y = "x" };
        ]
  in
  let q2 =
    Nested.make ~hx:"u" ~hy:"v"
      ~body:[ { Nested.re = Regex.star (Regex.atom (Nested.Nested q1)); x = "u"; y = "v" } ]
  in
  let pairs = Nested.eval g q2 in
  let name i = Elg.node_name g i in
  let strings = List.map (fun (a, b) -> name a ^ name b) pairs in
  Alcotest.(check bool) "uw reachable via virtual edges" true (List.mem "uw" strings);
  Alcotest.(check bool) "ux not reachable (e5 is one-way)" false (List.mem "ux" strings);
  Alcotest.(check bool) "reflexive uu (star)" true (List.mem "uu" strings);
  Alcotest.(check int) "depth" 1 (Nested.depth q2)

let test_nested_wildcard_rejected () =
  let q1 =
    Nested.make ~hx:"x" ~hy:"y"
      ~body:[ { Nested.re = Regex.atom (Nested.Base (Sym.Lbl "a")); x = "x"; y = "y" } ]
  in
  Alcotest.(check bool) "wildcard + nesting rejected" true
    (match
       Nested.make ~hx:"x" ~hy:"y"
         ~body:
           [
             {
               Nested.re =
                 Regex.seq (Regex.atom (Nested.Base Sym.Any))
                   (Regex.atom (Nested.Nested q1));
               x = "x";
               y = "y";
             };
           ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Properties ---------------------------------------------------------- *)

(* The paper's key l-RPQ law as a qcheck property: ⟦R⟧²_G = ⟦R·R⟧_G, on
   random graphs and random capture expressions (experiment E12's set
   semantics side). *)
let gen_lrpq =
  QCheck.Gen.(
    sized_size (int_range 1 8) @@ fix (fun self size ->
        if size <= 1 then
          oneof
            [
              map (fun l -> Lrpq.lbl l) (oneofl [ "a"; "b" ]);
              map (fun l -> Lrpq.cap l "z") (oneofl [ "a"; "b" ]);
            ]
        else
          oneof
            [
              map2 Regex.seq (self (size / 2)) (self (size / 2));
              map2 Regex.alt (self (size / 2)) (self (size / 2));
              map Regex.star (self (size - 1));
            ]))

let prop_lrpq_square =
  let arb =
    QCheck.make
      ~print:(fun (seed, r) -> Printf.sprintf "seed=%d re=%s" seed (Lrpq.to_string r))
      QCheck.Gen.(pair (int_range 1 20) gen_lrpq)
  in
  QCheck.Test.make ~count:40 ~name:"[[R]]^2 = [[R.R]] (bounded)" arb
    (fun (seed, r) ->
      let g = Generators.random_graph ~seed ~nodes:4 ~edges:6 ~labels:[ "a"; "b" ] in
      let bound = 3 in
      let rr = Regex.Seq (r, r) in
      let direct =
        Lrpq.enumerate g rr ~max_len:(2 * bound)
        |> List.filter (fun (p, _) -> Path.len p <= bound + bound)
      in
      let singles = Lrpq.enumerate g r ~max_len:bound in
      let composed =
        List.concat_map
          (fun (p1, m1) ->
            List.filter_map
              (fun (p2, m2) ->
                match Path.concat g p1 p2 with
                | Some p -> Some (p, Lbinding.concat m1 m2)
                | None -> None)
              singles)
          singles
        |> List.sort_uniq Stdlib.compare
      in
      (* Bounded comparison: every composed pair with halves within the
         bound must appear in the direct evaluation and vice versa for
         paths short enough that both halves are within bounds. *)
      List.for_all (fun pm -> List.mem pm direct) composed)

(* [Lrpq.enumerate_bounded] concatenates the per-source answers in
   ascending source order without a global sort: the result must already
   be sorted and duplicate-free, i.e. what the former trailing [dedup]
   produced.  Random graphs with parallel edges and self-loops, random
   capture expressions, a budget small enough to trip sometimes. *)
let prop_enumerate_sorted =
  let arb =
    QCheck.make
      ~print:(fun (seed, r) -> Printf.sprintf "seed=%d re=%s" seed (Lrpq.to_string r))
      QCheck.Gen.(pair (int_range 1 200) gen_lrpq)
  in
  QCheck.Test.make ~count:100 ~name:"enumerate is sorted and unique" arb
    (fun (seed, r) ->
      let g =
        Generators.random_graph ~seed ~nodes:(2 + (seed mod 5))
          ~edges:(seed mod 11) ~labels:[ "a"; "b" ]
      in
      let max_len = 1 + (seed mod 4) in
      let run () = Governor.make ~max_steps:(50 + (seed * 7 mod 400)) () in
      let dedup =
        List.sort_uniq (fun (p1, m1) (p2, m2) ->
            match Path.compare p1 p2 with 0 -> Lbinding.compare m1 m2 | c -> c)
      in
      let got =
        Governor.payload ~default:[] (Lrpq.enumerate_bounded (run ()) g r ~max_len)
      in
      let old =
        let gov = run () in
        List.concat
          (List.init (Elg.nb_nodes g) (fun src ->
               if Governor.ok gov then
                 Governor.payload ~default:[]
                   (Lrpq.enumerate_from_bounded gov g r ~src ~max_len)
               else []))
        |> dedup
      in
      got = dedup got && got = old)

let () =
  Alcotest.run "core"
    [
      ( "crpq",
        [
          Alcotest.test_case "Example 13 q1" `Quick test_example13_q1;
          Alcotest.test_case "Example 13 q2" `Quick test_example13_q2;
          Alcotest.test_case "constants" `Quick test_crpq_constants;
          Alcotest.test_case "unsafe rejected" `Quick test_crpq_unsafe_rejected;
          Alcotest.test_case "relational engine" `Quick test_crpq_relational_engine;
          Alcotest.test_case "generic join" `Quick test_crpq_generic_join;
        ] );
      ( "lrpq",
        [
          Alcotest.test_case "Example 16" `Quick test_example16;
          Alcotest.test_case "square law" `Quick test_lrpq_square_law;
        ] );
      ( "lcrpq",
        [
          Alcotest.test_case "Example 17 (grouping)" `Quick test_example17;
          Alcotest.test_case "well-formedness" `Quick test_lcrpq_condition_checks;
        ] );
      ( "dlrpq",
        [
          Alcotest.test_case "Example 21 on a line" `Quick test_example21_edges;
          Alcotest.test_case "Example 21 on the bank" `Quick test_example21_on_bank;
          Alcotest.test_case "stuttering atoms" `Quick test_dlrpq_stutter;
          Alcotest.test_case "data filter beats shortest (Sec 6.3)" `Quick test_data_filter_shortest;
          Alcotest.test_case "two filters force a cycle" `Quick test_data_filter_two_small_forces_cycle;
          Alcotest.test_case "Remark 20 boolean tests" `Quick test_remark20_boolean_combinations;
        ] );
      ("dlcrpq", [ Alcotest.test_case "join with data test" `Quick test_dlcrpq_join ]);
      ( "nested",
        [
          Alcotest.test_case "Example 15" `Quick test_example15;
          Alcotest.test_case "wildcard rejected" `Quick test_nested_wildcard_rejected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_lrpq_square;
          QCheck_alcotest.to_alcotest prop_enumerate_sorted;
        ] );
    ]
