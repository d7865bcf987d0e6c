(* The interning + CSR index of Elg, the CSR product construction, and
   the parallel multi-source evaluator: deterministic pins on the bank
   graph of Figure 2, plus differential properties against list-based
   references and the serial engine. *)

let bank = Generators.bank_elg ()
let eid = Elg.edge_id bank
let nid = Elg.node_id bank
let parse = Rpq_parse.parse

(* --- interned labels: ids are assigned in sorted label order ------------ *)

let test_label_interning () =
  Alcotest.(check int) "nb_labels" 4 (Elg.nb_labels bank);
  Alcotest.(check (list string))
    "labels sorted"
    [ "Transfer"; "isBlocked"; "owner"; "type" ]
    (Elg.labels bank);
  List.iteri
    (fun i l ->
      Alcotest.(check string) (Printf.sprintf "label_name %d" i) l
        (Elg.label_name bank i);
      Alcotest.(check (option int)) ("label_id_opt " ^ l) (Some i)
        (Elg.label_id_opt bank l))
    [ "Transfer"; "isBlocked"; "owner"; "type" ];
  Alcotest.(check (option int)) "absent label" None
    (Elg.label_id_opt bank "nope");
  Alcotest.(check int) "t1 is a Transfer" 0 (Elg.edge_label_id bank (eid "t1"));
  Alcotest.(check int) "r9 is an isBlocked" 1 (Elg.edge_label_id bank (eid "r9"))

(* --- CSR spans match the legacy adjacency lists ------------------------- *)

let csr_out g n =
  let lo, hi = Elg.out_span g n in
  List.init (hi - lo) (fun i -> Elg.csr_out_edge g (lo + i))

let test_csr_matches_lists () =
  for n = 0 to Elg.nb_nodes bank - 1 do
    Alcotest.(check (list int))
      (Printf.sprintf "out span of node %d" n)
      (Elg.out_edges bank n) (csr_out bank n);
    Alcotest.(check int)
      (Printf.sprintf "out_degree of node %d" n)
      (List.length (Elg.out_edges bank n))
      (Elg.out_degree bank n);
    let ins = ref [] in
    Elg.iter_in bank n (fun e -> ins := e :: !ins);
    Alcotest.(check (list int))
      (Printf.sprintf "in span of node %d" n)
      (Elg.in_edges bank n) (List.rev !ins)
  done

let test_bank_pins () =
  (* a3's outgoing edges: four transfers, one owner, one isBlocked, one
     type edge. *)
  Alcotest.(check int) "a3 out_degree" 7 (Elg.out_degree bank (nid "a3"));
  Alcotest.(check int) "a2 in_degree" 2 (Elg.in_degree bank (nid "a2"));
  Alcotest.(check (list int))
    "a3 Transfer edges (declaration order)"
    [ eid "t2"; eid "t5"; eid "t6"; eid "t7" ]
    (Elg.out_label_edges bank (nid "a3") ~label:0);
  Alcotest.(check (list int))
    "a3 owner edges" [ eid "r3" ]
    (Elg.out_label_edges bank (nid "a3") ~label:2);
  (* Megan has no outgoing edges at all. *)
  let lo, hi = Elg.out_label_span bank (nid "Megan") ~label:0 in
  Alcotest.(check int) "absent (node, label) span is empty" 0 (hi - lo)

(* The label partition is a permutation of each node's span, grouped by
   ascending label id and in declaration order within a group. *)
let test_label_partition () =
  for n = 0 to Elg.nb_nodes bank - 1 do
    let grouped =
      List.concat_map
        (fun l -> Elg.out_label_edges bank n ~label:l)
        (List.init (Elg.nb_labels bank) Fun.id)
    in
    let expected =
      List.stable_sort
        (fun e1 e2 ->
          compare (Elg.edge_label_id bank e1) (Elg.edge_label_id bank e2))
        (Elg.out_edges bank n)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "label partition of node %d" n)
      expected grouped
  done

(* --- the rebuilt index against a list-and-sort oracle -------------------- *)

(* The label partition as it was first built: per node, collect the
   labels present, sort them, lay their groups out in ascending order.
   Returns the partitioned edge array and the per-node directory. *)
let reference_partition ~nb_nodes ~out_off ~out_csr ~elbl ~nb_labels =
  let out_lbl_csr = Array.make (Array.length out_csr) 0 in
  let counts = Array.make (max 1 nb_labels) 0 in
  let cursor = Array.make (max 1 nb_labels) 0 in
  let dir = Array.make nb_nodes [] in
  for v = 0 to nb_nodes - 1 do
    let lo = out_off.(v) and hi = out_off.(v + 1) in
    let present = ref [] in
    for i = lo to hi - 1 do
      let l = elbl.(out_csr.(i)) in
      if counts.(l) = 0 then present := l :: !present;
      counts.(l) <- counts.(l) + 1
    done;
    let acc = ref lo in
    dir.(v) <-
      List.map
        (fun l ->
          let start = !acc in
          cursor.(l) <- start;
          acc := !acc + counts.(l);
          counts.(l) <- 0;
          (l, start, !acc))
        (List.sort compare !present);
    for i = lo to hi - 1 do
      let e = out_csr.(i) in
      let l = elbl.(e) in
      out_lbl_csr.(cursor.(l)) <- e;
      cursor.(l) <- cursor.(l) + 1
    done
  done;
  (out_lbl_csr, dir)

(* Random graphs as explicit edge lists [(src, label, tgt)]: up to eight
   nodes (isolated ones included), one to four labels, parallel edges
   and self-loops; in a third of the cases every node also carries an
   edge of every label. *)
let gen_edge_list =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    int_range 1 4 >>= fun nl ->
    let lbl = map (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) (int_bound (nl - 1)) in
    list_size (int_range 0 24) (triple (int_bound (n - 1)) lbl (int_bound (n - 1)))
    >>= fun edges ->
    int_bound 2 >>= fun mode ->
    let every =
      if mode = 0 then
        List.concat
          (List.init n (fun v ->
               List.init nl (fun l ->
                   (v, String.make 1 (Char.chr (Char.code 'a' + l)), (v + l) mod n))))
      else []
    in
    return (n, edges @ every))

let prop_index_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"CSR, label spans, adjacency = oracle"
    (QCheck.make
       ~print:(fun (n, es) ->
         Printf.sprintf "%d nodes: %s" n
           (String.concat " "
              (List.map (fun (s, a, t) -> Printf.sprintf "%d-%s->%d" s a t) es)))
       gen_edge_list)
    (fun (n, es) ->
      let g =
        Elg.make
          ~nodes:(List.init n (Printf.sprintf "v%d"))
          ~edges:
            (List.mapi
               (fun i (s, a, t) ->
                 (Printf.sprintf "e%d" i, Printf.sprintf "v%d" s, a, Printf.sprintf "v%d" t))
               es)
      in
      let es = Array.of_list es in
      let m = Array.length es in
      let labels = List.sort_uniq compare (List.map (fun (_, a, _) -> a) (Array.to_list es)) in
      let lid a =
        let rec go i = function
          | [] -> assert false
          | b :: rest -> if a = b then i else go (i + 1) rest
        in
        go 0 labels
      in
      let edges_where p = List.filter p (List.init m Fun.id) in
      let out_ref v = edges_where (fun e -> let s, _, _ = es.(e) in s = v) in
      let in_ref v = edges_where (fun e -> let _, _, t = es.(e) in t = v) in
      let out_off = Array.make (n + 1) 0 in
      for v = 0 to n - 1 do
        out_off.(v + 1) <- out_off.(v) + List.length (out_ref v)
      done;
      let out_csr = Array.of_list (List.concat_map out_ref (List.init n Fun.id)) in
      let elbl = Array.map (fun (_, a, _) -> lid a) es in
      let out_lbl_csr, dir =
        reference_partition ~nb_nodes:n ~out_off ~out_csr ~elbl
          ~nb_labels:(List.length labels)
      in
      let nodes = List.init n Fun.id in
      Elg.labels g = labels
      && List.for_all (fun e -> Elg.edge_label_id g e = elbl.(e)) (List.init m Fun.id)
      && List.for_all
           (fun v ->
             Elg.out_edges g v = out_ref v
             && Elg.in_edges g v = in_ref v
             && Elg.out_span g v = (out_off.(v), out_off.(v + 1))
             && List.for_all
                  (fun u ->
                    Elg.edges_between g v u
                    = List.filter (fun e -> let _, _, t = es.(e) in t = u) (out_ref v))
                  nodes
             && List.for_all
                  (fun l ->
                    let span =
                      match List.find_opt (fun (l', _, _) -> l' = l) dir.(v) with
                      | Some (_, lo, hi) -> (lo, hi)
                      | None -> (0, 0)
                    in
                    let lo, hi = Elg.out_label_span g v ~label:l in
                    (lo, hi) = span
                    && List.init (hi - lo) (fun i -> Elg.csr_out_label_edge g (lo + i))
                       = List.init (hi - lo) (fun i -> out_lbl_csr.(lo + i)))
                  (List.init (List.length labels) Fun.id))
           nodes)

(* --- the CSR product pins ------------------------------------------------ *)

let test_product_pins () =
  let nfa = Nfa.of_regex (parse "Transfer*") in
  let product = Product.make bank nfa in
  let s0 =
    match Product.initials_at product (nid "a3") with
    | [ s ] -> s
    | _ -> Alcotest.fail "Transfer* has one initial state"
  in
  let succ node = Product.state product ~node:(nid node) ~q:1 in
  Alcotest.(check (list (pair int int)))
    "product edges of (a3, q0)"
    [
      (eid "t2", succ "a2"); (eid "t5", succ "a2");
      (eid "t6", succ "a4"); (eid "t7", succ "a5");
    ]
    (Product.out product s0);
  (* The CSR accessors expose the same edges as the list view. *)
  let lo, hi = Product.out_span product s0 in
  Alcotest.(check int) "span width = out_degree" (hi - lo)
    (Product.out_degree product s0);
  let via_csr =
    List.init (hi - lo) (fun i ->
        (Product.csr_edge product (lo + i), Product.csr_succ product (lo + i)))
  in
  Alcotest.(check (list (pair int int))) "csr = out" (Product.out product s0)
    via_csr;
  let via_iter = ref [] in
  Product.iter_out product s0 (fun e s -> via_iter := (e, s) :: !via_iter);
  Alcotest.(check (list (pair int int)))
    "iter_out = out" (Product.out product s0) (List.rev !via_iter)

(* --- properties ---------------------------------------------------------- *)

let gen_graph =
  QCheck.Gen.(
    int_range 1 10_000 >|= fun seed ->
    Generators.random_graph ~seed ~nodes:6 ~edges:12 ~labels:[ "a"; "b"; "c" ])

let gen_regex =
  QCheck.Gen.(
    sized_size (int_range 1 7)
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

let arb_graph_regex =
  QCheck.make
    ~print:(fun (_, r) -> Regex.to_string Sym.to_string r)
    QCheck.Gen.(pair gen_graph gen_regex)

(* The seed's list-based product construction, as an oracle: one
   [Sym.matches] per (edge, transition). *)
let reference_out g (nfa : Sym.t Nfa.t) s =
  let nq = nfa.Nfa.nb_states in
  let v = s / nq and q = s mod nq in
  List.concat_map
    (fun e ->
      let lbl = Elg.label g e in
      List.filter_map
        (fun (sym, q') ->
          if Sym.matches sym lbl then Some (e, (Elg.tgt g e * nq) + q')
          else None)
        nfa.Nfa.delta.(q))
    (Elg.out_edges g v)

let prop_product_matches_reference =
  QCheck.Test.make ~count:200 ~name:"CSR product = list-based reference"
    arb_graph_regex
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let product = Product.make g nfa in
      List.for_all
        (fun s -> Product.out product s = reference_out g nfa s)
        (List.init (Product.nb_states product) Fun.id))

let prop_parallel_equals_serial =
  QCheck.Test.make ~count:60 ~name:"parallel pairs_nfa = serial (widths 1,2,4)"
    arb_graph_regex
    (fun (g, r) ->
      let nfa = Nfa.of_regex r in
      let serial = Rpq_eval.pairs_nfa ~pool:(Pool.create ~size:1 ()) g nfa in
      List.for_all
        (fun size ->
          Rpq_eval.pairs_nfa ~pool:(Pool.create ~size ()) g nfa = serial)
        [ 2; 4 ])

let prop_partial_subset_under_pool =
  QCheck.Test.make ~count:60
    ~name:"governor Partial under >= 2 domains is a subset of Complete"
    (QCheck.make
       ~print:(fun ((_, r), steps) ->
         Printf.sprintf "%s / %d steps" (Regex.to_string Sym.to_string r) steps)
       QCheck.Gen.(pair (pair gen_graph gen_regex) (int_range 1 200)))
    (fun ((g, r), max_steps) ->
      let nfa = Nfa.of_regex r in
      let pool = Pool.create ~size:3 () in
      let complete = Rpq_eval.pairs_nfa ~pool g nfa in
      let gov = Governor.make ~max_steps () in
      match Rpq_eval.pairs_nfa_bounded ~pool gov g nfa with
      | Governor.Complete pairs -> pairs = complete
      | Governor.Partial (pairs, _) ->
          List.for_all (fun p -> List.mem p complete) pairs
      | Governor.Aborted _ -> false)

let prop_check_equals_pairs_membership =
  QCheck.Test.make ~count:100 ~name:"early-exit check = pairs membership"
    arb_graph_regex
    (fun (g, r) ->
      let pairs = Rpq_eval.pairs g r in
      List.for_all
        (fun u ->
          List.for_all
            (fun v -> Rpq_eval.check g r ~src:u ~tgt:v = List.mem (u, v) pairs)
            (List.init (Elg.nb_nodes g) Fun.id))
        (List.init (Elg.nb_nodes g) Fun.id))

(* --- parallel path counting ---------------------------------------------- *)

let test_total_paths () =
  let g = Generators.line 3 "a" in
  let r = parse "a*" in
  (* On the 3-edge line, paths of length <= 3: 4 empty + 3 + 2 + 1. *)
  Alcotest.(check string)
    "total on line(3)" "10"
    (Nat_big.to_string (Rpq_count.total_paths_upto g r ~max_len:3));
  (* The total is the sum of the per-pair counts, and pool width does not
     change it. *)
  let per_pair_sum =
    Elg.fold_nodes
      (fun src acc ->
        Elg.fold_nodes
          (fun tgt acc ->
            Nat_big.add acc (Rpq_count.count_paths_upto g r ~src ~tgt ~max_len:3))
          g acc)
      g Nat_big.zero
  in
  let bank_r = parse "Transfer*" in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "bank total, %d domains" size)
        (Nat_big.to_string
           (Rpq_count.total_paths_upto ~pool:(Pool.create ~size:1 ()) bank
              bank_r ~max_len:6))
        (Nat_big.to_string
           (Rpq_count.total_paths_upto ~pool:(Pool.create ~size ()) bank bank_r
              ~max_len:6)))
    [ 2; 4 ];
  Alcotest.(check string) "total = sum of per-pair counts"
    (Nat_big.to_string per_pair_sum)
    (Nat_big.to_string (Rpq_count.total_paths_upto g r ~max_len:3))

(* --- reversed graphs --------------------------------------------------------- *)

(* The reversed graph as it used to be built: a full [Elg.make] over the
   swapped edge list — same node and edge names in the same declaration
   order — re-interning every name. *)
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

let prop_reverse_matches_rebuild =
  QCheck.Test.make ~count:300 ~name:"Elg.reverse = rebuild from swapped edges"
    (QCheck.make
       ~print:(fun (n, es) ->
         Printf.sprintf "%d nodes: %s" n
           (String.concat " "
              (List.map (fun (s, a, t) -> Printf.sprintf "%d-%s->%d" s a t) es)))
       gen_edge_list)
    (fun (n, es) ->
      let g =
        Elg.make
          ~nodes:(List.init n (Printf.sprintf "v%d"))
          ~edges:
            (List.mapi
               (fun i (s, a, t) ->
                 (Printf.sprintf "e%d" i, Printf.sprintf "v%d" s, a, Printf.sprintf "v%d" t))
               es)
      in
      let r = Elg.reverse g and want = build_reversed g in
      let nodes = List.init (Elg.nb_nodes want) Fun.id in
      let edges = List.init (Elg.nb_edges want) Fun.id in
      let labels = List.init (Elg.nb_labels want) Fun.id in
      Elg.id r <> Elg.id g
      && Elg.nb_nodes r = Elg.nb_nodes want
      && Elg.nb_edges r = Elg.nb_edges want
      && Elg.labels r = Elg.labels want
      && List.for_all (fun l -> Elg.label_name r l = Elg.label_name want l) labels
      && List.for_all
           (fun v ->
             Elg.node_name r v = Elg.node_name want v
             && Elg.node_id r (Elg.node_name want v) = v
             && Elg.out_edges r v = Elg.out_edges want v
             && Elg.in_edges r v = Elg.in_edges want v
             && Elg.out_span r v = Elg.out_span want v
             && Elg.in_span r v = Elg.in_span want v
             && List.for_all
                  (fun l ->
                    Elg.out_label_span r v ~label:l = Elg.out_label_span want v ~label:l
                    && Elg.out_label_edges r v ~label:l
                       = Elg.out_label_edges want v ~label:l)
                  labels)
           nodes
      && List.for_all
           (fun e ->
             Elg.edge_name r e = Elg.edge_name want e
             && Elg.src r e = Elg.src want e
             && Elg.tgt r e = Elg.tgt want e
             && Elg.label r e = Elg.label want e
             && Elg.edge_label_id r e = Elg.edge_label_id want e)
           edges)

let () =
  Alcotest.run "index"
    [
      ( "elg index",
        [
          Alcotest.test_case "label interning" `Quick test_label_interning;
          Alcotest.test_case "CSR = adjacency lists" `Quick test_csr_matches_lists;
          Alcotest.test_case "bank pins" `Quick test_bank_pins;
          Alcotest.test_case "label partition" `Quick test_label_partition;
        ] );
      ("product", [ Alcotest.test_case "bank pins" `Quick test_product_pins ]);
      ("counting", [ Alcotest.test_case "total_paths_upto" `Quick test_total_paths ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_product_matches_reference;
          QCheck_alcotest.to_alcotest prop_parallel_equals_serial;
          QCheck_alcotest.to_alcotest prop_partial_subset_under_pool;
          QCheck_alcotest.to_alcotest prop_check_equals_pairs_membership;
          QCheck_alcotest.to_alcotest prop_index_matches_oracle;
          QCheck_alcotest.to_alcotest prop_reverse_matches_rebuild;
        ] );
    ]
