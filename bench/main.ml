(* Benchmark harness: one experiment per quantitative claim of the paper
   (see DESIGN.md section 4 and EXPERIMENTS.md).

   Run all:      dune exec bench/main.exe
   Run some:     dune exec bench/main.exe -- E3 E7
   Quick mode:   dune exec bench/main.exe -- --quick        (smaller sweeps) *)

let quick = ref false

(* --- telemetry helpers --------------------------------------------------- *)

(* Set by --trace-json=FILE: phase spans from every instrumented run are
   collected here and written as JSONL at exit. *)
let trace_path : string option ref = ref None
let bench_trace : Trace.t option ref = ref None

(* Run [f] against a fresh counter registry (plus the global trace when
   --trace-json is set); return the result alongside the non-zero
   counters, ready to embed in a JSONL row next to the timing. *)
let counted f =
  let metrics = Metrics.create () in
  let obs = Obs.make ~metrics ?trace:!bench_trace () in
  let result = f obs in
  (result, List.filter (fun (_, v) -> v > 0) (Metrics.counters metrics))

let counters_json counters =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) counters)
  ^ "}"

(* Set by --out=FILE: every experiment funnels its machine-readable rows
   here and the driver writes the file once at exit — so one invocation
   selecting several experiments (e.g. E17 E22) produces one combined
   JSON array. *)
let out_path : string option ref = ref None
let out_rows : string list ref = ref []

let emit_row line =
  Printf.printf "  %s\n" line;
  out_rows := line :: !out_rows

let write_out () =
  match !out_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc "[\n";
      let n = List.length !out_rows in
      List.iteri
        (fun i line ->
          output_string oc "  ";
          output_string oc line;
          if i < n - 1 then output_string oc ",";
          output_string oc "\n")
        (List.rev !out_rows);
      output_string oc "]\n";
      close_out oc;
      Printf.printf "wrote %s\n" path

(* --- timing helpers ------------------------------------------------------ *)

(* One-shot wall-clock measurement for long-running searches. *)
let oneshot_ms f =
  let t0 = Monotonic_clock.now () in
  let result = f () in
  let t1 = Monotonic_clock.now () in
  (result, Int64.to_float (Int64.sub t1 t0) /. 1e6)

(* Bechamel OLS estimate (ns/run) for short operations. *)
let bechamel_ns ~name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (if !quick then 0.1 else 0.3)) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ est ] -> (
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> ns
      | Some _ | None -> Float.nan)
  | _ -> Float.nan

let check name ok =
  Printf.printf "  [%s] %s\n" (if ok then "OK " else "FAIL") name

let header id title =
  Printf.printf "\n=== %s: %s ===\n" id title

(* ======================================================================== *)
(* E1: the paper's worked examples on the bank graphs (Ex. 12, 13, 16, 17,
   and the Section 6.4 PMR example).                                        *)
(* ======================================================================== *)

let e1 () =
  header "E1" "worked examples on the bank graph (Figures 2-3)";
  let g = Generators.bank_elg () in
  let id = Elg.node_id g in
  let name = Elg.node_name g in

  (* Example 12. *)
  let pairs = Rpq_eval.pairs g (Rpq_parse.parse "Transfer*") in
  let accounts = [ "a1"; "a2"; "a3"; "a4"; "a5"; "a6" ] in
  let all36 =
    List.for_all
      (fun u -> List.for_all (fun v -> List.mem (id u, id v) pairs) accounts)
      accounts
  in
  check "Ex.12: Transfer* yields all 36 account pairs" all36;

  (* Example 13, q1. *)
  let t = Regex.atom (Sym.Lbl "Transfer") in
  let q1 =
    Crpq.make ~head:[ "x1"; "x2"; "x3" ]
      ~atoms:
        [
          { Crpq.re = t; x = Crpq.TVar "x1"; y = Crpq.TVar "x2" };
          { Crpq.re = t; x = Crpq.TVar "x1"; y = Crpq.TVar "x3" };
          { Crpq.re = t; x = Crpq.TVar "x2"; y = Crpq.TVar "x3" };
        ]
  in
  let rows = Crpq.eval g q1 in
  let row_str = List.map (fun r -> String.concat "," (List.map name r)) rows in
  check "Ex.13 q1 = {(a3,a2,a4), (a6,a3,a5)}"
    (List.sort compare row_str = [ "a3,a2,a4"; "a6,a3,a5" ]);

  (* Example 13, q2 membership. *)
  let q2 =
    Crpq.make ~head:[ "x"; "x1"; "x2" ]
      ~atoms:
        [
          { Crpq.re = Rpq_parse.parse "owner"; x = Crpq.TVar "y"; y = Crpq.TVar "x1" };
          { Crpq.re = Rpq_parse.parse "isBlocked"; x = Crpq.TVar "y"; y = Crpq.TVar "x2" };
          { Crpq.re = Rpq_parse.parse "Transfer.Transfer?"; x = Crpq.TVar "x"; y = Crpq.TVar "y" };
        ]
  in
  check "Ex.13 q2 contains (a4, Rebecca, no)"
    (List.mem [ id "a4"; id "Rebecca"; id "no" ] (Crpq.eval g q2));

  (* Example 16: l-RPQ bindings. *)
  let r16 =
    Regex.seq (Regex.star (Lrpq.cap "Transfer" "z")) (Lrpq.lbl "isBlocked")
  in
  let results = Lrpq.enumerate_from g r16 ~src:(id "a3") ~max_len:4 in
  let find edges =
    List.find_opt
      (fun (p, _) -> List.map (Elg.edge_name g) (Path.edges p) = edges)
      results
  in
  check "Ex.16: mu3(z) = list(t2,t3)"
    (match find [ "t2"; "t3"; "r10" ] with
    | Some (_, mu) ->
        Lbinding.get mu "z" = [ Path.E (Elg.edge_id g "t2"); Path.E (Elg.edge_id g "t3") ]
    | None -> false);
  check "Ex.16: parallel edge t5 distinguishes mu4" (find [ "t5"; "t3"; "r10" ] <> None);
  check "Ex.16: mu5(z) = list() on path(a3,r9,no)"
    (match find [ "r9" ] with
    | Some (_, mu) -> Lbinding.get mu "z" = []
    | None -> false);

  (* Example 17: grouping by endpoint pairs. *)
  let q17 =
    Lcrpq.make ~head:[ "x1"; "x2"; "z" ]
      ~atoms:
        [
          { Lcrpq.mode = Path_modes.All; re = Lrpq.lbl "owner";
            x = Lcrpq.TVar "y1"; y = Lcrpq.TVar "x1" };
          { Lcrpq.mode = Path_modes.All; re = Lrpq.lbl "owner";
            x = Lcrpq.TVar "y2"; y = Lcrpq.TVar "x2" };
          { Lcrpq.mode = Path_modes.Shortest;
            re = Regex.plus (Lrpq.cap "Transfer" "z");
            x = Lcrpq.TVar "y1"; y = Lcrpq.TVar "y2" };
        ]
  in
  let rows = List.map (Lcrpq.row_to_string g) (Lcrpq.eval g q17) in
  check "Ex.17: (Jay, Rebecca, list(t10))" (List.mem "(Jay, Rebecca, list(t10))" rows);
  check "Ex.17: (Mike, Megan, list(t7, t4))" (List.mem "(Mike, Megan, list(t7, t4))" rows);

  (* Section 6.4 PMR example: unblocked transfer cycles at a3 loop through
     t7, t4, t1. *)
  let unblocked_edges =
    List.filter_map
      (fun e ->
        let s = name (Elg.src g e) and t' = name (Elg.tgt g e) in
        if s <> "a4" && t' <> "a4" && Elg.label g e = "Transfer" then
          Some (Elg.edge_name g e, s, "Transfer", t')
        else None)
      (List.init (Elg.nb_edges g) Fun.id)
  in
  let g' =
    Elg.make
      ~nodes:(List.filter (fun n -> n <> "a4") (List.init (Elg.nb_nodes g) name))
      ~edges:unblocked_edges
  in
  let a3 = Elg.node_id g' "a3" in
  let pmr = Pmr.of_rpq g' (Rpq_parse.parse "Transfer+") ~src:a3 ~tgt:a3 in
  check "Sec 6.4: unblocked-cycle PMR is finite but represents infinitely many paths"
    (Pmr.count_paths pmr = `Infinite && Pmr.size pmr <= 12);
  check "Sec 6.4: length-3 unrolling is t7,t4,t1"
    (match Pmr.spaths_upto g' pmr ~max_len:3 with
    | [ p ] -> List.map (Elg.edge_name g') (Path.edges p) = [ "t7"; "t4"; "t1" ]
    | _ -> false)

(* ======================================================================== *)
(* E2: bag semantics + Kleene star = boom (Section 6.1).                    *)
(* ======================================================================== *)

let e2 () =
  header "E2" "bag semantics + nested stars on the 6-clique (Section 6.1)";
  let g = Generators.clique 6 "a" in
  let rec nest k =
    if k = 0 then Regex.Atom (Sym.Lbl "a") else Regex.Star (nest (k - 1))
  in
  let set_answers d =
    List.length (Rpq_eval.pairs g (nest d))
  in
  Printf.printf "  %-10s %-14s %-22s %s\n" "nesting" "set answers" "bag solutions" "digits";
  let protons = Nat_big.pow (Nat_big.of_int 10) 80 in
  let exceeded = ref false in
  for d = 1 to 4 do
    let bag = Rpq_count.bag_count_total g (nest d) in
    if Nat_big.compare bag protons > 0 then exceeded := true;
    Printf.printf "  %-10d %-14d %-22s %d\n" d (set_answers d)
      (Nat_big.to_scientific bag)
      (Nat_big.decimal_digits bag)
  done;
  (* Counted work for the deepest nesting: the automaton collapses every
     star, so the product BFS does the same work as for a*. *)
  let (_, counters), ms =
    oneshot_ms (fun () -> counted (fun obs -> Rpq_eval.pairs ~obs g (nest 4)))
  in
  Printf.printf
    "  {\"experiment\":\"E2\",\"query\":\"(((a*)*)*)*\",\"elapsed_ms\":%.2f,\"counters\":%s}\n"
    ms (counters_json counters);
  check "set semantics stays at 36 answers for every nesting depth"
    (List.for_all (fun d -> set_answers d = 36) [ 2; 3; 4 ]);
  check "some nesting depth exceeds the #protons in the observable universe (1e80)"
    !exceeded;
  (* The automata view: all these expressions are equivalent to a*, and
     the rewriter finds the normal form syntactically. *)
  check "automata normalization: (((a*)*)*)* = a*"
    (Dfa.equiv (Nfa.of_regex (nest 4)) (Nfa.of_regex (nest 1)));
  check "syntactic rewriting: simplify((((a*)*)*)*) = a*"
    (Regex_simplify.simplify (nest 4) = Regex.Star (Regex.Atom (Sym.Lbl "a")))

(* ======================================================================== *)
(* E3: Figure 5 — exponentially many paths, linear-size PMR.                *)
(* ======================================================================== *)

let e3 () =
  header "E3" "2^n shortest paths vs O(n)-size PMRs (Figure 5, Section 6.4)";
  Printf.printf "  %-4s %-12s %-16s %-10s %s\n" "n" "graph size" "paths s->t" "PMR size" "PMR/graph";
  let ns = if !quick then [ 2; 6; 10 ] else [ 2; 4; 8; 12; 16; 20; 24 ] in
  let ok = ref true in
  List.iter
    (fun n ->
      let g = Generators.diamonds n in
      let (pmr, counters), ms =
        oneshot_ms (fun () ->
            counted (fun obs ->
                Pmr.of_rpq ~obs g (Rpq_parse.parse "a*")
                  ~src:(Elg.node_id g "s") ~tgt:(Elg.node_id g "t")))
      in
      let paths =
        match Pmr.count_paths pmr with
        | `Finite c -> c
        | `Infinite -> Nat_big.zero
      in
      let gsize = Elg.nb_nodes g + Elg.nb_edges g in
      if not (Nat_big.equal paths (Nat_big.pow Nat_big.two n)) then ok := false;
      Printf.printf "  %-4d %-12d %-16s %-10d %.2f\n" n gsize
        (Nat_big.to_string paths) (Pmr.size pmr)
        (float_of_int (Pmr.size pmr) /. float_of_int gsize);
      Printf.printf
        "  {\"experiment\":\"E3\",\"n\":%d,\"elapsed_ms\":%.2f,\"counters\":%s}\n"
        n ms (counters_json counters))
    ns;
  check "path count is exactly 2^n for every n" !ok

(* ======================================================================== *)
(* E4: list variables: 2^n bindings on one path, linear annotated PMR.      *)
(* ======================================================================== *)

let e4 () =
  header "E4" "(a a^z + a^z a)* on a 2n-edge path: 2^n bindings (Section 6.3)";
  let expr =
    Regex.star
      (Regex.alt
         (Regex.seq (Lrpq.lbl "a") (Lrpq.cap "a" "z"))
         (Regex.seq (Lrpq.cap "a" "z") (Lrpq.lbl "a")))
  in
  Printf.printf "  %-4s %-16s %-16s %-10s\n" "n" "bindings (runs)" "expected 2^n" "PMR size";
  let ns = if !quick then [ 2; 4; 6 ] else [ 2; 4; 6; 8; 10; 12; 14; 16 ] in
  let ok = ref true in
  List.iter
    (fun n ->
      let g = Generators.line (2 * n) "a" in
      let src = Elg.node_id g "v0" and tgt = Elg.node_id g (Printf.sprintf "v%d" (2 * n)) in
      let (pmr, counters), pmr_ms =
        oneshot_ms (fun () -> counted (fun obs -> Lrpq.to_pmr ~obs g expr ~src ~tgt))
      in
      let runs =
        match Pmr.count_paths pmr with
        | `Finite c -> c
        | `Infinite -> Nat_big.zero
      in
      let expected = Nat_big.pow Nat_big.two n in
      if not (Nat_big.equal runs expected) then ok := false;
      (* Cross-check against explicit enumeration on small instances. *)
      if n <= 6 then begin
        let bindings =
          Lrpq.eval_mode g expr ~mode:Path_modes.All ~max_len:(2 * n) ~src ~tgt
        in
        if List.length bindings <> (1 lsl n) then ok := false
      end;
      Printf.printf "  %-4d %-16s %-16s %-10d\n" n (Nat_big.to_string runs)
        (Nat_big.to_string expected) (Pmr.size pmr);
      Printf.printf
        "  {\"experiment\":\"E4\",\"n\":%d,\"elapsed_ms\":%.2f,\"counters\":%s}\n"
        n pmr_ms (counters_json counters))
    ns;
  check "binding count = 2^n (and matches explicit enumeration when feasible)" !ok

(* ======================================================================== *)
(* E5: path modes: NP-hard simple-path search vs polynomial product BFS.    *)
(* ======================================================================== *)

let e5 () =
  header "E5" "simple/trail search explodes; product reachability stays cheap (Sec 6.3)";
  let r = Rpq_parse.parse "a*" in
  Printf.printf "  %-14s %-4s %-18s %-14s %-14s\n" "family" "n" "#simple paths" "reach (us)" "simple (ms)";
  let sizes = if !quick then [ 5; 6; 7 ] else [ 5; 6; 7; 8; 9 ] in
  List.iter
    (fun n ->
      let g = Generators.clique n "a" in
      let reach_ns = bechamel_ns ~name:"reach" (fun () -> Rpq_eval.from_source g r ~src:0) in
      let count, ms =
        oneshot_ms (fun () ->
            Path_modes.count g r ~mode:Path_modes.Simple ~max_len:n ~src:0 ~tgt:1)
      in
      Printf.printf "  %-14s %-4d %-18s %-14.1f %-14.2f\n" "clique" n
        (Nat_big.to_string count) (reach_ns /. 1e3) ms)
    sizes;
  (* The benign family ([41,110]'s observation): diamonds have 2^n paths
     but finding ONE simple path / deciding existence is easy. *)
  let g = Generators.diamonds 12 in
  let _, ms =
    oneshot_ms (fun () ->
        Path_modes.exists_simple g r ~src:(Elg.node_id g "s") ~tgt:(Elg.node_id g "t"))
  in
  Printf.printf "  well-behaved: exists_simple on diamonds(12): %.2f ms\n" ms;
  check "simple-path existence on the benign family is fast (< 100 ms)" (ms < 100.0)

(* ======================================================================== *)
(* E6: data filters force looking beyond shortest paths (Section 6.3).      *)
(* ======================================================================== *)

let e6 () =
  header "E6" "shortest + data filters on the bank graph (Section 6.3)";
  let pg = Generators.bank_pg () in
  let g = Pg.elg pg in
  let id = Elg.node_id g in
  let transfer = Dlrpq.edge_lbl "Transfer" in
  let hop = Regex.seq Dlrpq.node_any transfer in
  let small_hop thr =
    Regex.seq (Regex.seq Dlrpq.node_any transfer)
      (Dlrpq.edge_test (Etest.Cmp_const ("amount", Value.Lt, Value.Real thr)))
  in
  let one_small thr =
    Regex.seq Dlrpq.node_any
      (Regex.seq (Regex.star hop)
         (Regex.seq (small_hop thr) (Regex.seq (Regex.star hop) Dlrpq.node_any)))
  in
  Printf.printf "  %-28s %-10s %-10s\n" "query (a3 -> a5)" "length" "configs";
  let plain =
    Regex.seq Dlrpq.node_any (Regex.seq (Regex.plus hop) Dlrpq.node_any)
  in
  let report name q =
    let len, explored = Dlrpq.shortest_len_stats pg q ~src:(id "a3") ~tgt:(id "a5") in
    Printf.printf "  %-28s %-10s %-10d\n" name
      (match len with Some d -> string_of_int d | None -> "-")
      explored;
    len
  in
  let l0 = report "no filter" plain in
  let l45 = report "one amount < 4.5M" (one_small 4.5) in
  let l15 = report "one amount < 1.5M" (one_small 1.5) in
  let two_small thr =
    Regex.seq Dlrpq.node_any
      (Regex.seq (Regex.star hop)
         (Regex.seq (small_hop thr)
            (Regex.seq (Regex.star hop)
               (Regex.seq (small_hop thr) (Regex.seq (Regex.star hop) Dlrpq.node_any)))))
  in
  let l2 = report "two amounts < 4.5M" (two_small 4.5) in
  check "unfiltered shortest has length 1 (the direct t7)" (l0 = Some 1);
  check "amount < 4.5M forces the length-3 detour t6 t9 t10" (l45 = Some 3);
  check "amount < 1.5M forces an even longer route (via t2)" (match l15 with Some d -> d > 3 | None -> false);
  check "two small amounts force a cycle (length 6 witness)"
    (match l2 with Some d -> d >= 6 | None -> false)

(* ======================================================================== *)
(* E7: reduce encodes SUBSET-SUM: exponential on tiny graphs (Section 5.2). *)
(* ======================================================================== *)

let e7 () =
  header "E7" "reduce-based subset-sum: exponential blowup on tiny graphs (Sec 5.2)";
  Printf.printf "  %-4s %-12s %-14s %-12s\n" "m" "#paths" "reduce (ms)" "DP (us)";
  let sizes = if !quick then [ 6; 10; 14 ] else [ 6; 10; 14; 16; 18; 20 ] in
  let times = ref [] in
  List.iter
    (fun m ->
      let items = List.init m (fun i -> i + 1) in
      let total = List.fold_left ( + ) 0 items in
      let pg = Generators.subset_sum items in
      (* An unsatisfiable target forces exploring every path. *)
      let _, reduce_ms =
        oneshot_ms (fun () -> Reduce.subset_sum_via_reduce pg ~target:(total + 1))
      in
      let dp_ns =
        bechamel_ns ~name:"dp" (fun () -> Reduce.subset_sum_dp items ~target:(total + 1))
      in
      times := (m, reduce_ms) :: !times;
      Printf.printf "  %-4d %-12s %-14.2f %-12.1f\n" m
        (Nat_big.to_string (Nat_big.pow Nat_big.two m))
        reduce_ms (dp_ns /. 1e3))
    sizes;
  (* Growth check: time at the largest size dwarfs the smallest. *)
  (match (List.assoc_opt (List.nth sizes 0) (List.rev !times),
          List.assoc_opt (List.nth sizes (List.length sizes - 1)) (List.rev !times)) with
  | Some t_small, Some t_big ->
      check "reduce-query time grows superpolynomially (>= 20x across the sweep)"
        (t_big > 20.0 *. t_small || t_big > 50.0)
  | _ -> check "timing collected" false)

(* ======================================================================== *)
(* E8: the EXCEPT workaround vs direct dl-RPQ evaluation (Section 5.2).     *)
(* ======================================================================== *)

(* A chain of [m] positions with two parallel dated edges per position. *)
let parallel_dated_chain ~seed m =
  let st = Random.State.make [| seed |] in
  let name i = Printf.sprintf "v%d" i in
  let nodes = List.init (m + 1) (fun i -> (name i, "V", [])) in
  let edges =
    List.concat
      (List.init m (fun i ->
           [
             ( Printf.sprintf "up%d" i, name i, "a", name (i + 1),
               [ ("date", Value.Int (Random.State.int st 100)) ] );
             ( Printf.sprintf "dn%d" i, name i, "a", name (i + 1),
               [ ("date", Value.Int (Random.State.int st 100)) ] );
           ]))
  in
  Pg.make ~nodes ~edges

let increasing_dl =
  Regex.seq Dlrpq.node_any
    (Regex.seq (Dlrpq.edge_any_cap "z")
       (Regex.seq
          (Dlrpq.edge_test (Etest.Assign ("x", "date")))
          (Regex.seq
             (Regex.star
                (Regex.seq Dlrpq.node_any
                   (Regex.seq (Dlrpq.edge_any_cap "z")
                      (Regex.seq
                         (Dlrpq.edge_test (Etest.Cmp_var ("date", Value.Gt, "x")))
                         (Dlrpq.edge_test (Etest.Assign ("x", "date")))))))
             Dlrpq.node_any)))

let e8 () =
  header "E8" "increasing edge values: direct dl-RPQ vs EXCEPT over trails (Sec 5.2)";
  Printf.printf "  %-4s %-10s %-14s %-14s %-8s\n" "m" "#answers" "direct (ms)" "except (ms)" "equal?";
  let sizes = if !quick then [ 3; 5 ] else [ 3; 5; 7; 9 ] in
  let all_equal = ref true and all_faster = ref true in
  List.iter
    (fun m ->
      let pg = parallel_dated_chain ~seed:(42 + m) m in
      let g = Pg.elg pg in
      let key p = List.map (Elg.edge_name g) (Path.edges p) in
      let direct, direct_ms =
        oneshot_ms (fun () ->
            List.concat_map
              (fun src ->
                Dlrpq.enumerate_from pg increasing_dl ~src ~max_len:m ())
              (List.init (Elg.nb_nodes g) Fun.id)
            |> List.map fst
            |> List.filter (fun p -> Path.is_trail p && Path.len p >= 1)
            |> List.map key
            |> List.sort_uniq compare)
      in
      let any_path =
        Coregql.(
          Pconcat
            ( Pnode (Some "x"),
              Pconcat (Prepeat (Pedge None, 1, None), Pnode (Some "y")) ))
      in
      let bad_window =
        Coregql.(
          Pconcat
            ( Pnode None,
              Pconcat
                ( Prepeat (Pedge None, 0, None),
                  Pconcat
                    ( Pcond
                        ( Pconcat
                            (Pedge (Some "u"), Pconcat (Pnode None, Pedge (Some "v"))),
                          Cnot (Ckey ("u", "date", Value.Lt, "v", "date")) ),
                      Pconcat (Prepeat (Pedge None, 0, None), Pnode None) ) ) ))
      in
      let via_except, except_ms =
        oneshot_ms (fun () ->
            let all = Coregql_paths.matching_trails pg any_path in
            let bad = Coregql_paths.matching_trails pg bad_window in
            Coregql_paths.except all bad
            |> List.map key |> List.sort_uniq compare)
      in
      let equal = direct = via_except in
      if not equal then all_equal := false;
      if except_ms < direct_ms then all_faster := false;
      Printf.printf "  %-4d %-10d %-14.2f %-14.2f %-8b\n" m (List.length direct)
        direct_ms except_ms equal)
    sizes;
  check "both strategies agree on every instance" !all_equal;
  check "the compositional difference strategy is slower (paper: poor performance)"
    !all_faster

(* ======================================================================== *)
(* E9: Proposition 22 — (ll)* is not Cypher-expressible.                    *)
(* ======================================================================== *)

let e9 () =
  header "E9" "Cypher patterns cannot express (ll)* (Proposition 22)";
  let target = Rpq_parse.parse "(l.l)*" in
  Printf.printf "  %-10s %-22s %-10s\n" "max size" "distinct languages" "witness?";
  let sizes = if !quick then [ 5; 7 ] else [ 5; 7; 9 ] in
  let none = ref true in
  List.iter
    (fun max_size ->
      let witness, examined = Cypher.search_equivalent ~labels:[ "l" ] ~max_size target in
      if witness <> None then none := false;
      Printf.printf "  %-10d %-22d %-10s\n" max_size examined
        (match witness with Some p -> Cypher.to_string p | None -> "none"))
    sizes;
  check "exhaustive search finds no equivalent pattern" !none;
  (* The decision procedure, on a family of targets. *)
  Printf.printf "  %-14s %-14s %s\n" "target" "expressible" "expected";
  let cases =
    [ ("l*", true); ("(l.l)*", false); ("(l.l.l)*", false); ("l.(l.l)*", false);
      ("l{2,4}", true); ("l|l.l.l*", true) ]
  in
  let all_ok =
    List.for_all
      (fun (src, expected) ->
        let got = Cypher.expressible_unary ~lbl:"l" (Nfa.of_regex (Rpq_parse.parse src)) in
        Printf.printf "  %-14s %-14b %b\n" src got expected;
        got = expected)
      cases
  in
  check "decision procedure matches the theory on all targets" all_ok

(* ======================================================================== *)
(* E10: unambiguous automata are no larger than real-life expressions.      *)
(* ======================================================================== *)

let e10 () =
  header "E10" "unambiguous automaton sizes for a realistic RPQ workload (Sec 6.2, [62])";
  (* Shapes mirroring the SPARQL-log study: stars of labels, short
     concatenations, small disjunctions, wildcards, mild nesting. *)
  let workload =
    [ "a*"; "a+"; "a?"; "a.b"; "a.b.c"; "a|b"; "a|b|c"; "(a|b)*"; "a.b*";
      "a*.b"; "a.(b|c)"; "(a.b)+"; "a{1,3}"; "_*"; "a._*"; "_*.a"; "!{a}*";
      "a.!{a,b}"; "(a|b).c*"; "a*.b.c?" ]
  in
  Printf.printf "  %-12s %-6s %-10s %-12s %-12s\n" "expression" "size" "glushkov"
    "ambiguous?" "unambig size";
  let inter a b = Sym.inter a b <> None in
  let max_ratio = ref 0.0 in
  List.iter
    (fun src ->
      let r = Rpq_parse.parse src in
      let nfa = Nfa.of_regex r in
      let ambiguous = Nfa.is_ambiguous ~inter nfa in
      let unambig_size =
        if ambiguous then (Dfa.minimize (Dfa.of_nfa nfa)).Dfa.nb_states
        else nfa.Nfa.nb_states
      in
      let ratio = float_of_int unambig_size /. float_of_int (Regex.size r) in
      if ratio > !max_ratio then max_ratio := ratio;
      Printf.printf "  %-12s %-6d %-10d %-12b %-12d\n" src (Regex.size r)
        nfa.Nfa.nb_states ambiguous unambig_size)
    workload;
  Printf.printf "  max (unambiguous automaton / expression size) ratio: %.2f\n" !max_ratio;
  check "no workload expression needs an unambiguous automaton larger than itself"
    (!max_ratio <= 1.0 +. 1e-9)

(* ======================================================================== *)
(* E11: product-construction evaluation scales with |G| x |A| (Sec 6.2).    *)
(* ======================================================================== *)

let e11 () =
  header "E11" "RPQ evaluation time vs product size (Section 6.2)";
  let r = Rpq_parse.parse "(a.b)*|c+" in
  let nfa = Nfa.of_regex r in
  Printf.printf "  %-8s %-8s %-14s %-14s %-12s\n" "nodes" "edges" "product edges"
    "BFS (us)" "ns/productedge";
  let sizes = if !quick then [ 50; 100 ] else [ 50; 100; 200; 400; 800 ] in
  let ratios = ref [] in
  List.iter
    (fun n ->
      let g =
        Generators.random_graph ~seed:7 ~nodes:n ~edges:(4 * n)
          ~labels:[ "a"; "b"; "c" ]
      in
      let product = Product.make g nfa in
      let pe = Product.nb_product_edges product in
      let ns =
        bechamel_ns ~name:"bfs" (fun () -> Rpq_eval.pairs_nfa g nfa)
      in
      (* All-pairs = one BFS per source: normalize per source per edge. *)
      let per = ns /. float_of_int n /. float_of_int (max 1 pe) in
      ratios := per :: !ratios;
      Printf.printf "  %-8d %-8d %-14d %-14.1f %-12.3f\n" n (4 * n) pe (ns /. 1e3) per;
      (* One counted run next to the OLS estimate: how much product work
         that time buys. *)
      let _, counters = counted (fun obs -> Rpq_eval.pairs_nfa ~obs g nfa) in
      Printf.printf
        "  {\"experiment\":\"E11\",\"nodes\":%d,\"edges\":%d,\"elapsed_us\":%.1f,\"counters\":%s}\n"
        n (4 * n) (ns /. 1e3) (counters_json counters))
    sizes;
  let mn = List.fold_left min infinity !ratios
  and mx = List.fold_left max 0.0 !ratios in
  Printf.printf "  per-unit cost spread (max/min): %.2f\n" (mx /. mn);
  check "per-unit cost is flat within an order of magnitude (polynomial scaling)"
    (mx /. mn < 10.0)

(* ======================================================================== *)
(* E12: pi{2,2} vs pi pi in GQL; the l-RPQ law fixes it (Ex. 1, Sec 4.2).   *)
(* ======================================================================== *)

let e12 () =
  header "E12" "GQL: repetition is not unfolding; l-RPQs restore the law (Ex. 1)";
  let pg =
    Pg.make
      ~nodes:[ ("u", "V", []); ("v", "V", []); ("w", "V", []); ("s", "V", []) ]
      ~edges:
        [ ("e1", "u", "a", "v", []); ("e2", "v", "a", "w", []);
          ("loop", "s", "a", "s", []) ]
  in
  let quant = Gql_parse.parse "(()-[z:a]->()){2}" in
  let unfold = Gql_parse.parse "()-[z:a]->()()-[z:a]->()" in
  let nq = List.length (Gql.matches pg quant ~max_len:4) in
  let nu = List.length (Gql.matches pg unfold ~max_len:4) in
  Printf.printf "  GQL pi{2}: %d matches (z grouped); GQL pi pi: %d matches (z joined)\n"
    nq nu;
  check "GQL: pi{2,2} and pi pi differ" (nq <> nu);
  (* l-RPQs: [[R]]^2 = [[R R]] by definition; check on random graphs. *)
  let ok = ref true in
  for seed = 1 to 10 do
    let g = Generators.random_graph ~seed ~nodes:4 ~edges:6 ~labels:[ "a"; "b" ] in
    let r = Regex.alt (Lrpq.cap "a" "z") (Lrpq.lbl "b") in
    let singles = Lrpq.enumerate g r ~max_len:1 in
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
      |> List.sort_uniq compare
    in
    let direct =
      Lrpq.enumerate g (Regex.Seq (r, r)) ~max_len:2
    in
    if List.sort compare direct <> composed then ok := false
  done;
  check "l-RPQs: [[R.R]] = [[R]] o [[R]] on 10 random graphs" !ok

(* ======================================================================== *)
(* E13 (ablation): compiling patterns to automata beats pattern-walking.    *)
(* ======================================================================== *)

let e13 () =
  header "E13" "ablation: GQL pattern engine vs compiled automaton (Sec 6.2)";
  let pat = Gql_parse.parse "(x)(()-[:a]->()){1,}(y)" in
  let rpq =
    match Gql_compile.to_rpq pat with
    | Some r -> r
    | None -> failwith "pattern should compile"
  in
  Printf.printf "  pattern: (x)(()-[:a]->()){1,}(y)   compiled RPQ: %s\n"
    (Regex.to_string Sym.to_string rpq);
  Printf.printf "  %-4s %-16s %-16s %-10s\n" "n" "engine (ms)" "automaton (ms)" "agree?";
  let sizes = if !quick then [ 4; 8 ] else [ 4; 8; 12 ] in
  let all_agree = ref true and automaton_wins = ref true in
  List.iter
    (fun n ->
      let g = Generators.diamonds n in
      let pg =
        Pg.make
          ~nodes:(List.init (Elg.nb_nodes g) (fun i -> (Elg.node_name g i, "V", [])))
          ~edges:
            (List.init (Elg.nb_edges g) (fun e ->
                 ( Elg.edge_name g e,
                   Elg.node_name g (Elg.src g e),
                   Elg.label g e,
                   Elg.node_name g (Elg.tgt g e),
                   [] )))
      in
      let g = Pg.elg pg in
      (* The engine enumerates every path; the automaton does one BFS per
         source over the product graph. *)
      let engine_pairs, engine_ms =
        oneshot_ms (fun () ->
            Gql.matches pg pat ~max_len:(2 * n)
            |> List.filter_map (fun (p, _) ->
                   match (Path.src g p, Path.tgt g p) with
                   | Some u, Some v -> Some (u, v)
                   | _ -> None)
            |> List.sort_uniq compare)
      in
      let auto_pairs, auto_ms = oneshot_ms (fun () -> Rpq_eval.pairs g rpq) in
      let agree = engine_pairs = auto_pairs in
      if not agree then all_agree := false;
      if engine_ms < auto_ms then automaton_wins := false;
      Printf.printf "  %-4d %-16.2f %-16.2f %-10b\n" n engine_ms auto_ms agree)
    sizes;
  check "engine and compiled automaton agree on endpoints" !all_agree;
  check "the automaton evaluation is faster on every instance" !automaton_wins

(* ======================================================================== *)
(* E14: SPARQL 1.1's non-uniform bag/set semantics (Section 6.1).           *)
(* ======================================================================== *)

let e14 () =
  header "E14" "SPARQL 1.1 non-uniform semantics: star silently deduplicates (Sec 6.1)";
  let g = Generators.line 1 "a" in
  let k4 = Generators.clique 4 "a" in
  let p = Rpq_parse.parse in
  Printf.printf "  %-16s %-10s %-24s\n" "expression" "graph" "multiplicity of one pair";
  let show expr graph gname src tgt =
    let m = Sparql_paths.multiplicity graph (p expr) ~src ~tgt in
    Printf.printf "  %-16s %-10s %-24s\n" expr gname (Nat_big.to_string m);
    m
  in
  let m1 = show "a|a" g "line" 0 1 in
  let m2 = show "(a|a)*" g "line" 0 1 in
  let _ = show "(a|a).(a|a)" k4 "K4" 0 1 in
  let m3 = show "(((a*)*)*)*" k4 "K4" 0 1 in
  let alp = Rpq_count.bag_count k4 (p "(((a*)*)*)*") ~src:0 ~tgt:1 in
  Printf.printf "  (the same nested star under the pre-standard draft semantics: %s)\n"
    (Nat_big.to_scientific alp);
  check "union duplicates: (a|a) has multiplicity 2"
    (Nat_big.to_int m1 = Some 2);
  check "star deduplicates: (a|a)* has multiplicity 1 (the paper's oddity)"
    (Nat_big.to_int m2 = Some 1);
  check "nested stars stay at 1 under SPARQL 1.1 (vs the draft explosion)"
    (Nat_big.to_int m3 = Some 1 && Nat_big.compare alp (Nat_big.of_int 1000) > 0)

(* ======================================================================== *)
(* E15 (ablation): generic join vs pairwise joins for CRPQs (Sec 7.1).      *)
(* ======================================================================== *)

let e15 () =
  header "E15" "ablation: generic join vs pairwise joins on triangle CRPQs (Sec 7.1)";
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
  Printf.printf "  %-8s %-8s %-10s %-16s %-16s %-14s %-14s\n" "nodes" "edges"
    "answers" "generic tuples" "binary peak" "generic (ms)" "binary (ms)";
  let sizes = if !quick then [ (30, 150) ] else [ (30, 150); (60, 420); (90, 810) ] in
  let all_agree = ref true in
  let generic_cheaper = ref true in
  List.iter
    (fun (nodes, edges) ->
      let g = Generators.random_graph ~seed:3 ~nodes ~edges ~labels:[ "a" ] in
      let generic, generic_ms = oneshot_ms (fun () -> Crpq_wcoj.eval g triangle) in
      let binary, binary_ms = oneshot_ms (fun () -> Crpq.eval g triangle) in
      let explored, peak = Crpq_wcoj.compare_costs g triangle in
      if generic <> binary then all_agree := false;
      if explored > peak then generic_cheaper := false;
      Printf.printf "  %-8d %-8d %-10d %-16d %-16d %-14.2f %-14.2f\n" nodes edges
        (List.length generic) explored peak generic_ms binary_ms)
    sizes;
  check "both join strategies return the same triangles" !all_agree;
  check "generic join explores fewer tuples than the binary-join peak" !generic_cheaper

(* ======================================================================== *)
(* E16: the resource governor across engines on adversarial inputs.        *)
(* ======================================================================== *)

let e16 () =
  header "E16" "resource governor: every engine on Fig. 5 blow-up inputs (JSONL)";
  (* One machine-readable line per (query, engine) run; "reason" names
     the tripped resource (steps/results/deadline), "none" on Complete. *)
  let jsonl ~query ~engine gov outcome ms =
    let reason =
      match outcome with
      | Governor.Complete _ -> "none"
      | Governor.Partial (_, r) | Governor.Aborted r -> Governor.reason_slug r
    in
    Printf.printf
      "  {\"query\":%S,\"engine\":%S,\"steps\":%d,\"results\":%d,\"outcome\":%S,\"reason\":%S,\"elapsed_ms\":%.2f}\n"
      query engine (Governor.steps gov) (Governor.results gov)
      (Governor.outcome_status outcome) reason ms
  in
  let budget = if !quick then 20_000 else 100_000 in
  let statuses = ref [] in
  let run ?steps ~query ~engine f =
    let gov = Governor.make ~max_steps:(Option.value steps ~default:budget) () in
    let outcome, ms = oneshot_ms (fun () -> f gov) in
    jsonl ~query ~engine gov outcome ms;
    statuses := (engine, outcome, ms) :: !statuses
  in
  let big = Generators.diamonds 40 in
  let s = Elg.node_id big "s" and t = Elg.node_id big "t" in
  let astar = Rpq_parse.parse "a*" in
  run ~query:"diamonds(40) a* all paths" ~engine:"path_modes.enumerate"
    (fun gov ->
      Governor.map ignore
        (Path_modes.enumerate_bounded gov big astar ~mode:Path_modes.All
           ~max_len:80 ~src:s ~tgt:t));
  run ~query:"diamonds(40) a* pmr unrolling" ~engine:"pmr.spaths_upto"
    (fun gov ->
      let pmr = Pmr.of_rpq big astar ~src:s ~tgt:t in
      Governor.map ignore (Pmr.spaths_upto_bounded gov big pmr ~max_len:80));
  let k9 = Generators.clique 9 "a" in
  run ~query:"clique(9) simple paths" ~engine:"path_modes.count"
    (fun gov ->
      Governor.map ignore
        (Path_modes.count_bounded gov k9 astar ~mode:Path_modes.Simple
           ~max_len:9 ~src:0 ~tgt:1));
  let a = Regex.atom (Sym.Lbl "a") in
  let triangle =
    Crpq.make ~head:[ "x"; "y"; "z" ]
      ~atoms:
        [
          { Crpq.re = a; x = Crpq.TVar "x"; y = Crpq.TVar "y" };
          { Crpq.re = a; x = Crpq.TVar "y"; y = Crpq.TVar "z" };
          { Crpq.re = a; x = Crpq.TVar "z"; y = Crpq.TVar "x" };
        ]
  in
  let k20 = Generators.clique 20 "a" in
  run ~query:"clique(20) triangle CRPQ" ~engine:"crpq.eval"
    (fun gov -> Governor.map ignore (Crpq.eval_bounded gov k20 triangle));
  (* The generic join is worst-case optimal, so it needs a larger clique
     than the pairwise join before the budget bites. *)
  let k60 = Generators.clique 60 "a" in
  run ~query:"clique(60) triangle CRPQ" ~engine:"crpq_wcoj.eval"
    (fun gov -> Governor.map ignore (Crpq_wcoj.eval_bounded gov k60 triangle));
  let lexpr =
    Regex.star
      (Regex.alt
         (Regex.seq (Lrpq.lbl "a") (Lrpq.cap "a" "z"))
         (Regex.seq (Lrpq.cap "a" "z") (Lrpq.lbl "a")))
  in
  let line40 = Generators.line 40 "a" in
  (* List-variable bindings make each step heavier; halve the budget so
     the run still lands comfortably under a second. *)
  run ~steps:(budget / 2) ~query:"line(40) 2^n l-RPQ bindings"
    ~engine:"lrpq.enumerate"
    (fun gov ->
      Governor.map ignore (Lrpq.enumerate_bounded gov line40 lexpr ~max_len:40));
  let k7pg =
    let k7 = Generators.clique 7 "a" in
    Pg.make
      ~nodes:(List.init (Elg.nb_nodes k7) (fun i -> (Elg.node_name k7 i, "V", [])))
      ~edges:
        (List.init (Elg.nb_edges k7) (fun e ->
             ( Elg.edge_name k7 e,
               Elg.node_name k7 (Elg.src k7 e),
               Elg.label k7 e,
               Elg.node_name k7 (Elg.tgt k7 e),
               [] )))
  in
  run ~query:"clique(7) all matching trails" ~engine:"coregql.matching_trails"
    (fun gov ->
      let pat =
        Coregql.(
          Pconcat (Pnode None, Pconcat (Prepeat (Pedge None, 1, None), Pnode None)))
      in
      Governor.map ignore (Coregql_paths.matching_trails_bounded gov k7pg pat));
  run ~query:"clique(7) unbounded quantifier" ~engine:"gql.matches"
    (fun gov ->
      let pat = Gql_parse.parse "(x)(()-[:a]->()){1,}(y)" in
      Governor.map ignore (Gql.matches_bounded gov k7pg pat ~max_len:14));
  let all_partial_and_fast =
    List.for_all
      (fun (_, outcome, ms) ->
        (not (Governor.is_complete outcome)) && ms < 1000.0)
      !statuses
  in
  check "every adversarial run returns a partial result in under a second"
    all_partial_and_fast;
  (* Ample budget on a small instance: outcome is Complete and matches the
     unbounded engine. *)
  let small = Generators.diamonds 4 in
  let gov = Governor.make ~max_steps:10_000_000 () in
  let bounded =
    Rpq_eval.pairs_bounded gov small astar
  in
  let agree =
    match bounded with
    | Governor.Complete pairs -> pairs = Rpq_eval.pairs small astar
    | Governor.Partial _ | Governor.Aborted _ -> false
  in
  jsonl ~query:"diamonds(4) a* pairs" ~engine:"rpq_eval.pairs" gov bounded 0.0;
  check "with an ample budget the outcome is Complete and equals the unbounded run"
    agree

(* ======================================================================== *)
(* E17: indexed CSR + parallel multi-source RPQ vs the seed list engine.    *)
(* ======================================================================== *)

(* The pre-index engine, kept as a frozen baseline: product transitions as
   [(edge, state) list array] built with one [Sym.matches] string test per
   (edge, transition); per-source BFS over a fresh bool array; targets
   recovered by a full scan over all product states; answers accumulated
   by consing + [List.sort_uniq]. *)
module Seed_rpq = struct
  type product = {
    nq : int;
    out : (int * int) list array;
    finals : bool array;
    initials : int list;
    nb_nodes : int;
  }

  let make g (nfa : Sym.t Nfa.t) =
    let nq = nfa.Nfa.nb_states in
    let nb_states = Elg.nb_nodes g * nq in
    let out = Array.make (max 1 nb_states) [] in
    for v = 0 to Elg.nb_nodes g - 1 do
      let edges = Elg.out_edges g v in
      for q = 0 to nq - 1 do
        let s = (v * nq) + q in
        out.(s) <-
          List.concat_map
            (fun e ->
              let lbl = Elg.label g e in
              List.filter_map
                (fun (sym, q') ->
                  if Sym.matches sym lbl then Some (e, (Elg.tgt g e * nq) + q')
                  else None)
                nfa.Nfa.delta.(q))
            edges
      done
    done;
    {
      nq;
      out;
      finals = nfa.Nfa.finals;
      initials = nfa.Nfa.initials;
      nb_nodes = Elg.nb_nodes g;
    }

  let from_source p ~src =
    let n = p.nb_nodes * p.nq in
    let seen = Array.make (max 1 n) false in
    let queue = Queue.create () in
    List.iter
      (fun q0 ->
        let s = (src * p.nq) + q0 in
        if not seen.(s) then begin
          seen.(s) <- true;
          Queue.add s queue
        end)
      p.initials;
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      List.iter
        (fun (_, s') ->
          if not seen.(s') then begin
            seen.(s') <- true;
            Queue.add s' queue
          end)
        p.out.(s)
    done;
    let acc = ref [] in
    for s = n - 1 downto 0 do
      if seen.(s) && p.finals.(s mod p.nq) then acc := s / p.nq :: !acc
    done;
    List.sort_uniq Stdlib.compare !acc

  let pairs g nfa =
    let p = make g nfa in
    let acc = ref [] in
    Elg.fold_nodes
      (fun u () ->
        List.iter (fun v -> acc := (u, v) :: !acc) (from_source p ~src:u))
      g ();
    List.sort_uniq Stdlib.compare !acc
end

let e17 () =
  header "E17" "indexed CSR + parallel multi-source RPQ vs seed engine (JSONL)";
  (* The seed engine is a frozen baseline with no telemetry hooks, so its
     rows carry an empty counters object. *)
  let jsonl ~graph ~nodes ~edges ~query ~engine ~answers ?(counters = []) ms =
    emit_row
      (Printf.sprintf
         "{\"graph\":%S,\"nodes\":%d,\"edges\":%d,\"query\":%S,\"engine\":%S,\"answers\":%d,\"elapsed_ms\":%.2f,\"counters\":%s}"
         graph nodes edges query engine answers ms (counters_json counters))
  in
  let failures = ref 0 in
  (* Correctness checks are fatal: bench-smoke fails if the engines ever
     disagree.  Timing checks stay advisory. *)
  let require name ok =
    check name ok;
    if not ok then incr failures
  in
  let serial_pool = Pool.create ~size:1 () in
  (* The "indexed-parallel" rows take the adaptive no-pool path:
     [Par_policy] picks the fork width from the estimated work and the
     hardware thread count (serial below the threshold) — the fix for the
     old regression where a forced >= 2-domain pool lost to serial on a
     single-core container at every size. *)
  let speedups = ref [] in
  let par_ratios = ref [] in
  let run_case g ~gname ~query =
    let nfa = Nfa.of_regex (Rpq_parse.parse query) in
    let nodes = Elg.nb_nodes g and edges = Elg.nb_edges g in
    let seed_pairs, seed_ms = oneshot_ms (fun () -> Seed_rpq.pairs g nfa) in
    jsonl ~graph:gname ~nodes ~edges ~query ~engine:"seed-serial"
      ~answers:(List.length seed_pairs) seed_ms;
    (* The two indexed rows report best-of-3, interleaved A B A B A B
       with a major collection before each timed run: the ratio gate
       below compares the engines to each other, so both must see the
       same heap — the first engine's retained answer list (270k pairs
       at 10k nodes) otherwise taxes only the second engine's GC, and a
       single draw on a shared container swings ±15% on its own. *)
    let timed f =
      Gc.major ();
      oneshot_ms f
    in
    let min3 a b c = Float.min a (Float.min b c) in
    let idx_run () =
      counted (fun obs -> Rpq_eval.pairs_nfa ~pool:serial_pool ~obs g nfa)
    in
    let par_run () = counted (fun obs -> Rpq_eval.pairs_nfa ~obs g nfa) in
    let (idx_pairs, idx_counters), i1 = timed idx_run in
    let (par_pairs, par_counters), p1 = timed par_run in
    let _, i2 = timed idx_run in
    let _, p2 = timed par_run in
    let _, i3 = timed idx_run in
    let _, p3 = timed par_run in
    let idx_ms = min3 i1 i2 i3 and par_ms = min3 p1 p2 p3 in
    jsonl ~graph:gname ~nodes ~edges ~query ~engine:"indexed-serial"
      ~answers:(List.length idx_pairs) ~counters:idx_counters idx_ms;
    jsonl ~graph:gname ~nodes ~edges ~query ~engine:"indexed-parallel"
      ~answers:(List.length par_pairs) ~counters:par_counters par_ms;
    let case = Printf.sprintf "%s(%d) %s" gname nodes query in
    require (case ^ ": indexed = seed") (idx_pairs = seed_pairs);
    require (case ^ ": adaptive-parallel = serial") (par_pairs = idx_pairs);
    par_ratios := (case, idx_ms, par_ms) :: !par_ratios;
    speedups := (gname, nodes, seed_ms /. Float.min idx_ms par_ms) :: !speedups
  in
  let random_sizes = if !quick then [ 200; 500 ] else [ 1_000; 4_000; 10_000 ] in
  List.iter
    (fun n ->
      let g =
        Generators.random_graph ~seed:11 ~nodes:n ~edges:(4 * n)
          ~labels:[ "a"; "b"; "c"; "d" ]
      in
      run_case g ~gname:"random_graph" ~query:"a.b*.c")
    random_sizes;
  let clique_sizes = if !quick then [ 30 ] else [ 60; 100 ] in
  List.iter
    (fun n -> run_case (Generators.clique n "a") ~gname:"clique" ~query:"a*")
    clique_sizes;
  (* Product construction on a label-rich graph: the seed pays one string
     match per (edge, transition); the index matches once per
     (state, label) and then only merges int arrays. *)
  let rich_n = if !quick then 500 else 4_000 in
  let rich =
    Generators.random_graph ~seed:13 ~nodes:rich_n ~edges:(8 * rich_n)
      ~labels:(List.init 64 (Printf.sprintf "l%d"))
  in
  let rich_nfa = Nfa.of_regex (Rpq_parse.parse "l0.(l1|l2)*.l3") in
  let _, seed_mk_ms = oneshot_ms (fun () -> Seed_rpq.make rich rich_nfa) in
  let _, idx_mk_ms = oneshot_ms (fun () -> Product.make rich rich_nfa) in
  Printf.printf
    "  product construction, 64 labels, %d edges: seed %.2f ms, indexed %.2f ms (%.1fx)\n"
    (Elg.nb_edges rich) seed_mk_ms idx_mk_ms (seed_mk_ms /. idx_mk_ms);
  check "indexed product construction is faster on the label-rich graph"
    (idx_mk_ms < seed_mk_ms);
  (* The regression gate: the adaptive path must track serial (it picks
     width 1 on small work / small machines).  1 ms of absolute slack so
     quick-mode noise on sub-millisecond cases cannot flip the check. *)
  List.iter
    (fun (case, idx_ms, par_ms) ->
      Printf.printf "  parallel/serial %-36s %.2fx\n" case (par_ms /. idx_ms))
    (List.rev !par_ratios);
  check "adaptive parallel is never worse than ~1.1x serial"
    (List.for_all
       (fun ((_ : string), idx_ms, par_ms) ->
         par_ms <= (1.1 *. idx_ms) +. 1.0)
       !par_ratios);
  (* Headline: speedup on the largest random_graph instance. *)
  let headline =
    List.fold_left
      (fun acc (gname, n, s) ->
        if gname = "random_graph" then
          match acc with
          | Some (n0, _) when n0 >= n -> acc
          | _ -> Some (n, s)
        else acc)
      None !speedups
  in
  (match headline with
  | Some (n, s) ->
      Printf.printf "  headline speedup on random_graph(%d): %.1fx\n" n s;
      (* The 5x acceptance target is for the full 10k-node sweep; quick
         mode runs tiny instances where timing noise dominates. *)
      let target = if !quick then 2.0 else 5.0 in
      check
        (Printf.sprintf "indexed evaluation is >= %.0fx the seed engine at %d nodes"
           target n)
        (s >= target)
  | None -> check "headline speedup computed" false);
  if !failures > 0 then begin
    Printf.eprintf "E17: %d correctness check(s) failed\n" !failures;
    exit 1
  end

(* ======================================================================== *)
(* E19: fault-injection sweep — outcome mix and tail latency vs fault       *)
(* probability on the supervised RPQ path (JSONL).                          *)
(* ======================================================================== *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let e19 () =
  header "E19"
    "fault-injection sweep: completed/degraded/failed and p99 latency vs fault probability (JSONL)";
  (* E19 manages its own fault schedule; any --failpoints arming is
     cleared here and not restored. *)
  let n = if !quick then 300 else 2_000 in
  let g =
    Generators.random_graph ~seed:17 ~nodes:n ~edges:(4 * n)
      ~labels:[ "a"; "b"; "c"; "d" ]
  in
  let r = Rpq_parse.parse "a.b*.c" in
  let queries = if !quick then 40 else 200 in
  let baseline = Rpq_eval.pairs g r in
  let retry = { Retry.immediate with Retry.max_attempts = 3 } in
  let wrong = ref 0 in
  let sweep p =
    Failpoint.clear ();
    (* One check per evaluation attempt (the product is built once per
       run), so [p] is the per-attempt fault probability and a query
       fails outright with probability p^max_attempts. *)
    if p > 0.0 then
      Failpoint.arm "rpq.product.build" (Fail_prob { p; seed = 1234 });
    (* A short cooldown so the breaker both trips and recovers within the
       sweep: the outcome mix shows the degraded plateau, not a flatline. *)
    let breaker =
      Breaker.create
        ~config:{ Breaker.failure_threshold = 5; cooldown = 0.01; success_threshold = 1 }
        "rpq"
    in
    let completed = ref 0 and degraded = ref 0 and failed = ref 0 in
    let retried = ref 0 in
    let lats = Array.make queries 0.0 in
    for q = 0 to queries - 1 do
      let reply, ms =
        oneshot_ms (fun () ->
            Supervise.run ~retry ~sleep:ignore ~breaker
              ~gov:(fun () -> Governor.make ())
              (fun gov -> Rpq_eval.pairs_bounded gov g r))
      in
      lats.(q) <- ms;
      if reply.Supervise.attempts > 1 then incr retried;
      match reply.Supervise.outcome with
      | Ok _ when reply.Supervise.degraded -> incr degraded
      | Ok (Governor.Complete ans) ->
          incr completed;
          if ans <> baseline then incr wrong
      | Ok (Governor.Partial _ | Governor.Aborted _) | Error _ -> incr failed
    done;
    Array.sort compare lats;
    Printf.printf
      "  {\"fault_p\":%g,\"queries\":%d,\"completed\":%d,\"degraded\":%d,\"failed\":%d,\"retried\":%d,\"p50_ms\":%.2f,\"p99_ms\":%.2f}\n"
      p queries !completed !degraded !failed !retried (percentile lats 0.5)
      (percentile lats 0.99);
    (p, !completed, !degraded, !failed, !retried)
  in
  let results = List.map sweep [ 0.0; 0.1; 0.2; 0.4; 0.8 ] in
  Failpoint.clear ();
  let find p = List.find (fun (p', _, _, _, _) -> p' = p) results in
  let _, c0, _, f0, _ = find 0.0 in
  check "p=0: every query completes at full price" (c0 = queries && f0 = 0);
  let _, _, _, _, retried_hi = find 0.4 in
  check "p=0.4: the retry layer is exercised" (retried_hi > 0);
  let _, _, degraded_hi, failed_hi, _ = find 0.8 in
  check "p=0.8: exhausted retries surface as classified failures or degraded replies"
    (failed_hi + degraded_hi > 0);
  check "no fault probability ever changed a completed answer" (!wrong = 0)

(* ======================================================================== *)
(* E20: the plan layer — compilation cache cold vs warm, and the cost-     *)
(* based CRPQ planner vs left-to-right on a skewed-label graph (JSONL).    *)
(* ======================================================================== *)

let e20 () =
  header "E20" "plan cache cold vs warm; planner vs left-to-right on skewed labels (JSONL)";
  let failures = ref 0 in
  (* Answer-equality checks are fatal (the acceptance contract for the
     plan layer); timing ratios are the claims under measurement. *)
  let require name ok =
    check name ok;
    if not ok then incr failures
  in

  (* --- part A: serve-style repeated requests, cold vs warm cache --------- *)
  (* Each request compiles an RPQ and runs a multi-source evaluation (the
     product cache's only client: single-source queries walk the product
     on the fly and never build one).  Cold builds a fresh cache per
     request, so every request pays parse + Glushkov + product
     construction; warm shares one cache, so repeats skip straight to the
     kernel.  The label-rich graph makes the product construction the
     dominant per-request cost, as in a serve session alternating a few
     canned queries. *)
  let n = if !quick then 400 else 2_000 in
  let g =
    Generators.random_graph ~seed:23 ~nodes:n ~edges:(8 * n)
      ~labels:(List.init 64 (Printf.sprintf "l%d"))
  in
  let queries = [ "l0.(l1|l2)*.l3"; "(l4|l5).l6*.l7"; "l8*.(l9|l10)" ] in
  let requests = if !quick then 30 else 90 in
  let run_requests cache_of =
    counted (fun obs ->
        List.init requests (fun i ->
            let cache = cache_of () in
            let q = List.nth queries (i mod List.length queries) in
            match Rpq_compile.compile ~obs cache q with
            | Error _ -> assert false
            | Ok c ->
                Governor.payload ~default:[]
                  (Rpq_compile.pairs_bounded ~obs cache
                     (Governor.unlimited ()) g c)))
  in
  let cold () = run_requests (fun () -> Rpq_compile.create ()) in
  let warm_cache = Rpq_compile.create () in
  let warm () = run_requests (fun () -> warm_cache) in
  (* Best of 3, cold and warm interleaved so both see the same heap;
     the first warm pass fills the cache, so its counters show the
     misses and the later passes time the steady state. *)
  let (cold_answers, cold_counters), cold_ms = oneshot_ms cold in
  let (warm_answers, warm_counters), warm_ms = oneshot_ms warm in
  let cold_ms = ref cold_ms and warm_ms = ref warm_ms in
  for _ = 2 to 3 do
    cold_ms := Float.min !cold_ms (snd (oneshot_ms cold));
    warm_ms := Float.min !warm_ms (snd (oneshot_ms warm))
  done;
  let cold_ms = !cold_ms and warm_ms = !warm_ms in
  let row mode ms counters =
    Printf.printf
      "  {\"experiment\":\"E20\",\"phase\":\"cache\",\"mode\":%S,\"requests\":%d,\"elapsed_ms\":%.2f,\"ms_per_request\":%.3f,\"counters\":%s}\n"
      mode requests ms
      (ms /. float_of_int requests)
      (counters_json counters)
  in
  row "cold" cold_ms cold_counters;
  row "warm" warm_ms warm_counters;
  Printf.printf "  warm speedup: %.1fx (plan hits %d, product hits %d)\n"
    (cold_ms /. warm_ms)
    (Plan_cache.hits (Rpq_compile.plans warm_cache))
    (Rpq_compile.product_hits warm_cache);
  require "cached answers = cold answers on every request"
    (warm_answers = cold_answers);
  require "warm cache is >= 3x faster than cold compilation"
    (cold_ms >= 3.0 *. warm_ms);

  (* --- part B: planner on/off on a skewed-label CRPQ ---------------------- *)
  (* ~95% of edges carry the label [big] (one giant reachable component,
     so big* has ~n^2 answers); 30 edges carry [rare].  The query lists
     the big atom first, so left-to-right materializes big* and then
     joins 30 rare pairs against it.  The planner orders the rare atom
     first and turns the big atom into per-binding backward probes. *)
  let nb = if !quick then 150 else 600 in
  let st = Random.State.make [| 29 |] in
  let name i = Printf.sprintf "v%d" i in
  let skew =
    Elg.make
      ~nodes:(List.init nb name)
      ~edges:
        (List.init (4 * nb) (fun k ->
             ( Printf.sprintf "b%d" k,
               name (Random.State.int st nb),
               "big",
               name (Random.State.int st nb) ))
        @ List.init 30 (fun k ->
              ( Printf.sprintf "r%d" k,
                name (Random.State.int st nb),
                "rare",
                name (Random.State.int st nb) )))
  in
  let q =
    Crpq.make ~head:[ "x"; "y"; "z" ]
      ~atoms:
        [
          { Crpq.re = Rpq_parse.parse "big*"; x = Crpq.TVar "x"; y = Crpq.TVar "y" };
          { Crpq.re = Rpq_parse.parse "rare"; x = Crpq.TVar "y"; y = Crpq.TVar "z" };
        ]
  in
  let (rows_off, off_counters), off_ms =
    oneshot_ms (fun () -> counted (fun obs -> Crpq.eval ~obs ~planner:false skew q))
  in
  let (rows_on, on_counters), on_ms =
    oneshot_ms (fun () -> counted (fun obs -> Crpq.eval ~obs ~planner:true skew q))
  in
  let counter cs k = match List.assoc_opt k cs with Some v -> v | None -> 0 in
  let prow planner rows counters ms =
    Printf.printf
      "  {\"experiment\":\"E20\",\"phase\":\"planner\",\"planner\":%b,\"nodes\":%d,\"edges\":%d,\"rows\":%d,\"est_card\":%d,\"actual_card\":%d,\"elapsed_ms\":%.2f,\"counters\":%s}\n"
      planner (Elg.nb_nodes skew) (Elg.nb_edges skew) (List.length rows)
      (counter counters "crpq.est_card")
      (counter counters "crpq.actual_card")
      ms (counters_json counters)
  in
  prow false rows_off off_counters off_ms;
  prow true rows_on on_counters on_ms;
  Printf.printf "  plan: %s   speedup: %.1fx\n"
    (String.concat ", "
       (List.map
          (fun (ap, mode) -> Printf.sprintf "atom %d %s" ap.Planner.index mode)
          (Crpq.explain skew q)))
    (off_ms /. on_ms);
  require "planner-on answers = planner-off answers" (rows_on = rows_off);
  require "planner beats left-to-right on the skewed CRPQ (>= 2x)"
    (off_ms >= 2.0 *. on_ms);
  if !failures > 0 then begin
    Printf.eprintf "E20: %d check(s) failed\n" !failures;
    exit 1
  end

(* ======================================================================== *)
(* E21: sustained-load serve bench — per-client isolation under a hostile   *)
(* flood (JSONL; `--out=BENCH_serve.json`).                                 *)
(* ======================================================================== *)

(* One synchronous serve-protocol client of the in-process server. *)
module Bclient = struct
  type t = { fd : Unix.file_descr; ic : in_channel }

  let connect addr =
    let fd = Server.connect addr in
    { fd; ic = Unix.in_channel_of_descr fd }

  let send c line = ignore (Wire.write_all c.fd (line ^ "\n"))
  let recv c = try Some (input_line c.ic) with End_of_file -> None

  let ask c line =
    send c line;
    recv c

  let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
end

let has_field line k v =
  let needle = Printf.sprintf "\"%s\":%s" k v in
  let rec go i =
    i + String.length needle <= String.length line
    && (String.sub line i (String.length needle) = needle || go (i + 1))
  in
  go 0

let e21 () =
  header "E21"
    "concurrent serve mode: well-behaved latency next to a hostile flood (JSONL)";
  let failures = ref 0 in
  let require name ok =
    check name ok;
    if not ok then incr failures
  in
  (* The isolation recipe under test, on one core as much as on many:
     a server-wide per-query step ceiling bounds how long any single
     evaluation can hold a worker, and a per-client token bucket charges
     each client for the steps it actually spends — so the flood burns
     its budget and is shed at ~zero cost while paced clients never
     notice the bucket. *)
  let n = if !quick then 400 else 1_000 in
  let requests = if !quick then 100 else 300 in
  (* The bucket starts full at one second's refill, so its free initial
     level must stay proportional to the measurement window — quick mode
     floods for less than half as long and gets less than half the
     rate, or the warm-up grace dominates the shed ratio. *)
  let budget_rate = (if !quick then 40_000 else 100_000) and ceiling = 8_000 in
  let g =
    Generators.random_pg ~seed:23 ~nodes:n ~edges:(4 * n)
      ~labels:[ "a"; "b"; "c"; "d" ] ~prop:"w" ~max_value:9
  in
  let path = Filename.temp_file "gq_e21" ".graph" in
  let oc = open_out path in
  output_string oc (Graph_io.to_string g);
  close_out oc;
  let wb_query = "rpq-from v0 a" in
  let hostile_query = "rpq (a|b|c|d)*" in
  let ((), counters) =
    counted (fun obs ->
        let t =
          Server.launch
            {
              (Server.default_config ~listen:(Server.Tcp ("127.0.0.1", 0))
                 {
                   Session.default_config with
                   Session.obs;
                   ceiling_max_steps = Some ceiling;
                   ceiling_max_results = Some 1_000;
                 })
              with
              Server.workers = Some 2;
              queue_depth = 64;
              client_steps_per_sec = budget_rate;
              hard_deadline = Some 2.0;
            }
        in
        let addr = Server.addr t in
        let loader = Bclient.connect addr in
        (match Bclient.ask loader (Printf.sprintf "load %s" path) with
        | Some r when has_field r "status" "\"ok\"" -> ()
        | _ -> require "graph loaded" false);
        Bclient.close loader;
        (* A paced client: one request every 5 ms, like an interactive
           caller.  Each phase uses a fresh connection so the reply ids
           line up and the transcripts are comparable verbatim. *)
        let run_wb () =
          let wb = Bclient.connect addr in
          let lat = Array.make requests 0.0 in
          let replies = Array.make requests "" in
          for i = 0 to requests - 1 do
            Unix.sleepf 0.005;
            let r, ms = oneshot_ms (fun () -> Bclient.ask wb wb_query) in
            lat.(i) <- ms;
            replies.(i) <- Option.value r ~default:"<eof>"
          done;
          Bclient.close wb;
          (lat, replies)
        in
        let solo_lat, solo_replies = run_wb () in
        (* The hostile flood: a second client hammering the expensive
           full-pairs query at ~500 req/s for the whole contended phase,
           never backing off on shed. *)
        let stop = Atomic.make false in
        let hostile_sent = Atomic.make 0 and hostile_shed = Atomic.make 0 in
        let flooder =
          Domain.spawn (fun () ->
              let h = Bclient.connect addr in
              while not (Atomic.get stop) do
                Unix.sleepf 0.002;
                (match Bclient.ask h hostile_query with
                | Some r when has_field r "status" "\"shed\"" ->
                    Atomic.incr hostile_shed
                | _ -> ());
                Atomic.incr hostile_sent
              done;
              Bclient.close h)
        in
        Unix.sleepf 0.3 (* burn-in: the flood reaches steady shed state *);
        let cont_lat, cont_replies = run_wb () in
        Atomic.set stop true;
        Domain.join flooder;
        (* Graceful drain with requests still in flight: every admitted
           request is answered before the server exits. *)
        let wb = Bclient.connect addr in
        let final = 3 in
        for _ = 1 to final do Bclient.send wb wb_query done;
        Unix.sleepf 0.02;
        Server.drain t;
        Server.await t;
        let drained = ref 0 in
        (try
           while Bclient.recv wb <> None do incr drained done
         with _ -> ());
        Bclient.close wb;
        let pcts lat =
          let s = Array.copy lat in
          Array.sort compare s;
          (percentile s 0.5, percentile s 0.99)
        in
        let solo_p50, solo_p99 = pcts solo_lat in
        let cont_p50, cont_p99 = pcts cont_lat in
        let count_bad replies =
          Array.fold_left
            (fun acc r ->
              if
                has_field r "status" "\"shed\""
                || has_field r "status" "\"error\""
                || r = "<eof>"
              then acc + 1
              else acc)
            0 replies
        in
        let jsonl phase p50 p99 bad extra =
          emit_row
            (Printf.sprintf
               "{\"experiment\":\"E21\",\"phase\":%S,\"requests\":%d,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"bad_replies\":%d%s,\"counters\":%s}"
               phase requests p50 p99 bad extra (counters_json []))
        in
        jsonl "solo" solo_p50 solo_p99 (count_bad solo_replies) "";
        jsonl "contended" cont_p50 cont_p99
          (count_bad cont_replies)
          (Printf.sprintf
             ",\"hostile_sent\":%d,\"hostile_shed\":%d,\"p99_vs_solo\":%.2f"
             (Atomic.get hostile_sent) (Atomic.get hostile_shed)
             (cont_p99 /. Float.max solo_p99 1e-9));
        Printf.printf
          "  solo p50/p99 %.3f/%.3f ms   contended p50/p99 %.3f/%.3f ms   hostile %d sent, %d shed\n"
          solo_p50 solo_p99 cont_p50 cont_p99 (Atomic.get hostile_sent)
          (Atomic.get hostile_shed);
        require "well-behaved answers equal solo answers query-by-query"
          (solo_replies = cont_replies);
        require "zero well-behaved failures or sheds under the flood"
          (count_bad solo_replies = 0 && count_bad cont_replies = 0);
        require "the flood was actually shed (most hostile requests)"
          (Atomic.get hostile_shed > Atomic.get hostile_sent / 2);
        require "isolation: contended p99 < 2x solo p99" (cont_p99 < 2.0 *. solo_p99);
        require "drain answered every in-flight request"
          (!drained = final))
  in
  (* The server-side story in counters: requests/replies/shed.*,
     bad-frame rejections, watchdog cancellations, peak gauges. *)
  emit_row
    (Printf.sprintf "{\"experiment\":\"E21\",\"phase\":\"counters\",\"counters\":%s}"
       (counters_json counters));
  (try Sys.remove path with Sys_error _ -> ());
  if !failures > 0 then begin
    Printf.eprintf "E21: %d check(s) failed\n" !failures;
    exit 1
  end

(* The multi-source baseline without the packed kernel: one on-the-fly
   walk ({!Rpq_walk}) per source node, pairs in (u, v) order — what the
   library evaluates when it answers one source at a time. *)
let walk_pairs ?(obs = Obs.none) g nfa =
  let w = Rpq_walk.make g nfa in
  let gov = Governor.unlimited () in
  let acc = ref [] in
  for u = Elg.nb_nodes g - 1 downto 0 do
    acc :=
      List.rev_append
        (List.rev_map (fun v -> (u, v)) (Rpq_walk.targets ~obs gov w ~src:u))
        !acc
  done;
  !acc

(* ======================================================================== *)
(* E22: the bit-parallel word-packed kernel vs one walk per source.         *)
(* ======================================================================== *)

let e22 () =
  header "E22" "bit-parallel packed kernel vs per-source walks (JSONL)";
  let failures = ref 0 in
  (* Answer-equality gates are fatal (bench-smoke rides on them); in the
     full sweep the 10k-node speedup target is fatal too. *)
  let require name ok =
    check name ok;
    if not ok then incr failures
  in
  let serial_pool = Pool.create ~size:1 () in
  (* An explicit width-2 pool pins the packed kernel's block fan-out so
     the committed rows carry rpq.par_width = 2 even on a single-core
     runner; the parallel-beats-serial gate below only arms when the
     hardware can actually run two domains. *)
  let pool2 = Pool.create ~size:2 () in
  let jsonl ~graph ~nodes ~edges ~query ~engine ~answers ~counters ms =
    emit_row
      (Printf.sprintf
         "{\"experiment\":\"E22\",\"graph\":%S,\"nodes\":%d,\"edges\":%d,\"query\":%S,\"engine\":%S,\"answers\":%d,\"elapsed_ms\":%.2f,\"counters\":%s}"
         graph nodes edges query engine answers ms (counters_json counters))
  in
  let speed10k = ref None in
  let run_case g ~gname ~query =
    let nfa = Nfa.of_regex (Rpq_parse.parse query) in
    let nodes = Elg.nb_nodes g and edges = Elg.nb_edges g in
    (* Best-of-3, interleaved, major collection before each timed run —
       same discipline as E17 so the engines see the same heap. *)
    let timed f =
      Gc.major ();
      oneshot_ms f
    in
    let min3 a b c = Float.min a (Float.min b c) in
    let walk_run () = counted (fun obs -> walk_pairs ~obs g nfa) in
    let bit_run () =
      counted (fun obs -> Rpq_eval.pairs_nfa ~pool:serial_pool ~obs g nfa)
    in
    let par_run () =
      counted (fun obs -> Rpq_eval.pairs_nfa ~pool:pool2 ~obs g nfa)
    in
    let (walk_res, walk_counters), w1 = timed walk_run in
    let (bit_pairs, bit_counters), b1 = timed bit_run in
    let (par_pairs, par_counters), p1 = timed par_run in
    let _, w2 = timed walk_run in
    let _, b2 = timed bit_run in
    let _, p2 = timed par_run in
    let _, w3 = timed walk_run in
    let _, b3 = timed bit_run in
    let _, p3 = timed par_run in
    let walk_ms = min3 w1 w2 w3
    and bit_ms = min3 b1 b2 b3
    and par_ms = min3 p1 p2 p3 in
    jsonl ~graph:gname ~nodes ~edges ~query ~engine:"walk-serial"
      ~answers:(List.length walk_res) ~counters:walk_counters walk_ms;
    jsonl ~graph:gname ~nodes ~edges ~query ~engine:"bitset-serial"
      ~answers:(List.length bit_pairs) ~counters:bit_counters bit_ms;
    jsonl ~graph:gname ~nodes ~edges ~query ~engine:"bitset-parallel"
      ~answers:(List.length par_pairs) ~counters:par_counters par_ms;
    let case = Printf.sprintf "%s(%d) %s" gname nodes query in
    require (case ^ ": bitset = walk") (bit_pairs = walk_res);
    require (case ^ ": bitset width-2 = walk") (par_pairs = walk_res);
    require (case ^ ": width-2 row reports rpq.par_width 2")
      (List.assoc_opt "rpq.par_width" par_counters = Some 2);
    Printf.printf "  %-36s walk %8.2f ms   bitset %8.2f ms (%.1fx)   width-2 %8.2f ms\n"
      case walk_ms bit_ms (walk_ms /. bit_ms) par_ms;
    if Par_policy.hardware () >= 2 then
      check (case ^ ": width-2 beats serial on >=2 cores") (par_ms < bit_ms);
    if gname = "hub" && nodes = 10_000 then speed10k := Some (walk_ms /. bit_ms)
  in
  let sizes = if !quick then [ 200; 500 ] else [ 1_000; 10_000; 25_000 ] in
  List.iter
    (fun n ->
      let g =
        Generators.random_graph ~seed:11 ~nodes:n ~edges:(4 * n)
          ~labels:[ "a"; "b"; "c"; "d" ]
      in
      run_case g ~gname:"random_graph" ~query:"a.b*.c")
    sizes;
  (* The hub workload is where packing pays: every spoke crosses the same
     dense core, so a per-source walk re-traverses it once per source
     while the packed kernel crosses it once per 63-source block.  The
     10k-node instance anchors the headline speedup gate; the random
     rows above stay for continuity (sparse wavefronts barely overlap, so
     the packed win there is the eliminated sort, not collapsed work). *)
  let hubs = if !quick then [ (460, 20, 3) ] else [ (9_956, 40, 4) ] in
  List.iter
    (fun (spokes, core, targets) ->
      let g = Generators.hub ~spokes ~core ~targets in
      run_case g ~gname:"hub" ~query:"a.b*.c")
    hubs;
  (match !speed10k with
  | Some s ->
      Printf.printf "  headline: packed kernel %.1fx per-source walks at 10k nodes (hub)\n"
        s;
      require "packed kernel is >= 5x per-source walks at 10k nodes"
        (s >= 5.0)
  | None -> if not !quick then require "10k speedup measured" false);
  if !failures > 0 then begin
    Printf.eprintf "E22: %d check(s) failed\n" !failures;
    exit 1
  end

(* ======================================================================== *)
(* E23: interleaved update/query stream — incremental delta application     *)
(* with label-keyed cache invalidation vs a full text-reload baseline       *)
(* (JSONL; `--out=BENCH_updates.json`).                                     *)
(* ======================================================================== *)

let e23 () =
  header "E23"
    "interleaved updates: incremental apply + label-keyed invalidation vs full reload (JSONL)";
  let failures = ref 0 in
  (* Answer equality between the two pipelines is the acceptance contract
     and fatal; the hit-rate and timing rows are the claims under
     measurement. *)
  let require name ok =
    check name ok;
    if not ok then incr failures
  in
  let n = if !quick then 300 else 1_500 in
  let rounds = if !quick then 10 else 40 in
  let g0 =
    Generators.random_pg ~seed:31 ~nodes:n ~edges:(5 * n)
      ~labels:[ "a"; "b"; "c"; "d" ] ~prop:"w" ~max_value:9
  in
  (* The query stream mentions only labels a..c; every delta touches only
     label d and only existing nodes, so the label-keyed sweep keeps each
     query's product warm across every round, while the full-reload
     baseline — serialize, reparse, drop the whole graph-keyed cache, as
     an operator without delta support would — recompiles it each time.
     The planner is pinned off so both pipelines evaluate forward
     products only (backward evaluation would rebuild the reversed
     graph, which invalidation always drops). *)
  let queries = [ "a.b*"; "(a|b).c"; "b*.c"; "a.(b|c)*" ] in
  let nq = List.length queries in
  let delta_ops r =
    (* One fresh d-edge between existing nodes per round; the previous
       round's d-edge is deleted in the same batch, so the graph size
       stays flat and every round genuinely touches the CSR. *)
    let src = r * 7919 mod n and tgt = r * 104_729 mod n in
    let add = Printf.sprintf "add u%d v%d d v%d" r src tgt in
    let text = if r = 0 then add else Printf.sprintf "%s\ndel u%d" add (r - 1) in
    match Delta.parse_res text with Ok ops -> ops | Error _ -> assert false
  in
  let run_mode on_delta =
    let cache = Rpq_compile.create () in
    let lats = Array.make (rounds * nq) 0.0 in
    let ((answers, final_pg), counters), total_ms =
      oneshot_ms (fun () ->
          counted (fun obs ->
              let pg = ref g0 in
              Rpq_compile.set_generation cache (Elg.id (Pg.elg !pg));
              let answers = ref [] in
              for r = 0 to rounds - 1 do
                (match Delta.apply_res !pg (delta_ops r) with
                | Error _ -> assert false
                | Ok applied -> pg := on_delta cache obs ~old:!pg applied);
                List.iteri
                  (fun qi q ->
                    match Rpq_compile.compile ~obs cache q with
                    | Error _ -> assert false
                    | Ok c ->
                        let ans, ms =
                          oneshot_ms (fun () ->
                              Governor.payload ~default:[]
                                (Rpq_compile.pairs_bounded ~obs ~planner:false
                                   cache (Governor.unlimited ()) (Pg.elg !pg) c))
                        in
                        lats.((r * nq) + qi) <- ms;
                        answers := ans :: !answers)
                  queries
              done;
              (List.rev !answers, !pg)))
    in
    Array.sort compare lats;
    (answers, final_pg, counters, total_ms, lats, cache)
  in
  let incremental cache obs ~old applied =
    let s = applied.Delta.summary in
    Rpq_compile.apply_delta ~obs cache ~old_graph:(Pg.elg old)
      ~new_graph:(Pg.elg applied.Delta.pg)
      ~touched_labels:s.Elg.touched_labels
      ~nodes_stable:(s.Elg.added_nodes = 0 && s.Elg.removed_nodes = 0);
    applied.Delta.pg
  in
  let full_reload cache _obs ~old:_ applied =
    match Graph_io.parse_res (Graph_io.to_string applied.Delta.pg) with
    | Error _ -> assert false
    | Ok pg ->
        Rpq_compile.set_generation cache (Elg.id (Pg.elg pg));
        pg
  in
  let inc_answers, final_pg, inc_counters, inc_ms, inc_lats, inc_cache =
    run_mode incremental
  in
  let base_answers, _, base_counters, base_ms, base_lats, base_cache =
    run_mode full_reload
  in
  let hit_rate cache =
    let h = Rpq_compile.product_hits cache
    and m = Rpq_compile.product_misses cache in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let row mode ms lats cache counters =
    emit_row
      (Printf.sprintf
         "{\"experiment\":\"E23\",\"mode\":%S,\"rounds\":%d,\"queries\":%d,\"elapsed_ms\":%.2f,\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"product_hits\":%d,\"product_misses\":%d,\"hit_rate\":%.3f,\"retained\":%d,\"invalidated_by_label\":%d,\"counters\":%s}"
         mode rounds (rounds * nq) ms (percentile lats 0.5)
         (percentile lats 0.99)
         (Rpq_compile.product_hits cache)
         (Rpq_compile.product_misses cache)
         (hit_rate cache) (Rpq_compile.retained cache)
         (Rpq_compile.invalidated_by_label cache)
         (counters_json counters))
  in
  row "incremental" inc_ms inc_lats inc_cache inc_counters;
  row "full_reload" base_ms base_lats base_cache base_counters;
  Printf.printf "  stream speedup: %.1fx (hit rate %.2f vs %.2f)\n"
    (base_ms /. inc_ms) (hit_rate inc_cache) (hit_rate base_cache);
  require "incremental and full-reload answers are identical on every query"
    (inc_answers = base_answers);
  require "incremental product hit-rate strictly above the full-reload baseline"
    (hit_rate inc_cache > hit_rate base_cache);
  require "label-disjoint products migrated warm across the deltas"
    (Rpq_compile.retained inc_cache > 0);

  (* --- persistence: GQB1 binary snapshot vs the text format --------------- *)
  let iters = if !quick then 10 else 30 in
  let txt = Graph_io.to_string final_pg in
  let bin = Graph_io.to_bin_string final_pg in
  let load_text s = match Graph_io.parse_res s with Ok pg -> pg | Error _ -> assert false in
  let load_bin s =
    match Graph_io.of_bin_string_res s with Ok pg -> pg | Error _ -> assert false
  in
  let _, txt_ms =
    oneshot_ms (fun () -> for _ = 1 to iters do ignore (load_text txt) done)
  in
  let _, bin_ms =
    oneshot_ms (fun () -> for _ = 1 to iters do ignore (load_bin bin) done)
  in
  let prow fmt bytes ms =
    emit_row
      (Printf.sprintf
         "{\"experiment\":\"E23\",\"phase\":\"persistence\",\"format\":%S,\"bytes\":%d,\"load_ms_per_iter\":%.3f}"
         fmt bytes (ms /. float_of_int iters))
  in
  prow "text" (String.length txt) txt_ms;
  prow "binary" (String.length bin) bin_ms;
  Printf.printf "  binary load: %.1fx text parse (%d vs %d bytes)\n"
    (txt_ms /. bin_ms) (String.length bin) (String.length txt);
  let rt = load_bin bin in
  require "binary round-trip reproduces the graph exactly"
    (Graph_io.to_string rt = txt);
  require "binary load beats text parse" (bin_ms < txt_ms);
  if !failures > 0 then begin
    Printf.eprintf "E23: %d check(s) failed\n" !failures;
    exit 1
  end

(* ======================================================================== *)
(* E24: WAL durability — append overhead per group-commit fsync policy and  *)
(* recovery time vs log length (JSONL; `--out=BENCH_wal.json`).             *)
(* ======================================================================== *)

let e24 () =
  header "E24"
    "WAL durability: append overhead per fsync policy, recovery time vs log length (JSONL)";
  let failures = ref 0 in
  (* Structural invariants (fsync counts per policy, recovered state
     identical to the acknowledged state) are the acceptance contract and
     fatal; the per-batch and recovery timings are the claims under
     measurement. *)
  let require name ok =
    check name ok;
    if not ok then incr failures
  in
  let ok_exn = function
    | Ok v -> v
    | Error e -> failwith (Gq_error.to_string e)
  in
  let with_tmpdir f =
    let dir = Filename.temp_file "gq_e24" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
          (try Sys.readdir dir with Sys_error _ -> [||]);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f dir)
  in
  let n = if !quick then 200 else 1_000 in
  let base =
    Generators.random_pg ~seed:47 ~nodes:n ~edges:(4 * n)
      ~labels:[ "a"; "b"; "c" ] ~prop:"w" ~max_value:9
  in
  (* Each batch adds one fresh c-edge between existing nodes, so any
     prefix of the log is applicable in sequence — the same shape the
     serve-mode writer appends. *)
  let batch r =
    let src = r * 7919 mod n and tgt = r * 104_729 mod n in
    match Delta.parse_res (Printf.sprintf "add w%d v%d c v%d" r src tgt) with
    | Ok ops -> ops
    | Error _ -> assert false
  in

  (* --- append overhead per fsync policy ----------------------------------- *)
  let batches = if !quick then 100 else 2_000 in
  let ops = Array.init batches (fun i -> batch i) in
  let append_run policy =
    with_tmpdir (fun dir ->
        let w, _ = ok_exn (Wal.open_res ~policy dir) in
        ignore (ok_exn (Wal.checkpoint_res w base));
        let (), ms =
          oneshot_ms (fun () ->
              Array.iter (fun b -> ignore (ok_exn (Wal.append_res w b))) ops)
        in
        let c = Wal.counters w in
        ignore (ok_exn (Wal.flush_res w));
        Wal.close w;
        (ms, c))
  in
  let rows =
    List.map
      (fun policy ->
        let ms, c = append_run policy in
        emit_row
          (Printf.sprintf
             "{\"experiment\":\"E24\",\"phase\":\"append\",\"policy\":%S,\"batches\":%d,\"ms_per_batch\":%.4f,\"fsyncs\":%d,\"log_bytes\":%d}"
             (Wal.fsync_policy_to_string policy)
             batches
             (ms /. float_of_int batches)
             c.Wal.c_fsyncs c.Wal.c_bytes);
        (policy, ms, c))
      [ Wal.Always; Wal.Interval 5.; Wal.Never ]
  in
  (match rows with
  | [ (_, always_ms, ac); (_, _, ic); (_, never_ms, nc) ] ->
      require "always policy fsyncs every append"
        (ac.Wal.c_fsyncs >= batches);
      require "interval policy group-commits (fewer fsyncs than always)"
        (ic.Wal.c_fsyncs < ac.Wal.c_fsyncs);
      require "never policy issues no fsyncs during appends"
        (nc.Wal.c_fsyncs = 0);
      require "every policy logged every batch"
        (ac.Wal.c_appends = batches && ic.Wal.c_appends = batches
        && nc.Wal.c_appends = batches);
      Printf.printf "  fsync cost: always %.1fx never (%.4f vs %.4f ms/batch)\n"
        (always_ms /. Float.max never_ms 1e-6)
        (always_ms /. float_of_int batches)
        (never_ms /. float_of_int batches)
  | _ -> assert false);

  (* --- recovery time vs log length ---------------------------------------- *)
  let queries =
    Regex.
      [
        Atom (Sym.Lbl "a");
        Seq (Atom (Sym.Lbl "a"), Star (Atom (Sym.Lbl "b")));
        Seq (Star (Atom (Sym.Lbl "c")), Atom (Sym.Lbl "b"));
      ]
  in
  let sizes = if !quick then [ 50; 200 ] else [ 500; 2_000; 8_000 ] in
  List.iter
    (fun k ->
      with_tmpdir (fun dir ->
          let w, _ = ok_exn (Wal.open_res ~policy:Wal.Never dir) in
          ignore (ok_exn (Wal.checkpoint_res w base));
          let live = ref base in
          for r = 0 to k - 1 do
            let b = batch r in
            let applied = ok_exn (Delta.apply_res !live b) in
            ignore (ok_exn (Wal.append_res w b));
            live := applied.Delta.pg
          done;
          Wal.close w;
          (* Default replay coalesces each segment into one delta batch
             (one CSR rebuild per segment); the per-record run is the
             old code path, kept timed so the speedup stays measured. *)
          let r, ms =
            oneshot_ms (fun () -> ok_exn (Wal.recover_res ~coalesce:true dir))
          in
          let rp, per_ms =
            oneshot_ms (fun () -> ok_exn (Wal.recover_res ~coalesce:false dir))
          in
          let recovered =
            match r.Wal.rc_graph with Some pg -> pg | None -> assert false
          in
          emit_row
            (Printf.sprintf
               "{\"experiment\":\"E24\",\"phase\":\"recovery\",\"records\":%d,\"recovery_ms\":%.2f,\"per_record_ms\":%.2f,\"batch_speedup\":%.1f,\"ms_per_record\":%.4f,\"nodes\":%d,\"edges\":%d}"
               k ms per_ms (per_ms /. Float.max ms 1e-6)
               (ms /. float_of_int k)
               (Elg.nb_nodes (Pg.elg recovered))
               (Elg.nb_edges (Pg.elg recovered)));
          require
            (Printf.sprintf "recovery replayed all %d records" k)
            (r.Wal.rc_replayed = k && not r.Wal.rc_truncated);
          require
            (Printf.sprintf "batched replay = per-record replay (%d records)" k)
            (rp.Wal.rc_replayed = r.Wal.rc_replayed
            && rp.Wal.rc_next_lsn = r.Wal.rc_next_lsn
            && (match rp.Wal.rc_graph with
               | Some pg ->
                   List.for_all
                     (fun q ->
                       Rpq_eval.pairs (Pg.elg pg) q
                       = Rpq_eval.pairs (Pg.elg recovered) q)
                     queries
               | None -> false));
          require
            (Printf.sprintf
               "recovered graph answers every query like the live graph (%d records)"
               k)
            (List.for_all
               (fun q ->
                 Rpq_eval.pairs (Pg.elg recovered) q
                 = Rpq_eval.pairs (Pg.elg !live) q)
               queries)))
    sizes;
  if !failures > 0 then begin
    Printf.eprintf "E24: %d check(s) failed\n" !failures;
    exit 1
  end

(* ======================================================================== *)
(* E25: direction-optimizing push/pull kernel + streaming answer emission   *)
(* (JSONL; rides in `--out=BENCH_rpq.json` next to E17/E22).                *)
(* ======================================================================== *)

let e25 () =
  header "E25"
    "direction-optimizing push/pull kernel + streaming emission (JSONL)";
  let failures = ref 0 in
  let require name ok =
    check name ok;
    if not ok then incr failures
  in
  let serial_pool = Pool.create ~size:1 () in
  let with_mode mode f =
    Rpq_bitset.set_pull_mode mode;
    Fun.protect ~finally:Rpq_bitset.clear_pull_mode f
  in
  let timed f =
    Gc.major ();
    oneshot_ms f
  in
  let best3 f =
    let r1, m1 = timed f in
    let _, m2 = timed f in
    let _, m3 = timed f in
    (r1, Float.min m1 (Float.min m2 m3))
  in
  (* Best-of-3 with the modes interleaved round-robin (the E22
     discipline): all modes see the same heap at the same ages, so a GC
     or scheduler hiccup cannot charge one mode 20% on identical work. *)
  let best3_interleaved runs =
    let n = List.length runs in
    let results = Array.make n None in
    for _ = 1 to 3 do
      List.iteri
        (fun i f ->
          let r, ms = timed f in
          results.(i) <-
            (match results.(i) with
            | None -> Some (r, ms)
            | Some (r0, m0) -> Some (r0, Float.min m0 ms)))
        runs
    done;
    Array.to_list (Array.map Option.get results)
  in
  let modes =
    [
      ("push", Rpq_bitset.Always_push);
      ("pull", Rpq_bitset.Always_pull);
      ("adaptive", Rpq_bitset.Adaptive Rpq_bitset.default_pull_alpha);
    ]
  in
  (* A zero counter is filtered out of the row, so "absent or 0" is the
     O(blocks) allocation pin and any positive value is a violation. *)
  let materialized counters =
    match List.assoc_opt "rpq.bitset.materialized" counters with
    | None -> 0
    | Some v -> v
  in

  (* --- streaming emission: the E22 headline row, re-measured --------------
     Node-ordered per-block emission replaced the sort-on-concat answer
     assembly; the committed pre-streaming bitset-serial time on this
     exact workload is the fixed baseline the >= 2x gate points at. *)
  let committed_baseline_ms = 972.09 in
  let n = if !quick then 12_000 else 25_000 in
  let g =
    Generators.random_graph ~seed:11 ~nodes:n ~edges:(4 * n)
      ~labels:[ "a"; "b"; "c"; "d" ]
  in
  let nfa = Nfa.of_regex (Rpq_parse.parse "a.b*.c") in
  let reference = walk_pairs g nfa in
  let stream_run mode () =
    with_mode mode (fun () ->
        counted (fun obs -> Rpq_eval.pairs_nfa ~pool:serial_pool ~obs g nfa))
  in
  let stream_report (label, _) ((pairs, counters), ms) =
    emit_row
      (Printf.sprintf
         "{\"experiment\":\"E25\",\"phase\":\"stream\",\"graph\":\"random_graph\",\"nodes\":%d,\"edges\":%d,\"query\":\"a.b*.c\",\"mode\":%S,\"answers\":%d,\"elapsed_ms\":%.2f,\"counters\":%s}"
         n (4 * n) label (List.length pairs) ms (counters_json counters));
    Printf.printf "  stream %-9s %8.2f ms  (%d answers)\n" label ms
      (List.length pairs);
    require (Printf.sprintf "stream %s answers = walk answers" label)
      (pairs = reference);
    require (Printf.sprintf "stream %s emission is counted" label)
      (materialized counters = List.length pairs);
    ms
  in
  (* Always_pull is left out on purpose: each pull sweep scans all
     product states, which on this sparse low-reach workload is the
     pathological direction (tens of seconds) — exactly what the
     adaptive heuristic exists to avoid. *)
  let stream_modes = [ List.nth modes 0; List.nth modes 2 ] in
  let stream_results =
    best3_interleaved (List.map (fun (_, m) -> stream_run m) stream_modes)
  in
  let push_ms, adaptive_ms =
    match List.map2 stream_report stream_modes stream_results with
    | [ p; a ] -> (p, a)
    | _ -> assert false
  in
  require "adaptive within 10% of push on the stream row"
    (adaptive_ms <= 1.10 *. push_ms);
  if not !quick then begin
    Printf.printf
      "  headline: %.2f ms vs committed %.2f ms pre-streaming baseline (%.2fx)\n"
      adaptive_ms committed_baseline_ms
      (committed_baseline_ms /. adaptive_ms);
    require ">= 2x the committed pre-streaming bitset-serial baseline"
      (Float.min push_ms adaptive_ms <= committed_baseline_ms /. 2.0)
  end;

  (* --- pull direction: dense closure, count-only ---------------------------
     (a|b)* on a degree-40 random graph reaches nearly every pair, so
     mid-BFS the frontier carries most of the edges while few states
     remain unvisited: the pull direction's saturation early-exit wins.
     Count-only keeps emission out of the measurement (and is itself the
     streaming fast path: popcount per block, no pair materialized). *)
  let dn, ddeg = if !quick then (600, 20) else (5_000, 40) in
  let dense =
    Generators.random_graph ~seed:7 ~nodes:dn ~edges:(ddeg * dn)
      ~labels:[ "a"; "b" ]
  in
  let closure = Rpq_parse.parse "(a|b)*" in
  let count_results =
    best3_interleaved
      (List.map
         (fun (_, mode) () ->
           with_mode mode (fun () ->
               counted (fun obs ->
                   Rpq_count.count_answers ~pool:serial_pool ~obs dense closure)))
         modes)
  in
  let count_rows =
    List.map2
      (fun (label, mode) ((count, counters), ms) ->
        emit_row
          (Printf.sprintf
             "{\"experiment\":\"E25\",\"phase\":\"count_pull\",\"graph\":\"random_graph\",\"nodes\":%d,\"edges\":%d,\"query\":\"(a|b)*\",\"mode\":%S,\"count\":%d,\"elapsed_ms\":%.2f,\"counters\":%s}"
             dn (ddeg * dn) label count ms (counters_json counters));
        Printf.printf "  count  %-9s %8.2f ms  (count %d)\n" label ms count;
        require (Printf.sprintf "count-only %s materializes no pairs" label)
          (materialized counters = 0);
        (label, mode, count, ms))
      modes count_results
  in
  (match count_rows with
  | [ (_, _, cpush, push_ms); (_, _, cpull, pull_ms); (_, _, cad, ad_ms) ] ->
      require "push/pull/adaptive counts agree" (cpush = cpull && cpull = cad);
      Printf.printf "  pull direction: %.2fx push on the dense closure\n"
        (push_ms /. pull_ms);
      if not !quick then begin
        require "pull beats push on the dense closure" (pull_ms < push_ms);
        require "adaptive within 10% of the best direction"
          (ad_ms <= 1.10 *. Float.min push_ms pull_ms)
      end
  | _ -> assert false);

  (* --- parallel policy: the serial gates, deterministically ----------------
     [?hardware] pins the machine shape, [record] injects measurements,
     so the three decision paths are reproducible on any runner. *)
  Par_policy.reset_calibration ();
  let policy_row case d =
    emit_row
      (Printf.sprintf
         "{\"experiment\":\"E25\",\"phase\":\"policy\",\"case\":%S,\"width\":%d,\"units\":%d,\"reason\":%S}"
         case d.Par_policy.width d.Par_policy.units
         (Par_policy.reason_slug d.Par_policy.reason))
  in
  let df =
    Par_policy.decide ~kernel:Par_policy.Bitset ~hardware:2 ~max_width:8
      ~sources:180 ~product_edges:1_000_000 ()
  in
  policy_row "3 blocks / 2 cores" df;
  require "3 blocks over 2 cores stay serial (few_units)"
    (df.Par_policy.width = 1 && df.Par_policy.reason = Par_policy.Few_units);
  Par_policy.record ~kernel:Par_policy.Bitset ~width:1 ~sources:(63 * 16)
    ~product_edges:1_000_000 ~elapsed:0.10 ();
  Par_policy.record ~kernel:Par_policy.Bitset ~width:2 ~sources:(63 * 16)
    ~product_edges:1_000_000 ~elapsed:0.11 ();
  let dc =
    Par_policy.decide ~kernel:Par_policy.Bitset ~hardware:2 ~max_width:8
      ~sources:(63 * 16) ~product_edges:1_000_000 ()
  in
  policy_row "measured width-2 loss" dc;
  require "a measured width-2 loss pins serial (calibrated_serial)"
    (dc.Par_policy.width = 1
    && dc.Par_policy.reason = Par_policy.Calibrated_serial);
  Par_policy.reset_calibration ();
  let dw =
    Par_policy.decide ~kernel:Par_policy.Bitset ~hardware:2 ~max_width:8
      ~sources:(63 * 16) ~product_edges:1_000_000 ()
  in
  policy_row "16 blocks / 2 cores" dw;
  require "16 blocks over 2 cores fork width 2"
    (dw.Par_policy.width = 2 && dw.Par_policy.reason = Par_policy.Parallel);
  Par_policy.reset_calibration ();

  (* --- persistence at the million-edge mark --------------------------------
     The E23 persistence comparison, rerun at load-bearing scale: GQB1
     snapshot load vs text parse, through actual files. *)
  let pn, pe = if !quick then (12_500, 50_000) else (250_000, 1_000_000) in
  let big =
    Generators.random_pg ~seed:23 ~nodes:pn ~edges:pe ~labels:[ "a"; "b"; "c" ]
      ~prop:"w" ~max_value:9
  in
  let ok_exn = function
    | Ok v -> v
    | Error e -> failwith (Gq_error.to_string e)
  in
  let bin_path = Filename.temp_file "gq_e25" ".gqb" in
  let txt_path = Filename.temp_file "gq_e25" ".graph" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ bin_path; txt_path ])
    (fun () ->
      let bin_bytes = ok_exn (Graph_io.save_bin_res big bin_path) in
      let txt = Graph_io.to_string big in
      let oc = open_out txt_path in
      output_string oc txt;
      close_out oc;
      let loaded, bin_ms =
        best3 (fun () -> ok_exn (Graph_io.load_file_res bin_path))
      in
      let parsed, txt_ms =
        best3 (fun () -> ok_exn (Graph_io.parse_file_res txt_path))
      in
      let prow fmt bytes ms =
        emit_row
          (Printf.sprintf
             "{\"experiment\":\"E25\",\"phase\":\"persistence\",\"format\":%S,\"nodes\":%d,\"edges\":%d,\"bytes\":%d,\"load_ms\":%.2f}"
             fmt pn pe bytes ms)
      in
      prow "binary" bin_bytes bin_ms;
      prow "text" (String.length txt) txt_ms;
      Printf.printf
        "  %d-edge load: binary %.1f ms vs text %.1f ms (%.1fx)\n" pe bin_ms
        txt_ms (txt_ms /. bin_ms);
      require "binary load reproduces the graph"
        (Elg.nb_nodes (Pg.elg loaded) = pn
        && Elg.nb_edges (Pg.elg loaded) = pe
        && Graph_io.to_string loaded = Graph_io.to_string parsed);
      require "binary load beats text parse at the million-edge mark"
        (bin_ms < txt_ms));
  if !failures > 0 then begin
    Printf.eprintf "E25: %d check(s) failed\n" !failures;
    exit 1
  end

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11); ("E12", e12);
    ("E13", e13); ("E14", e14); ("E15", e15); ("E16", e16); ("E17", e17);
    ("E19", e19); ("E20", e20); ("E21", e21); ("E22", e22); ("E23", e23);
    ("E24", e24); ("E25", e25);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let ids, flags = List.partition (fun a -> not (String.length a > 1 && a.[0] = '-')) args in
  if List.mem "--quick" flags then quick := true;
  out_path :=
    List.find_map
      (fun f ->
        if String.length f > 6 && String.sub f 0 6 = "--out=" then
          Some (String.sub f 6 (String.length f - 6))
        else None)
      flags;
  trace_path :=
    List.find_map
      (fun f ->
        if String.length f > 13 && String.sub f 0 13 = "--trace-json=" then
          Some (String.sub f 13 (String.length f - 13))
        else None)
      flags;
  (* --failpoints=SPEC: arm a fault schedule (GQ_FAILPOINTS syntax) for
     the selected experiments, e.g. E19 ad-hoc runs or stress sweeps. *)
  List.iter
    (fun f ->
      if String.length f > 13 && String.sub f 0 13 = "--failpoints=" then
        match Failpoint.arm_spec (String.sub f 13 (String.length f - 13)) with
        | Ok () -> ()
        | Error msg ->
            Printf.eprintf "--failpoints: %s\n" msg;
            exit 1)
    flags;
  if !trace_path <> None then bench_trace := Some (Trace.create ());
  let selected =
    if ids = [] then experiments
    else
      List.filter (fun (id, _) -> List.mem id ids) experiments
  in
  if selected = [] then begin
    Printf.eprintf "unknown experiment id; available: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 1
  end;
  List.iter (fun (_, run) -> run ()) selected;
  write_out ();
  (match (!trace_path, !bench_trace) with
  | Some path, Some t ->
      let oc = open_out path in
      Trace.write_jsonl t oc;
      close_out oc;
      Printf.printf "wrote trace to %s\n" path
  | _ -> ());
  print_endline "\nAll selected experiments completed."
