(* Model-based tests for incremental graph updates (lib/graph/delta.ml),
   epoch snapshots, binary persistence, and fine-grained plan-cache
   invalidation.

   The core property: a chain of incremental [Delta.apply_res] calls
   must be indistinguishable from rebuilding the graph from scratch with
   [Pg.make] — same node/edge declaration order, same interned-label
   order, same CSR adjacency, same properties, same statistics
   (field-for-field against [Stats.of_elg]), and same RPQ/CRPQ answers
   at pool widths 1 and 4.  The reference is a trivial list model of the
   graph that each delta batch is replayed against sequentially. *)

let seed_arb = QCheck.(make ~print:string_of_int Gen.(int_range 0 1_000_000))

(* --- the reference model ------------------------------------------------- *)

type model = {
  mutable m_nodes : (string * string * (string * Value.t) list) list;
  mutable m_edges :
    (string * string * string * string * (string * Value.t) list) list;
  mutable m_deleted : string list; (* edge names freed by del *)
  mutable m_fresh : int;
}

let model_has_node m name = List.exists (fun (n, _, _) -> n = name) m.m_nodes
let model_has_edge m name =
  List.exists (fun (n, _, _, _, _) -> n = name) m.m_edges

(* Sequential-batch semantics, one op at a time: an add appends its edge
   (and any implicitly created endpoints, in first-mention order); a del
   removes the edge wherever it sits; a deln removes the node and every
   incident edge, freeing all their names.  Implicit nodes survive even
   when their add is later cancelled, which is why the model applies ops
   eagerly rather than netting the batch first. *)
let model_apply m (op : Pg.delta_op) =
  match op with
  | Pg.Add_edge { name; src; label; tgt; props } ->
      if not (model_has_node m src) then
        m.m_nodes <- m.m_nodes @ [ (src, "", []) ];
      if not (model_has_node m tgt) then
        m.m_nodes <- m.m_nodes @ [ (tgt, "", []) ];
      m.m_edges <- m.m_edges @ [ (name, src, label, tgt, props) ]
  | Pg.Del_edge name ->
      m.m_edges <- List.filter (fun (n, _, _, _, _) -> n <> name) m.m_edges;
      m.m_deleted <- name :: m.m_deleted
  | Pg.Del_node name ->
      m.m_nodes <- List.filter (fun (n, _, _) -> n <> name) m.m_nodes;
      m.m_edges <-
        List.filter
          (fun (en, s, _, t, _) ->
            if s = name || t = name then begin
              m.m_deleted <- en :: m.m_deleted;
              false
            end
            else true)
          m.m_edges

let model_rebuild m = Pg.make ~nodes:m.m_nodes ~edges:m.m_edges

(* --- scenario generation ------------------------------------------------- *)

let pick st l = List.nth l (Random.State.int st (List.length l))

let gen_base st =
  let nb = 3 + Random.State.int st 5 in
  let nodes = List.init nb (fun i -> (Printf.sprintf "n%d" i, "", [])) in
  let labels = [ "a"; "b"; "c" ] in
  let ne = Random.State.int st 12 in
  let edges =
    List.init ne (fun i ->
        ( Printf.sprintf "e%d" i,
          Printf.sprintf "n%d" (Random.State.int st nb),
          pick st labels,
          Printf.sprintf "n%d" (Random.State.int st nb),
          (if Random.State.bool st then [ ("w", Value.Int i) ] else []) ))
  in
  { m_nodes = nodes; m_edges = edges; m_deleted = []; m_fresh = 0 }

(* One valid batch, generated against (and replayed into) the model. *)
let gen_batch st m =
  let nops = 1 + Random.State.int st 5 in
  List.init nops (fun _ ->
      let can_del = m.m_edges <> [] in
      let can_deln = m.m_nodes <> [] in
      let roll = Random.State.int st 10 in
      let op =
        if can_deln && roll >= 9 then
          (* Occasionally drop a whole node (and its incident edges). *)
          Pg.Del_node ((fun (n, _, _) -> n) (pick st m.m_nodes))
        else if (not can_del) || roll < 6 then begin
          (* An add: mostly existing endpoints, sometimes an implicit
             node, occasionally a fresh label or a recycled edge name. *)
          let endpoint () =
            if m.m_nodes <> [] && Random.State.int st 10 < 8 then
              (fun (n, _, _) -> n) (pick st m.m_nodes)
            else begin
              m.m_fresh <- m.m_fresh + 1;
              Printf.sprintf "m%d" m.m_fresh
            end
          in
          let name =
            match m.m_deleted with
            | d :: _ when Random.State.int st 10 < 2 && not (model_has_edge m d)
              ->
                d
            | _ ->
                m.m_fresh <- m.m_fresh + 1;
                Printf.sprintf "x%d" m.m_fresh
          in
          let label =
            if Random.State.int st 10 < 1 then "zz"
            else pick st [ "a"; "b"; "c" ]
          in
          Pg.Add_edge
            {
              name;
              src = endpoint ();
              label;
              tgt = endpoint ();
              props =
                (if Random.State.bool st then [ ("w", Value.Int m.m_fresh) ]
                 else []);
            }
        end
        else
          Pg.Del_edge ((fun (n, _, _, _, _) -> n) (pick st m.m_edges))
      in
      model_apply m op;
      op)

(* --- structural equality ------------------------------------------------- *)

let names_out g v = List.map (Elg.edge_name g) (Elg.out_edges g v)
let names_in g v = List.map (Elg.edge_name g) (Elg.in_edges g v)

let check_graph_eq msg inc ref_pg =
  let gi = Pg.elg inc and gr = Pg.elg ref_pg in
  Alcotest.(check int) (msg ^ ": nodes") (Elg.nb_nodes gr) (Elg.nb_nodes gi);
  Alcotest.(check int) (msg ^ ": edges") (Elg.nb_edges gr) (Elg.nb_edges gi);
  Alcotest.(check (list string))
    (msg ^ ": node order")
    (List.init (Elg.nb_nodes gr) (Elg.node_name gr))
    (List.init (Elg.nb_nodes gi) (Elg.node_name gi));
  Alcotest.(check (list string))
    (msg ^ ": edge order")
    (List.init (Elg.nb_edges gr) (Elg.edge_name gr))
    (List.init (Elg.nb_edges gi) (Elg.edge_name gi));
  Alcotest.(check (list string))
    (msg ^ ": interned labels") (Elg.labels gr) (Elg.labels gi);
  for e = 0 to Elg.nb_edges gr - 1 do
    Alcotest.(check (pair int int))
      (msg ^ ": endpoints")
      (Elg.src gr e, Elg.tgt gr e)
      (Elg.src gi e, Elg.tgt gi e);
    Alcotest.(check int)
      (msg ^ ": edge label id") (Elg.edge_label_id gr e)
      (Elg.edge_label_id gi e)
  done;
  for v = 0 to Elg.nb_nodes gr - 1 do
    Alcotest.(check (list string))
      (msg ^ ": out adjacency") (names_out gr v) (names_out gi v);
    Alcotest.(check (list string))
      (msg ^ ": in adjacency") (names_in gr v) (names_in gi v);
    for l = 0 to Elg.nb_labels gr - 1 do
      Alcotest.(check (list int))
        (msg ^ ": label-partitioned spans")
        (Elg.out_label_edges gr v ~label:l)
        (Elg.out_label_edges gi v ~label:l)
    done;
    Alcotest.(check bool)
      (msg ^ ": node props") true
      (Pg.props_of ref_pg (Path.N v) = Pg.props_of inc (Path.N v))
  done;
  for e = 0 to Elg.nb_edges gr - 1 do
    Alcotest.(check bool)
      (msg ^ ": edge props") true
      (Pg.props_of ref_pg (Path.E e) = Pg.props_of inc (Path.E e))
  done

let check_stats_eq msg (got : Stats.t) (want : Stats.t) =
  Alcotest.(check int) (msg ^ ": graph_id") want.Stats.graph_id got.Stats.graph_id;
  Alcotest.(check int) (msg ^ ": nb_nodes") want.nb_nodes got.nb_nodes;
  Alcotest.(check int) (msg ^ ": nb_edges") want.nb_edges got.nb_edges;
  Alcotest.(check int) (msg ^ ": nb_labels") want.nb_labels got.nb_labels;
  Alcotest.(check (array string))
    (msg ^ ": label_names") want.label_names got.label_names;
  Alcotest.(check (array int))
    (msg ^ ": label_edges") want.label_edges got.label_edges;
  Alcotest.(check (array int))
    (msg ^ ": label_sources") want.label_sources got.label_sources;
  Alcotest.(check (array int))
    (msg ^ ": label_targets") want.label_targets got.label_targets;
  Alcotest.(check int)
    (msg ^ ": nodes_with_out") want.nodes_with_out got.nodes_with_out;
  Alcotest.(check int)
    (msg ^ ": nodes_with_in") want.nodes_with_in got.nodes_with_in;
  Alcotest.(check (array int)) (msg ^ ": out_hist") want.out_hist got.out_hist;
  Alcotest.(check (array int)) (msg ^ ": in_hist") want.in_hist got.in_hist;
  Alcotest.(check int)
    (msg ^ ": max_out_degree") want.max_out_degree got.max_out_degree;
  Alcotest.(check int)
    (msg ^ ": max_in_degree") want.max_in_degree got.max_in_degree

(* Run a random scenario: base graph + [batches] delta batches applied
   incrementally, handing each intermediate to [visit] along with the
   from-scratch reference. *)
let run_scenario seed ~batches visit =
  let st = Random.State.make [| seed |] in
  let m = gen_base st in
  let pg = ref (model_rebuild m) in
  for i = 1 to batches do
    let ops = gen_batch st m in
    match Delta.apply_res !pg ops with
    | Error err ->
        Alcotest.failf "valid batch rejected: %s" (Gq_error.to_string err)
    | Ok applied ->
        pg := applied.Delta.pg;
        visit i applied (model_rebuild m)
  done

(* --- properties ---------------------------------------------------------- *)

let prop_incremental_equals_rebuild =
  QCheck.Test.make ~count:120 ~name:"incremental apply = rebuild from scratch"
    seed_arb (fun seed ->
      run_scenario seed ~batches:4 (fun i applied ref_pg ->
          let msg = Printf.sprintf "batch %d" i in
          check_graph_eq msg applied.Delta.pg ref_pg;
          check_stats_eq msg applied.Delta.stats
            (Stats.of_elg (Pg.elg applied.Delta.pg));
          (* The memo serves the incremental stats without a rescan. *)
          let memo = Stats.get (Pg.elg applied.Delta.pg) in
          Alcotest.(check bool) (msg ^ ": memo seeded") true
            (memo == applied.Delta.stats));
      true)

(* Name resolution under hostile batches.  Names come from a pool small
   enough that batches keep adding a name and deleting it again, deleting
   and re-adding one, adding a live name twice, deleting an unknown
   name, and deleting nodes (whose ids then compact).  The first bad op,
   in batch order, decides the error text — the model replays the batch
   op by op to predict it; a rejected batch leaves graph and model as
   they were.  After every accepted batch the graph equals the rebuild
   and every edge name resolves back to its own dense id. *)
let model_error m (op : Pg.delta_op) =
  match op with
  | Pg.Add_edge { name; _ } when model_has_edge m name ->
      Some ("duplicate edge " ^ name)
  | Pg.Del_edge name when not (model_has_edge m name) ->
      Some ("unknown edge " ^ name)
  | Pg.Del_node name when not (model_has_node m name) ->
      Some ("unknown node " ^ name)
  | _ -> None

let prop_name_resolution =
  QCheck.Test.make ~count:120 ~name:"name resolution under hostile batches"
    seed_arb (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = gen_base st in
      let pg = ref (model_rebuild m) in
      (* Mostly names the op can use, so most batches get through; the
         rest hit each error. *)
      let live () = List.map (fun (n, _, _, _, _) -> n) m.m_edges in
      let pool = List.init 8 (Printf.sprintf "e%d") in
      let name ~want_live =
        let fit = List.filter (fun n -> List.mem n (live ()) = want_live) pool in
        if fit <> [] && Random.State.int st 10 < 8 then pick st fit else pick st pool
      in
      let node () = Printf.sprintf "n%d" (Random.State.int st 9) in
      for batch = 1 to 6 do
        let saved = (m.m_nodes, m.m_edges, m.m_deleted) in
        let expected = ref None in
        let ops =
          List.init
            (1 + Random.State.int st 6)
            (fun _ ->
              let op =
                match Random.State.int st 10 with
                | 0 -> Pg.Del_node (node ())
                | 1 | 2 | 3 | 4 -> Pg.Del_edge (name ~want_live:true)
                | _ ->
                    Pg.Add_edge
                      {
                        name = name ~want_live:false;
                        src = node ();
                        label = pick st [ "a"; "b"; "zz" ];
                        tgt = node ();
                        props = [];
                      }
              in
              (if !expected = None then
                 match model_error m op with
                 | Some e -> expected := Some e
                 | None -> model_apply m op);
              op)
        in
        let expected = !expected in
        let msg = Printf.sprintf "batch %d" batch in
        match (Delta.apply_res !pg ops, expected) with
        | Ok a, None ->
            pg := a.Delta.pg;
            check_graph_eq msg !pg (model_rebuild m);
            let g = Pg.elg !pg in
            for e = 0 to Elg.nb_edges g - 1 do
              Alcotest.(check int) (msg ^ ": edge_id . edge_name") e
                (Elg.edge_id g (Elg.edge_name g e))
            done
        | Error err, Some want ->
            let m_nodes, m_edges, m_deleted = saved in
            m.m_nodes <- m_nodes;
            m.m_edges <- m_edges;
            m.m_deleted <- m_deleted;
            Alcotest.(check string) (msg ^ ": error text") want
              (match err with
              | Gq_error.Parse { what = "delta"; msg } -> msg
              | e -> Gq_error.to_string e)
        | Ok _, Some want -> Alcotest.failf "%s: accepted, expected %S" msg want
        | Error err, None ->
            Alcotest.failf "%s: rejected a valid batch: %s" msg
              (Gq_error.to_string err)
      done;
      true)

let queries =
  Regex.
    [
      Atom (Sym.Lbl "a");
      Seq (Atom (Sym.Lbl "a"), Star (Atom (Sym.Lbl "b")));
      Star (Alt (Atom (Sym.Lbl "a"), Atom (Sym.Lbl "c")));
      Star (Atom Sym.Any);
    ]

let prop_answers_equal =
  QCheck.Test.make ~count:120 ~name:"RPQ/CRPQ answers survive deltas" seed_arb
    (fun seed ->
      let pool1 = Pool.create ~size:1 () and pool4 = Pool.create ~size:4 () in
      run_scenario seed ~batches:3 (fun i applied ref_pg ->
          let gi = Pg.elg applied.Delta.pg and gr = Pg.elg ref_pg in
          List.iter
            (fun r ->
              let want = Rpq_eval.pairs ~pool:pool1 gr r in
              Alcotest.(check bool)
                (Printf.sprintf "batch %d: pairs width 1" i)
                true
                (Rpq_eval.pairs ~pool:pool1 gi r = want);
              Alcotest.(check bool)
                (Printf.sprintf "batch %d: pairs width 4" i)
                true
                (Rpq_eval.pairs ~pool:pool4 gi r = want))
            queries;
          let crpq =
            Crpq.make ~head:[ "x"; "z" ]
              ~atoms:
                [
                  {
                    Crpq.re = Regex.Star (Regex.Atom (Sym.Lbl "a"));
                    x = Crpq.TVar "x";
                    y = Crpq.TVar "y";
                  };
                  {
                    Crpq.re = Regex.Atom (Sym.Lbl "b");
                    x = Crpq.TVar "y";
                    y = Crpq.TVar "z";
                  };
                ]
          in
          Alcotest.(check bool)
            (Printf.sprintf "batch %d: crpq" i)
            true
            (Crpq.eval gi crpq = Crpq.eval gr crpq));
      true)

(* Cached evaluation through [Rpq_compile.apply_delta] must agree with
   evaluating cold on the post-delta graph — including wildcard queries,
   which can never be retained, and backward evaluation over the cached
   reversed products, whose graph is the reversed snapshot: a reversed
   product carried across a delta onto the forward graph would prune
   sources by out-edges instead of in-edges and answer wrongly. *)
let prop_cache_consistency =
  QCheck.Test.make ~count:120 ~name:"plan cache consistent across deltas"
    seed_arb (fun seed ->
      let t = Rpq_compile.create () in
      let texts = [ "a"; "a.b*"; "(a|c)*"; "_*" ] in
      let compiled =
        List.map
          (fun s ->
            match Rpq_compile.compile t s with
            | Ok c -> c
            | Error _ -> Alcotest.failf "compile %s" s)
          texts
      in
      let eval g c =
        Governor.payload ~default:[]
          (Rpq_compile.pairs_bounded t (Governor.unlimited ()) g c)
      in
      let eval_backward g c =
        Governor.payload ~default:[]
          (Rpq_eval.pairs_product_bounded (Governor.unlimited ())
             (Rpq_compile.product_rev t g c))
        |> List.map (fun (v, u) -> (u, v))
        |> List.sort compare
      in
      let st = Random.State.make [| seed |] in
      let m = gen_base st in
      let pg = ref (model_rebuild m) in
      Rpq_compile.set_generation t (Elg.id (Pg.elg !pg));
      (* Warm every product, forward and reversed, on the base graph. *)
      List.iter
        (fun c ->
          ignore (eval (Pg.elg !pg) c);
          ignore (eval_backward (Pg.elg !pg) c))
        compiled;
      for i = 1 to 3 do
        let ops = gen_batch st m in
        match Delta.apply_res !pg ops with
        | Error err ->
            Alcotest.failf "valid batch rejected: %s" (Gq_error.to_string err)
        | Ok applied ->
            let old_g = Pg.elg !pg and new_g = Pg.elg applied.Delta.pg in
            let s = applied.Delta.summary in
            Rpq_compile.apply_delta t ~old_graph:old_g ~new_graph:new_g
              ~touched_labels:s.Elg.touched_labels
              ~nodes_stable:(s.Elg.added_nodes = 0 && s.Elg.removed_nodes = 0);
            pg := applied.Delta.pg;
            List.iter
              (fun c ->
                let cold =
                  Governor.payload ~default:[]
                    (Rpq_eval.pairs_bounded (Governor.unlimited ()) new_g
                       c.Plan_cache.ast)
                in
                Alcotest.(check bool)
                  (Printf.sprintf "batch %d: cached = cold" i)
                  true
                  (eval new_g c = cold);
                Alcotest.(check bool)
                  (Printf.sprintf "batch %d: cached backward = cold" i)
                  true
                  (eval_backward new_g c = cold))
              compiled
      done;
      true)

(* --- deterministic pins --------------------------------------------------- *)

let mk_pg nodes edges =
  Pg.make
    ~nodes:(List.map (fun n -> (n, "", [])) nodes)
    ~edges:(List.map (fun (n, s, l, t) -> (n, s, l, t, [])) edges)

let apply_exn pg ops =
  match Delta.apply_res pg ops with
  | Ok a -> a
  | Error err -> Alcotest.failf "apply: %s" (Gq_error.to_string err)

let test_label_table_evolution () =
  let pg =
    mk_pg [ "u"; "v" ] [ ("e1", "u", "b", "v"); ("e2", "v", "d", "u") ]
  in
  (* A fresh label "a" sorts before both existing labels: every interned
     id shifts, and the new table must still be sorted. *)
  let a1 =
    apply_exn pg [ Pg.Add_edge { name = "e3"; src = "u"; label = "a"; tgt = "v"; props = [] } ]
  in
  let g1 = Pg.elg a1.Delta.pg in
  Alcotest.(check (list string)) "fresh label sorts first" [ "a"; "b"; "d" ]
    (Elg.labels g1);
  Alcotest.(check int) "e1 remapped" 1
    (Elg.edge_label_id g1 (Elg.edge_id g1 "e1"));
  Alcotest.(check bool) "relabeled flagged" true a1.Delta.summary.Elg.relabeled;
  (* Emptying label "d" shrinks the table. *)
  let a2 = apply_exn a1.Delta.pg [ Pg.Del_edge "e2" ] in
  let g2 = Pg.elg a2.Delta.pg in
  Alcotest.(check (list string)) "emptied label dropped" [ "a"; "b" ]
    (Elg.labels g2);
  Alcotest.(check bool) "shrink flagged" true a2.Delta.summary.Elg.relabeled;
  (* A label-preserving delta shares the table (no relabel). *)
  let a3 =
    apply_exn a2.Delta.pg
      [ Pg.Add_edge { name = "e4"; src = "v"; label = "b"; tgt = "u"; props = [] } ]
  in
  Alcotest.(check bool) "stable table" false a3.Delta.summary.Elg.relabeled

let test_bad_batches_leave_graph_untouched () =
  let pg = mk_pg [ "u"; "v" ] [ ("e1", "u", "a", "v") ] in
  let before = Rpq_eval.pairs (Pg.elg pg) (Regex.Atom (Sym.Lbl "a")) in
  let expect_error ops =
    match Delta.apply_res pg ops with
    | Ok _ -> Alcotest.fail "bad batch accepted"
    | Error err ->
        Alcotest.(check string) "parse kind" "parse" (Gq_error.kind err)
  in
  expect_error [ Pg.Del_edge "nosuch" ];
  expect_error [ Pg.Del_edge "e1"; Pg.Del_edge "e1" ];
  expect_error
    [ Pg.Add_edge { name = "e1"; src = "u"; label = "a"; tgt = "v"; props = [] } ];
  (* duplicate add within one batch *)
  expect_error
    [
      Pg.Add_edge { name = "x"; src = "u"; label = "a"; tgt = "v"; props = [] };
      Pg.Add_edge { name = "x"; src = "v"; label = "a"; tgt = "u"; props = [] };
    ];
  Alcotest.(check bool) "graph unchanged" true
    (Rpq_eval.pairs (Pg.elg pg) (Regex.Atom (Sym.Lbl "a")) = before)

let test_delta_parser () =
  let ops =
    match
      Delta.parse_res
        "# comment\nadd x u a v w=3\n\ndel e1\nadd y u b v name=Ada ok=true"
    with
    | Ok ops -> ops
    | Error err -> Alcotest.failf "parse: %s" (Gq_error.to_string err)
  in
  (match ops with
  | [
   Pg.Add_edge { name = "x"; src = "u"; label = "a"; tgt = "v"; props = [ ("w", Value.Int 3) ] };
   Pg.Del_edge "e1";
   Pg.Add_edge { name = "y"; props = [ ("name", Value.Text "Ada"); ("ok", Value.Bool true) ]; _ };
  ] ->
      ()
  | _ -> Alcotest.fail "unexpected parse");
  (match Delta.parse_res "add x u a" with
  | Error err -> Alcotest.(check string) "kind" "parse" (Gq_error.kind err)
  | Ok _ -> Alcotest.fail "truncated add accepted");
  match Delta.parse_res "frobnicate x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op accepted"

(* --- binary persistence --------------------------------------------------- *)

let prop_binary_roundtrip =
  QCheck.Test.make ~count:120 ~name:"GQB1 round-trip is the identity"
    seed_arb (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = gen_base st in
      (* A couple of deltas first, so round-tripping covers post-delta
         shapes (shared tables, implicit nodes). *)
      let pg = ref (model_rebuild m) in
      for _ = 1 to 2 do
        let ops = gen_batch st m in
        match Delta.apply_res !pg ops with
        | Ok a -> pg := a.Delta.pg
        | Error err -> Alcotest.failf "apply: %s" (Gq_error.to_string err)
      done;
      let bytes = Graph_io.to_bin_string !pg in
      (match Graph_io.of_bin_string_res bytes with
      | Error err -> Alcotest.failf "decode: %s" (Gq_error.to_string err)
      | Ok back -> check_graph_eq "round-trip" back !pg);
      true)

let prop_binary_corruption_rejected =
  QCheck.Test.make ~count:120 ~name:"corrupt GQB1 bytes are rejected totally"
    seed_arb (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = gen_base st in
      let bytes = Graph_io.to_bin_string (model_rebuild m) in
      let n = String.length bytes in
      (* Truncation at a random point. *)
      let cut = Random.State.int st n in
      (match Graph_io.of_bin_string_res (String.sub bytes 0 cut) with
      | Error (Gq_error.Parse { what = "binary graph"; _ }) -> ()
      | Error _ -> Alcotest.fail "truncation: wrong error shape"
      | Ok _ -> Alcotest.fail "truncation accepted");
      (* A single flipped bit anywhere: magic, length, checksum or
         payload — each is caught by its own check. *)
      let flipped pos bit =
        let b = Bytes.of_string bytes in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
        Bytes.to_string b
      in
      let reject what s =
        match Graph_io.of_bin_string_res s with
        | Error (Gq_error.Parse { what = "binary graph"; _ }) -> ()
        | Error _ -> Alcotest.failf "%s: wrong error shape" what
        | Ok _ -> Alcotest.failf "%s accepted" what
      in
      reject "bit flip"
        (flipped (Random.State.int st n) (Random.State.int st 8));
      (* The top bit of the u64 length field specifically: it is exactly
         the bit a 63-bit-int comparison would drop, and the checksum
         does not cover the header. *)
      reject "length sign-bit flip" (flipped 11 7);
      true)

let test_binary_sniffing () =
  let pg = Generators.bank_pg () in
  let dir = Filename.temp_file "gq_updates" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let bin = Filename.concat dir "bank.gqb" in
      (match Graph_io.save_bin_res pg bin with
      | Ok bytes -> Alcotest.(check bool) "bytes written" true (bytes > 0)
      | Error err -> Alcotest.failf "save: %s" (Gq_error.to_string err));
      (match Graph_io.load_file_res bin with
      | Ok back -> check_graph_eq "binary load" back pg
      | Error err -> Alcotest.failf "load bin: %s" (Gq_error.to_string err));
      (* The sniffing loader still reads the text format. *)
      let txt = Filename.concat dir "bank.graph" in
      let oc = open_out txt in
      output_string oc (Graph_io.to_string pg);
      close_out oc;
      match Graph_io.load_file_res txt with
      | Ok back ->
          Alcotest.(check int) "text load nodes"
            (Elg.nb_nodes (Pg.elg pg))
            (Elg.nb_nodes (Pg.elg back))
      | Error err -> Alcotest.failf "load text: %s" (Gq_error.to_string err))

(* --- epoch snapshots ------------------------------------------------------ *)

let test_epoch_basics () =
  let e = Epoch.create () in
  Alcotest.(check int) "empty epoch" 0 (Epoch.epoch e);
  Alcotest.(check bool) "empty snapshot" true (Epoch.snapshot e = None);
  Alcotest.(check int) "first publish" 1 (Epoch.publish e "g1");
  Alcotest.(check int) "second publish" 2 (Epoch.publish e "g2");
  Alcotest.(check bool) "current" true (Epoch.current e = Some (2, "g2"))

let test_epoch_isolation () =
  (* A reader that grabbed its snapshot keeps it across publishes. *)
  let e = Epoch.create () in
  ignore (Epoch.publish e [ 1; 2; 3 ]);
  let snap = Epoch.snapshot e in
  ignore (Epoch.publish e [ 4 ]);
  Alcotest.(check bool) "reader pinned" true (snap = Some [ 1; 2; 3 ]);
  Alcotest.(check bool) "writer advanced" true (Epoch.snapshot e = Some [ 4 ])

(* --- label-keyed retention (the warm-cache regression) -------------------- *)

let test_untouched_label_stays_warm () =
  let t = Rpq_compile.create () in
  let nodes = [ "u"; "v"; "w" ] in
  let pg =
    mk_pg nodes [ ("ea", "u", "a", "v"); ("ed0", "v", "d", "w") ]
  in
  let c =
    match Rpq_compile.compile t "a.a*" with
    | Ok c -> c
    | Error _ -> Alcotest.fail "compile"
  in
  let eval g =
    Governor.payload ~default:[]
      (Rpq_compile.pairs_bounded t (Governor.unlimited ()) g c)
  in
  let pg = ref pg in
  Rpq_compile.set_generation t (Elg.id (Pg.elg !pg));
  let baseline = eval (Pg.elg !pg) in
  Alcotest.(check bool) "warm" true (Rpq_compile.product_cached t (Pg.elg !pg) c);
  (* 100 deltas touching only label "d" (add then del, endpoints all
     existing, so the node set is stable): the "a"-product must ride
     every one of them without a rebuild. *)
  for i = 1 to 100 do
    let ops =
      if i mod 2 = 1 then
        [ Pg.Add_edge { name = Printf.sprintf "ed%d" i; src = "v"; label = "d"; tgt = "w"; props = [] } ]
      else [ Pg.Del_edge (Printf.sprintf "ed%d" (i - 1)) ]
    in
    let applied = apply_exn !pg ops in
    let s = applied.Delta.summary in
    Rpq_compile.apply_delta t ~old_graph:(Pg.elg !pg)
      ~new_graph:(Pg.elg applied.Delta.pg)
      ~touched_labels:s.Elg.touched_labels
      ~nodes_stable:(s.Elg.added_nodes = 0 && s.Elg.removed_nodes = 0);
    pg := applied.Delta.pg
  done;
  Alcotest.(check bool) "still warm after 100 deltas" true
    (Rpq_compile.product_cached t (Pg.elg !pg) c);
  Alcotest.(check int) "never invalidated by label" 0
    (Rpq_compile.invalidated_by_label t);
  Alcotest.(check int) "retained across every delta" 100
    (Rpq_compile.retained t);
  let misses_before = Rpq_compile.product_misses t in
  Alcotest.(check bool) "answers unchanged" true
    (eval (Pg.elg !pg) = baseline);
  Alcotest.(check int) "served without a rebuild" misses_before
    (Rpq_compile.product_misses t);
  (* Touching "a" finally kills it. *)
  let applied = apply_exn !pg [ Pg.Del_edge "ea" ] in
  let s = applied.Delta.summary in
  Rpq_compile.apply_delta t ~old_graph:(Pg.elg !pg)
    ~new_graph:(Pg.elg applied.Delta.pg)
    ~touched_labels:s.Elg.touched_labels
    ~nodes_stable:(s.Elg.added_nodes = 0 && s.Elg.removed_nodes = 0);
  Alcotest.(check bool) "touched label drops" false
    (Rpq_compile.product_cached t (Pg.elg applied.Delta.pg) c);
  Alcotest.(check int) "counted as label invalidation" 1
    (Rpq_compile.invalidated_by_label t)

(* A product migrated across deltas must not keep the snapshot it was
   built on alive: after deltas on an untouched label and a full major
   collection, the pre-delta graph is gone, and the migrated product
   still answers like a cold evaluation on the current snapshot. *)
let test_migrated_product_releases_snapshot () =
  let t = Rpq_compile.create () in
  let c =
    match Rpq_compile.compile t "a.a*" with
    | Ok c -> c
    | Error _ -> Alcotest.fail "compile"
  in
  let eval g =
    Governor.payload ~default:[]
      (Rpq_compile.pairs_bounded ~planner:false t (Governor.unlimited ()) g c)
  in
  let weak = Weak.create 1 in
  (* Everything that names the pre-delta graph lives in this frame. *)
  let migrate () =
    let pg0 =
      mk_pg [ "u"; "v"; "w" ]
        [ ("ea", "u", "a", "v"); ("eb", "v", "a", "w"); ("ed0", "v", "d", "w") ]
    in
    let g0 = Pg.elg pg0 in
    Weak.set weak 0 (Some g0);
    Rpq_compile.set_generation t (Elg.id g0);
    ignore (eval g0);
    let pg = ref pg0 in
    for i = 1 to 4 do
      let ops =
        if i mod 2 = 1 then
          [ Pg.Add_edge { name = Printf.sprintf "ed%d" i; src = "w"; label = "d"; tgt = "u"; props = [] } ]
        else [ Pg.Del_edge (Printf.sprintf "ed%d" (i - 1)) ]
      in
      let applied = apply_exn !pg ops in
      let s = applied.Delta.summary in
      Rpq_compile.apply_delta t ~old_graph:(Pg.elg !pg)
        ~new_graph:(Pg.elg applied.Delta.pg)
        ~touched_labels:s.Elg.touched_labels
        ~nodes_stable:(s.Elg.added_nodes = 0 && s.Elg.removed_nodes = 0);
      pg := applied.Delta.pg
    done;
    !pg
  in
  let pg = Sys.opaque_identity (migrate ()) in
  Gc.full_major ();
  Alcotest.(check bool) "pre-delta snapshot collected" false (Weak.check weak 0);
  let g = Pg.elg pg in
  Alcotest.(check bool) "product migrated" true (Rpq_compile.product_cached t g c);
  Alcotest.(check int) "retained across every delta" 4 (Rpq_compile.retained t);
  let misses = Rpq_compile.product_misses t in
  Alcotest.(check (list (pair int int))) "migrated = cold"
    (Rpq_eval.pairs g c.Plan_cache.ast) (eval g);
  Alcotest.(check int) "served without a rebuild" misses
    (Rpq_compile.product_misses t)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "updates"
    [
      ( "model",
        [
          qt prop_incremental_equals_rebuild;
          qt prop_answers_equal;
          qt prop_cache_consistency;
        ] );
      ( "pins",
        [
          Alcotest.test_case "label table evolution" `Quick
            test_label_table_evolution;
          Alcotest.test_case "bad batches rejected" `Quick
            test_bad_batches_leave_graph_untouched;
          Alcotest.test_case "delta parser" `Quick test_delta_parser;
          qt prop_name_resolution;
        ] );
      ( "binary",
        [
          qt prop_binary_roundtrip;
          qt prop_binary_corruption_rejected;
          Alcotest.test_case "save/load + sniffing" `Quick test_binary_sniffing;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "basics" `Quick test_epoch_basics;
          Alcotest.test_case "isolation" `Quick test_epoch_isolation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "untouched label stays warm" `Quick
            test_untouched_label_stays_warm;
          Alcotest.test_case "migrated product releases its snapshot" `Quick
            test_migrated_product_releases_snapshot;
        ] );
    ]
