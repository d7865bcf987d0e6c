type term = TVar of string | TConst of string
type atom = { re : Sym.t Regex.t; x : term; y : term }
type t = { head : string list; atoms : atom list }

let term_vars = function TVar x -> [ x ] | TConst _ -> []

let endpoint_vars atoms =
  List.concat_map (fun a -> term_vars a.x @ term_vars a.y) atoms
  |> List.sort_uniq String.compare

let make ~head ~atoms =
  if atoms = [] then invalid_arg "Crpq.make: no atoms";
  let vars = endpoint_vars atoms in
  List.iter
    (fun x ->
      if not (List.mem x vars) then
        invalid_arg
          (Printf.sprintf "Crpq.make: head variable %s is not an endpoint" x))
    head;
  { head; atoms }

let head q = q.head
let atoms q = q.atoms

(* Assignments are sorted association lists, variable -> node. *)
let lookup asg x = List.assoc_opt x asg

let bind asg x v =
  let rec go = function
    | [] -> Some [ (x, v) ]
    | (y, w) :: rest ->
        let c = String.compare x y in
        if c < 0 then Some ((x, v) :: (y, w) :: rest)
        else if c = 0 then if w = v then Some ((y, w) :: rest) else None
        else Option.map (fun r -> (y, w) :: r) (go rest)
  in
  go asg

let bind_term g asg term node =
  match term with
  | TVar x -> bind asg x node
  | TConst name -> if Elg.node_id g name = node then Some asg else None

let to_planner_atom a =
  {
    Planner.re = a.re;
    x = (match a.x with TVar v -> Planner.Var v | TConst c -> Planner.Const c);
    y = (match a.y with TVar v -> Planner.Var v | TConst c -> Planner.Const c);
  }

(* How one planned atom participates in the join: materialized pair set,
   or — when an endpoint is already bound by earlier atoms (or is a
   constant) — a per-binding BFS probe over the cached (reversed)
   product, which never materializes the atom's full relation. *)
type exec =
  | Mat of atom * (int * int) list
  | Probe_fwd of int * atom * Rpq_walk.t  (* x bound: walk from h(x) *)
  | Probe_bwd of int * atom * Rpq_walk.t  (* y bound: reverse walk from h(y) *)

let swap_sorted ps =
  List.sort Stdlib.compare (List.rev_map (fun (v, u) -> (u, v)) ps)

(* Memoized by (regex, direction): a CRPQ with k copies of the same atom
   compiles and materializes it once (the compilation itself also hits
   the process-wide Plan_cache). *)
let materialize_memo ?pool ~obs gov g memo a dir =
  let key = (Regex.to_string Sym.to_string a.re, dir = Planner.Backward) in
  match Hashtbl.find_opt memo key with
  | Some pairs ->
      Obs.incr obs "crpq.atom_dedup";
      pairs
  | None ->
      let c = Rpq_compile.compile_ast ~obs Rpq_compile.shared a.re in
      let pairs =
        Governor.payload ~default:[]
          (match dir with
          | Planner.Forward ->
              Rpq_eval.pairs_product_bounded ?pool ~obs gov
                (Rpq_compile.product ~obs Rpq_compile.shared g c)
          | Planner.Backward ->
              Governor.map swap_sorted
                (Rpq_eval.pairs_product_bounded ?pool ~obs gov
                   (Rpq_compile.product_rev ~obs Rpq_compile.shared g c)))
      in
      Hashtbl.add memo key pairs;
      pairs

let homomorphisms_gov ?pool ?(obs = Obs.none) ?(planner = true) gov g q =
  (* Plan the atom order, materialize what must be materialized, then
     join depth-first: one tick per candidate pair, one emit per
     completed assignment.  Depth-first matters for soundness of partial
     results — an assignment is reported only once it satisfies
     {e every} atom, so a tripped budget yields a subset of the true
     answers, never a superset.  With [~planner:false] atoms run in
     query order, all materialized forward — the baseline the planner is
     tested and benchmarked against. *)
  Obs.span obs "crpq.eval" @@ fun () ->
  let memo = Hashtbl.create 8 in
  let execs =
    Obs.span obs "crpq.atoms" @@ fun () ->
    if not planner then
      List.map
        (fun a ->
          Failpoint.check "crpq.join.atom";
          Mat (a, materialize_memo ?pool ~obs gov g memo a Planner.Forward))
        q.atoms
    else begin
      let st = Stats.get g in
      let plan = Planner.plan st (List.map to_planner_atom q.atoms) in
      let atoms_arr = Array.of_list q.atoms in
      let bound : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      let is_bound = function
        | TConst _ -> true
        | TVar v -> Hashtbl.mem bound v
      in
      let note = function
        | TConst _ -> ()
        | TVar v -> Hashtbl.replace bound v ()
      in
      List.mapi
        (fun pos ap ->
          let a = atoms_arr.(ap.Planner.index) in
          Failpoint.check "crpq.join.atom";
          let bx = is_bound a.x and by = is_bound a.y in
          let e =
            if bx then
              let c = Rpq_compile.compile_ast ~obs Rpq_compile.shared a.re in
              Probe_fwd (pos, a, Rpq_walk.make g c.Plan_cache.nfa)
            else if by then
              let c = Rpq_compile.compile_ast ~obs Rpq_compile.shared a.re in
              Probe_bwd
                ( pos,
                  a,
                  Rpq_walk.make
                    (Rpq_compile.reversed_graph Rpq_compile.shared g)
                    (Nfa.of_regex (Regex.reverse c.Plan_cache.ast)) )
            else begin
              let pairs =
                materialize_memo ?pool ~obs gov g memo a ap.Planner.direction
              in
              Obs.add obs "crpq.est_card"
                (int_of_float ap.Planner.est.Planner.card);
              Obs.add obs "crpq.actual_card" (List.length pairs);
              Mat (a, pairs)
            end
          in
          note a.x;
          note a.y;
          e)
        plan.Planner.order
    end
  in
  List.iter
    (function
      | Mat (_, pairs) -> Obs.add obs "crpq.atom_pairs" (List.length pairs)
      | Probe_fwd _ | Probe_bwd _ -> ())
    execs;
  Obs.span obs "crpq.join" @@ fun () ->
  let candidates = Obs.counter_fn obs "crpq.join_candidates" in
  let probe_count = Obs.counter_fn obs "crpq.probes" in
  let considered = ref 0 in
  let results = ref [] in
  let nb_results = ref 0 in
  (* Reachable sets per (planned atom, start node), shared across join
     branches that bind the same node. *)
  let reach_memo = Hashtbl.create 64 in
  let reach pos walk src =
    match Hashtbl.find_opt reach_memo (pos, src) with
    | Some ts -> ts
    | None ->
        probe_count 1;
        let ts = Rpq_walk.targets ~obs gov walk ~src in
        Hashtbl.add reach_memo (pos, src) ts;
        ts
  in
  let node_of asg = function
    | TConst name -> Elg.node_id g name
    | TVar x -> (
        match lookup asg x with
        | Some v -> v
        | None -> assert false (* bound by construction of the plan *))
  in
  let rec extend asg = function
    | [] ->
        if Governor.emit gov then begin
          incr nb_results;
          results := asg :: !results
        end
    | e :: rest -> (
        let try_pair a asg u v =
          match bind_term g asg a.x u with
          | None -> ()
          | Some asg -> (
              match bind_term g asg a.y v with
              | None -> ()
              | Some asg -> extend asg rest)
        in
        match e with
        | Mat (a, pairs) ->
            List.iter
              (fun (u, v) ->
                if Governor.tick gov then begin
                  incr considered;
                  try_pair a asg u v
                end)
              pairs
        | Probe_fwd (pos, a, walk) ->
            let u = node_of asg a.x in
            List.iter
              (fun v ->
                if Governor.tick gov then begin
                  incr considered;
                  try_pair a asg u v
                end)
              (reach pos walk u)
        | Probe_bwd (pos, a, walk) ->
            let v = node_of asg a.y in
            List.iter
              (fun u ->
                if Governor.tick gov then begin
                  incr considered;
                  try_pair a asg u v
                end)
              (reach pos walk v))
  in
  extend [] execs;
  candidates !considered;
  Obs.add obs "crpq.rows" !nb_results;
  List.sort_uniq Stdlib.compare !results

let homomorphisms ?pool ?obs ?planner g q =
  homomorphisms_gov ?pool ?obs ?planner (Governor.unlimited ()) g q

(* The static planning decisions, without evaluating anything: the same
   bound-endpoint walk as [homomorphisms_gov], for EXPLAIN output. *)
let explain g q =
  let st = Stats.get g in
  let plan = Planner.plan st (List.map to_planner_atom q.atoms) in
  let atoms_arr = Array.of_list q.atoms in
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let is_bound = function TConst _ -> true | TVar v -> Hashtbl.mem bound v in
  let note = function TConst _ -> () | TVar v -> Hashtbl.replace bound v () in
  List.map
    (fun ap ->
      let a = atoms_arr.(ap.Planner.index) in
      let bx = is_bound a.x and by = is_bound a.y in
      let mode =
        if bx then "probe-forward"
        else if by then "probe-backward"
        else
          match ap.Planner.direction with
          | Planner.Forward -> "materialize-forward"
          | Planner.Backward -> "materialize-backward"
      in
      note a.x;
      note a.y;
      (ap, mode))
    plan.Planner.order

let project_head q homs =
  List.map
    (fun asg ->
      List.map
        (fun x ->
          match lookup asg x with
          | Some v -> v
          | None -> assert false (* safety checked in [make] *))
        q.head)
    homs
  |> List.sort_uniq Stdlib.compare

let eval_bounded ?pool ?obs ?planner gov g q =
  Governor.seal gov
    (project_head q (homomorphisms_gov ?pool ?obs ?planner gov g q))

let eval ?pool ?obs ?planner g q =
  Governor.value (eval_bounded ?pool ?obs ?planner (Governor.unlimited ()) g q)

let holds g q = homomorphisms g q <> []

(* Relational-algebra pipeline: one binary relation per atom, natural
   joins on shared variables, projection onto the head. *)
let eval_relational g q =
  let fresh =
    let counter = ref 0 in
    fun () ->
      incr counter;
      Printf.sprintf "#c%d" !counter
  in
  let atom_relation a =
    let pairs = Rpq_eval.pairs g a.re in
    (* Constants become fresh columns filtered to the constant node, then
       projected away. *)
    let col_x, keep_x =
      match a.x with TVar x -> (x, true) | TConst _ -> (fresh (), false)
    in
    let col_y, keep_y =
      match a.y with TVar y -> (y, true) | TConst _ -> (fresh (), false)
    in
    if col_x = col_y then
      (* Self-join within the atom: R(x, x). *)
      Relation.make ~schema:[ col_x ]
        ~rows:
          (List.filter_map
             (fun (u, v) -> if u = v then Some [ Relation.Cnode u ] else None)
             pairs)
    else begin
      let rel =
        Relation.make ~schema:[ col_x; col_y ]
          ~rows:(List.map (fun (u, v) -> [ Relation.Cnode u; Relation.Cnode v ]) pairs)
      in
      let filter_const term col rel =
        match term with
        | TConst name ->
            let n = Elg.node_id g name in
            Relation.select rel (fun get -> get col = Relation.Cnode n)
        | TVar _ -> rel
      in
      let rel = filter_const a.x col_x rel in
      let rel = filter_const a.y col_y rel in
      let keep =
        (if keep_x then [ col_x ] else []) @ if keep_y then [ col_y ] else []
      in
      Relation.project rel keep
    end
  in
  let joined =
    match List.map atom_relation q.atoms with
    | [] -> invalid_arg "Crpq.eval_relational: no atoms"
    | first :: rest -> List.fold_left Relation.join first rest
  in
  Relation.project joined q.head
