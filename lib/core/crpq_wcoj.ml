(* Index for one atom's answer relation. *)
type atom_index = {
  x_term : Crpq.term;
  y_term : Crpq.term;
  forward : (int, int list) Hashtbl.t;  (* x -> sorted ys *)
  backward : (int, int list) Hashtbl.t;  (* y -> sorted xs *)
  xs : int list;  (* sorted distinct sources *)
  ys : int list;  (* sorted distinct targets *)
  loops : int list;  (* sorted n with (n, n) in the relation *)
}

(* Pair sets are memoized per distinct regex ([memo]): a query with k
   copies of the same atom compiles and materializes it once; the
   compilation itself goes through the process-wide Plan_cache. *)
let atom_pairs ?pool ~obs gov g memo (a : Crpq.atom) =
  let key = Regex.to_string Sym.to_string a.Crpq.re in
  match Hashtbl.find_opt memo key with
  | Some pairs ->
      Obs.incr obs "wcoj.atom_dedup";
      pairs
  | None ->
      let c = Rpq_compile.compile_ast ~obs Rpq_compile.shared a.Crpq.re in
      let pairs =
        Governor.payload ~default:[]
          (Rpq_eval.pairs_product_bounded ?pool ~obs gov
             (Rpq_compile.product ~obs Rpq_compile.shared g c))
      in
      Hashtbl.add memo key pairs;
      pairs

let build_index ?pool ?(obs = Obs.none) gov g memo (a : Crpq.atom) =
  let pairs = atom_pairs ?pool ~obs gov g memo a in
  Obs.add obs "wcoj.index_pairs" (List.length pairs);
  let forward = Hashtbl.create 64 and backward = Hashtbl.create 64 in
  let add tbl k v =
    Hashtbl.replace tbl k (v :: (try Hashtbl.find tbl k with Not_found -> []))
  in
  List.iter
    (fun (u, v) ->
      add forward u v;
      add backward v u)
    pairs;
  Hashtbl.iter (fun k vs -> Hashtbl.replace forward k (List.sort_uniq compare vs))
    (Hashtbl.copy forward);
  Hashtbl.iter (fun k vs -> Hashtbl.replace backward k (List.sort_uniq compare vs))
    (Hashtbl.copy backward);
  {
    x_term = a.Crpq.x;
    y_term = a.Crpq.y;
    forward;
    backward;
    xs = List.map fst pairs |> List.sort_uniq compare;
    ys = List.map snd pairs |> List.sort_uniq compare;
    loops = List.filter_map (fun (u, v) -> if u = v then Some u else None) pairs
            |> List.sort_uniq compare;
  }

let rec intersect l1 l2 =
  match (l1, l2) with
  | [], _ | _, [] -> []
  | a :: r1, b :: r2 ->
      if a < b then intersect r1 l2
      else if a > b then intersect l1 r2
      else a :: intersect r1 r2

let term_vars = function Crpq.TVar x -> [ x ] | Crpq.TConst _ -> []

let eval_with_stats_gov ?pool ?(obs = Obs.none) ?(planner = true) gov g q =
  Obs.span obs "wcoj.eval" @@ fun () ->
  let atoms = Crpq.atoms q in
  let memo = Hashtbl.create 8 in
  let indexes =
    Obs.span obs "wcoj.index" @@ fun () ->
    List.map (build_index ?pool ~obs gov g memo) atoms
  in
  (* Variable elimination order: the planner's first-appearance order
     along its selectivity-ordered atoms, or sorted names when off. *)
  let vars =
    if planner then
      let p_atoms = List.map Crpq.to_planner_atom atoms in
      Planner.variable_order p_atoms (Planner.plan (Stats.get g) p_atoms)
    else
      List.concat_map (fun a -> term_vars a.Crpq.x @ term_vars a.Crpq.y) atoms
      |> List.sort_uniq String.compare
  in
  let resolve asg = function
    | Crpq.TConst name -> Some (Elg.node_id g name)
    | Crpq.TVar x -> List.assoc_opt x asg
  in
  let explored = ref 0 in
  let results = ref [] in
  let lookup tbl k = try Hashtbl.find tbl k with Not_found -> [] in
  (* Candidates for [v] under [asg]: intersect every applicable atom
     constraint; [None] means unconstrained so far. *)
  let candidates v asg =
    List.fold_left
      (fun acc idx ->
        let vx = match idx.x_term with Crpq.TVar x when x = v -> true | _ -> false in
        let vy = match idx.y_term with Crpq.TVar y when y = v -> true | _ -> false in
        let constraint_list =
          if vx && vy then Some idx.loops
          else if vx then
            match resolve asg idx.y_term with
            | Some n -> Some (lookup idx.backward n)
            | None -> Some idx.xs
          else if vy then
            match resolve asg idx.x_term with
            | Some n -> Some (lookup idx.forward n)
            | None -> Some idx.ys
          else None
        in
        match (acc, constraint_list) with
        | None, c -> c
        | Some l, None -> Some l
        | Some l1, Some l2 -> Some (intersect l1 l2))
      None indexes
  in
  (* Tuple-at-a-time: a tripped budget abandons the in-flight partial
     assignment, so reported rows always satisfy every atom. *)
  let rec assign asg = function
    | [] -> if Governor.emit gov then results := asg :: !results
    | v :: rest ->
        let cands = match candidates v asg with Some l -> l | None -> [] in
        List.iter
          (fun n ->
            if Governor.tick gov then begin
              incr explored;
              assign ((v, n) :: asg) rest
            end)
          cands
  in
  assign [] vars;
  (* Fully-constant atoms were never touched by any variable: check them. *)
  let constant_ok =
    List.for_all2
      (fun a idx ->
        match (a.Crpq.x, a.Crpq.y) with
        | Crpq.TConst nx, Crpq.TConst ny ->
            List.mem (Elg.node_id g ny) (lookup idx.forward (Elg.node_id g nx))
        | _, _ -> true)
      atoms indexes
  in
  let rows =
    if not constant_ok then []
    else
      List.map
        (fun asg ->
          List.map
            (fun x ->
              match List.assoc_opt x asg with Some n -> n | None -> -1)
            (Crpq.head q))
        !results
      |> List.sort_uniq compare
  in
  Obs.add obs "wcoj.tuples_explored" !explored;
  Obs.add obs "wcoj.rows" (List.length rows);
  (rows, !explored)

let eval_with_stats g q = eval_with_stats_gov (Governor.unlimited ()) g q

let eval_bounded ?pool ?obs ?planner gov g q =
  let rows, _ = eval_with_stats_gov ?pool ?obs ?planner gov g q in
  Governor.seal gov rows

let eval ?pool ?obs ?planner g q =
  Governor.value (eval_bounded ?pool ?obs ?planner (Governor.unlimited ()) g q)

let compare_costs g q =
  let _, generic = eval_with_stats g q in
  (* The pairwise-join baseline: materialize the join left to right (atoms
     sorted smallest-first, as Crpq.eval does) and record the peak
     intermediate assignment count. *)
  let atoms = Crpq.atoms q in
  let with_pairs =
    List.map (fun a -> (a, Rpq_eval.pairs g a.Crpq.re)) atoms
    |> List.sort (fun (_, p1) (_, p2) -> compare (List.length p1) (List.length p2))
  in
  let bind asg x v =
    match List.assoc_opt x asg with
    | Some w -> if w = v then Some asg else None
    | None -> Some ((x, v) :: asg)
  in
  let bind_term asg term node =
    match term with
    | Crpq.TVar x -> bind asg x node
    | Crpq.TConst name -> if Elg.node_id g name = node then Some asg else None
  in
  let peak = ref 0 in
  let _ =
    List.fold_left
      (fun assignments (a, pairs) ->
        let next =
          List.concat_map
            (fun asg ->
              List.filter_map
                (fun (u, v) ->
                  Option.bind (bind_term asg a.Crpq.x u) (fun asg ->
                      bind_term asg a.Crpq.y v))
                pairs)
            assignments
          |> List.sort_uniq compare
        in
        if List.length next > !peak then peak := List.length next;
        next)
      [ [] ] with_pairs
  in
  (generic, !peak)
