type operand = Prop of string * string | Const of Value.t

type cond =
  | Cmp of operand * Value.op * operand
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type node_pat = { nvar : string option; nlbl : string option }
type edge_pat = { evar : string option; elbl : string option }

type pattern =
  | Pnode of node_pat
  | Pedge of edge_pat
  | Pseq of pattern * pattern
  | Palt of pattern * pattern
  | Pquant of pattern * int * int option
  | Pwhere of pattern * cond

type gvalue = Single of Path.obj | Group of Path.obj list
type binding = (string * gvalue) list

exception Degree_conflict of string

let rec vars = function
  | Pnode { nvar; _ } -> Option.to_list nvar
  | Pedge { evar; _ } -> Option.to_list evar
  | Pseq (p1, p2) | Palt (p1, p2) ->
      List.sort_uniq String.compare (vars p1 @ vars p2)
  | Pquant (p, _, _) -> vars p
  | Pwhere (p, _) -> vars p

(* Join singletons, concatenate groups; a variable used in both degrees is
   a static error in GQL, surfaced here dynamically. *)
let merge_value x v1 v2 =
  match (v1, v2) with
  | Single a, Single b -> if a = b then Some (Single a) else None
  | Group l1, Group l2 -> Some (Group (l1 @ l2))
  | Single _, Group _ | Group _, Single _ -> raise (Degree_conflict x)

let rec merge (b1 : binding) (b2 : binding) : binding option =
  match (b1, b2) with
  | [], b | b, [] -> Some b
  | (x1, v1) :: r1, (x2, v2) :: r2 ->
      let c = String.compare x1 x2 in
      if c < 0 then Option.map (fun r -> (x1, v1) :: r) (merge r1 b2)
      else if c > 0 then Option.map (fun r -> (x2, v2) :: r) (merge b1 r2)
      else
        Option.bind (merge_value x1 v1 v2) (fun v ->
            Option.map (fun r -> (x1, v) :: r) (merge r1 r2))

let bind_opt var value : binding =
  match var with Some x -> [ (x, value) ] | None -> []

let cond_holds pg (b : binding) cond =
  let operand_value = function
    | Const v -> Some v
    | Prop (x, k) -> (
        match List.assoc_opt x b with
        | Some (Single obj) -> Pg.prop pg obj k
        | Some (Group _) | None -> None)
  in
  let rec go = function
    | Cmp (o1, op, o2) -> (
        match (operand_value o1, operand_value o2) with
        | Some v1, Some v2 -> Value.test op v1 v2
        | _, _ -> false)
    | And (c1, c2) -> go c1 && go c2
    | Or (c1, c2) -> go c1 || go c2
    | Not c -> not (go c)
  in
  go cond

(* Demote every variable of the per-iteration bindings to a group,
   concatenating in iteration order. *)
let group_iterations (iteration_bindings : binding list) : binding =
  let add acc (x, v) =
    let objs = match v with Single o -> [ o ] | Group l -> l in
    let rec insert = function
      | [] -> [ (x, Group objs) ]
      | (y, Group l) :: rest when String.equal x y -> (y, Group (l @ objs)) :: rest
      | entry :: rest -> entry :: insert rest
    in
    insert acc
  in
  let unsorted =
    List.fold_left (fun acc b -> List.fold_left add acc b) [] iteration_bindings
  in
  List.sort (fun (x, _) (y, _) -> String.compare x y) unsorted

(* Matching: from node [v] with [budget] edges left, return
   (end node, reversed edge list, binding) triples.  One governor step
   per pattern-position visit; a tripped budget truncates candidate
   lists, so partial match sets are subsets of the true ones. *)
let rec matches_at gov pg pattern v budget : (int * int list * binding) list =
  let g = Pg.elg pg in
  if not (Governor.ok gov) then []
  else
  match pattern with
  | Pnode { nvar; nlbl } ->
      let label_ok =
        match nlbl with None -> true | Some l -> String.equal (Pg.node_label pg v) l
      in
      if label_ok then [ (v, [], bind_opt nvar (Single (Path.N v))) ] else []
  | Pedge { evar; elbl } ->
      let acc = ref [] in
      Elg.iter_out g v (fun e ->
          let label_ok =
            match elbl with None -> true | Some l -> String.equal (Elg.label g e) l
          in
          if label_ok && budget >= 1 && Governor.tick gov then
            acc := (Elg.tgt g e, [ e ], bind_opt evar (Single (Path.E e))) :: !acc);
      List.rev !acc
  | Pseq (p1, p2) ->
      List.concat_map
        (fun (v1, es1, b1) ->
          if not (Governor.tick gov) then []
          else
            List.filter_map
              (fun (v2, es2, b2) ->
                Option.map (fun b -> (v2, es2 @ es1, b)) (merge b1 b2))
              (matches_at gov pg p2 v1 (budget - List.length es1)))
        (matches_at gov pg p1 v budget)
  | Palt (p1, p2) ->
      matches_at gov pg p1 v budget @ matches_at gov pg p2 v budget
  | Pwhere (p, cond) ->
      List.filter
        (fun (_, _, b) -> cond_holds pg b cond)
        (matches_at gov pg p v budget)
  | Pquant (p, n, m) ->
      let max_iters = match m with Some m -> m | None -> budget + 1 in
      (* [iterate k v budget] returns (end, edges, iteration bindings) for
         runs of exactly [k] further iterations, unbounded by [k <=
         max_iters]. *)
      let results = ref [] in
      let rec iterate k v budget rev_edges rev_iter_bindings =
        if k >= n then
          results := (v, rev_edges, List.rev rev_iter_bindings) :: !results;
        if k < max_iters then
          List.iter
            (fun (v', es, b) ->
              let consumed = List.length es in
              (* Guard against infinite ε-iterations: a zero-edge iteration
                 may repeat, but the iteration cap bounds it. *)
              if consumed <= budget && Governor.tick gov then
                iterate (k + 1) v' (budget - consumed) (es @ rev_edges)
                  (b :: rev_iter_bindings))
            (matches_at gov pg p v budget)
      in
      iterate 0 v budget [] [];
      List.rev_map
        (fun (v', rev_edges, iter_bindings) ->
          (v', rev_edges, group_iterations iter_bindings))
        !results

let build_path g start rev_edges =
  let edges = List.rev rev_edges in
  let objs =
    Path.N start
    :: List.concat_map (fun e -> [ Path.E e; Path.N (Elg.tgt g e) ]) edges
  in
  Path.of_objs_exn g objs

let dedup_results results =
  List.sort_uniq
    (fun (p1, b1) (p2, b2) ->
      match Path.compare p1 p2 with 0 -> Stdlib.compare b1 b2 | c -> c)
    results

let matches_gov gov ?(dedup = true) pg pattern ~max_len =
  let g = Pg.elg pg in
  let all = ref [] in
  for v = 0 to Elg.nb_nodes g - 1 do
    List.iter
      (fun (_, rev_edges, b) ->
        if Governor.emit gov then all := (build_path g v rev_edges, b) :: !all)
      (matches_at gov pg pattern v max_len)
  done;
  let results = List.rev !all in
  if dedup then dedup_results results else results

let matches_bounded ?dedup gov pg pattern ~max_len =
  Governor.seal gov (matches_gov gov ?dedup pg pattern ~max_len)

let matches ?dedup pg pattern ~max_len =
  Governor.value
    (matches_bounded ?dedup (Governor.unlimited ()) pg pattern ~max_len)

let matches_between_gov gov ?(dedup = true) pg pattern ~max_len ~src ~tgt =
  let g = Pg.elg pg in
  let results =
    List.filter_map
      (fun (v_end, rev_edges, b) ->
        if v_end = tgt && Governor.emit gov then
          Some (build_path g src rev_edges, b)
        else None)
      (matches_at gov pg pattern src max_len)
  in
  if dedup then dedup_results results else results

let matches_between_bounded ?dedup gov pg pattern ~max_len ~src ~tgt =
  Governor.seal gov (matches_between_gov gov ?dedup pg pattern ~max_len ~src ~tgt)

let matches_between ?dedup pg pattern ~max_len ~src ~tgt =
  Governor.value
    (matches_between_bounded ?dedup (Governor.unlimited ()) pg pattern ~max_len
       ~src ~tgt)

let gvalue_to_string g = function
  | Single (Path.N n) -> Elg.node_name g n
  | Single (Path.E e) -> Elg.edge_name g e
  | Group objs ->
      let name = function
        | Path.N n -> Elg.node_name g n
        | Path.E e -> Elg.edge_name g e
      in
      "list(" ^ String.concat ", " (List.map name objs) ^ ")"

let binding_to_string g b =
  "{"
  ^ String.concat "; "
      (List.map (fun (x, v) -> x ^ " -> " ^ gvalue_to_string g v) b)
  ^ "}"

let operand_to_string = function
  | Prop (x, k) -> x ^ "." ^ k
  | Const v -> Value.to_string v

let rec cond_to_string = function
  | Cmp (o1, op, o2) ->
      Printf.sprintf "%s %s %s" (operand_to_string o1) (Value.op_to_string op)
        (operand_to_string o2)
  | And (c1, c2) -> cond_to_string c1 ^ " AND " ^ cond_to_string c2
  | Or (c1, c2) -> cond_to_string c1 ^ " OR " ^ cond_to_string c2
  | Not c -> "NOT " ^ cond_to_string c

let rec pattern_to_string = function
  | Pnode { nvar; nlbl } ->
      Printf.sprintf "(%s%s)"
        (Option.value nvar ~default:"")
        (match nlbl with Some l -> ":" ^ l | None -> "")
  | Pedge { evar; elbl } ->
      Printf.sprintf "-[%s%s]->"
        (Option.value evar ~default:"")
        (match elbl with Some l -> ":" ^ l | None -> "")
  | Pseq (p1, p2) -> pattern_to_string p1 ^ pattern_to_string p2
  | Palt (p1, p2) -> "(" ^ pattern_to_string p1 ^ "|" ^ pattern_to_string p2 ^ ")"
  | Pquant (p, n, Some m) when n = m ->
      Printf.sprintf "(%s){%d}" (pattern_to_string p) n
  | Pquant (p, n, Some m) -> Printf.sprintf "(%s){%d,%d}" (pattern_to_string p) n m
  | Pquant (p, 0, None) -> "(" ^ pattern_to_string p ^ ")*"
  | Pquant (p, 1, None) -> "(" ^ pattern_to_string p ^ ")+"
  | Pquant (p, n, None) -> Printf.sprintf "(%s){%d,}" (pattern_to_string p) n
  | Pwhere (p, c) ->
      "(" ^ pattern_to_string p ^ " WHERE " ^ cond_to_string c ^ ")"
