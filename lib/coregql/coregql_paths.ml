(* Positional matching: a node-to-node path with L edges has node
   positions 0..L; a pattern match is an interval [i, j] plus a binding. *)

type span = int * int * Coregql.binding

let dedup (spans : span list) = List.sort_uniq Stdlib.compare spans

let path_arrays path =
  let nodes = Array.of_list (Path.nodes path) in
  let edges = Array.of_list (Path.edges path) in
  (nodes, edges)

let rec spans pg (nodes : int array) (edges : int array) pattern : span list =
  let nb_pos = Array.length nodes in
  match (pattern : Coregql.pattern) with
  | Pnode var ->
      List.init nb_pos (fun i ->
          let mu =
            match var with Some x -> [ (x, Path.N nodes.(i)) ] | None -> []
          in
          (i, i, mu))
  | Pedge var ->
      List.init (Array.length edges) (fun i ->
          let mu =
            match var with Some x -> [ (x, Path.E edges.(i)) ] | None -> []
          in
          (i, i + 1, mu))
  | Pconcat (p1, p2) ->
      let s1 = spans pg nodes edges p1 and s2 = spans pg nodes edges p2 in
      List.concat_map
        (fun (i, j, m1) ->
          List.filter_map
            (fun (j', k, m2) ->
              if j = j' then
                Option.map (fun m -> (i, k, m)) (Coregql.(merge) m1 m2)
              else None)
            s2)
        s1
      |> dedup
  | Pdisj (p1, p2) ->
      dedup (spans pg nodes edges p1 @ spans pg nodes edges p2)
  | Prepeat (p, n, m) ->
      let base =
        spans pg nodes edges p
        |> List.map (fun (i, j, _) -> (i, j))
        |> List.sort_uniq Stdlib.compare
      in
      let identity = List.init nb_pos (fun i -> (i, i)) in
      let compose a b =
        List.concat_map
          (fun (i, j) ->
            List.filter_map (fun (j', k) -> if j = j' then Some (i, k) else None) b)
          a
        |> List.sort_uniq Stdlib.compare
      in
      let rec power k = if k = 0 then identity else compose (power (k - 1)) base in
      let exact_n = power n in
      let result =
        match m with
        | Some m ->
            let rec upto k acc cur =
              if k > m then acc
              else upto (k + 1) (List.sort_uniq Stdlib.compare (acc @ cur)) (compose cur base)
            in
            upto n [] exact_n
        | None ->
            (* Positions are finite: iterate the closure to fixpoint. *)
            let rec fix acc =
              let next = List.sort_uniq Stdlib.compare (acc @ compose acc base) in
              if List.length next = List.length acc then acc else fix next
            in
            compose exact_n (fix identity)
      in
      List.map (fun (i, j) -> (i, j, [])) result
  | Pcond (p, theta) ->
      List.filter
        (fun (i, j, mu) -> cond_on_span pg nodes edges (i, j, mu) theta)
        (spans pg nodes edges p)

and cond_on_span pg nodes edges (i, j, mu) theta =
  match (theta : Coregql.cond) with
  | Cforall (inner, inner_cond) ->
      (* Every match of [inner] on an infix of the matched span must
         satisfy the condition. *)
      spans pg nodes edges inner
      |> List.for_all (fun (i', j', mu') ->
             if i <= i' && j' <= j then
               cond_on_span pg nodes edges (i', j', mu') inner_cond
             else true)
  | Cand (t1, t2) ->
      cond_on_span pg nodes edges (i, j, mu) t1
      && cond_on_span pg nodes edges (i, j, mu) t2
  | Cor (t1, t2) ->
      cond_on_span pg nodes edges (i, j, mu) t1
      || cond_on_span pg nodes edges (i, j, mu) t2
  | Cnot t -> not (cond_on_span pg nodes edges (i, j, mu) t)
  | Ckey _ | Ckey_const _ | Clabel _ -> Coregql.cond_holds pg mu theta

let match_positions pg pattern path =
  if not (Path.starts_with_node path && Path.ends_with_node path) then []
  else
    let nodes, edges = path_arrays path in
    spans pg nodes edges pattern

let match_on_path pg pattern path =
  let nodes, _ = path_arrays path in
  let last = Array.length nodes - 1 in
  match_positions pg pattern path
  |> List.filter_map (fun (i, j, mu) ->
         if i = 0 && j = last then Some mu else None)
  |> List.sort_uniq Stdlib.compare

let matches_path pg pattern path = match_on_path pg pattern path <> []

(* All trails of a graph, as node-to-node paths (includes single nodes).
   One governor step per trail extension — there can be factorially
   many. *)
let all_trails gov g =
  let acc = ref [] in
  let visited = Array.make (max 1 (Elg.nb_edges g)) false in
  let rec go v rev_objs =
    acc := List.rev rev_objs :: !acc;
    Elg.iter_out g v (fun e ->
        if (not visited.(e)) && Governor.tick gov then begin
          visited.(e) <- true;
          go (Elg.tgt g e) (Path.N (Elg.tgt g e) :: Path.E e :: rev_objs);
          visited.(e) <- false
        end)
  in
  for v = 0 to Elg.nb_nodes g - 1 do
    if Governor.ok gov then go v [ Path.N v ]
  done;
  List.rev_map (Path.of_objs_exn g) !acc

let matching_trails_gov gov pg pattern =
  let g = Pg.elg pg in
  List.filter
    (fun p ->
      Governor.ok gov && matches_path pg pattern p && Governor.emit gov)
    (all_trails gov g)
  |> List.sort_uniq Path.compare

let matching_trails_bounded gov pg pattern =
  Governor.seal gov (matching_trails_gov gov pg pattern)

let matching_trails pg pattern =
  Governor.value (matching_trails_bounded (Governor.unlimited ()) pg pattern)

let all_paths_upto gov g ~max_len =
  let acc = ref [] in
  let rec go v rev_objs len =
    acc := List.rev rev_objs :: !acc;
    if len < max_len then
      Elg.iter_out g v (fun e ->
          if Governor.tick gov then
            go (Elg.tgt g e)
              (Path.N (Elg.tgt g e) :: Path.E e :: rev_objs)
              (len + 1))
  in
  for v = 0 to Elg.nb_nodes g - 1 do
    if Governor.ok gov then go v [ Path.N v ] 0
  done;
  List.rev_map (Path.of_objs_exn g) !acc

let matching_paths_upto_gov gov pg pattern ~max_len =
  let g = Pg.elg pg in
  List.filter
    (fun p ->
      Governor.ok gov && matches_path pg pattern p && Governor.emit gov)
    (all_paths_upto gov g ~max_len)
  |> List.sort_uniq Path.compare

let matching_paths_upto_bounded gov pg pattern ~max_len =
  Governor.seal gov (matching_paths_upto_gov gov pg pattern ~max_len)

let matching_paths_upto pg pattern ~max_len =
  Governor.value
    (matching_paths_upto_bounded (Governor.unlimited ()) pg pattern ~max_len)

let except paths1 paths2 =
  List.filter (fun p -> not (List.exists (Path.equal p) paths2)) paths1
