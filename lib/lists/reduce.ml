type reducer = {
  empty : Value.t;
  single : Path.obj -> Value.t;
  combine : Path.obj -> Value.t -> Value.t;
}

let rec reduce r = function
  | [] -> r.empty
  | [ x ] -> r.single x
  | x :: rest -> r.combine x (reduce r rest)

let int_prop pg prop obj =
  match Pg.prop pg obj prop with Some (Value.Int n) -> n | _ -> 0

let sum_reducer pg ~prop =
  {
    empty = Value.Int 0;
    single = (fun o -> Value.Int (int_prop pg prop o));
    combine =
      (fun o v ->
        match v with
        | Value.Int n -> Value.Int (int_prop pg prop o + n)
        | _ -> Value.Int (int_prop pg prop o));
  }

let increasing_reducer pg ~prop =
  let value o = int_prop pg prop o in
  {
    empty = Value.Int 0;
    single = (fun o -> Value.Int (value o));
    combine =
      (fun o v ->
        match v with
        | Value.Int rest when rest >= 0 && value o >= 0 && value o < rest ->
            Value.Int (value o)
        | _ -> Value.Int (-1));
  }

let trails_between pg ~src ~tgt =
  let g = Pg.elg pg in
  let acc = ref [] in
  let visited = Array.make (max 1 (Elg.nb_edges g)) false in
  let rec go v rev_objs =
    if v = tgt then acc := List.rev rev_objs :: !acc;
    Elg.iter_out g v (fun e ->
        if not visited.(e) then begin
          visited.(e) <- true;
          go (Elg.tgt g e) (Path.N (Elg.tgt g e) :: Path.E e :: rev_objs);
          visited.(e) <- false
        end)
  in
  go src [ Path.N src ];
  List.rev_map (Path.of_objs_exn g) !acc

let filter_paths _pg paths reducer ~pred =
  List.filter
    (fun p -> pred (reduce reducer (List.map (fun e -> Path.E e) (Path.edges p))))
    paths

let candidates_examined pg ~src ~tgt = List.length (trails_between pg ~src ~tgt)

let subset_sum_via_reduce pg ~target =
  let g = Pg.elg pg in
  let src = 0 and tgt = Elg.nb_nodes g - 1 in
  let r = sum_reducer pg ~prop:"k" in
  match
    filter_paths pg (trails_between pg ~src ~tgt) r ~pred:(fun v ->
        v = Value.Int target)
  with
  | p :: _ -> Some p
  | [] -> None

let subset_sum_dp items ~target =
  if target < 0 then false
  else begin
    let reachable = Array.make (target + 1) false in
    reachable.(0) <- true;
    List.iter
      (fun item ->
        if item >= 0 then
          for s = target downto item do
            if reachable.(s - item) then reachable.(s) <- true
          done)
      items;
    reachable.(target)
  end

let shortest_paths paths =
  match paths with
  | [] -> []
  | _ ->
      let best = List.fold_left (fun acc p -> min acc (Path.len p)) max_int paths in
      List.filter (fun p -> Path.len p = best) paths

let shortest_then_filter pg paths reducer ~pred =
  filter_paths pg (shortest_paths paths) reducer ~pred

let filter_then_shortest pg paths reducer ~pred =
  shortest_paths (filter_paths pg paths reducer ~pred)
