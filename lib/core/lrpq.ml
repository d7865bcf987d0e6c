type atom = { sym : Sym.t; capture : string option }
type t = atom Regex.t

let atom ?capture sym = Regex.atom { sym; capture }
let lbl a = atom (Sym.Lbl a)
let cap a z = atom ~capture:z (Sym.Lbl a)
let cap_any z = atom ~capture:z Sym.Any
let any = atom Sym.Any

let vars r =
  Regex.atoms r
  |> List.filter_map (fun a -> a.capture)
  |> List.sort_uniq String.compare

let strip r = Regex.map (fun a -> a.sym) r

(* Depth-first search over the annotated product: one recursion branch per
   run, accumulating the path and the binding.  One governor step per
   edge extension; a tripped budget unwinds the whole search. *)
let search gov g nfa ~src ~max_len ~node_once ~edge_once ~emit =
  let visited_nodes = Array.make (Elg.nb_nodes g) false in
  let visited_edges = Array.make (max 1 (Elg.nb_edges g)) false in
  let rec go q node rev_objs binding len =
    if nfa.Nfa.finals.(q) then emit (List.rev rev_objs) binding node len;
    if len < max_len then
      Elg.iter_out g node (fun e ->
          let w = Elg.tgt g e in
          let node_ok = (not node_once) || not visited_nodes.(w) in
          let edge_ok = (not edge_once) || not visited_edges.(e) in
          if node_ok && edge_ok && Governor.tick gov then
            List.iter
              (fun (a, q') ->
                if Sym.matches a.sym (Elg.label g e) then begin
                  let binding' =
                    match a.capture with
                    | None -> binding
                    | Some z ->
                        Lbinding.concat binding
                          (Lbinding.singleton z (Path.E e))
                  in
                  if node_once then visited_nodes.(w) <- true;
                  if edge_once then visited_edges.(e) <- true;
                  go q' w
                    (Path.N w :: Path.E e :: rev_objs)
                    binding' (len + 1);
                  if node_once then visited_nodes.(w) <- false;
                  if edge_once then visited_edges.(e) <- false
                end)
              nfa.Nfa.delta.(q))
  in
  visited_nodes.(src) <- true;
  List.iter
    (fun q0 -> go q0 src [ Path.N src ] Lbinding.empty 0)
    nfa.Nfa.initials

let dedup results =
  List.sort_uniq
    (fun (p1, m1) (p2, m2) ->
      match Path.compare p1 p2 with 0 -> Lbinding.compare m1 m2 | c -> c)
    results

let enumerate_from_gov gov g r ~src ~max_len =
  let nfa = Nfa.of_regex r in
  let acc = ref [] in
  search gov g nfa ~src ~max_len ~node_once:false ~edge_once:false
    ~emit:(fun objs binding _node _len ->
      if Governor.emit gov then
        acc := (Path.of_objs_exn g objs, binding) :: !acc);
  dedup !acc

let enumerate_from_bounded gov g r ~src ~max_len =
  Governor.seal gov (enumerate_from_gov gov g r ~src ~max_len)

let enumerate_from g r ~src ~max_len =
  Governor.value
    (enumerate_from_bounded (Governor.unlimited ()) g r ~src ~max_len)

(* Each source's answers are deduplicated and sorted, and every path
   starts at its source, so concatenating them in ascending source order
   is already sorted and duplicate-free. *)
let enumerate_bounded gov g r ~max_len =
  let results =
    List.concat
      (List.init (Elg.nb_nodes g) (fun src ->
           if Governor.ok gov then enumerate_from_gov gov g r ~src ~max_len
           else []))
  in
  Governor.seal gov results

let enumerate g r ~max_len =
  Governor.value (enumerate_bounded (Governor.unlimited ()) g r ~max_len)

let pairs g r = Rpq_eval.pairs g (strip r)

let pairs_bounded gov g r = Rpq_eval.pairs_bounded gov g (strip r)

let collect_between gov g nfa ~src ~tgt ~max_len ~node_once ~edge_once =
  let acc = ref [] in
  search gov g nfa ~src ~max_len ~node_once ~edge_once
    ~emit:(fun objs binding node len ->
      if node = tgt && Governor.emit gov then
        acc := (Path.of_objs_exn g objs, binding, len) :: !acc);
  !acc

let eval_mode_gov gov g r ~mode ~max_len ~src ~tgt =
  let nfa = Nfa.of_regex r in
  match (mode : Path_modes.mode) with
  | All ->
      collect_between gov g nfa ~src ~tgt ~max_len ~node_once:false
        ~edge_once:false
      |> List.map (fun (p, m, _) -> (p, m))
      |> dedup
  | Simple ->
      collect_between gov g nfa ~src ~tgt
        ~max_len:(min max_len (Elg.nb_nodes g - 1))
        ~node_once:true ~edge_once:false
      |> List.map (fun (p, m, _) -> (p, m))
      |> dedup
  | Trail ->
      collect_between gov g nfa ~src ~tgt
        ~max_len:(min max_len (Elg.nb_edges g))
        ~node_once:false ~edge_once:true
      |> List.map (fun (p, m, _) -> (p, m))
      |> dedup
  | Shortest -> (
      (* The geodesic length comes from the (capture-free) product BFS; we
         then enumerate every run of exactly that length. *)
      match
        Governor.payload ~default:None
          (Rpq_eval.shortest_witness_bounded gov g (strip r) ~src ~tgt)
      with
      | None -> []
      | Some witness ->
          let d = Path.len witness in
          collect_between gov g nfa ~src ~tgt ~max_len:d ~node_once:false
            ~edge_once:false
          |> List.filter_map (fun (p, m, len) ->
                 if len = d then Some (p, m) else None)
          |> dedup)

let eval_mode_bounded gov g r ~mode ~max_len ~src ~tgt =
  Governor.seal gov (eval_mode_gov gov g r ~mode ~max_len ~src ~tgt)

let eval_mode g r ~mode ~max_len ~src ~tgt =
  Governor.value
    (eval_mode_bounded (Governor.unlimited ()) g r ~mode ~max_len ~src ~tgt)

let to_pmr ?obs g r ~src ~tgt =
  Pmr.of_nfa ?obs g (Nfa.map_atoms (fun a -> a.sym) (Nfa.of_regex r)) ~src ~tgt

let atom_to_string a =
  match a.capture with
  | None -> Sym.to_string a.sym
  | Some z -> Printf.sprintf "%s^%s" (Sym.to_string a.sym) z

let to_string r = Regex.to_string atom_to_string r
