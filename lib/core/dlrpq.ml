type kind = Knode | Kedge

type atom =
  | Lbl of kind * Sym.t * string option
  | Test of kind * Etest.t

type t = atom Regex.t

let node_lbl a = Regex.atom (Lbl (Knode, Sym.Lbl a, None))
let node_cap a z = Regex.atom (Lbl (Knode, Sym.Lbl a, Some z))
let node_test et = Regex.atom (Test (Knode, et))
let node_any = Regex.atom (Lbl (Knode, Sym.Any, None))
let node_any_cap z = Regex.atom (Lbl (Knode, Sym.Any, Some z))
let edge_lbl a = Regex.atom (Lbl (Kedge, Sym.Lbl a, None))
let edge_cap a z = Regex.atom (Lbl (Kedge, Sym.Lbl a, Some z))
let edge_test et = Regex.atom (Test (Kedge, et))
let edge_any = Regex.atom (Lbl (Kedge, Sym.Any, None))
let edge_any_cap z = Regex.atom (Lbl (Kedge, Sym.Any, Some z))

let list_vars r =
  Regex.atoms r
  |> List.filter_map (function Lbl (_, _, z) -> z | Test _ -> None)
  |> List.sort_uniq String.compare

let data_vars r =
  Regex.atoms r
  |> List.concat_map (function Lbl _ -> [] | Test (_, et) -> Etest.vars et)
  |> List.sort_uniq String.compare

let atom_to_string a =
  let wrap kind body =
    match kind with
    | Knode -> "(" ^ body ^ ")"
    | Kedge -> "[" ^ body ^ "]"
  in
  match a with
  | Lbl (kind, sym, None) -> wrap kind (Sym.to_string sym)
  | Lbl (kind, sym, Some z) -> wrap kind (Sym.to_string sym ^ "^" ^ z)
  | Test (kind, et) -> wrap kind (Etest.to_string et)

let to_string r = Regex.to_string atom_to_string r

(* --- Value assignments ν ----------------------------------------------- *)

module Valu = struct
  (* Sorted association list: canonical, so usable as a hash key. *)
  type t = (string * Value.t) list

  let empty : t = []
  let get (v : t) x = List.assoc_opt x v

  let set (v : t) x c : t =
    let rec go = function
      | [] -> [ (x, c) ]
      | (y, d) :: rest ->
          let cmp = String.compare x y in
          if cmp < 0 then (x, c) :: (y, d) :: rest
          else if cmp = 0 then (x, c) :: rest
          else (y, d) :: go rest
    in
    go v
end

(* Applying an atom to an object: [None] on failure, otherwise the updated
   assignment and an optional capture variable. *)
let apply_atom pg atom obj valu =
  let kind_ok kind =
    match (kind, obj) with
    | Knode, Path.N _ | Kedge, Path.E _ -> true
    | Knode, Path.E _ | Kedge, Path.N _ -> false
  in
  match atom with
  | Lbl (kind, sym, cap) ->
      if kind_ok kind && Sym.matches sym (Pg.obj_label pg obj) then
        Some (valu, cap)
      else None
  | Test (kind, et) ->
      if not (kind_ok kind) then None
      else (
        match et with
        | Etest.Assign (x, pname) -> (
            match Pg.prop pg obj pname with
            | Some c -> Some (Valu.set valu x c, None)
            | None -> None)
        | Etest.Cmp_const (pname, op, c) -> (
            match Pg.prop pg obj pname with
            | Some v when Value.test op v c -> Some (valu, None)
            | Some _ | None -> None)
        | Etest.Cmp_var (pname, op, x) -> (
            match (Pg.prop pg obj pname, Valu.get valu x) with
            | Some v, Some c when Value.test op v c -> Some (valu, None)
            | _, _ -> None))

let default_steps r max_len = (max_len + 2) * (Regex.size r + 2)

let extend_binding mu cap obj =
  match cap with
  | None -> mu
  | Some z -> Lbinding.concat mu (Lbinding.singleton z obj)

(* --- Enumerating ⟦R⟧_G -------------------------------------------------- *)

let search gov pg r ~start_objs ~max_len ~max_steps ~node_once ~edge_once
    ~emit =
  let g = Pg.elg pg in
  let nfa = Nfa.of_regex r in
  let visited_nodes = Array.make (Elg.nb_nodes g) false in
  let visited_edges = Array.make (max 1 (Elg.nb_edges g)) false in
  let rec go q last rev_objs valu mu len steps =
    if nfa.Nfa.finals.(q) && rev_objs <> [] then
      emit (List.rev rev_objs) mu len;
    if steps < max_steps && Governor.ok gov then
      List.iter
        (fun (atom, q') ->
          (* Collapse: re-match the last object (p · path(o) = p). *)
          (match last with
          | Some o -> (
              match apply_atom pg atom o valu with
              | Some (valu', cap) ->
                  if Governor.tick gov then
                    go q' last rev_objs valu' (extend_binding mu cap o) len
                      (steps + 1)
              | None -> ())
          | None -> ());
          (* Extend: append a fresh object. *)
          let extend o =
            let len' = match o with Path.E _ -> len + 1 | Path.N _ -> len in
            let blocked =
              match o with
              | Path.N v -> node_once && visited_nodes.(v)
              | Path.E e -> edge_once && visited_edges.(e)
            in
            if len' <= max_len && not blocked then
              match apply_atom pg atom o valu with
              | Some (valu', cap) ->
                  if Governor.tick gov then begin
                    (match o with
                    | Path.N v -> if node_once then visited_nodes.(v) <- true
                    | Path.E e -> if edge_once then visited_edges.(e) <- true);
                    go q' (Some o) (o :: rev_objs) valu'
                      (extend_binding mu cap o) len' (steps + 1);
                    match o with
                    | Path.N v -> if node_once then visited_nodes.(v) <- false
                    | Path.E e -> if edge_once then visited_edges.(e) <- false
                  end
              | None -> ()
          in
          match last with
          | None -> List.iter extend start_objs
          | Some (Path.N u) -> Elg.iter_out g u (fun e -> extend (Path.E e))
          | Some (Path.E e) -> extend (Path.N (Elg.tgt g e)))
        nfa.Nfa.delta.(q)
  in
  List.iter
    (fun q0 -> go q0 None [] Valu.empty Lbinding.empty 0 0)
    nfa.Nfa.initials

let start_objs_at g src =
  Path.N src :: List.map (fun e -> Path.E e) (Elg.out_edges g src)

let dedup results =
  List.sort_uniq
    (fun (p1, m1) (p2, m2) ->
      match Path.compare p1 p2 with 0 -> Lbinding.compare m1 m2 | c -> c)
    results

let enumerate_from_gov gov pg r ~src ~max_len ?max_steps () =
  let g = Pg.elg pg in
  let max_steps =
    match max_steps with Some s -> s | None -> default_steps r max_len
  in
  let acc = ref [] in
  search gov pg r ~start_objs:(start_objs_at g src) ~max_len ~max_steps
    ~node_once:false ~edge_once:false ~emit:(fun objs mu _len ->
      if Governor.emit gov then acc := (Path.of_objs_exn g objs, mu) :: !acc);
  dedup !acc

let enumerate_from_bounded gov pg r ~src ~max_len ?max_steps () =
  Governor.seal gov (enumerate_from_gov gov pg r ~src ~max_len ?max_steps ())

let enumerate_from pg r ~src ~max_len ?max_steps () =
  Governor.value
    (enumerate_from_bounded (Governor.unlimited ()) pg r ~src ~max_len
       ?max_steps ())

(* --- Shortest length: 0/1-BFS over configurations ---------------------- *)

(* A deque for the 0/1-BFS. *)
module Deque = struct
  type 'a t = { mutable front : 'a list; mutable back : 'a list }

  let create () = { front = []; back = [] }
  let push_front d x = d.front <- x :: d.front
  let push_back d x = d.back <- x :: d.back

  let pop d =
    match d.front with
    | x :: rest ->
        d.front <- rest;
        Some x
    | [] -> (
        match List.rev d.back with
        | [] -> None
        | x :: rest ->
            d.front <- rest;
            d.back <- [];
            Some x)
end

let shortest_len_stats_gov gov pg r ~src ~tgt =
  let g = Pg.elg pg in
  let nfa = Nfa.of_regex r in
  let dist : (int * Path.obj * Valu.t, int) Hashtbl.t = Hashtbl.create 256 in
  let deque = Deque.create () in
  let explored = ref 0 in
  (* 0/1-BFS invariant: a zero-weight relaxation goes to the front of the
     deque, a unit-weight one to the back, so pops are in nondecreasing
     distance order and the first accepting pop is optimal. *)
  let relax ~front key d =
    match Hashtbl.find_opt dist key with
    | Some d0 when d0 <= d -> ()
    | _ ->
        Hashtbl.replace dist key d;
        if front then Deque.push_front deque (key, d)
        else Deque.push_back deque (key, d)
  in
  (* Initial atom applications. *)
  List.iter
    (fun q0 ->
      List.iter
        (fun (atom, q') ->
          List.iter
            (fun o ->
              match apply_atom pg atom o Valu.empty with
              | Some (valu', _) ->
                  let w = match o with Path.E _ -> 1 | Path.N _ -> 0 in
                  relax ~front:(w = 0) (q', o, valu') w
              | None -> ())
            (start_objs_at g src))
        nfa.Nfa.delta.(q0))
    nfa.Nfa.initials;
  let best = ref None in
  let continue = ref true in
  while !continue do
    match Deque.pop deque with
    | None -> continue := false
    | Some _ when not (Governor.tick gov) -> continue := false
    | Some ((q, last, valu), d) ->
        if Hashtbl.find_opt dist (q, last, valu) = Some d then begin
          incr explored;
          let at_tgt =
            match last with
            | Path.N v -> v = tgt
            | Path.E e -> Elg.tgt g e = tgt
          in
          if nfa.Nfa.finals.(q) && at_tgt then begin
            best := Some d;
            continue := false
          end
          else
            List.iter
              (fun (atom, q') ->
                (* Collapse. *)
                (match apply_atom pg atom last valu with
                | Some (valu', _) -> relax ~front:true (q', last, valu') d
                | None -> ());
                (* Extend. *)
                let extend o =
                  match apply_atom pg atom o valu with
                  | Some (valu', _) ->
                      let w = match o with Path.E _ -> 1 | Path.N _ -> 0 in
                      relax ~front:(w = 0) (q', o, valu') (d + w)
                  | None -> ()
                in
                match last with
                | Path.N u -> Elg.iter_out g u (fun e -> extend (Path.E e))
                | Path.E e -> extend (Path.N (Elg.tgt g e)))
              nfa.Nfa.delta.(q)
        end
  done;
  (!best, !explored)

let shortest_len_stats pg r ~src ~tgt =
  shortest_len_stats_gov (Governor.unlimited ()) pg r ~src ~tgt

let shortest_len pg r ~src ~tgt = fst (shortest_len_stats pg r ~src ~tgt)

let shortest_len_bounded gov pg r ~src ~tgt =
  Governor.seal gov (fst (shortest_len_stats_gov gov pg r ~src ~tgt))

let eval_mode_gov gov pg r ~mode ~max_len ?max_steps ~src ~tgt () =
  let g = Pg.elg pg in
  let collect ~max_len ~node_once ~edge_once =
    let max_steps =
      match max_steps with Some s -> s | None -> default_steps r max_len
    in
    let acc = ref [] in
    search gov pg r ~start_objs:(start_objs_at g src) ~max_len ~max_steps
      ~node_once ~edge_once ~emit:(fun objs mu len ->
        let p = Path.of_objs_exn g objs in
        if Path.tgt g p = Some tgt && Governor.emit gov then
          acc := (p, mu, len) :: !acc);
    !acc
  in
  match (mode : Path_modes.mode) with
  | All ->
      collect ~max_len ~node_once:false ~edge_once:false
      |> List.map (fun (p, m, _) -> (p, m))
      |> dedup
  | Simple ->
      collect
        ~max_len:(min max_len (Elg.nb_nodes g - 1))
        ~node_once:true ~edge_once:false
      |> List.map (fun (p, m, _) -> (p, m))
      |> dedup
  | Trail ->
      collect
        ~max_len:(min max_len (Elg.nb_edges g))
        ~node_once:false ~edge_once:true
      |> List.map (fun (p, m, _) -> (p, m))
      |> dedup
  | Shortest -> (
      match
        Governor.payload ~default:None
          (shortest_len_bounded gov pg r ~src ~tgt)
      with
      | None -> []
      | Some d ->
          collect ~max_len:d ~node_once:false ~edge_once:false
          |> List.filter_map (fun (p, m, len) ->
                 if len = d then Some (p, m) else None)
          |> dedup)

let eval_mode_bounded gov pg r ~mode ~max_len ?max_steps ~src ~tgt () =
  Governor.seal gov (eval_mode_gov gov pg r ~mode ~max_len ?max_steps ~src ~tgt ())

let eval_mode pg r ~mode ~max_len ?max_steps ~src ~tgt () =
  Governor.value
    (eval_mode_bounded (Governor.unlimited ()) pg r ~mode ~max_len ?max_steps
       ~src ~tgt ())

(* --- Matching against a fixed path ------------------------------------- *)

let check_path ?max_steps pg r path =
  let objs = Array.of_list (Path.objs path) in
  let n = Array.length objs in
  let nfa = Nfa.of_regex r in
  (* Enough for every object to be constrained by several consecutive atoms;
     capture-stutter loops produce budget-many distinct bindings, so the
     default stays modest and callers align budgets explicitly when they
     compare against [enumerate_from]. *)
  let bound =
    match max_steps with
    | Some s -> s
    | None -> (2 * (n + 2)) + (2 * Regex.size r)
  in
  (* [suffixes q pos valu steps]: the binding suffixes produced by runs
     from this configuration to acceptance.  Memoized per configuration and
     remaining budget, so stutter loops cost linear work per distinct
     binding instead of exponential re-exploration. *)
  let memo : (int * int * Valu.t * int, Lbinding.t list) Hashtbl.t =
    Hashtbl.create 256
  in
  let prepend cap obj suffixes =
    match cap with
    | None -> suffixes
    | Some z ->
        List.map (fun mu -> Lbinding.concat (Lbinding.singleton z obj) mu) suffixes
  in
  let rec suffixes q pos valu steps =
    let key = (q, pos, valu, steps) in
    match Hashtbl.find_opt memo key with
    | Some result -> result
    | None ->
        let base = if nfa.Nfa.finals.(q) && pos = n then [ Lbinding.empty ] else [] in
        let step_results =
          if steps = 0 then []
          else
            List.concat_map
              (fun (atom, q') ->
                let collapse =
                  if pos > 0 then
                    match apply_atom pg atom objs.(pos - 1) valu with
                    | Some (valu', cap) ->
                        prepend cap objs.(pos - 1) (suffixes q' pos valu' (steps - 1))
                    | None -> []
                  else []
                in
                let advance =
                  if pos < n then
                    match apply_atom pg atom objs.(pos) valu with
                    | Some (valu', cap) ->
                        prepend cap objs.(pos) (suffixes q' (pos + 1) valu' (steps - 1))
                    | None -> []
                  else []
                in
                collapse @ advance)
              nfa.Nfa.delta.(q)
        in
        let result = List.sort_uniq Lbinding.compare (base @ step_results) in
        Hashtbl.add memo key result;
        result
  in
  List.concat_map (fun q0 -> suffixes q0 0 Valu.empty bound) nfa.Nfa.initials
  |> List.sort_uniq Lbinding.compare

let matches_path pg r path = check_path pg r path <> []
