type endpoint = Var of string | Const of string
type atom = { re : Sym.t Regex.t; x : endpoint; y : endpoint }
type direction = Forward | Backward

type estimate = { card : float; sources : float; targets : float }

type atom_plan = {
  index : int;
  direction : direction;
  est : estimate;
  cost : float;
}

type t = { order : atom_plan list }

let sym_of = function
  | Sym.Lbl a -> Stats.Lbl a
  | Sym.Any -> Stats.Any
  | Sym.Not s -> Stats.Not s

(* Cardinality estimation by structural recursion.  All the usual
   textbook caveats apply (independence assumptions, closure heuristics);
   the planner only needs the estimates to rank rare labels below dense
   ones, never to be exact. *)
let estimate st re =
  let n = float_of_int (max 1 st.Stats.nb_nodes) in
  let cap2 = n *. n in
  let clamp e =
    {
      card = Float.min cap2 (Float.max 0. e.card);
      sources = Float.min n (Float.max 0. e.sources);
      targets = Float.min n (Float.max 0. e.targets);
    }
  in
  let rec go = function
    | Regex.Eps -> { card = n; sources = n; targets = n }
    | Regex.Atom s ->
        {
          card = float_of_int (Stats.sym_edges st (sym_of s));
          sources = float_of_int (Stats.sym_sources st (sym_of s));
          targets = float_of_int (Stats.sym_targets st (sym_of s));
        }
    | Regex.Seq (a, b) ->
        let ea = go a and eb = go b in
        (* join on the middle node: |A.B| ~ |A|*|B| / max(distinct keys) *)
        let keys = Float.max 1. (Float.max ea.targets eb.sources) in
        let card = ea.card *. eb.card /. keys in
        clamp
          {
            card;
            sources = Float.min ea.sources card;
            targets = Float.min eb.targets card;
          }
    | Regex.Alt (a, b) ->
        let ea = go a and eb = go b in
        clamp
          {
            card = ea.card +. eb.card;
            sources = ea.sources +. eb.sources;
            targets = ea.targets +. eb.targets;
          }
    | Regex.Star r ->
        let er = go r in
        (* closure heuristic: every node reaches itself; each underlying
           pair fans out by the average out-fanout, geometric growth
           capped well below the n^2 ceiling *)
        let fanout = er.card /. n in
        let card = n +. (er.card *. (1. +. Float.min 8. fanout)) in
        clamp { card; sources = n; targets = n }
  in
  clamp (go re)

let direction_of st re =
  let e = estimate st re in
  if e.targets < 0.75 *. e.sources then Backward else Forward

(* Greedy ordering: repeatedly pick the cheapest atom given which
   endpoints earlier atoms (and constants) already bound.  Bound
   endpoints divide the estimate (we evaluate per binding); an atom
   sharing no variable with the bound set while bindings exist is a
   cross product and is pushed back hard. *)
let cross_product_penalty = 1e3

let plan st atoms =
  let atoms = Array.of_list atoms in
  let k = Array.length atoms in
  let ests = Array.map (fun a -> (estimate st a.re, direction_of st a.re)) atoms in
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let is_bound = function
    | Const _ -> true
    | Var v -> Hashtbl.mem bound v
  in
  let bind = function
    | Const _ -> ()
    | Var v -> Hashtbl.replace bound v ()
  in
  let taken = Array.make k false in
  let any_vars_bound () = Hashtbl.length bound > 0 in
  let score i =
    let a = atoms.(i) in
    let e, _ = ests.(i) in
    let bx = is_bound a.x and by = is_bound a.y in
    let c = e.card in
    let c = if bx then c /. Float.max 1. e.sources else c in
    let c = if by then c /. Float.max 1. e.targets else c in
    if (not bx) && (not by) && any_vars_bound () then
      c *. cross_product_penalty
    else c
  in
  let order = ref [] in
  for _step = 1 to k do
    let best = ref (-1) and best_cost = ref infinity in
    for i = 0 to k - 1 do
      if not taken.(i) then begin
        let c = score i in
        if c < !best_cost -. 1e-9 then begin
          best := i;
          best_cost := c
        end
      end
    done;
    let i = !best in
    taken.(i) <- true;
    let e, dir = ests.(i) in
    (* Direction refinement: when exactly one endpoint is bound, start
       the BFS from the bound side regardless of the standalone guess. *)
    let bx = is_bound atoms.(i).x and by = is_bound atoms.(i).y in
    let dir =
      if bx && not by then Forward else if by && not bx then Backward else dir
    in
    bind atoms.(i).x;
    bind atoms.(i).y;
    order := { index = i; direction = dir; est = e; cost = !best_cost } :: !order
  done;
  { order = List.rev !order }

let variable_order atoms plan =
  let atoms = Array.of_list atoms in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let out = ref [] in
  let note = function
    | Const _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          out := v :: !out
        end
  in
  List.iter
    (fun ap ->
      let a = atoms.(ap.index) in
      note a.x;
      note a.y)
    plan.order;
  List.rev !out

let direction_to_string = function Forward -> "forward" | Backward -> "backward"
