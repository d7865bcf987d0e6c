type atom = Fwd of Sym.t | Bwd of Sym.t
type t = atom Regex.t

let fwd a = Regex.atom (Fwd (Sym.Lbl a))
let bwd a = Regex.atom (Bwd (Sym.Lbl a))
let fwd_any = Regex.atom (Fwd Sym.Any)
let bwd_any = Regex.atom (Bwd Sym.Any)

(* Reuse the one-way parser, marking backward atoms with a '^' prefix.
   Tokenizing '^label' is easiest done by a pre-pass that rewrites
   "^x" into a reserved negated-set encoding would be fragile; instead we
   parse the expression with '^' replaced by a reserved label prefix. *)
let backward_marker = "xBWDx_"

let parse src =
  let buf = Buffer.create (String.length src + 8) in
  String.iter
    (fun c ->
      if c = '^' then Buffer.add_string buf backward_marker
      else Buffer.add_char buf c)
    src;
  let one_way = Rpq_parse.parse (Buffer.contents buf) in
  Regex.map
    (fun sym ->
      match sym with
      | Sym.Lbl l ->
          let ml = String.length backward_marker in
          if String.length l > ml && String.sub l 0 ml = backward_marker then
            Bwd (Sym.Lbl (String.sub l ml (String.length l - ml)))
          else Fwd sym
      | Sym.Any | Sym.Not _ -> Fwd sym)
    one_way

(* Product walk with both adjacency directions: [f w] for every node [w]
   one [atom] step away from [v]. *)
let step g atom v f =
  match atom with
  | Fwd sym ->
      Elg.iter_out g v (fun e ->
          if Sym.matches sym (Elg.label g e) then f (Elg.tgt g e))
  | Bwd sym ->
      Elg.iter_in g v (fun e ->
          if Sym.matches sym (Elg.label g e) then f (Elg.src g e))

let from_source g r ~src =
  let nfa = Nfa.of_regex r in
  let nq = nfa.Nfa.nb_states in
  let seen = Array.make (Elg.nb_nodes g * nq) false in
  let queue = Queue.create () in
  List.iter
    (fun q0 ->
      seen.((src * nq) + q0) <- true;
      Queue.add (src, q0) queue)
    nfa.Nfa.initials;
  while not (Queue.is_empty queue) do
    let v, q = Queue.pop queue in
    List.iter
      (fun (atom, q') ->
        step g atom v (fun w ->
            if not seen.((w * nq) + q') then begin
              seen.((w * nq) + q') <- true;
              Queue.add (w, q') queue
            end))
      nfa.Nfa.delta.(q)
  done;
  let acc = ref [] in
  for v = Elg.nb_nodes g - 1 downto 0 do
    if
      List.exists
        (fun q -> nfa.Nfa.finals.(q) && seen.((v * nq) + q))
        (List.init nq Fun.id)
    then acc := v :: !acc
  done;
  !acc

let pairs g r =
  List.concat_map
    (fun src -> List.map (fun v -> (src, v)) (from_source g r ~src))
    (List.init (Elg.nb_nodes g) Fun.id)
  |> List.sort_uniq Stdlib.compare

let check g r ~src ~tgt = List.mem tgt (from_source g r ~src)

let pairs_naive g r ~max_len =
  let matches atom (dir, lbl) =
    match (atom, dir) with
    | Fwd sym, `F | Bwd sym, `B -> Sym.matches sym lbl
    | Fwd _, `B | Bwd _, `F -> false
  in
  let results = ref [] in
  let rec extend u v word len =
    if Regex.matches_word ~matches r (List.rev word) then
      results := (u, v) :: !results;
    if len < max_len then begin
      Elg.iter_out g v (fun e ->
          extend u (Elg.tgt g e) ((`F, Elg.label g e) :: word) (len + 1));
      Elg.iter_in g v (fun e ->
          extend u (Elg.src g e) ((`B, Elg.label g e) :: word) (len + 1))
    end
  in
  Elg.fold_nodes (fun u () -> extend u u [] 0) g ();
  List.sort_uniq Stdlib.compare !results

let atom_to_string = function
  | Fwd sym -> Sym.to_string sym
  | Bwd sym -> "^" ^ Sym.to_string sym

let to_string r = Regex.to_string atom_to_string r
