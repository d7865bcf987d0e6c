type cond = Eq of int | Neq of int | Lt of int | Gt of int

type transition = {
  source : int;
  label : Sym.t;
  conds : cond list;
  store : int option;
  target : int;
}

type t = {
  nb_states : int;
  nb_registers : int;
  initial : int;
  init_store : int option;
  finals : bool array;
  transitions : transition list;
}

let make ~nb_states ~nb_registers ~initial ?init_store ~finals ~transitions () =
  let state_ok q = q >= 0 && q < nb_states in
  let reg_ok i = i >= 0 && i < nb_registers in
  if not (state_ok initial) then invalid_arg "Register.make: bad initial state";
  (match init_store with
  | Some i when not (reg_ok i) -> invalid_arg "Register.make: bad init register"
  | Some _ | None -> ());
  List.iter
    (fun q -> if not (state_ok q) then invalid_arg "Register.make: bad final state")
    finals;
  List.iter
    (fun tr ->
      if not (state_ok tr.source && state_ok tr.target) then
        invalid_arg "Register.make: bad transition state";
      (match tr.store with
      | Some i when not (reg_ok i) -> invalid_arg "Register.make: bad store register"
      | Some _ | None -> ());
      List.iter
        (fun c ->
          let i = match c with Eq i | Neq i | Lt i | Gt i -> i in
          if not (reg_ok i) then invalid_arg "Register.make: bad condition register")
        tr.conds)
    transitions;
  let final_flags = Array.make nb_states false in
  List.iter (fun q -> final_flags.(q) <- true) finals;
  { nb_states; nb_registers; initial; init_store; finals = final_flags; transitions }

(* Register banks are short arrays of value options; configurations are
   hashed structurally. *)
let cond_holds regs value c =
  let against op i =
    match regs.(i) with Some r -> Value.test op value r | None -> false
  in
  match c with
  | Eq i -> against Value.Eq i
  | Neq i -> against Value.Neq i
  | Lt i -> against Value.Lt i
  | Gt i -> against Value.Gt i

let eval_from_stats pg ~prop ra ~src =
  let g = Pg.elg pg in
  let by_state = Array.make ra.nb_states [] in
  List.iter (fun tr -> by_state.(tr.source) <- tr :: by_state.(tr.source)) ra.transitions;
  let init_regs = Array.make (max 1 ra.nb_registers) None in
  (match (ra.init_store, Pg.node_prop pg src prop) with
  | Some i, Some v -> init_regs.(i) <- Some v
  | Some _, None | None, _ -> ());
  let seen : (int * int * Value.t option array, unit) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  let push node state regs =
    let key = (node, state, regs) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      Queue.add key queue
    end
  in
  push src ra.initial init_regs;
  let explored = ref 0 in
  let reached = Array.make (Elg.nb_nodes g) false in
  while not (Queue.is_empty queue) do
    let node, state, regs = Queue.pop queue in
    incr explored;
    if ra.finals.(state) then reached.(node) <- true;
    Elg.iter_out g node (fun e ->
        let w = Elg.tgt g e in
        List.iter
          (fun tr ->
            if Sym.matches tr.label (Elg.label g e) then
              match Pg.node_prop pg w prop with
              | Some value when List.for_all (cond_holds regs value) tr.conds ->
                  let regs' =
                    match tr.store with
                    | None -> regs
                    | Some i ->
                        let copy = Array.copy regs in
                        copy.(i) <- Some value;
                        copy
                  in
                  push w tr.target regs'
              | Some _ -> ()
              | None ->
                  (* A node without the property fails all conditions and
                     stores nothing; it can still be traversed by a
                     condition-free, store-free transition. *)
                  if tr.conds = [] && tr.store = None then push w tr.target regs)
          by_state.(state))
  done;
  let results = ref [] in
  for v = Elg.nb_nodes g - 1 downto 0 do
    if reached.(v) then results := v :: !results
  done;
  (!results, !explored)

let eval_from pg ~prop ra ~src = fst (eval_from_stats pg ~prop ra ~src)

let pairs pg ~prop ra =
  let g = Pg.elg pg in
  List.concat_map
    (fun src -> List.map (fun v -> (src, v)) (eval_from pg ~prop ra ~src))
    (List.init (Elg.nb_nodes g) Fun.id)
  |> List.sort_uniq Stdlib.compare

let check pg ~prop ra ~src ~tgt = List.mem tgt (eval_from pg ~prop ra ~src)

let increasing ~label =
  make ~nb_states:1 ~nb_registers:1 ~initial:0 ~init_store:0 ~finals:[ 0 ]
    ~transitions:[ { source = 0; label; conds = [ Gt 0 ]; store = Some 0; target = 0 } ]
    ()
