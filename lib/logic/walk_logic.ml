type formula =
  | Exists_node of string * formula
  | Exists_edge of string * formula
  | Exists_path of string * string * string * formula
  | On of string * string
  | Before of string * string * string
  | Label of string * string
  | Prop of string * string * Value.op * Value.t
  | Prop2 of string * string * Value.op * string * string
  | Eq of string * string
  | And of formula * formula
  | Or of formula * formula
  | Not of formula
  | True

let forall_node x phi = Not (Exists_node (x, Not phi))
let forall_edge x phi = Not (Exists_edge (x, Not phi))
let forall_path p x y phi = Not (Exists_path (p, x, y, Not phi))
let implies a b = Or (Not a, b)

type value = Obj of Path.obj | Pth of Path.t

let lookup env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Walk_logic: unbound variable %s" x)

let obj_of env x =
  match lookup env x with
  | Obj o -> o
  | Pth _ -> invalid_arg (Printf.sprintf "Walk_logic: %s is a path variable" x)

let path_of env x =
  match lookup env x with
  | Pth p -> p
  | Obj _ -> invalid_arg (Printf.sprintf "Walk_logic: %s is an object variable" x)

let node_of env x =
  match obj_of env x with
  | Path.N n -> n
  | Path.E _ -> invalid_arg (Printf.sprintf "Walk_logic: %s is not a node" x)

(* All node-to-node walks from src to tgt of length <= max_len. *)
let paths_between g ~max_len ~src ~tgt =
  let acc = ref [] in
  let rec go v rev_objs len =
    if v = tgt then acc := List.rev rev_objs :: !acc;
    if len < max_len then
      Elg.iter_out g v (fun e ->
          go (Elg.tgt g e) (Path.N (Elg.tgt g e) :: Path.E e :: rev_objs) (len + 1))
  in
  go src [ Path.N src ] 0;
  List.rev_map (Path.of_objs_exn g) !acc

let first_position objs o =
  let rec go i = function
    | [] -> None
    | o' :: rest -> if o' = o then Some i else go (i + 1) rest
  in
  go 0 objs

let check pg ~max_len formula =
  let g = Pg.elg pg in
  let rec sat env = function
    | True -> true
    | And (a, b) -> sat env a && sat env b
    | Or (a, b) -> sat env a || sat env b
    | Not a -> not (sat env a)
    | Eq (x, y) -> lookup env x = lookup env y
    | Label (x, l) -> String.equal (Pg.obj_label pg (obj_of env x)) l
    | Prop (x, k, op, c) -> (
        match Pg.prop pg (obj_of env x) k with
        | Some v -> Value.test op v c
        | None -> false)
    | Prop2 (x, k, op, y, k') -> (
        match (Pg.prop pg (obj_of env x) k, Pg.prop pg (obj_of env y) k') with
        | Some v1, Some v2 -> Value.test op v1 v2
        | _, _ -> false)
    | On (x, p) -> List.mem (obj_of env x) (Path.objs (path_of env p))
    | Before (x, y, p) -> (
        let objs = Path.objs (path_of env p) in
        match (first_position objs (obj_of env x), first_position objs (obj_of env y)) with
        | Some i, Some j -> i < j
        | _, _ -> false)
    | Exists_node (x, phi) ->
        List.exists
          (fun n -> sat ((x, Obj (Path.N n)) :: env) phi)
          (List.init (Elg.nb_nodes g) Fun.id)
    | Exists_edge (x, phi) ->
        List.exists
          (fun e -> sat ((x, Obj (Path.E e)) :: env) phi)
          (List.init (Elg.nb_edges g) Fun.id)
    | Exists_path (p, x, y, phi) ->
        let src = node_of env x and tgt = node_of env y in
        List.exists
          (fun path -> sat ((p, Pth path) :: env) phi)
          (paths_between g ~max_len ~src ~tgt)
  in
  sat [] formula
