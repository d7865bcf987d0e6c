type t = {
  elg : Elg.t;
  node_lbl : string array;
  node_props : (string * Value.t) list array;
  edge_props : (string * Value.t) list array;
}

let make ~nodes ~edges =
  let elg =
    Elg.make
      ~nodes:(List.map (fun (name, _, _) -> name) nodes)
      ~edges:(List.map (fun (name, s, a, t, _) -> (name, s, a, t)) edges)
  in
  (* Dense ids follow declaration order, so the property arrays fill by
     position. *)
  {
    elg;
    node_lbl = Array.of_list (List.map (fun (_, lbl, _) -> lbl) nodes);
    node_props = Array.of_list (List.map (fun (_, _, props) -> props) nodes);
    edge_props = Array.of_list (List.map (fun (_, _, _, _, props) -> props) edges);
  }

let elg g = g.elg
let node_label g n = g.node_lbl.(n)

let obj_label g = function
  | Path.N n -> g.node_lbl.(n)
  | Path.E e -> Elg.label g.elg e

let node_prop g n key = List.assoc_opt key g.node_props.(n)
let edge_prop g e key = List.assoc_opt key g.edge_props.(e)

let prop g o key =
  match o with
  | Path.N n -> node_prop g n key
  | Path.E e -> edge_prop g e key

let props_of g = function
  | Path.N n -> g.node_props.(n)
  | Path.E e -> g.edge_props.(e)

let active_domain g =
  let add acc props = List.fold_left (fun acc (_, v) -> v :: acc) acc props in
  let vals = Array.fold_left add [] g.node_props in
  let vals = Array.fold_left add vals g.edge_props in
  List.sort_uniq Value.compare vals

(* --- delta application --------------------------------------------------- *)

type delta_op =
  | Add_edge of {
      name : string;
      src : string;
      label : string;
      tgt : string;
      props : (string * Value.t) list;
    }
  | Del_edge of string
  | Del_node of string

type add = {
  a_name : string;
  a_src : string;
  a_label : string;
  a_tgt : string;
  a_props : (string * Value.t) list;
}

type applied = {
  ap_pg : t;
  ap_summary : Elg.delta_summary;
  ap_adds : (string * string * string * string) list;
  ap_dels : int list;
}

let apply_delta_res g ops =
  let elg0 = g.elg in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  try
    (* Sequential semantics over the batch: [add e] then [del e] nets out
       (though implicit nodes the add introduced persist, exactly as under
       op-at-a-time application); [del e] frees the name for a later add.
       [deln v] drops the node together with every incident edge that is
       alive at that point — pending adds touching it are cancelled, and
       its name is freed for a later implicit re-creation. *)
    (* One pass over the base edge names resolves every edge name the
       batch mentions; from here on base edges are dense ids. *)
    let base =
      Elg.find_edges elg0
        (List.filter_map
           (function
             | Add_edge { name; _ } | Del_edge name -> Some name
             | Del_node _ -> None)
           ops)
    in
    let node_in_base name =
      match Elg.node_id elg0 name with
      | _ -> true
      | exception Not_found -> false
    in
    let deleted = Hashtbl.create 8 (* base edge ids *) in
    let dels = ref [] (* base edge ids, newest first *) in
    let live_base name =
      match Hashtbl.find_opt base name with
      | Some e when not (Hashtbl.mem deleted e) -> Some e
      | _ -> None
    in
    let delete e =
      Hashtbl.add deleted e ();
      dels := e :: !dels
    in
    let pending = Hashtbl.create 8 in
    let adds = ref [] (* newest first *) in
    let new_node_set = Hashtbl.create 8 in
    let new_nodes = ref [] (* newest first *) in
    let deleted_nodes = Hashtbl.create 8 in
    let del_nodes = ref [] (* base node ids, newest first *) in
    let note_node name =
      if
        not
          ((node_in_base name && not (Hashtbl.mem deleted_nodes name))
          || Hashtbl.mem new_node_set name)
      then begin
        Hashtbl.add new_node_set name ();
        new_nodes := name :: !new_nodes
      end
    in
    (* Drop every pending add touching [name] (its incident unapplied
       edges die with it). *)
    let cancel_incident name =
      adds :=
        List.filter
          (fun a ->
            if a.a_src = name || a.a_tgt = name then begin
              Hashtbl.remove pending a.a_name;
              false
            end
            else true)
          !adds
    in
    List.iter
      (function
        | Add_edge { name; src; label; tgt; props } ->
            if live_base name <> None || Hashtbl.mem pending name then
              bad "duplicate edge %s" name;
            note_node src;
            note_node tgt;
            Hashtbl.add pending name ();
            adds :=
              {
                a_name = name;
                a_src = src;
                a_label = label;
                a_tgt = tgt;
                a_props = props;
              }
              :: !adds
        | Del_edge name -> (
            if Hashtbl.mem pending name then begin
              Hashtbl.remove pending name;
              adds := List.filter (fun a -> a.a_name <> name) !adds
            end
            else
              match live_base name with
              | Some e -> delete e
              | None -> bad "unknown edge %s" name)
        | Del_node name ->
            if Hashtbl.mem new_node_set name then begin
              (* A node this very batch introduced: cancel it and its
                 pending edges; nothing reaches the base graph. *)
              Hashtbl.remove new_node_set name;
              new_nodes := List.filter (fun n -> n <> name) !new_nodes;
              cancel_incident name
            end
            else if node_in_base name && not (Hashtbl.mem deleted_nodes name)
            then begin
              let v = Elg.node_id elg0 name in
              Hashtbl.add deleted_nodes name ();
              del_nodes := v :: !del_nodes;
              cancel_incident name;
              (* Surviving base edges incident to the node die with it. *)
              let bury e = if not (Hashtbl.mem deleted e) then delete e in
              Elg.iter_out elg0 v bury;
              Elg.iter_in elg0 v bury
            end
            else bad "unknown node %s" name)
      ops;
    let add_edges =
      List.rev_map (fun a -> (a.a_name, a.a_src, a.a_label, a.a_tgt)) !adds
    in
    let dels = List.rev !dels in
    match
      Elg.apply_delta elg0 ~new_nodes:(List.rev !new_nodes) ~add_edges
        ~del_edges:dels ~del_nodes:(List.rev !del_nodes)
    with
    | Error e -> Error e
    | Ok (elg, summary) ->
        (* Node-side arrays are shared when no node was introduced or
           removed; otherwise survivors compact exactly as in
           {!Elg.apply_delta} and implicit nodes get the empty label and
           no properties, matching the text format. *)
        let node_lbl, node_props =
          if summary.Elg.added_nodes = 0 && summary.Elg.removed_nodes = 0 then
            (g.node_lbl, g.node_props)
          else begin
            let n = Elg.nb_nodes elg in
            let lbls = Array.make n "" and props = Array.make n [] in
            let dead_node = Array.make (max 1 (Elg.nb_nodes elg0)) false in
            List.iter (fun v -> dead_node.(v) <- true) !del_nodes;
            let k = ref 0 in
            for v = 0 to Elg.nb_nodes elg0 - 1 do
              if not dead_node.(v) then begin
                lbls.(!k) <- g.node_lbl.(v);
                props.(!k) <- g.node_props.(v);
                incr k
              end
            done;
            (lbls, props)
          end
        in
        let edge_props = Array.make (Elg.nb_edges elg) [] in
        let dead = Array.make (max 1 (Elg.nb_edges elg0)) false in
        List.iter (fun e -> dead.(e) <- true) dels;
        let k = ref 0 in
        for e = 0 to Elg.nb_edges elg0 - 1 do
          if not dead.(e) then begin
            edge_props.(!k) <- g.edge_props.(e);
            incr k
          end
        done;
        List.iter
          (fun a ->
            edge_props.(!k) <- a.a_props;
            incr k)
          (List.rev !adds);
        Ok
          {
            ap_pg = { elg; node_lbl; node_props; edge_props };
            ap_summary = summary;
            ap_adds = add_edges;
            ap_dels = dels;
          }
  with Bad s -> Error s

(* --- binary pack --------------------------------------------------------- *)

type pack = {
  pk_elg : Elg.pack;
  pk_node_lbl : string array;
  pk_node_props : (string * Value.t) list array;
  pk_edge_props : (string * Value.t) list array;
}

let pack g =
  {
    pk_elg = Elg.pack g.elg;
    pk_node_lbl = g.node_lbl;
    pk_node_props = g.node_props;
    pk_edge_props = g.edge_props;
  }

let of_pack_res p =
  match Elg.of_pack_res p.pk_elg with
  | Error _ as e -> e
  | Ok elg ->
      if
        Array.length p.pk_node_lbl <> Elg.nb_nodes elg
        || Array.length p.pk_node_props <> Elg.nb_nodes elg
        || Array.length p.pk_edge_props <> Elg.nb_edges elg
      then Error "property array lengths disagree"
      else
        Ok
          {
            elg;
            node_lbl = p.pk_node_lbl;
            node_props = p.pk_node_props;
            edge_props = p.pk_edge_props;
          }

let pp fmt g =
  let e = g.elg in
  Format.fprintf fmt "@[<v>property graph (%d nodes, %d edges)@,"
    (Elg.nb_nodes e) (Elg.nb_edges e);
  let pp_props fmt props =
    List.iter
      (fun (k, v) -> Format.fprintf fmt " %s=%s" k (Value.to_string v))
      props
  in
  for n = 0 to Elg.nb_nodes e - 1 do
    Format.fprintf fmt "(%s:%s)%a@," (Elg.node_name e n) g.node_lbl.(n)
      pp_props g.node_props.(n)
  done;
  for i = 0 to Elg.nb_edges e - 1 do
    Format.fprintf fmt "%s: %s -[%s]-> %s%a@," (Elg.edge_name e i)
      (Elg.node_name e (Elg.src e i))
      (Elg.label e i)
      (Elg.node_name e (Elg.tgt e i))
      pp_props g.edge_props.(i)
  done;
  Format.fprintf fmt "@]"
