type t = {
  stamp : int; (* process-unique id; serves as the cache generation *)
  nb_nodes : int;
  nb_edges : int;
  src : int array;
  tgt : int array;
  node_names : string array;
  edge_names : string array;
  node_ids : (string, int) Hashtbl.t;
  (* --- interning + CSR index --------------------------------------------- *)
  nb_labels : int;
  label_names : string array; (* sorted distinct labels; id = index *)
  label_ids : (string, int) Hashtbl.t;
  elbl : int array; (* edge -> label id *)
  out_off : int array; (* nb_nodes+1 offsets into out_csr / out_lbl_csr *)
  out_csr : int array; (* edge ids grouped by source, declaration order *)
  in_off : int array;
  in_csr : int array; (* edge ids grouped by target, declaration order *)
  (* Label-partitioned view: the same per-node spans as [out_csr], but
     within a node the edges are grouped by label id (declaration order
     within a group).  [dir_*] is a sparse per-node directory of the
     labels present: node [v] owns directory entries
     [dir_off.(v) .. dir_off.(v+1) - 1]; entry [i] says label
     [dir_lbl.(i)]'s edges start at [dir_start.(i)] in [out_lbl_csr] and
     run to the next entry's start (or the node's span end). *)
  out_lbl_csr : int array;
  dir_off : int array;
  dir_lbl : int array;
  dir_start : int array;
}

(* --- index construction --------------------------------------------------- *)

(* Counting-sort offsets: [off.(k) .. off.(k+1) - 1] is the slot range of
   key [k] among the [Array.length key] items. *)
let offsets nb_keys key =
  let off = Array.make (nb_keys + 1) 0 in
  Array.iter (fun k -> off.(k + 1) <- off.(k + 1) + 1) key;
  for k = 1 to nb_keys do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  off

(* Stable placement: the edges of [order] grouped by [key.(e)] into the
   slots [off] describes, keeping [order] within a group. *)
let place off key order =
  let fill = Array.copy off in
  let out = Array.make (Array.length order) 0 in
  Array.iter
    (fun e ->
      let k = key.(e) in
      out.(fill.(k)) <- e;
      fill.(k) <- fill.(k) + 1)
    order;
  out

(* CSR + label partition from interned arrays: counting sorts and linear
   passes over int arrays only — no string hashing, no per-node
   allocation.  Grouping the label-sorted edge sequence by source gives
   each node's span ordered by (label id, declaration order), which is
   exactly the label partition; the directory then records where each
   label run starts. *)
let index_of_elbl ~nb_nodes ~src ~tgt ~elbl ~nb_labels =
  let ids = Array.init (Array.length src) Fun.id in
  let out_off = offsets nb_nodes src and in_off = offsets nb_nodes tgt in
  let out_csr = place out_off src ids and in_csr = place in_off tgt ids in
  let out_lbl_csr =
    place out_off src (place (offsets nb_labels elbl) elbl ids)
  in
  let starts_run v i =
    i = out_off.(v) || elbl.(out_lbl_csr.(i)) <> elbl.(out_lbl_csr.(i - 1))
  in
  let dir_off = Array.make (nb_nodes + 1) 0 in
  for v = 0 to nb_nodes - 1 do
    let n = ref dir_off.(v) in
    for i = out_off.(v) to out_off.(v + 1) - 1 do
      if starts_run v i then incr n
    done;
    dir_off.(v + 1) <- !n
  done;
  let dir_lbl = Array.make (max 1 dir_off.(nb_nodes)) 0
  and dir_start = Array.make (max 1 dir_off.(nb_nodes)) 0 in
  let j = ref 0 in
  for v = 0 to nb_nodes - 1 do
    for i = out_off.(v) to out_off.(v + 1) - 1 do
      if starts_run v i then begin
        dir_lbl.(!j) <- elbl.(out_lbl_csr.(i));
        dir_start.(!j) <- i;
        incr j
      end
    done
  done;
  (out_off, out_csr, in_off, in_csr, out_lbl_csr, dir_off, dir_lbl, dir_start)

(* Each graph value gets a process-unique stamp so caches keyed by graph
   can tell two loads apart even when the contents coincide. *)
let next_stamp = Atomic.make 0

(* Assemble a graph from trusted, already-interned arrays: rebuilds only
   the CSR index. *)
let assemble ~node_names ~node_ids ~edge_names ~src ~tgt ~elbl ~label_names
    ~label_ids =
  let nb_nodes = Array.length node_names in
  let nb_labels = Array.length label_names in
  let out_off, out_csr, in_off, in_csr, out_lbl_csr, dir_off, dir_lbl, dir_start
      =
    index_of_elbl ~nb_nodes ~src ~tgt ~elbl ~nb_labels
  in
  {
    stamp = Atomic.fetch_and_add next_stamp 1;
    nb_nodes;
    nb_edges = Array.length edge_names;
    src;
    tgt;
    node_names;
    edge_names;
    node_ids;
    nb_labels;
    label_names;
    label_ids;
    elbl;
    out_off;
    out_csr;
    in_off;
    in_csr;
    out_lbl_csr;
    dir_off;
    dir_lbl;
    dir_start;
  }

let ids_of names =
  let h = Hashtbl.create (max 8 (Array.length names)) in
  Array.iteri (fun i a -> Hashtbl.add h a i) names;
  h

let make ~nodes ~edges =
  let node_names = Array.of_list nodes in
  let node_ids = Hashtbl.create (max 8 (Array.length node_names)) in
  Array.iteri
    (fun i name ->
      if Hashtbl.mem node_ids name then
        invalid_arg (Printf.sprintf "Elg.make: duplicate node %s" name);
      Hashtbl.add node_ids name i)
    node_names;
  let nb_edges = List.length edges in
  let src = Array.make nb_edges 0
  and tgt = Array.make nb_edges 0
  and lbl = Array.make nb_edges ""
  and edge_names = Array.make nb_edges "" in
  (* Only to reject duplicate edge names; the graph keeps no edge-name
     table. *)
  let seen = Hashtbl.create (max 8 nb_edges) in
  let node_of name =
    match Hashtbl.find_opt node_ids name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Elg.make: unknown node %s" name)
  in
  List.iteri
    (fun e (name, s, a, t) ->
      if Hashtbl.mem seen name then
        invalid_arg (Printf.sprintf "Elg.make: duplicate edge %s" name);
      Hashtbl.add seen name ();
      edge_names.(e) <- name;
      src.(e) <- node_of s;
      tgt.(e) <- node_of t;
      lbl.(e) <- a)
    edges;
  (* Interning: dense ids in sorted label order, so ids are stable under
     edge reordering and [labels] stays sorted. *)
  let label_names =
    Array.to_list lbl |> List.sort_uniq String.compare |> Array.of_list
  in
  let label_ids = ids_of label_names in
  assemble ~node_names ~node_ids ~edge_names ~src ~tgt
    ~elbl:(Array.map (Hashtbl.find label_ids) lbl)
    ~label_names ~label_ids

(* Names, node ids and the label table are shared; only the CSR index
   is rebuilt, by the same counting sorts as every other snapshot. *)
let reverse g =
  assemble ~node_names:g.node_names ~node_ids:g.node_ids
    ~edge_names:g.edge_names ~src:g.tgt ~tgt:g.src ~elbl:g.elbl
    ~label_names:g.label_names ~label_ids:g.label_ids

let id g = g.stamp
let nb_nodes g = g.nb_nodes
let nb_edges g = g.nb_edges
let src g e = g.src.(e)
let tgt g e = g.tgt.(e)
let label g e = g.label_names.(g.elbl.(e))
let node_name g n = g.node_names.(n)
let edge_name g e = g.edge_names.(e)
let node_id g name = Hashtbl.find g.node_ids name

let edge_id g name =
  let rec go e =
    if e = g.nb_edges then raise Not_found
    else if String.equal g.edge_names.(e) name then e
    else go (e + 1)
  in
  go 0

let rec mem_small want a i =
  i < Array.length want && (String.equal want.(i) a || mem_small want a (i + 1))

(* A few names are compared directly (no hashing of the m edge names);
   a large batch, such as a coalesced WAL segment, probes a table. *)
let find_edges g names =
  let found = Hashtbl.create 8 in
  let want = Array.of_list (List.sort_uniq String.compare names) in
  let wanted =
    if Array.length want <= 8 then fun a -> mem_small want a 0
    else Hashtbl.mem (ids_of want)
  in
  if want <> [||] then
    Array.iteri (fun e a -> if wanted a then Hashtbl.replace found a e) g.edge_names;
  found

(* --- interned labels ---------------------------------------------------- *)

let nb_labels g = g.nb_labels
let label_name g l = g.label_names.(l)
let label_id_opt g a = Hashtbl.find_opt g.label_ids a
let edge_label_id g e = g.elbl.(e)

let labels g = Array.to_list g.label_names

(* --- CSR adjacency ------------------------------------------------------ *)

let out_degree g n = g.out_off.(n + 1) - g.out_off.(n)
let in_degree g n = g.in_off.(n + 1) - g.in_off.(n)
let out_span g n = (g.out_off.(n), g.out_off.(n + 1))
let in_span g n = (g.in_off.(n), g.in_off.(n + 1))
let csr_out_edge g i = g.out_csr.(i)
let csr_in_edge g i = g.in_csr.(i)
let csr_out_label_edge g i = g.out_lbl_csr.(i)

let iter_out g n f =
  for i = g.out_off.(n) to g.out_off.(n + 1) - 1 do
    f g.out_csr.(i)
  done

let iter_in g n f =
  for i = g.in_off.(n) to g.in_off.(n + 1) - 1 do
    f g.in_csr.(i)
  done

let span_list csr lo hi = List.init (hi - lo) (fun i -> csr.(lo + i))
let out_edges g n = span_list g.out_csr g.out_off.(n) g.out_off.(n + 1)
let in_edges g n = span_list g.in_csr g.in_off.(n) g.in_off.(n + 1)

(* Binary search for [label] in node [n]'s directory slice. *)
let dir_find g n label =
  let lo = ref g.dir_off.(n) and hi = ref (g.dir_off.(n + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let l = g.dir_lbl.(mid) in
    if l = label then found := mid
    else if l < label then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let out_label_span g n ~label =
  let i = dir_find g n label in
  if i < 0 then (0, 0)
  else
    let start = g.dir_start.(i) in
    let stop =
      if i + 1 < g.dir_off.(n + 1) then g.dir_start.(i + 1)
      else g.out_off.(n + 1)
    in
    (start, stop)

let iter_out_label g n ~label f =
  let lo, hi = out_label_span g n ~label in
  for i = lo to hi - 1 do
    f g.out_lbl_csr.(i)
  done

let out_label_edges g n ~label =
  let lo, hi = out_label_span g n ~label in
  span_list g.out_lbl_csr lo hi

let fold_edges f g acc =
  let acc = ref acc in
  for e = 0 to g.nb_edges - 1 do
    acc := f e !acc
  done;
  !acc

let fold_nodes f g acc =
  let acc = ref acc in
  for n = 0 to g.nb_nodes - 1 do
    acc := f n !acc
  done;
  !acc

let edges_between g u v =
  let acc = ref [] in
  for i = g.out_off.(u + 1) - 1 downto g.out_off.(u) do
    let e = g.out_csr.(i) in
    if g.tgt.(e) = v then acc := e :: !acc
  done;
  !acc

(* --- delta application --------------------------------------------------- *)

type delta_summary = {
  added_nodes : int;
  removed_nodes : int;
  added_edges : int;
  removed_edges : int;
  touched_labels : string list;
  relabeled : bool;
}

let apply_delta g ~new_nodes ~add_edges ~del_edges ~del_nodes =
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* Deletions mark dense ids dead; survivors compact, keeping their
     relative declaration order. *)
  let mark what names n ids =
    let dead = Array.make (max 1 n) false in
    let rec go k = function
      | [] -> Ok (dead, k)
      | i :: rest ->
          if i < 0 || i >= n then err "unknown %s id %d" what i
          else if dead.(i) then err "duplicate delete of %s %s" what names.(i)
          else begin
            dead.(i) <- true;
            go (k + 1) rest
          end
    in
    go 0 ids
  in
  let* dead_node, nb_del_nodes = mark "node" g.node_names g.nb_nodes del_nodes in
  (* Nodes: existing arrays and the name table are shared verbatim when
     the delta neither declares nor deletes any; with deletions the
     survivors compact and every old id is remapped. *)
  let nb_new = List.length new_nodes in
  let add_new_nodes names ids first =
    let rec go i = function
      | [] -> Ok ()
      | name :: rest ->
          if Hashtbl.mem ids name then err "duplicate node %s" name
          else begin
            names.(i) <- name;
            Hashtbl.add ids name i;
            go (i + 1) rest
          end
    in
    go first new_nodes
  in
  let* node_names, node_ids, node_remap =
    if nb_del_nodes = 0 && nb_new = 0 then Ok (g.node_names, g.node_ids, None)
    else if nb_del_nodes = 0 then begin
      let names = Array.make (g.nb_nodes + nb_new) "" in
      Array.blit g.node_names 0 names 0 g.nb_nodes;
      let ids = Hashtbl.copy g.node_ids in
      let* () = add_new_nodes names ids g.nb_nodes in
      Ok (names, ids, None)
    end
    else begin
      let nb_nodes' = g.nb_nodes - nb_del_nodes + nb_new in
      let names = Array.make nb_nodes' "" in
      let remap = Array.make (max 1 g.nb_nodes) (-1) in
      let k = ref 0 in
      for v = 0 to g.nb_nodes - 1 do
        if not dead_node.(v) then begin
          names.(!k) <- g.node_names.(v);
          remap.(v) <- !k;
          incr k
        end
      done;
      let ids = Hashtbl.create (max 8 nb_nodes') in
      for v = 0 to !k - 1 do
        Hashtbl.add ids names.(v) v
      done;
      let* () = add_new_nodes names ids !k in
      Ok (names, ids, Some remap)
    end
  in
  let* dead, nb_del = mark "edge" g.edge_names g.nb_edges del_edges in
  (* A deleted node takes its incident edges with it; the caller is
     expected to list them in [del_edges] (the Pg layer does), so a
     survivor touching a dead node is an internal-invariant breach. *)
  let* () =
    if nb_del_nodes = 0 then Ok ()
    else begin
      let bad = ref None in
      for e = 0 to g.nb_edges - 1 do
        if
          (not dead.(e))
          && !bad = None
          && (dead_node.(g.src.(e)) || dead_node.(g.tgt.(e)))
        then bad := Some g.edge_names.(e)
      done;
      match !bad with
      | Some name -> err "deleted node still has incident edge %s" name
      | None -> Ok ()
    end
  in
  let remap_node v = match node_remap with None -> v | Some r -> r.(v) in
  let nb_add = List.length add_edges in
  let nb_edges = g.nb_edges - nb_del + nb_add in
  let src = Array.make nb_edges 0
  and tgt = Array.make nb_edges 0
  and elbl = Array.make nb_edges 0
  and edge_names = Array.make nb_edges "" in
  (* Survivors keep their relative order (matching a from-scratch build
     over the surviving declaration sequence) and, for now, their old
     label ids. *)
  let k = ref 0 in
  for e = 0 to g.nb_edges - 1 do
    if not dead.(e) then begin
      src.(!k) <- remap_node g.src.(e);
      tgt.(!k) <- remap_node g.tgt.(e);
      elbl.(!k) <- g.elbl.(e);
      edge_names.(!k) <- g.edge_names.(e);
      incr k
    end
  done;
  (* Added edges take old label ids too; an edge whose label is not
     interned yet gets [-1] and is listed in [fresh]. *)
  let fresh = ref [] in
  let* () =
    let rec go i = function
      | [] -> Ok ()
      | (name, s, a, t) :: rest -> (
          match (Hashtbl.find_opt node_ids s, Hashtbl.find_opt node_ids t) with
          | None, _ -> err "unknown node %s" s
          | _, None -> err "unknown node %s" t
          | Some si, Some ti ->
              edge_names.(i) <- name;
              src.(i) <- si;
              tgt.(i) <- ti;
              (elbl.(i) <-
                 match Hashtbl.find_opt g.label_ids a with
                 | Some l -> l
                 | None ->
                     fresh := (i, a) :: !fresh;
                     -1);
              go (i + 1) rest)
    in
    go !k add_edges
  in
  (* Interning: the label table is shared when no label is fresh and
     none was emptied; otherwise the sorted table is rebuilt and every
     edge's id is mapped through an old-id -> new-id int array (a new or
     vanished label shifts every id after it in sort order). *)
  let cnt = Array.make (max 1 g.nb_labels) 0 in
  Array.iter (fun l -> if l >= 0 then cnt.(l) <- cnt.(l) + 1) elbl;
  let emptied = ref false in
  for l = 0 to g.nb_labels - 1 do
    if cnt.(l) = 0 then emptied := true
  done;
  let relabeled = !fresh <> [] || !emptied in
  let label_names, label_ids =
    if not relabeled then (g.label_names, g.label_ids)
    else begin
      let survivors = ref [] in
      for l = g.nb_labels - 1 downto 0 do
        if cnt.(l) > 0 then survivors := g.label_names.(l) :: !survivors
      done;
      let names =
        List.rev_append (List.rev_map snd !fresh) !survivors
        |> List.sort_uniq String.compare
        |> Array.of_list
      in
      let ids = ids_of names in
      let remap =
        Array.map
          (fun a -> Option.value (Hashtbl.find_opt ids a) ~default:(-1))
          g.label_names
      in
      Array.iteri (fun e l -> if l >= 0 then elbl.(e) <- remap.(l)) elbl;
      List.iter (fun (i, a) -> elbl.(i) <- Hashtbl.find ids a) !fresh;
      (names, ids)
    end
  in
  let touched_labels =
    List.rev_append
      (List.rev_map (fun (_, _, a, _) -> a) add_edges)
      (List.map (fun e -> g.label_names.(g.elbl.(e))) del_edges)
    |> List.sort_uniq String.compare
  in
  let g' =
    assemble ~node_names ~node_ids ~edge_names ~src ~tgt ~elbl ~label_names
      ~label_ids
  in
  Ok
    ( g',
      {
        added_nodes = nb_new;
        removed_nodes = nb_del_nodes;
        added_edges = nb_add;
        removed_edges = nb_del;
        touched_labels;
        relabeled;
      } )

(* --- binary pack --------------------------------------------------------- *)

type pack = {
  pk_nodes : string array;
  pk_edges : string array;
  pk_src : int array;
  pk_tgt : int array;
  pk_labels : string array;
  pk_elbl : int array;
}

let pack g =
  {
    pk_nodes = g.node_names;
    pk_edges = g.edge_names;
    pk_src = g.src;
    pk_tgt = g.tgt;
    pk_labels = g.label_names;
    pk_elbl = g.elbl;
  }

let of_pack_res p =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt in
  let nb_nodes = Array.length p.pk_nodes in
  let nb_edges = Array.length p.pk_edges in
  let nb_labels = Array.length p.pk_labels in
  try
    if
      Array.length p.pk_src <> nb_edges
      || Array.length p.pk_tgt <> nb_edges
      || Array.length p.pk_elbl <> nb_edges
    then bad "edge array lengths disagree";
    for l = 1 to nb_labels - 1 do
      if String.compare p.pk_labels.(l - 1) p.pk_labels.(l) >= 0 then
        bad "label table not strictly sorted"
    done;
    let used = Array.make (max 1 nb_labels) false in
    for e = 0 to nb_edges - 1 do
      let l = p.pk_elbl.(e) in
      if l < 0 || l >= nb_labels then bad "edge %d: label id out of range" e;
      used.(l) <- true;
      if p.pk_src.(e) < 0 || p.pk_src.(e) >= nb_nodes then
        bad "edge %d: source out of range" e;
      if p.pk_tgt.(e) < 0 || p.pk_tgt.(e) >= nb_nodes then
        bad "edge %d: target out of range" e
    done;
    for l = 0 to nb_labels - 1 do
      if not used.(l) then bad "unused label %s in table" p.pk_labels.(l)
    done;
    let node_ids = Hashtbl.create (max 8 nb_nodes) in
    Array.iteri
      (fun i a ->
        if Hashtbl.mem node_ids a then bad "duplicate node %s" a
        else Hashtbl.add node_ids a i)
      p.pk_nodes;
    (* Only to reject duplicate edge names. *)
    let seen = Hashtbl.create (max 8 nb_edges) in
    Array.iter
      (fun a ->
        if Hashtbl.mem seen a then bad "duplicate edge %s" a
        else Hashtbl.add seen a ())
      p.pk_edges;
    Ok
      (assemble ~node_names:p.pk_nodes ~node_ids ~edge_names:p.pk_edges
         ~src:p.pk_src ~tgt:p.pk_tgt ~elbl:p.pk_elbl ~label_names:p.pk_labels
         ~label_ids:(ids_of p.pk_labels))
  with Bad s -> Error s

let pp fmt g =
  Format.fprintf fmt "@[<v>graph (%d nodes, %d edges)@," g.nb_nodes g.nb_edges;
  for e = 0 to g.nb_edges - 1 do
    Format.fprintf fmt "%s: %s -[%s]-> %s@," g.edge_names.(e)
      g.node_names.(g.src.(e)) (label g e) g.node_names.(g.tgt.(e))
  done;
  Format.fprintf fmt "@]"
