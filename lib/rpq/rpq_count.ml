(* Compile once per query: the DFA plus a label-id -> class table, so
   the DP loops look classes up by interned id instead of re-running
   [Dfa.class_of_label] on the label string of every edge visit. *)
let compile g r =
  let dfa = Dfa.of_nfa (Nfa.of_regex r) in
  let lclass =
    Array.init (max 1 (Elg.nb_labels g)) (fun l ->
        Dfa.class_of_label dfa (Elg.label_name g l))
  in
  (dfa, lclass)

(* DP over (node, dfa state): counts of paths of the current length from
   [src].  Determinism makes runs and paths one-to-one; [accept v q]
   selects which states tally into the total at each length. *)
let count_from ?(obs = Obs.none) g dfa lclass ~src ~max_len accept =
  let relax = Obs.counter_fn obs "rpq_count.relaxations" in
  let nq = dfa.Dfa.nb_states in
  let idx v q = (v * nq) + q in
  let size = Elg.nb_nodes g * nq in
  let total = ref Nat_big.zero in
  let add_finals counts =
    Array.iteri
      (fun i c ->
        if (not (Nat_big.is_zero c)) && accept (i / nq) (i mod nq) then
          total := Nat_big.add !total c)
      counts
  in
  let current = Array.make size Nat_big.zero in
  current.(idx src dfa.Dfa.init) <- Nat_big.one;
  add_finals current;
  let current = ref current in
  let relaxed = ref 0 in
  for _ = 1 to max_len do
    let next = Array.make size Nat_big.zero in
    Array.iteri
      (fun i count ->
        if not (Nat_big.is_zero count) then begin
          let v = i / nq and q = i mod nq in
          Elg.iter_out g v (fun e ->
              incr relaxed;
              let q' = dfa.Dfa.next.(q).(lclass.(Elg.edge_label_id g e)) in
              let j = idx (Elg.tgt g e) q' in
              next.(j) <- Nat_big.add next.(j) count)
        end)
      !current;
    current := next;
    add_finals next
  done;
  relax !relaxed;
  !total

let count_paths_upto ?(obs = Obs.none) g r ~src ~tgt ~max_len =
  Obs.span obs "rpq_count.eval" @@ fun () ->
  let dfa, lclass = compile g r in
  count_from ~obs g dfa lclass ~src ~max_len (fun v q ->
      v = tgt && dfa.Dfa.finals.(q))

let total_paths_upto ?pool ?(obs = Obs.none) g r ~max_len =
  Obs.span obs "rpq_count.eval" @@ fun () ->
  let dfa, lclass = compile g r in
  let accept _ q = dfa.Dfa.finals.(q) in
  let n = Elg.nb_nodes g in
  (* An explicit pool pins its width; otherwise the adaptive policy
     decides, like the RPQ engines — the DP relaxes every edge once per
     source per length step, so the work estimate scales accordingly. *)
  let pool, width =
    match pool with
    | Some p ->
        let w = max 1 (min (Pool.size p) n) in
        ignore (Par_policy.pinned ~width:w);
        (p, w)
    | None ->
        let p = Pool.default () in
        let d =
          Par_policy.decide ~obs ~max_width:(Pool.size p) ~sources:n
            ~product_edges:(Elg.nb_edges g * max 1 max_len) ()
        in
        (p, d.Par_policy.width)
  in
  let partials = Array.make width Nat_big.zero in
  let next = Atomic.make 0 in
  Pool.fork_join ~obs pool ~width (fun w ->
      let rec loop () =
        let src = Atomic.fetch_and_add next 1 in
        if src < n then begin
          partials.(w) <-
            Nat_big.add partials.(w)
              (count_from ~obs g dfa lclass ~src ~max_len accept);
          loop ()
        end
      in
      loop ());
  Array.fold_left Nat_big.add Nat_big.zero partials

(* Set-semantics cardinality — COUNT(DISTINCT (u, v)) — delegated to the
   evaluation engines' count-only mode: under the bitset kernel the
   answer pairs are popcounted out of the visited words per block and
   never materialized (O(blocks) allocation however many answers). *)
let count_answers ?pool ?obs g r = Rpq_eval.count_pairs ?pool ?obs g r

let count_answers_bounded ?pool ?obs gov g r =
  Rpq_eval.count_pairs_bounded ?pool ?obs gov g r

(* --- Bag-semantics parse counting (Section 6.1, after [9]) ------------- *)

(* Subexpression tree with ids for memoization keys. *)
type 'a tree = { id : int; expr : 'a Regex.t; children : 'a tree list }

let index_subexprs r =
  let count = ref 0 in
  let rec go r =
    let id = !count in
    incr count;
    match r with
    | Regex.Eps | Regex.Atom _ -> { id; expr = r; children = [] }
    | Regex.Seq (r1, r2) | Regex.Alt (r1, r2) ->
        let t1 = go r1 in
        let t2 = go r2 in
        { id; expr = r; children = [ t1; t2 ] }
    | Regex.Star r1 -> { id; expr = r; children = [ go r1 ] }
  in
  go r

(* Multiplicity of expression [tree] on the path slice [i..j] (node indices
   into [path_nodes]; the slice denotes edges i..j-1). *)
let count_on_path g tree path_nodes =
  let memo : (int * int * int, Nat_big.t) Hashtbl.t = Hashtbl.create 64 in
  let n = Array.length path_nodes in
  let edge_count i j sym =
    (* Parallel edges each count once. *)
    List.length
      (List.filter
         (fun e -> Sym.matches sym (Elg.label g e))
         (Elg.edges_between g path_nodes.(i) path_nodes.(j)))
  in
  let rec count t i j =
    match Hashtbl.find_opt memo (t.id, i, j) with
    | Some c -> c
    | None ->
        let result =
          match (t.expr, t.children) with
          | Regex.Eps, _ -> if i = j then Nat_big.one else Nat_big.zero
          | Regex.Atom sym, _ ->
              if j = i + 1 then Nat_big.of_int (edge_count i j sym)
              else Nat_big.zero
          | Regex.Seq _, [ t1; t2 ] ->
              let acc = ref Nat_big.zero in
              for k = i to j do
                let c1 = count t1 i k in
                if not (Nat_big.is_zero c1) then
                  acc := Nat_big.add !acc (Nat_big.mul c1 (count t2 k j))
              done;
              !acc
          | Regex.Alt _, [ t1; t2 ] ->
              Nat_big.add (count t1 i j) (count t2 i j)
          | Regex.Star _, [ t1 ] ->
              if i = j then Nat_big.one
              else begin
                (* Split off a non-empty first iteration. *)
                let acc = ref Nat_big.zero in
                for k = i + 1 to j do
                  let c1 = count t1 i k in
                  if not (Nat_big.is_zero c1) then
                    acc :=
                      Nat_big.add !acc
                        (Nat_big.mul c1 (count t k j))
                done;
                !acc
              end
          | (Regex.Seq _ | Regex.Alt _ | Regex.Star _), _ -> assert false
        in
        Hashtbl.add memo (t.id, i, j) result;
        result
  in
  count tree 0 (n - 1)

(* All simple paths from src to tgt, as node arrays. *)
let simple_paths g ~src ~tgt =
  let acc = ref [] in
  let visited = Array.make (Elg.nb_nodes g) false in
  let rec go v rev_nodes =
    if v = tgt then acc := Array.of_list (List.rev (v :: rev_nodes)) :: !acc
    else
      Elg.iter_out g v (fun e ->
          let w = Elg.tgt g e in
          if not visited.(w) then begin
            visited.(w) <- true;
            go w (v :: rev_nodes);
            visited.(w) <- false
          end)
  in
  visited.(src) <- true;
  go src [];
  (* Parallel edges produce the same node sequence several times; the
     sequence is the path skeleton, so deduplicate (edge multiplicity is
     accounted for by the per-atom edge counts). *)
  List.sort_uniq Stdlib.compare !acc

let parse_count g r ~src ~tgt =
  let tree = index_subexprs r in
  List.fold_left
    (fun acc nodes -> Nat_big.add acc (count_on_path g tree nodes))
    Nat_big.zero
    (simple_paths g ~src ~tgt)

(* --- ALP-style bag counting (the [9] reconstruction) -------------------- *)

(* count(e, x, y): concatenation composes over intermediate graph nodes;
   a star sums over sequences of distinct intermediate nodes, but each
   nested evaluation starts its own distinctness bookkeeping. *)
let alp_counter g r =
  if Elg.nb_nodes g > 62 then
    invalid_arg "Rpq_count.bag_count: at most 62 nodes (bitmask visited sets)";
  let tree = index_subexprs r in
  let memo : (int * int * int, Nat_big.t) Hashtbl.t = Hashtbl.create 256 in
  let star_memo : (int * int * int * int, Nat_big.t) Hashtbl.t =
    Hashtbl.create 256
  in
  let edge_count x y sym =
    List.length
      (List.filter
         (fun e -> Sym.matches sym (Elg.label g e))
         (Elg.edges_between g x y))
  in
  let rec count t x y =
    match Hashtbl.find_opt memo (t.id, x, y) with
    | Some c -> c
    | None ->
        let result =
          match (t.expr, t.children) with
          | Regex.Eps, _ -> if x = y then Nat_big.one else Nat_big.zero
          | Regex.Atom sym, _ -> Nat_big.of_int (edge_count x y sym)
          | Regex.Seq _, [ t1; t2 ] ->
              Elg.fold_nodes
                (fun z acc ->
                  let c1 = count t1 x z in
                  if Nat_big.is_zero c1 then acc
                  else Nat_big.add acc (Nat_big.mul c1 (count t2 z y)))
                g Nat_big.zero
          | Regex.Alt _, [ t1; t2 ] -> Nat_big.add (count t1 x y) (count t2 x y)
          | Regex.Star _, [ t1 ] -> star t1 x y (1 lsl x)
          | (Regex.Seq _ | Regex.Alt _ | Regex.Star _), _ -> assert false
        in
        Hashtbl.add memo (t.id, x, y) result;
        result
  and star t1 cur y visited =
    match Hashtbl.find_opt star_memo (t1.id, cur, y, visited) with
    | Some c -> c
    | None ->
        let base = if cur = y then Nat_big.one else Nat_big.zero in
        let result =
          Elg.fold_nodes
            (fun z acc ->
              if visited land (1 lsl z) <> 0 then acc
              else
                let c1 = count t1 cur z in
                if Nat_big.is_zero c1 then acc
                else
                  Nat_big.add acc
                    (Nat_big.mul c1 (star t1 z y (visited lor (1 lsl z)))))
            g base
        in
        Hashtbl.add star_memo (t1.id, cur, y, visited) result;
        result
  in
  count tree

let bag_count g r ~src ~tgt = alp_counter g r src tgt

let bag_count_total g r =
  let count = alp_counter g r in
  Elg.fold_nodes
    (fun u acc ->
      Elg.fold_nodes (fun v acc -> Nat_big.add acc (count u v)) g acc)
    g Nat_big.zero
