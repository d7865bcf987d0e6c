(* All search loops consult a [Governor.t]: one tick per product-edge
   relaxation (charged per adjacency span), one emit per answer.  The
   unbounded API runs the same code under [Governor.unlimited].

   Multi-source evaluation ([pairs]/[pairs_nfa]) runs the bit-parallel
   kernel ({!Rpq_bitset}) over 63-source blocks distributed across a
   [Pool] of domains: the product is built once and shared read-only,
   each worker owns its scratch, and the governor's atomic counters keep
   the Complete/Partial contract sound under parallelism.  Answers come
   back as [u * n + v] codes in per-block {!Ibuf}s that are already
   globally ordered.  Single-source queries walk the product on the fly
   instead ({!Rpq_walk}). *)

let from_source_bounded ?(obs = Obs.none) gov g r ~src =
  Obs.span obs "rpq.eval" @@ fun () ->
  let targets = Rpq_walk.targets ~obs gov (Rpq_walk.make g (Nfa.of_regex r)) ~src in
  let kept = Governor.take_results gov targets in
  Obs.add obs "rpq.answers" (List.length kept);
  Governor.seal gov kept

let from_source ?obs g r ~src =
  Governor.value (from_source_bounded ?obs (Governor.unlimited ()) g r ~src)

(* --- multi-source prelude ------------------------------------------------ *)

(* Candidate pruning, ε self-pairs and the width decision, shared by the
   pairs / fold / count entry points. *)
type msetup = {
  ms_cand : int array; (* candidate sources, ascending *)
  ms_ncand : int;
  ms_selfs : Ibuf.t; (* admitted ε self-pair codes, ascending *)
  ms_pool : Pool.t;
  ms_width : int;
}

(* Source pruning: a BFS from [u] can only leave its initial states
   through an out-edge of [u] matching a symbol on some initial-state
   transition.  Nodes without one contribute at most the ε self-pair
   (when an initial state is accepting), which is emitted directly — no
   BFS, no scratch touch — and merged into the kernel's sorted stream. *)
let msetup ?pool ~obs gov product =
  let g = Product.graph product in
  let nfa = Product.nfa product in
  let n = Elg.nb_nodes g in
  let eps_accepting = List.exists (Nfa.is_final nfa) nfa.Nfa.initials in
  let nl = Elg.nb_labels g in
  let lbl_ok = Array.make (max 1 nl) false in
  List.iter
    (fun q0 ->
      List.iter
        (fun (sym, _) ->
          for l = 0 to nl - 1 do
            if (not lbl_ok.(l)) && Sym.matches sym (Elg.label_name g l) then
              lbl_ok.(l) <- true
          done)
        nfa.Nfa.delta.(q0))
    nfa.Nfa.initials;
  let is_cand = Array.make (max 1 n) false in
  let cand = Array.make (max 1 n) 0 in
  let ncand = ref 0 in
  for u = 0 to n - 1 do
    let lo, hi = Elg.out_span g u in
    let i = ref lo in
    while (not is_cand.(u)) && !i < hi do
      if lbl_ok.(Elg.edge_label_id g (Elg.csr_out_edge g !i)) then
        is_cand.(u) <- true;
      incr i
    done;
    if is_cand.(u) then begin
      cand.(!ncand) <- u;
      incr ncand
    end
  done;
  let ncand = !ncand in
  Obs.add obs "rpq.pruned_sources" (n - ncand);
  (* An explicit pool pins its width (determinism-across-widths tests,
     --domains); otherwise the adaptive policy picks serial under the
     work threshold, never more domains than the hardware has, and never
     a width it has measured losing to serial. *)
  let pool, width =
    match pool with
    | Some p ->
        let w = min (Pool.size p) (max 1 n) in
        ignore (Par_policy.pinned ~width:w);
        (p, w)
    | None ->
        let p = Pool.default () in
        let d =
          Par_policy.decide ~obs ~kernel:Par_policy.Bitset
            ~max_width:(Pool.size p) ~sources:ncand
            ~product_edges:(Product.nb_product_edges product) ()
        in
        (p, d.Par_policy.width)
  in
  Obs.add obs "rpq.par_width" width;
  let selfs = Ibuf.create () in
  if eps_accepting && ncand < n then
    for u = 0 to n - 1 do
      if (not is_cand.(u)) && Governor.emit gov then
        Ibuf.push selfs ((u * n) + u)
    done;
  { ms_cand = cand; ms_ncand = ncand; ms_selfs = selfs; ms_pool = pool;
    ms_width = width }

(* Run the kernel over the candidate sources and report the run to the
   parallel policy's calibration. *)
let kernel_codes ~obs gov product ms =
  let t0 = Par_policy.now () in
  let blocks =
    Rpq_bitset.pairs_codes ~obs ~pool:ms.ms_pool ~width:ms.ms_width gov
      product ~cand:ms.ms_cand ~ncand:ms.ms_ncand
  in
  Par_policy.record ~kernel:Par_policy.Bitset ~width:ms.ms_width
    ~sources:ms.ms_ncand
    ~product_edges:(Product.nb_product_edges product)
    ~elapsed:(Par_policy.now () -. t0) ();
  blocks

let pairs_product_gov ?pool ?(obs = Obs.none) gov product =
  Obs.span obs "rpq.eval" @@ fun () ->
  let n = Elg.nb_nodes (Product.graph product) in
  if n = 0 then []
  else begin
    let ms = msetup ?pool ~obs gov product in
    let blocks = kernel_codes ~obs gov product ms in
    Obs.span obs "rpq.merge" @@ fun () ->
    let btotal = Array.fold_left (fun a b -> a + b.Ibuf.len) 0 blocks in
    Obs.add obs "rpq.answers" (btotal + ms.ms_selfs.Ibuf.len);
    (* Both streams are already sorted (blocks cover ascending source
       ranges and are sorted by construction; self-pairs were emitted
       in node order): build the result list back to front with a
       2-way merge straight off the per-block buffers — no
       concatenated copy of the codes. *)
    let sd = ms.ms_selfs.Ibuf.data in
    let si = ref (ms.ms_selfs.Ibuf.len - 1) in
    let bi = ref (Array.length blocks - 1) in
    let ji = ref 0 in
    let rec settle () =
      if !bi >= 0 then begin
        ji := blocks.(!bi).Ibuf.len - 1;
        if !ji < 0 then begin
          decr bi;
          settle ()
        end
      end
    in
    settle ();
    let acc = ref [] in
    (* Unpack codes without dividing per answer: consecutive codes
       share a source run, so the division only happens once per
       source segment ([ulim] = 0 forces it on the first answer). *)
    let u = ref 0 and ubase = ref 0 and ulim = ref 0 in
    while !si >= 0 || !bi >= 0 do
      let code =
        if !bi < 0 || (!si >= 0 && sd.(!si) > blocks.(!bi).Ibuf.data.(!ji))
        then begin
          let c = sd.(!si) in
          decr si;
          c
        end
        else begin
          let c = blocks.(!bi).Ibuf.data.(!ji) in
          decr ji;
          if !ji < 0 then begin
            decr bi;
            settle ()
          end;
          c
        end
      in
      if code < !ubase || code >= !ulim then begin
        u := code / n;
        ubase := !u * n;
        ulim := !ubase + n
      end;
      acc := (!u, code - !ubase) :: !acc
    done;
    !acc
  end

(* Streaming consumption: fold [f] over the answers in globally sorted
   order without materializing the pair list — the per-block buffers
   are visited in place (allocation stays O(blocks) however many
   answers there are). *)
let fold_pairs_product_gov ?pool ?(obs = Obs.none) gov product ~init ~f =
  Obs.span obs "rpq.eval" @@ fun () ->
  let n = Elg.nb_nodes (Product.graph product) in
  if n = 0 then init
  else begin
    let ms = msetup ?pool ~obs gov product in
    let blocks = kernel_codes ~obs gov product ms in
    Obs.span obs "rpq.merge" @@ fun () ->
    let btotal = Array.fold_left (fun a b -> a + b.Ibuf.len) 0 blocks in
    Obs.add obs "rpq.answers" (btotal + ms.ms_selfs.Ibuf.len);
    (* Forward 2-way merge of the self stream and the block stream. *)
    let sd = ms.ms_selfs.Ibuf.data and slen = ms.ms_selfs.Ibuf.len in
    let si = ref 0 in
    let acc = ref init in
    (* Division-free unpacking, as in the pair merge: recompute the
       source only when a code leaves the current source segment. *)
    let u = ref 0 and ubase = ref 0 and ulim = ref 0 in
    let apply code =
      if code < !ubase || code >= !ulim then begin
        u := code / n;
        ubase := !u * n;
        ulim := !ubase + n
      end;
      acc := f !acc !u (code - !ubase)
    in
    Array.iter
      (fun b ->
        let d = b.Ibuf.data in
        for j = 0 to b.Ibuf.len - 1 do
          let code = Array.unsafe_get d j in
          while !si < slen && sd.(!si) < code do
            apply sd.(!si);
            incr si
          done;
          apply code
        done)
      blocks;
    while !si < slen do
      apply sd.(!si);
      incr si
    done;
    !acc
  end

(* Count of distinct answers without materializing any: the kernel's
   count-only mode (O(blocks) allocation). *)
let count_pairs_product_gov ?pool ?(obs = Obs.none) gov product =
  Obs.span obs "rpq.eval" @@ fun () ->
  let n = Elg.nb_nodes (Product.graph product) in
  if n = 0 then 0
  else begin
    let ms = msetup ?pool ~obs gov product in
    ms.ms_selfs.Ibuf.len
    + Rpq_bitset.count_pairs ~obs ~pool:ms.ms_pool ~width:ms.ms_width gov
        product ~cand:ms.ms_cand ~ncand:ms.ms_ncand
  end

let pairs_nfa_gov ?pool ?obs gov g nfa =
  let product = Product.make ?obs g nfa in
  pairs_product_gov ?pool ?obs gov product

let pairs_product_bounded ?pool ?obs gov product =
  Governor.seal gov (pairs_product_gov ?pool ?obs gov product)

let count_pairs_product_bounded ?pool ?obs gov product =
  Governor.seal gov (count_pairs_product_gov ?pool ?obs gov product)

let count_pairs_bounded ?pool ?obs gov g r =
  count_pairs_product_bounded ?pool ?obs gov
    (Product.make ?obs g (Nfa.of_regex r))

let count_pairs ?pool ?obs g r =
  Governor.value (count_pairs_bounded ?pool ?obs (Governor.unlimited ()) g r)

let pairs_nfa_bounded ?pool ?obs gov g nfa =
  Governor.seal gov (pairs_nfa_gov ?pool ?obs gov g nfa)

let pairs_nfa ?pool ?obs g nfa =
  Governor.value (pairs_nfa_bounded ?pool ?obs (Governor.unlimited ()) g nfa)

let pairs_bounded ?pool ?obs gov g r =
  pairs_nfa_bounded ?pool ?obs gov g (Nfa.of_regex r)

let pairs ?pool ?obs g r = pairs_nfa ?pool ?obs g (Nfa.of_regex r)

(* Early-exit reachability: the kernel's first-k path
   ({!Rpq_bitset.check}) probes between levels and stops at the first
   accepting (tgt, q) instead of materializing the full answer set. *)
let check_bounded ?(obs = Obs.none) gov g r ~src ~tgt =
  let product = Product.make ~obs g (Nfa.of_regex r) in
  Governor.seal gov (Rpq_bitset.check ~obs gov product ~src ~tgt)

let check g r ~src ~tgt =
  Governor.value (check_bounded (Governor.unlimited ()) g r ~src ~tgt)

let shortest_witness_gov gov g r ~src ~tgt =
  let product = Product.make g (Nfa.of_regex r) in
  let n = Product.nb_states product in
  let pred = Array.make (max 1 n) None in
  let seen = Array.make (max 1 n) false in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      seen.(s) <- true;
      Queue.add s queue)
    (Product.initials_at product src);
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) && Governor.ok gov do
    let s = Queue.pop queue in
    let v, _ = Product.decode product s in
    if v = tgt && Product.is_final product s then found := Some s
    else
      Product.iter_out product s (fun e s' ->
          if Governor.tick gov && not seen.(s') then begin
            seen.(s') <- true;
            pred.(s') <- Some (e, s);
            Queue.add s' queue
          end)
  done;
  match !found with
  | None -> None
  | Some s ->
      let rec rebuild s acc =
        match pred.(s) with
        | None ->
            let v, _ = Product.decode product s in
            Path.N v :: acc
        | Some (e, s0) ->
            let v, _ = Product.decode product s in
            rebuild s0 (Path.E e :: Path.N v :: acc)
      in
      Some (Path.of_objs_exn g (rebuild s []))

let shortest_witness_bounded gov g r ~src ~tgt =
  Governor.seal gov (shortest_witness_gov gov g r ~src ~tgt)

let shortest_witness g r ~src ~tgt =
  Governor.value
    (shortest_witness_bounded (Governor.unlimited ()) g r ~src ~tgt)

let pairs_naive_gov gov g r ~max_len =
  let results = ref [] in
  let matches sym lbl = Sym.matches sym lbl in
  let rec extend u v word len =
    if Governor.tick gov then begin
      if Regex.matches_word ~matches r (List.rev word) then
        results := (u, v) :: !results;
      if len < max_len then
        Elg.iter_out g v (fun e ->
            extend u (Elg.tgt g e) (Elg.label g e :: word) (len + 1))
    end
  in
  Elg.fold_nodes (fun u () -> extend u u [] 0) g ();
  List.sort_uniq Stdlib.compare !results

let pairs_naive_bounded gov g r ~max_len =
  Governor.seal gov (pairs_naive_gov gov g r ~max_len)

let pairs_naive g r ~max_len =
  Governor.value (pairs_naive_bounded (Governor.unlimited ()) g r ~max_len)
