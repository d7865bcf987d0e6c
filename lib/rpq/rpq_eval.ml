(* All search loops consult a [Governor.t]: one tick per product-edge
   relaxation (charged per adjacency span in the BFS engines), one emit
   per answer.  The unbounded API runs the same code under
   [Governor.unlimited].

   Multi-source evaluation ([pairs]/[pairs_nfa]) chunks source nodes
   across a [Pool] of domains: the product is built once and shared
   read-only, each worker owns its scratch (stamped visited arrays, a
   flat int queue, an answer buffer), and the governor's atomic counters
   keep the Complete/Partial contract sound under parallelism. *)

(* Answers are collected as [u * n + v] codes in {!Ibuf}s.  The scalar
   engine merges per-worker buffers and sorts once at the end; the bitset
   kernel ({!Rpq_bitset}, on by default, [GQ_BITSET=off] to revert)
   returns per-block buffers that are already globally ordered. *)

(* Per-worker BFS scratch for the scalar multi-source engine, reused
   across the sources of one evaluation: stamping replaces a per-source
   [Array.make _ false].  Single-source queries walk the product on the
   fly instead ({!Rpq_walk}). *)
type scratch = {
  seen : int array; (* product state -> stamp of last visit *)
  queue : int array; (* flat BFS queue; states enter at most once *)
  tmark : int array; (* graph node -> stamp when reported as target *)
  mutable stamp : int;
}

let scratch_of product =
  {
    seen = Array.make (max 1 (Product.nb_states product)) 0;
    queue = Array.make (max 1 (Product.nb_states product)) 0;
    tmark = Array.make (max 1 (Elg.nb_nodes (Product.graph product))) 0;
    stamp = 0;
  }

(* Per-BFS telemetry, accumulated in plain ints and flushed to the
   (possibly shared, atomic) sink counters once per source — the hot
   loop pays nothing beyond the additions it already does. *)
type bfs_stats = {
  transitions : int -> unit; (* rpq.product_transitions *)
  states : int -> unit; (* rpq.states_visited *)
  sources : int -> unit; (* rpq.sources *)
}

let bfs_stats_of obs =
  {
    transitions = Obs.counter_fn obs "rpq.product_transitions";
    states = Obs.counter_fn obs "rpq.states_visited";
    sources = Obs.counter_fn obs "rpq.sources";
  }

(* BFS over the product from [src]'s initial states, invoking
   [on_target v] once per graph node [v] reached in an accepting state. *)
let bfs_targets gov stats product sc ~src on_target =
  (* One failpoint check per source BFS: cheap enough to leave in the
     multi-source loop, frequent enough that a probabilistic schedule
     hits mid-evaluation. *)
  Failpoint.check "rpq.bfs.step";
  sc.stamp <- sc.stamp + 1;
  let stamp = sc.stamp in
  let head = ref 0 and tail = ref 0 in
  let visit s =
    if sc.seen.(s) <> stamp then begin
      sc.seen.(s) <- stamp;
      sc.queue.(!tail) <- s;
      incr tail;
      if Product.is_final product s then begin
        let v, _ = Product.decode product s in
        if sc.tmark.(v) <> stamp then begin
          sc.tmark.(v) <- stamp;
          on_target v
        end
      end
    end
  in
  List.iter visit (Product.initials_at product src);
  let relaxed = ref 0 in
  let running = ref (Governor.ok gov) in
  while !running && !head < !tail do
    let s = sc.queue.(!head) in
    incr head;
    let lo, hi = Product.out_span product s in
    if Governor.tick_many gov (hi - lo) then begin
      relaxed := !relaxed + (hi - lo);
      for i = lo to hi - 1 do
        visit (Product.csr_succ product i)
      done
    end
    else running := false
  done;
  stats.sources 1;
  stats.transitions !relaxed;
  stats.states !tail

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
  ms_n : int; (* graph nodes *)
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
   BFS, no scratch touch — and first, like the scalar engine always
   did. *)
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
  let use_bitset = Rpq_bitset.enabled () in
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
        let kernel =
          if use_bitset then Par_policy.Bitset else Par_policy.Scalar
        in
        let d =
          Par_policy.decide ~obs ~kernel ~max_width:(Pool.size p)
            ~sources:ncand
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
  { ms_n = n; ms_cand = cand; ms_ncand = ncand; ms_selfs = selfs;
    ms_pool = pool; ms_width = width }

let record_run ~use_bitset ~width ~sources product ~t0 =
  Par_policy.record
    ~kernel:(if use_bitset then Par_policy.Bitset else Par_policy.Scalar)
    ~width ~sources
    ~product_edges:(Product.nb_product_edges product)
    ~elapsed:(Par_policy.now () -. t0) ()

(* Scalar multi-source run into per-worker buffers (codes, unsorted). *)
let scalar_codes ~obs gov product ms =
  let n = ms.ms_n in
  let stats = bfs_stats_of obs in
  let width = ms.ms_width in
  let bufs = Array.init width (fun _ -> Ibuf.create ()) in
  let next = Atomic.make 0 in
  let chunk = max 8 (ms.ms_ncand / (8 * width)) in
  Obs.span obs "rpq.bfs" (fun () ->
      Pool.fork_join ~obs ms.ms_pool ~width (fun w ->
          let sc = scratch_of product in
          let buf = bufs.(w) in
          let rec loop () =
            let lo = Atomic.fetch_and_add next chunk in
            if lo < ms.ms_ncand && Governor.ok gov then begin
              let hi = min ms.ms_ncand (lo + chunk) in
              for c = lo to hi - 1 do
                let u = ms.ms_cand.(c) in
                if Governor.ok gov then
                  bfs_targets gov stats product sc ~src:u (fun v ->
                      if Governor.emit gov then Ibuf.push buf ((u * n) + v))
              done;
              loop ()
            end
          in
          loop ()));
  bufs

(* Per-worker scalar buffers (plus the pre-sorted selfs) merged into one
   globally sorted code array. *)
let scalar_sorted_codes ~obs gov product ms =
  let bufs = scalar_codes ~obs gov product ms in
  Obs.span obs "rpq.merge" @@ fun () ->
  let total =
    ms.ms_selfs.Ibuf.len
    + Array.fold_left (fun a b -> a + b.Ibuf.len) 0 bufs
  in
  Obs.add obs "rpq.answers" total;
  let all = Array.make (max 1 total) 0 in
  Array.blit ms.ms_selfs.Ibuf.data 0 all 0 ms.ms_selfs.Ibuf.len;
  let pos = ref ms.ms_selfs.Ibuf.len in
  Array.iter
    (fun b ->
      Array.blit b.Ibuf.data 0 all !pos b.Ibuf.len;
      pos := !pos + b.Ibuf.len)
    bufs;
  (* Codes sort exactly like (u, v) pairs; sources never collide, so
     the merge needs no dedup. *)
  let all = Array.sub all 0 total in
  Array.sort (fun (a : int) b -> Stdlib.compare a b) all;
  all

let pairs_product_gov ?pool ?(obs = Obs.none) gov product =
  Obs.span obs "rpq.eval" @@ fun () ->
  let n = Elg.nb_nodes (Product.graph product) in
  if n = 0 then []
  else begin
    let ms = msetup ?pool ~obs gov product in
    let use_bitset = Rpq_bitset.enabled () in
    let t0 = Par_policy.now () in
    if use_bitset then begin
      let blocks =
        Rpq_bitset.pairs_codes ~obs ~pool:ms.ms_pool ~width:ms.ms_width gov
          product ~cand:ms.ms_cand ~ncand:ms.ms_ncand
      in
      record_run ~use_bitset ~width:ms.ms_width ~sources:ms.ms_ncand product
        ~t0;
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
          if
            !bi < 0
            || (!si >= 0 && sd.(!si) > blocks.(!bi).Ibuf.data.(!ji))
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
    else begin
      let all = scalar_sorted_codes ~obs gov product ms in
      record_run ~use_bitset ~width:ms.ms_width ~sources:ms.ms_ncand product
        ~t0;
      let rec build i acc =
        if i < 0 then acc
        else build (i - 1) ((all.(i) / n, all.(i) mod n) :: acc)
      in
      build (Array.length all - 1) []
    end
  end

(* Streaming consumption: fold [f] over the answers in globally sorted
   order without materializing the pair list — under the kernel the
   per-block buffers are visited in place (allocation stays O(blocks)
   however many answers there are). *)
let fold_pairs_product_gov ?pool ?(obs = Obs.none) gov product ~init ~f =
  Obs.span obs "rpq.eval" @@ fun () ->
  let n = Elg.nb_nodes (Product.graph product) in
  if n = 0 then init
  else begin
    let ms = msetup ?pool ~obs gov product in
    let use_bitset = Rpq_bitset.enabled () in
    let t0 = Par_policy.now () in
    if use_bitset then begin
      let blocks =
        Rpq_bitset.pairs_codes ~obs ~pool:ms.ms_pool ~width:ms.ms_width gov
          product ~cand:ms.ms_cand ~ncand:ms.ms_ncand
      in
      record_run ~use_bitset ~width:ms.ms_width ~sources:ms.ms_ncand product
        ~t0;
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
    else begin
      let all = scalar_sorted_codes ~obs gov product ms in
      record_run ~use_bitset ~width:ms.ms_width ~sources:ms.ms_ncand product
        ~t0;
      Array.fold_left (fun acc code -> f acc (code / n) (code mod n)) init all
    end
  end

(* Count of distinct answers without materializing any: the kernel's
   count-only mode under the bitset engine (O(blocks) allocation), a
   counting BFS sweep under the scalar fallback. *)
let count_pairs_product_gov ?pool ?(obs = Obs.none) gov product =
  Obs.span obs "rpq.eval" @@ fun () ->
  let n = Elg.nb_nodes (Product.graph product) in
  if n = 0 then 0
  else begin
    let ms = msetup ?pool ~obs gov product in
    if Rpq_bitset.enabled () then
      ms.ms_selfs.Ibuf.len
      + Rpq_bitset.count_pairs ~obs ~pool:ms.ms_pool ~width:ms.ms_width gov
          product ~cand:ms.ms_cand ~ncand:ms.ms_ncand
    else begin
      let stats = bfs_stats_of obs in
      let sc = scratch_of product in
      let total = ref ms.ms_selfs.Ibuf.len in
      let c = ref 0 in
      while !c < ms.ms_ncand && Governor.ok gov do
        bfs_targets gov stats product sc ~src:ms.ms_cand.(!c) (fun _ ->
            if Governor.emit gov then incr total);
        incr c
      done;
      Obs.add obs "rpq.answers" !total;
      !total
    end
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

(* Early-exit reachability: BFS the product but stop at the first
   accepting (tgt, q) instead of materializing the full answer set.
   Under the kernel this is {!Rpq_bitset.check}, the first-k fast path
   (probe between levels, no materialization, direction switch applies);
   the scalar loop below is the [GQ_BITSET=off] fallback. *)
let check_scalar gov product ~src ~tgt =
  let n = Product.nb_states product in
  let seen = Array.make (max 1 n) false in
  let queue = Array.make (max 1 n) 0 in
  let head = ref 0 and tail = ref 0 in
  let found = ref false in
  let visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      if Product.is_final product s && fst (Product.decode product s) = tgt
      then found := true;
      queue.(!tail) <- s;
      incr tail
    end
  in
  List.iter visit (Product.initials_at product src);
  while (not !found) && !head < !tail && Governor.ok gov do
    let s = queue.(!head) in
    incr head;
    let lo, hi = Product.out_span product s in
    if Governor.tick_many gov (hi - lo) then begin
      let i = ref lo in
      while (not !found) && !i < hi do
        visit (Product.csr_succ product !i);
        incr i
      done
    end
  done;
  Governor.seal gov !found

let check_bounded ?(obs = Obs.none) gov g r ~src ~tgt =
  let product = Product.make ~obs g (Nfa.of_regex r) in
  if Rpq_bitset.enabled () then
    Governor.seal gov (Rpq_bitset.check ~obs gov product ~src ~tgt)
  else check_scalar gov product ~src ~tgt

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
