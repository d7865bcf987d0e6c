(* The bit-parallel multi-source RPQ kernel.

   Sources are packed 63 per native word: block [b] covers sources
   [cand.(63*b) .. cand.(63*b + 62)], and every product state carries
   packed words — [visited] (which packed sources have reached it) and a
   frontier word — so one sweep advances *all* packed sources at once:
   the all-pairs BFS loop becomes a blocked bit-matrix product over the
   boolean semiring, the same shape the matrix oracle in the
   differential suite pins.

   The BFS is level-synchronous and direction-optimizing.  Each level
   either *pushes* (scan the frontier states' out-edges, scatter bits
   forward) or *pulls* (scan incomplete states' in-edges over the
   reverse CSR, gather frontier bits with one word load each and stop as
   soon as the missing bits are covered).  The Beamer-style switch
   compares the frontier's out-edge volume against the out-edge volume
   still unexplored: pull pays when the frontier is a constant fraction
   of the graph, which on RPQ products happens on closure-style starred
   queries where whole levels saturate.  Per-level decisions are visible
   as [rpq.bitset.push_sweeps] / [pull_sweeps] / [switches].

   Budgets: one [Governor.tick_many] per adjacency span scanned
   (either direction), answers pass [Governor.emit_many] — the same
   soundness contract as every other engine.  [visited] bits are true
   reachability facts whatever the interleaving or direction, so a
   budget trip mid-run still yields a sound Partial subset.

   Answers are emitted per block in node order with no sort: a push/pull
   run leaves accepting bits in [visited]; emission either scans nodes
   in order (dense blocks) or gathers per-node answer words and walks an
   answered-node *bitmap* in word order (sparse blocks) — both produce
   per-source target buffers already ascending, so concatenating
   per-block buffers in block order yields globally sorted answers.
   This replaced a per-source sort that cost ~4x the BFS itself at 2M
   answers.  Count-only and probe modes skip materialization entirely:
   they touch O(blocks) memory however many answers exist.

   Blocks are distributed over the [Pool] by an atomic claim counter;
   each worker owns one scratch. *)

let word_bits = 63

(* --- push/pull policy ---------------------------------------------------- *)

type pull_mode = Adaptive of int | Always_push | Always_pull

(* Pull pays one linear pass over all product states plus the in-edges
   it actually scans, so it needs a dense frontier to win: switch when
   alpha * (frontier out-edges) >= (unexplored out-edges) + states.
   alpha = 12 lands close to Beamer's 1/14 edge-fraction rule once the
   early-exit saving of the gather loop is accounted for. *)
let default_pull_alpha = 12

(* Pinned only by the differential tests and bench E25, which run push
   and pull as references for the adaptive default. *)
let pull_override : pull_mode option Atomic.t = Atomic.make None

let pull_mode () =
  match Atomic.get pull_override with
  | Some m -> m
  | None -> Adaptive default_pull_alpha

let set_pull_mode m = Atomic.set pull_override (Some m)
let clear_pull_mode () = Atomic.set pull_override None

(* --- scratch ------------------------------------------------------------- *)

type scratch = {
  visited : int array; (* product state -> reached-by bits *)
  front : int array; (* product state -> current-level frontier bits *)
  front2 : int array; (* product state -> next-level frontier bits *)
  cur : Ibuf.t; (* states with front <> 0 *)
  nxt : Ibuf.t; (* states with front2 <> 0 *)
  touched : Ibuf.t; (* states with visited <> 0, for O(touched) clearing *)
  answord : int array; (* graph node -> accepting bits (OR over final qs) *)
  amask : int array; (* bitmap over graph nodes: answord.(v) <> 0 *)
  tbufs : Ibuf.t array; (* per packed source: target nodes, ascending *)
  fmask : Bytes.t; (* product state -> is accepting (emission scans run
                      over millions of touched states; a byte load beats
                      the [mod nq] behind [Product.is_final]) *)
}

let scratch_of product =
  let ns = max 1 (Product.nb_states product) in
  let n = max 1 (Elg.nb_nodes (Product.graph product)) in
  let nq = Product.nb_automaton_states product in
  let fqs = Product.final_qs product in
  let fmask = Bytes.make ns '\000' in
  for v = 0 to Elg.nb_nodes (Product.graph product) - 1 do
    Array.iter (fun q -> Bytes.unsafe_set fmask ((v * nq) + q) '\001') fqs
  done;
  {
    visited = Array.make ns 0;
    front = Array.make ns 0;
    front2 = Array.make ns 0;
    cur = Ibuf.create ();
    nxt = Ibuf.create ();
    touched = Ibuf.create ();
    answord = Array.make n 0;
    amask = Array.make ((n + word_bits - 1) / word_bits) 0;
    tbufs = Array.init word_bits (fun _ -> Ibuf.create ());
    fmask;
  }

(* Index of the single set bit of [b] (0..62), by mask cascade — the
   stdlib has no ctz, and a per-bit loop would pay up to 62 iterations
   per answer. *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin
    n := 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then incr n;
  !n

(* Set bits of [w] (Kernighan's loop: O(answers), no 64-bit constants —
   OCaml ints are 63-bit, so SWAR masks don't fit a literal). *)
let popcount w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

type stats = {
  sweeps : int -> unit; (* rpq.bitset.sweeps *)
  words : int -> unit; (* rpq.bitset.word_transitions *)
  states : int -> unit; (* rpq.states_visited *)
  pull_sweeps : int -> unit; (* rpq.bitset.pull_sweeps *)
  push_sweeps : int -> unit; (* rpq.bitset.push_sweeps *)
  switches : int -> unit; (* rpq.bitset.switches *)
  materialized : int -> unit; (* rpq.bitset.materialized *)
}

let stats_of obs =
  {
    sweeps = Obs.counter_fn obs "rpq.bitset.sweeps";
    words = Obs.counter_fn obs "rpq.bitset.word_transitions";
    states = Obs.counter_fn obs "rpq.states_visited";
    pull_sweeps = Obs.counter_fn obs "rpq.bitset.pull_sweeps";
    push_sweeps = Obs.counter_fn obs "rpq.bitset.push_sweeps";
    switches = Obs.counter_fn obs "rpq.bitset.switches";
    materialized = Obs.counter_fn obs "rpq.bitset.materialized";
  }

(* What a block does with its answers.  [Emit] hands each packed source
   its target buffer (ascending, deduplicated; valid only during the
   callback — the buffer is scratch and is reused).  [Count] is called
   at most once per block with the admitted answer count and never
   materializes a target: O(blocks) allocation however many answers.
   [Probe] skips emission entirely; callers inspect reachability through
   [stop]. *)
type mode =
  | Emit of (k:int -> targets:Ibuf.t -> admitted:int -> unit)
  | Count of (int -> unit)
  | Probe

(* --- one block ----------------------------------------------------------- *)

(* Run packed sources [cand.(lo) .. cand.(hi-1)] (hi - lo <= 63) to
   fixpoint or budget trip, level-synchronously, then emit per [mode].
   [stop], when given, is polled between levels: returning [true] ends
   the BFS early with the bits found so far (the first-k fast path). *)
let run_block ?stop gov st product sc ~cand ~lo ~hi ~mode =
  (* Work on the raw CSR arrays and skip bounds checks: every index
     below is a product-state id (< length visited = length front) or a
     CSR position within [off.(s) .. off.(s+1)). *)
  let off, succ = Product.csr product in
  let visited = sc.visited in
  (* Clear the previous block's marks: O(what it touched).  Every state
     with frontier bits also has visited bits, so the touched list
     covers all three arrays. *)
  for i = 0 to sc.touched.Ibuf.len - 1 do
    let s = sc.touched.Ibuf.data.(i) in
    visited.(s) <- 0;
    sc.front.(s) <- 0;
    sc.front2.(s) <- 0
  done;
  Ibuf.clear sc.touched;
  Ibuf.clear sc.cur;
  Ibuf.clear sc.nxt;
  let nbits = hi - lo in
  let full = if nbits >= word_bits then -1 else (1 lsl nbits) - 1 in
  let ns = Product.nb_states product in
  (* Beamer bookkeeping: [m_f] = out-edges of the current frontier,
     [m_u] = out-edges of states not yet fully visited (upper bound on
     useful push work ahead). *)
  let m_f = ref 0 in
  let m_u = ref (Product.nb_product_edges product) in
  for k = 0 to nbits - 1 do
    let bit = 1 lsl k in
    List.iter
      (fun s ->
        if visited.(s) land bit = 0 then begin
          let was = visited.(s) in
          if was = 0 then Ibuf.push sc.touched s;
          let now = was lor bit in
          visited.(s) <- now;
          if now = full && was <> full then m_u := !m_u - (off.(s + 1) - off.(s));
          if sc.front.(s) = 0 then begin
            Ibuf.push sc.cur s;
            m_f := !m_f + (off.(s + 1) - off.(s))
          end;
          sc.front.(s) <- sc.front.(s) lor bit
        end)
      (Product.initials_at product cand.(lo + k))
  done;
  let policy = pull_mode () in
  let sweeps = ref 0 and words = ref 0 in
  let pulls = ref 0 and pushes = ref 0 and switches = ref 0 in
  let was_pull = ref false in
  let front = ref sc.front and front2 = ref sc.front2 in
  let cur = ref sc.cur and nxt = ref sc.nxt in
  let running = ref (Governor.ok gov) in
  (match stop with
  | Some f -> if f () then running := false
  | None -> ());
  while !running && (!cur).Ibuf.len > 0 do
    (* One injection site per level sweep; one branch when disarmed. *)
    Failpoint.check "rpq.bfs.step";
    let use_pull =
      match policy with
      | Always_push -> false
      | Always_pull -> true
      | Adaptive alpha -> alpha * !m_f >= !m_u + ns
    in
    if !pulls + !pushes > 0 && use_pull <> !was_pull then incr switches;
    was_pull := use_pull;
    let fr = !front and fr2 = !front2 in
    m_f := 0;
    if not use_pull then begin
      (* Push: scan the frontier's out-edges, scatter bits forward. *)
      incr pushes;
      let cd = (!cur).Ibuf.data and cl = (!cur).Ibuf.len in
      let i = ref 0 in
      while !running && !i < cl do
        let s = Array.unsafe_get cd !i in
        incr i;
        let f = Array.unsafe_get fr s in
        Array.unsafe_set fr s 0;
        let elo = Array.unsafe_get off s in
        let ehi = Array.unsafe_get off (s + 1) in
        if Governor.tick_many gov (ehi - elo) then begin
          incr sweeps;
          words := !words + (ehi - elo);
          for j = elo to ehi - 1 do
            let t = Array.unsafe_get succ j in
            let vt = Array.unsafe_get visited t in
            let add = f land lnot vt in
            if add <> 0 then begin
              if vt = 0 then Ibuf.push sc.touched t;
              let vt' = vt lor add in
              Array.unsafe_set visited t vt';
              if vt' = full then
                m_u :=
                  !m_u - (Array.unsafe_get off (t + 1) - Array.unsafe_get off t);
              let ft = Array.unsafe_get fr2 t in
              if ft = 0 then begin
                Ibuf.push !nxt t;
                m_f :=
                  !m_f + (Array.unsafe_get off (t + 1) - Array.unsafe_get off t)
              end;
              Array.unsafe_set fr2 t (ft lor add)
            end
          done
        end
        else running := false
      done
    end
    else begin
      (* Pull: scan incomplete states' in-edges, gather frontier bits,
         early-exit once the missing bits are covered.  Only the spans
         actually scanned are ticked. *)
      incr pulls;
      let rin_off, rin_pred = Product.rev_csr product in
      let s = ref 0 in
      while !running && !s < ns do
        let t = !s in
        let vt = Array.unsafe_get visited t in
        if vt <> full then begin
          let missing = full land lnot vt in
          let ilo = Array.unsafe_get rin_off t in
          let ihi = Array.unsafe_get rin_off (t + 1) in
          if ihi > ilo then begin
            let acc = ref 0 and j = ref ilo in
            while !j < ihi && missing land lnot !acc <> 0 do
              acc := !acc lor Array.unsafe_get fr (Array.unsafe_get rin_pred !j);
              incr j
            done;
            if Governor.tick_many gov (!j - ilo) then begin
              incr sweeps;
              words := !words + (!j - ilo);
              let add = missing land !acc in
              if add <> 0 then begin
                if vt = 0 then Ibuf.push sc.touched t;
                let vt' = vt lor add in
                Array.unsafe_set visited t vt';
                if vt' = full then
                  m_u :=
                    !m_u
                    - (Array.unsafe_get off (t + 1) - Array.unsafe_get off t);
                (* Every bit gained this level is next-level frontier;
                   [fr2.(t)] is clean (a state is scanned once per pull
                   sweep). *)
                Ibuf.push !nxt t;
                Array.unsafe_set fr2 t add;
                m_f :=
                  !m_f + (Array.unsafe_get off (t + 1) - Array.unsafe_get off t)
              end
            end
            else running := false
          end
        end;
        incr s
      done;
      (* Pull reads [fr] without consuming it: retire the level now. *)
      let cd = (!cur).Ibuf.data in
      for i = 0 to (!cur).Ibuf.len - 1 do
        Array.unsafe_set fr (Array.unsafe_get cd i) 0
      done
    end;
    (* Level barrier: next frontier becomes current; the spent arrays
       (all zeros after the sweep) become next-level scratch. *)
    let f = !front in
    front := !front2;
    front2 := f;
    let c = !cur in
    cur := !nxt;
    nxt := c;
    Ibuf.clear !nxt;
    (match stop with
    | Some f -> if !running && f () then running := false
    | None -> ())
  done;
  st.sweeps !sweeps;
  st.words !words;
  st.states sc.touched.Ibuf.len;
  st.pull_sweeps !pulls;
  st.push_sweeps !pushes;
  st.switches !switches;
  (* --- emission ---------------------------------------------------------- *)
  let n = Elg.nb_nodes (Product.graph product) in
  let nq = Product.nb_automaton_states product in
  let fqs = Product.final_qs product in
  let nf = Array.length fqs in
  (* When the block reached a constant fraction of the graph, scan every
     node's accepting rows in node order; otherwise gather per-node
     answer words from the touched list and walk an answered-node bitmap
     in word order.  Both orders are ascending by construction — no
     sort, and the OR across accepting rows dedups for free. *)
  let dense = 4 * sc.touched.Ibuf.len >= n in
  match mode with
  | Probe -> ()
  | Count add_count ->
      let total = ref 0 in
      let count_word w =
        if w <> 0 then begin
          let adm = Governor.emit_many gov (popcount w) in
          total := !total + adm
        end
      in
      if dense then
        for v = 0 to n - 1 do
          let base = v * nq in
          let w = ref 0 in
          for j = 0 to nf - 1 do
            w := !w lor Array.unsafe_get visited (base + Array.unsafe_get fqs j)
          done;
          count_word !w
        done
      else if nf = 1 then
        (* One accepting automaton state: distinct accepting product
           states are distinct nodes, no per-node dedup needed. *)
        for i = 0 to sc.touched.Ibuf.len - 1 do
          let s = sc.touched.Ibuf.data.(i) in
          if Bytes.unsafe_get sc.fmask s <> '\000' then count_word visited.(s)
        done
      else begin
        let aw = sc.answord and am = sc.amask in
        for i = 0 to sc.touched.Ibuf.len - 1 do
          let s = sc.touched.Ibuf.data.(i) in
          if Bytes.unsafe_get sc.fmask s <> '\000' then begin
            let v = s / nq in
            let old = aw.(v) in
            if old = 0 then
              am.(v / word_bits) <-
                am.(v / word_bits) lor (1 lsl (v mod word_bits));
            aw.(v) <- old lor visited.(s)
          end
        done;
        for wi = 0 to Array.length am - 1 do
          let mw = ref am.(wi) in
          if !mw <> 0 then begin
            am.(wi) <- 0;
            let base = wi * word_bits in
            while !mw <> 0 do
              let b = !mw land - !mw in
              mw := !mw lxor b;
              let v = base + bit_index b in
              count_word aw.(v);
              aw.(v) <- 0
            done
          end
        done
      end;
      if !total > 0 then add_count !total
  | Emit emit ->
      let tbufs = sc.tbufs in
      let distribute v w =
        let w = ref w in
        while !w <> 0 do
          let b = !w land - !w in
          w := !w lxor b;
          (* Inlined [Ibuf.push] fast path: one answer per set bit, so
             the per-element call + capacity check is the hot cost. *)
          let tb = Array.unsafe_get tbufs (bit_index b) in
          let len = tb.Ibuf.len in
          if len < Array.length tb.Ibuf.data then begin
            Array.unsafe_set tb.Ibuf.data len v;
            tb.Ibuf.len <- len + 1
          end
          else Ibuf.push tb v
        done
      in
      if dense then
        for v = 0 to n - 1 do
          let base = v * nq in
          let w = ref 0 in
          for j = 0 to nf - 1 do
            w := !w lor Array.unsafe_get visited (base + Array.unsafe_get fqs j)
          done;
          if !w <> 0 then distribute v !w
        done
      else begin
        let aw = sc.answord and am = sc.amask in
        for i = 0 to sc.touched.Ibuf.len - 1 do
          let s = sc.touched.Ibuf.data.(i) in
          if Bytes.unsafe_get sc.fmask s <> '\000' then begin
            let v = s / nq in
            let old = aw.(v) in
            if old = 0 then
              am.(v / word_bits) <-
                am.(v / word_bits) lor (1 lsl (v mod word_bits));
            aw.(v) <- old lor visited.(s)
          end
        done;
        for wi = 0 to Array.length am - 1 do
          let mw = ref am.(wi) in
          if !mw <> 0 then begin
            am.(wi) <- 0;
            let base = wi * word_bits in
            while !mw <> 0 do
              let b = !mw land - !mw in
              mw := !mw lxor b;
              let v = base + bit_index b in
              distribute v aw.(v);
              aw.(v) <- 0
            done
          end
        done
      end;
      for k = 0 to nbits - 1 do
        let tb = sc.tbufs.(k) in
        if tb.Ibuf.len > 0 then begin
          let admitted = Governor.emit_many gov tb.Ibuf.len in
          if admitted > 0 then begin
            st.materialized admitted;
            emit ~k ~targets:tb ~admitted
          end;
          Ibuf.clear tb
        end
      done

(* --- block fan-out ------------------------------------------------------- *)

let nb_blocks n_sources = (n_sources + word_bits - 1) / word_bits

(* Distribute blocks over the pool; [mode_of block lo] builds the
   block's emission mode, whose callbacks must be safe for concurrent
   calls on *different* blocks (each call stays within one block, and a
   block is owned by one worker). *)
let run_blocks ?(obs = Obs.none) ?stop ~pool ~width gov product ~cand ~ncand
    ~mode_of =
  let nblocks = nb_blocks ncand in
  if nblocks > 0 then begin
    Obs.add obs "rpq.sources" ncand;
    Obs.add obs "rpq.bitset.blocks" nblocks;
    let st = stats_of obs in
    let next = Atomic.make 0 in
    Obs.span obs "rpq.bfs" (fun () ->
        Pool.fork_join ~obs pool ~width (fun _ ->
            let sc = scratch_of product in
            let rec loop () =
              let b = Atomic.fetch_and_add next 1 in
              if b < nblocks && Governor.ok gov then begin
                let lo = b * word_bits in
                let hi = min ncand (lo + word_bits) in
                run_block ?stop gov st product sc ~cand ~lo ~hi
                  ~mode:(mode_of b lo);
                loop ()
              end
            in
            loop ()))
  end

(* --- entry points -------------------------------------------------------- *)

let pairs_codes ?obs ~pool ~width gov product ~cand ~ncand =
  let n = Elg.nb_nodes (Product.graph product) in
  let outs = Array.init (nb_blocks ncand) (fun _ -> Ibuf.create ()) in
  run_blocks ?obs ~pool ~width gov product ~cand ~ncand
    ~mode_of:(fun block lo ->
      let buf = outs.(block) in
      Emit
        (fun ~k ~targets ~admitted ->
          let base = cand.(lo + k) * n in
          let d = targets.Ibuf.data in
          let dst = Ibuf.reserve buf admitted in
          let pos = buf.Ibuf.len in
          for i = 0 to admitted - 1 do
            Array.unsafe_set dst (pos + i) (base + Array.unsafe_get d i)
          done;
          Ibuf.set_len buf (pos + admitted)));
  outs

let count_pairs ?(obs = Obs.none) ~pool ~width gov product ~cand ~ncand =
  let total = Atomic.make 0 in
  run_blocks ~obs ~pool ~width gov product ~cand ~ncand
    ~mode_of:(fun _ _ -> Count (fun c -> ignore (Atomic.fetch_and_add total c)));
  let total = Atomic.get total in
  Obs.add obs "rpq.answers" total;
  total

let targets ?(obs = Obs.none) ?pool gov product ~sources =
  let nsrc = Array.length sources in
  let pool, width =
    match pool with
    | Some p ->
        ignore (Par_policy.pinned ~width:(Pool.size p));
        (p, Pool.size p)
    | None ->
        let p = Pool.default () in
        let d =
          Par_policy.decide ~obs ~kernel:Par_policy.Bitset
            ~max_width:(Pool.size p) ~sources:nsrc
            ~product_edges:(Product.nb_product_edges product) ()
        in
        (p, d.Par_policy.width)
  in
  Obs.add obs "rpq.par_width" width;
  let out = Array.make nsrc [||] in
  let t0 = Par_policy.now () in
  run_blocks ~obs ~pool ~width gov product ~cand:sources ~ncand:nsrc
    ~mode_of:(fun _ lo ->
      Emit
        (fun ~k ~targets ~admitted -> out.(lo + k) <- Ibuf.sub targets admitted));
  Par_policy.record ~kernel:Par_policy.Bitset ~width ~sources:nsrc
    ~product_edges:(Product.nb_product_edges product)
    ~elapsed:(Par_policy.now () -. t0) ();
  let total = Array.fold_left (fun a l -> a + Array.length l) 0 out in
  Obs.add obs "rpq.answers" total;
  out

(* Single-source early-exit reachability: the first-k (k = 1) fast path
   behind [Rpq_eval.check].  Probes [tgt]'s accepting rows between
   levels — no emission, no materialization, and the direction switch
   applies (a closure query over a dense component completes in a
   handful of pull sweeps). *)
let check ?(obs = Obs.none) gov product ~src ~tgt =
  let st = stats_of obs in
  let sc = scratch_of product in
  let nq = Product.nb_automaton_states product in
  let fqs = Product.final_qs product in
  let found = ref false in
  let stop () =
    (not !found)
    && Array.exists (fun q -> sc.visited.((tgt * nq) + q) <> 0) fqs
    && begin
         found := true;
         true
       end
  in
  run_block ~stop gov st product sc ~cand:[| src |] ~lo:0 ~hi:1 ~mode:Probe;
  (* A trip before the probe fired could still have left the bit. *)
  if not !found then
    found := Array.exists (fun q -> sc.visited.((tgt * nq) + q) <> 0) fqs;
  !found
