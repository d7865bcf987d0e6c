let exact_pairs g r = List.length (Rpq_eval.pairs g r)

let estimate_pairs g r ~samples ~seed =
  let n = Elg.nb_nodes g in
  if n = 0 || samples <= 0 then 0.0
  else begin
    let st = Random.State.make [| seed |] in
    let w = Rpq_walk.make g (Nfa.of_regex r) in
    let total = ref 0 in
    for _ = 1 to samples do
      let src = Random.State.int st n in
      (* Out-degree of the sampled source in the answer relation. *)
      total :=
        !total + List.length (Rpq_walk.targets (Governor.unlimited ()) w ~src)
    done;
    float_of_int !total /. float_of_int samples *. float_of_int n
  end

let relative_error g r ~samples ~seed =
  let exact = exact_pairs g r in
  let est = estimate_pairs g r ~samples ~seed in
  Float.abs (est -. float_of_int exact) /. float_of_int (max 1 exact)
