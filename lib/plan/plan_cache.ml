type compiled = {
  source : string;
  flags : string;
  ast : Sym.t Regex.t;
  nfa : Sym.t Nfa.t;
  dfa : Dfa.t Lazy.t;
  symbols : string list;
}

type t = { store : (string * string, compiled) Lru.t }

let create ?(capacity = 128) () = { store = Lru.create ~capacity () }
let shared = create ()

let build ~flags ~source ast =
  let nfa = Nfa.of_regex ast in
  let dfa = lazy (Dfa.minimize (Dfa.of_nfa nfa)) in
  let symbols =
    Regex.atoms ast
    |> List.concat_map Sym.mentioned
    |> List.sort_uniq String.compare
  in
  { source; flags; ast; nfa; dfa; symbols }

(* Query-only artifacts never go stale, so every entry lives in
   generation 0; the generation machinery is exercised by the
   graph-dependent caches in Rpq_compile. *)
let compile ?(obs = Obs.none) t ~flags ~parse text =
  let key = (flags, text) in
  match Lru.find t.store key with
  | Some c ->
      Obs.incr obs "plan.cache.hit";
      Ok c
  | None ->
      Obs.incr obs "plan.cache.miss";
      Result.map
        (fun ast ->
          let c = build ~flags ~source:text ast in
          Lru.add t.store ~gen:0 key c;
          c)
        (parse text)

let compile_ast ?obs t re =
  let text = Regex.to_string Sym.to_string re in
  match compile ?obs t ~flags:"ast" ~parse:(fun _ -> Ok re) text with
  | Ok c -> c
  | Error _ -> assert false (* parse is total here *)

let was_cached t ~flags text =
  Option.is_some (Lru.peek t.store (flags, text))

let length t = Lru.length t.store
let hits t = Lru.hits t.store
let misses t = Lru.misses t.store
let evictions t = Lru.evictions t.store
let clear t = Lru.clear t.store
