(* Seeded inputs: the three workloads' graphs, their query-text pools,
   and the request streams the clients send.  Everything here is a pure
   function of the workload and the seed, so the same seed always gives
   the same graph files and the same request sequence. *)

type workload = Log_mix | Bulk_rpq | Write_mix

let workload_of_string = function
  | "log_mix" -> Some Log_mix
  | "bulk_rpq" -> Some Bulk_rpq
  | "write_mix" -> Some Write_mix
  | _ -> None

let workload_name = function
  | Log_mix -> "log_mix"
  | Bulk_rpq -> "bulk_rpq"
  | Write_mix -> "write_mix"

type kind = Ping | Rpq_from | Rpq | Shortest | Query | Add_edge | Del_edge

let verb = function
  | Ping -> "ping"
  | Rpq_from -> "rpq-from"
  | Rpq -> "rpq"
  | Shortest -> "shortest"
  | Query -> "query"
  | Add_edge -> "add-edge"
  | Del_edge -> "del-edge"

(* The verbs a per-verb layer metric is reported for. *)
let read_kinds = [ Rpq; Rpq_from; Shortest; Query ]
let measured_kinds = read_kinds @ [ Add_edge; Del_edge ]
let is_write = function Add_edge | Del_edge -> true | _ -> false

type req = {
  kind : kind;
  line : string;  (* the command line sent *)
  text : string;  (* rpq / rpq-from regex; "" otherwise *)
  node : string;  (* rpq-from source; "" otherwise *)
  labels : string list option;  (* labels the request can read; None = all *)
  op : Pg.delta_op option;  (* writes only *)
}

(* --- query texts ---------------------------------------------------------- *)

(* E10's regex shapes, which stand in for the SPARQL-log shape
   distribution; the placeholders a, b, c are substituted with distinct
   graph labels.  E10 lists the shapes without frequencies, so the
   streams draw every shape equally often. *)
let shapes =
  [| "a*"; "a+"; "a?"; "a.b"; "a.b.c"; "a|b"; "a|b|c"; "(a|b)*"; "a.b*";
     "a*.b"; "a.(b|c)"; "(a.b)+"; "a{1,3}"; "_*"; "a._*"; "_*.a"; "!{a}*";
     "a.!{a,b}"; "(a|b).c*"; "a*.b.c?" |]

(* Shapes whose full `rpq` answer set stays small on the log-mix graph
   (degree 0.5 per label: every closure over one label is subcritical);
   the rest reach most of the graph and are only asked as rpq-from. *)
let selective shape =
  not (List.mem shape [ "(a|b)*"; "_*"; "a._*"; "_*.a"; "!{a}*" ])

let substitute shape (la, lb, lc) =
  String.concat ""
    (List.map
       (function
         | 'a' -> la | 'b' -> lb | 'c' -> lc | ch -> String.make 1 ch)
       (List.of_seq (String.to_seq shape)))

let wildcard text = String.contains text '_' || String.contains text '!'

(* Labels a text can traverse; [None] when it has a wildcard. *)
let text_labels text =
  if wildcard text then None
  else
    Some
      (List.sort_uniq compare
         (List.filter_map
            (fun ch ->
              if ch >= 'a' && ch <= 'z' then Some (String.make 1 ch) else None)
            (List.of_seq (String.to_seq text))))

let draw_triple st labels =
  let n = Array.length labels in
  let a = Random.State.int st n in
  let b = (a + 1 + Random.State.int st (n - 1)) mod n in
  let rec pick () =
    let c = Random.State.int st n in
    if c = a || c = b then pick () else c
  in
  (labels.(a), labels.(b), labels.(pick ()))

(* Up to [k] distinct label substitutions of [shape], in Zipf rank order.
   A one-label shape has only as many as there are labels, and [_*] has
   one. *)
let substitutions st labels shape k =
  let seen = Hashtbl.create 32 and out = ref [] and tries = ref 0 in
  while Hashtbl.length seen < k && !tries < 30 * k do
    incr tries;
    let t = substitute shape (draw_triple st labels) in
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      out := t :: !out
    end
  done;
  Array.of_list (List.rev !out)

(* Zipf exponent over a shape's substitutions.  An assumption: the log
   study behind E10 reports shapes, not how often one text repeats. *)
let zipf_s = 1.0

(* Zipf(s) probabilities of ranks 0..n-1. *)
let zipf_weights ~s n =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

(* A sampler of ranks 0..n-1 with probabilities [w]. *)
let sampler w =
  let cum = Array.make (Array.length w) 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      acc := !acc +. x;
      cum.(i) <- !acc)
    w;
  fun st ->
    let u = Random.State.float st !acc in
    let lo = ref 0 and hi = ref (Array.length w - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* --- workload specs ------------------------------------------------------- *)

type spec = {
  w : workload;
  nodes : int;
  edges : int;
  labels : string array;
  binary : bool;  (* graph file in GQB1 rather than text *)
  inflight : int;  (* outstanding requests per read connection *)
  read_conns : int;
  write_rate : float;  (* open-loop writes/s on their own connection; 0 = none *)
}

let log_spec =
  { w = Log_mix; nodes = 10_000; edges = 40_000;
    labels = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |];
    binary = false; inflight = 2; read_conns = 2; write_rate = 0.0 }

let spec = function
  | Log_mix -> log_spec
  | Bulk_rpq ->
      { w = Bulk_rpq; nodes = 25_000; edges = 100_000;
        labels = [| "a"; "b"; "c"; "d" |];
        binary = true; inflight = 1; read_conns = 2; write_rate = 0.0 }
  | Write_mix -> { log_spec with w = Write_mix; read_conns = 1; write_rate = 10.0 }

(* The label no read mentions: writes on it leave every non-wildcard
   product warm. *)
let cold_label = "z"

(* Each workload draws from its own seed stream, so write_mix's graph is
   not log_mix's graph at the same seed. *)
let salt = function Log_mix -> 101 | Bulk_rpq -> 202 | Write_mix -> 303

let graph spec ~seed =
  let gseed = (seed * 7919) + salt spec.w in
  let labels = Array.to_list spec.labels in
  if spec.binary then begin
    let g =
      Generators.random_graph ~seed:gseed ~nodes:spec.nodes ~edges:spec.edges
        ~labels
    in
    Pg.make
      ~nodes:(List.init (Elg.nb_nodes g) (fun v -> (Elg.node_name g v, "V", [])))
      ~edges:
        (List.init (Elg.nb_edges g) (fun e ->
             ( Elg.edge_name g e,
               Elg.node_name g (Elg.src g e),
               Elg.label g e,
               Elg.node_name g (Elg.tgt g e),
               [] )))
  end
  else
    Generators.random_pg ~seed:gseed ~nodes:spec.nodes ~edges:spec.edges ~labels
      ~prop:"w" ~max_value:9

(* --- request pools -------------------------------------------------------- *)

type pools = {
  texts : string array array;  (* per shape: its substitutions, Zipf rank order *)
  rank : (Random.State.t -> int) array;  (* per shape: a Zipf sampler over them *)
  rpq_shapes : int array;  (* the shapes full `rpq` asks: the selective ones *)
  shortest : req array;
  queries : req array;
  hot_label : string;
}

let node_name i = Printf.sprintf "v%d" i

let mk kind ?(text = "") ?(node = "") ?op ~labels line =
  { kind; line; text; node; labels; op }

(* Eight fixed shapes whose full answer sets hold about 25k-75k pairs on the
   bulk graph (degree 1 per label), one label substitution each per seed. *)
let bulk_shapes =
  [| "a.b"; "a|b"; "a|b|c"; "a.(b|c)"; "a{1,3}"; "a.b.c?"; "a?"; "(a|b).c" |]

(* Shortest-path requests whose target is reachable under the regex,
   found with an in-process evaluation over the generated graph. *)
let shortest_pool st spec g texts n =
  let cache = Rpq_compile.create () in
  let closure =
    match
      List.filter (fun t -> String.contains t '*' || String.contains t '+')
        (Array.to_list texts)
    with
    | [] -> texts
    | l -> Array.of_list l
  in
  let out = ref [] and count = ref 0 and tries = ref 0 in
  while !count < n && !tries < 50 * n do
    incr tries;
    let text = closure.(Random.State.int st (Array.length closure)) in
    let src = Random.State.int st spec.nodes in
    match Rpq_compile.compile cache text with
    | Error _ -> ()
    | Ok c -> (
        let reach =
          Governor.value
            (Rpq_compile.from_source_bounded cache (Governor.unlimited ()) g c
               ~src)
        in
        let reach = List.filter (fun v -> v <> src) reach in
        match reach with
        | [] -> ()
        | _ ->
            let tgt = List.nth reach (Random.State.int st (List.length reach)) in
            let line =
              Printf.sprintf "shortest %s %s %s" (node_name src)
                (Elg.node_name g tgt) text
            in
            out := mk Shortest ~labels:(text_labels text) line :: !out;
            incr count)
  done;
  Array.of_list (List.rev !out)

(* One-hop GQL queries: a label, a filter on the source's property and a
   grouped count. *)
let query_pool st spec n =
  Array.init n (fun _ ->
      let l = spec.labels.(Random.State.int st (Array.length spec.labels)) in
      let k = Random.State.int st 10 in
      mk Query ~labels:(Some [ l ])
        (Printf.sprintf
           "query MATCH (x WHERE x.w = %d)-[e:%s]->(y) RETURN y.w, count(*)" k l))

let pools spec ~seed g =
  let st = Random.State.make [| seed; salt spec.w; 1 |] in
  (* log_mix: up to 20 substitutions of each E10 shape, 297 texts with 8
     labels.  bulk_rpq: one substitution of each bulk shape. *)
  let shape_set, per_shape =
    match spec.w with
    | Bulk_rpq -> (bulk_shapes, 1)
    | Log_mix | Write_mix -> (shapes, 20)
  in
  let texts = Array.map (fun sh -> substitutions st spec.labels sh per_shape) shape_set in
  let weights = Array.map (fun pool -> zipf_weights ~s:zipf_s (Array.length pool)) texts in
  (* The written hot label: the one whose share of the drawn texts is
     closest to a quarter.  Picking by share rather than by name keeps
     the read traffic a write invalidates about the same for every
     seed. *)
  let hot_label =
    let share l =
      let w = ref 0.0 in
      Array.iteri
        (fun i pool ->
          Array.iteri
            (fun j t ->
              match text_labels t with
              | Some ls when List.mem l ls -> w := !w +. weights.(i).(j)
              | _ -> ())
            pool)
        texts;
      !w /. float_of_int (Array.length texts)
    in
    let dist l = Float.abs (share l -. 0.25) in
    Array.fold_left
      (fun best l -> if dist l < dist best then l else best)
      spec.labels.(0) spec.labels
  in
  {
    texts;
    rank = Array.map sampler weights;
    rpq_shapes =
      Array.of_list
        (List.filter
           (fun i -> selective shape_set.(i))
           (List.init (Array.length shape_set) Fun.id));
    shortest = shortest_pool st spec (Pg.elg g) (Array.concat (Array.to_list texts)) 100;
    queries = query_pool st spec 40;
    hot_label;
  }

(* --- streams -------------------------------------------------------------- *)

(* A text of shape [i], its substitution drawn by Zipf rank. *)
let draw_text p st i = p.texts.(i).(p.rank.(i) st)

let rpq_from_req p st spec =
  let text = draw_text p st (Random.State.int st (Array.length p.texts)) in
  let node = node_name (Random.State.int st spec.nodes) in
  mk Rpq_from ~text ~node ~labels:(text_labels text)
    (Printf.sprintf "rpq-from %s %s" node text)

let rpq_req p st =
  let text =
    draw_text p st p.rpq_shapes.(Random.State.int st (Array.length p.rpq_shapes))
  in
  mk Rpq ~text ~labels:(text_labels text) ("rpq " ^ text)

let ping_req = mk Ping ~labels:(Some []) "ping"

(* The read stream of one connection: an endless seeded sequence.
   log_mix (and write_mix's reader): ~80% rpq-from, ~8% full rpq over
   selective shapes, ~5% shortest, ~2% one-hop GQL, ~5% ping probes.
   bulk_rpq: full rpq over its eight texts plus ~5% ping probes. *)
let read_stream spec p ~seed ~conn =
  let st = Random.State.make [| seed; salt spec.w; 10 + conn |] in
  fun () ->
    let u = Random.State.float st 1.0 in
    match spec.w with
    | Bulk_rpq -> if u < 0.95 then rpq_req p st else ping_req
    | Log_mix | Write_mix ->
        if u < 0.80 then rpq_from_req p st spec
        else if u < 0.88 then rpq_req p st
        else if u < 0.93 then p.shortest.(Random.State.int st (Array.length p.shortest))
        else if u < 0.95 then p.queries.(Random.State.int st (Array.length p.queries))
        else ping_req

(* Request [i] of a probe of read verb [kind], for the workloads whose
   traffic does not use it. *)
let probe_read spec p ~seed kind i =
  let st = Random.State.make [| seed; salt spec.w; 97; i |] in
  match kind with
  | Rpq_from -> rpq_from_req p st spec
  | Rpq -> rpq_req p st
  | Shortest -> p.shortest.(Random.State.int st (Array.length p.shortest))
  | Query -> p.queries.(Random.State.int st (Array.length p.queries))
  | Ping | Add_edge | Del_edge -> ping_req

(* Write [i] of the open-loop writer, a pure function of [i].  Edge
   wk<k> is added at write 2k-1 (wk0 at write 0) and deleted at write
   2k+2, so adds and deletes alternate and each delete trails its add by
   three writes; that slack keeps a delete from waiting on its add's
   reply.  Edges alternate between the cold label and the hot read
   label. *)
let write_req spec p ~seed i =
  let edge k = (Printf.sprintf "wk%d" k, if k mod 2 = 0 then cold_label else p.hot_label) in
  if i = 0 || i mod 2 = 1 then begin
    let k = (i + 1) / 2 in
    let name, label = edge k in
    let st = Random.State.make [| seed; salt spec.w; 99; k |] in
    let src = node_name (Random.State.int st spec.nodes) in
    let tgt = node_name (Random.State.int st spec.nodes) in
    mk Add_edge ~labels:(Some [ label ])
      ~op:(Pg.Add_edge { name; src; label; tgt; props = [] })
      (Printf.sprintf "add-edge %s %s %s %s" name src label tgt)
  end
  else begin
    let name, label = edge ((i / 2) - 1) in
    mk Del_edge ~labels:(Some [ label ]) ~op:(Pg.Del_edge name) ("del-edge " ^ name)
  end

(* Write [i] of the write probe that gives log_mix and bulk_rpq their
   write latency: add/delete pairs on the cold label only,
   so no cached product is invalidated. *)
let probe_write spec ~seed i =
  let k = i / 2 in
  let name = Printf.sprintf "pk%d" k in
  if i mod 2 = 0 then begin
    let st = Random.State.make [| seed; salt spec.w; 98; k |] in
    let src = node_name (Random.State.int st spec.nodes) in
    let tgt = node_name (Random.State.int st spec.nodes) in
    mk Add_edge ~labels:(Some [ cold_label ])
      ~op:(Pg.Add_edge { name; src; label = cold_label; tgt; props = [] })
      (Printf.sprintf "add-edge %s %s %s %s" name src cold_label tgt)
  end
  else
    mk Del_edge ~labels:(Some [ cold_label ]) ~op:(Pg.Del_edge name)
      ("del-edge " ^ name)

(* The fixed 500-record log tail write_mix's server recovers: 250
   add/delete pairs on the cold label, net-zero on the edge set. *)
let wal_tail spec ~seed =
  let st = Random.State.make [| seed; salt spec.w; 7 |] in
  List.concat
    (List.init 250 (fun k ->
         let name = Printf.sprintf "pre%d" k in
         let src = node_name (Random.State.int st spec.nodes) in
         let tgt = node_name (Random.State.int st spec.nodes) in
         [
           Pg.Add_edge { name; src; label = cold_label; tgt; props = [] };
           Pg.Del_edge name;
         ]))
