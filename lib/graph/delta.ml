exception Parse_error of string

let fail lineno msg = raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse_props lineno tokens =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | None -> fail lineno (Printf.sprintf "expected key=value, got %S" tok)
      | Some i ->
          let key = String.sub tok 0 i in
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          if key = "" then fail lineno "empty property name";
          (key, Value.of_string_guess v))
    tokens

let parse_string text =
  let ops = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line =
        match String.index_opt line '#' with
        | Some j -> String.sub line 0 j
        | None -> line
      in
      match split_ws line with
      | [] -> ()
      | "add" :: name :: src :: label :: tgt :: props ->
          ops :=
            Pg.Add_edge
              { name; src; label; tgt; props = parse_props lineno props }
            :: !ops
      | "add" :: _ -> fail lineno "add: expected <name> <src> <label> <tgt>"
      | [ "del"; name ] -> ops := Pg.Del_edge name :: !ops
      | "del" :: _ -> fail lineno "del: expected <name>"
      | [ "deln"; name ] -> ops := Pg.Del_node name :: !ops
      | "deln" :: _ -> fail lineno "deln: expected <name>"
      | tok :: _ -> fail lineno (Printf.sprintf "unknown delta op %S" tok))
    lines;
  List.rev !ops

(* Inverse of [parse_string] on its own image: names never contain
   whitespace or '#' (they came from whitespace-split parsing), and
   property values printed with [Value.to_string] re-parse to the same
   value under [Value.of_string_guess]. *)
let render_op = function
  | Pg.Add_edge { name; src; label; tgt; props } ->
      let b = Buffer.create 64 in
      Buffer.add_string b "add ";
      Buffer.add_string b name;
      Buffer.add_char b ' ';
      Buffer.add_string b src;
      Buffer.add_char b ' ';
      Buffer.add_string b label;
      Buffer.add_char b ' ';
      Buffer.add_string b tgt;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b ' ';
          Buffer.add_string b k;
          Buffer.add_char b '=';
          Buffer.add_string b (Value.to_string v))
        props;
      Buffer.contents b
  | Pg.Del_edge name -> "del " ^ name
  | Pg.Del_node name -> "deln " ^ name

let render ops = String.concat "\n" (List.map render_op ops)

let parse_res src =
  match parse_string src with
  | ops -> Ok ops
  | exception Parse_error msg -> Error (Gq_error.Parse { what = "delta"; msg })
  | exception Failure msg -> Error (Gq_error.Parse { what = "delta"; msg })
  | exception Invalid_argument msg ->
      Error (Gq_error.Parse { what = "delta"; msg })

let parse_file_res path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse_res text
  | exception Sys_error msg -> Error (Gq_error.Io msg)
  | exception End_of_file ->
      Error (Gq_error.Io (Printf.sprintf "%s: truncated file" path))

(* --- incremental statistics --------------------------------------------- *)

(* Exact maintenance of [Stats.t] across a delta, O(delta · degree) plus
   an O(n) max-degree rescan only when a deletion may have dethroned the
   maximum.  The model-based update suite pins field-for-field equality
   with [Stats.of_elg] on the new graph. *)
let stats_after ~old_g ~(old_st : Stats.t) ~new_g ~adds ~dels =
  let old_n = Elg.nb_nodes old_g in
  let nl = Elg.nb_labels new_g in
  let label_names = Array.of_list (Elg.labels new_g) in
  (* Per-label counters start from the old values, remapped through the
     (possibly shifted) new label table. *)
  let remap init =
    Array.init (max 1 nl) (fun l ->
        if l >= nl then 0
        else
          match Elg.label_id_opt old_g label_names.(l) with
          | Some ol -> init.(ol)
          | None -> 0)
  in
  let label_edges = remap old_st.Stats.label_edges
  and label_sources = remap old_st.Stats.label_sources
  and label_targets = remap old_st.Stats.label_targets in
  (* Edge counts: straight +/- per touched label. *)
  let bump arr lstr d =
    match Elg.label_id_opt new_g lstr with
    | Some l -> arr.(l) <- arr.(l) + d
    | None -> ()
  in
  List.iter (fun (_, _, lstr, _) -> bump label_edges lstr 1) adds;
  List.iter (fun e -> bump label_edges (Elg.label old_g e) (-1)) dels;
  (* Distinct sources/targets: presence of (node, label) diffs between
     the two graphs, over the touched pairs only.  Old node ids are
     valid in both graphs (nodes are never deleted). *)
  let src_pairs = Hashtbl.create 16 and tgt_pairs = Hashtbl.create 16 in
  let touch tbl v lstr =
    if not (Hashtbl.mem tbl (v, lstr)) then Hashtbl.add tbl (v, lstr) ()
  in
  List.iter
    (fun (_, s, lstr, t) ->
      touch src_pairs (Elg.node_id new_g s) lstr;
      touch tgt_pairs (Elg.node_id new_g t) lstr)
    adds;
  List.iter
    (fun e ->
      let lstr = Elg.label old_g e in
      touch src_pairs (Elg.src old_g e) lstr;
      touch tgt_pairs (Elg.tgt old_g e) lstr)
    dels;
  let out_present g v lstr =
    v < Elg.nb_nodes g
    &&
    match Elg.label_id_opt g lstr with
    | None -> false
    | Some l ->
        let lo, hi = Elg.out_label_span g v ~label:l in
        hi > lo
  in
  let in_present g v lstr =
    v < Elg.nb_nodes g
    &&
    match Elg.label_id_opt g lstr with
    | None -> false
    | Some l ->
        let lo, hi = Elg.in_span g v in
        let found = ref false in
        let i = ref lo in
        while (not !found) && !i < hi do
          if Elg.edge_label_id g (Elg.csr_in_edge g !i) = l then found := true;
          incr i
        done;
        !found
  in
  let diff present arr tbl =
    Hashtbl.iter
      (fun (v, lstr) () ->
        let was = v < old_n && present old_g v lstr in
        let is = present new_g v lstr in
        if was <> is then bump arr lstr (if is then 1 else -1))
      tbl
  in
  diff out_present label_sources src_pairs;
  diff in_present label_targets tgt_pairs;
  (* Degree histograms: adjust the touched old nodes, then account every
     new node once. *)
  let out_hist = Array.copy old_st.Stats.out_hist
  and in_hist = Array.copy old_st.Stats.in_hist in
  let touched_out = Hashtbl.create 16 and touched_in = Hashtbl.create 16 in
  let touch1 tbl v = if not (Hashtbl.mem tbl v) then Hashtbl.add tbl v () in
  List.iter
    (fun (_, s, _, t) ->
      let sv = Elg.node_id new_g s and tv = Elg.node_id new_g t in
      if sv < old_n then touch1 touched_out sv;
      if tv < old_n then touch1 touched_in tv)
    adds;
  List.iter
    (fun e ->
      touch1 touched_out (Elg.src old_g e);
      touch1 touched_in (Elg.tgt old_g e))
    dels;
  let adjust hist tbl old_deg new_deg with_dir old_max =
    let with_dir = ref with_dir in
    let seen_max = ref old_max and dethroned = ref false in
    Hashtbl.iter
      (fun v () ->
        let od = old_deg v and nd = new_deg v in
        hist.(Stats.bucket_of_degree od) <- hist.(Stats.bucket_of_degree od) - 1;
        hist.(Stats.bucket_of_degree nd) <- hist.(Stats.bucket_of_degree nd) + 1;
        if od > 0 && nd = 0 then decr with_dir;
        if od = 0 && nd > 0 then incr with_dir;
        if nd > !seen_max then seen_max := nd;
        if od = old_max && nd < od then dethroned := true)
      tbl;
    (!with_dir, !seen_max, !dethroned)
  in
  let nodes_with_out, max_out, out_dethroned =
    adjust out_hist touched_out
      (fun v -> Elg.out_degree old_g v)
      (fun v -> Elg.out_degree new_g v)
      old_st.Stats.nodes_with_out old_st.Stats.max_out_degree
  in
  let nodes_with_in, max_in, in_dethroned =
    adjust in_hist touched_in
      (fun v -> Elg.in_degree old_g v)
      (fun v -> Elg.in_degree new_g v)
      old_st.Stats.nodes_with_in old_st.Stats.max_in_degree
  in
  let nodes_with_out = ref nodes_with_out
  and nodes_with_in = ref nodes_with_in
  and max_out = ref max_out
  and max_in = ref max_in in
  for v = old_n to Elg.nb_nodes new_g - 1 do
    let dout = Elg.out_degree new_g v and din = Elg.in_degree new_g v in
    out_hist.(Stats.bucket_of_degree dout) <-
      out_hist.(Stats.bucket_of_degree dout) + 1;
    in_hist.(Stats.bucket_of_degree din) <-
      in_hist.(Stats.bucket_of_degree din) + 1;
    if dout > 0 then incr nodes_with_out;
    if din > 0 then incr nodes_with_in;
    if dout > !max_out then max_out := dout;
    if din > !max_in then max_in := din
  done;
  (* A deletion at the reigning maximum forces one O(n) rescan; growth
     never does. *)
  if out_dethroned then begin
    max_out := 0;
    for v = 0 to Elg.nb_nodes new_g - 1 do
      if Elg.out_degree new_g v > !max_out then max_out := Elg.out_degree new_g v
    done
  end;
  if in_dethroned then begin
    max_in := 0;
    for v = 0 to Elg.nb_nodes new_g - 1 do
      if Elg.in_degree new_g v > !max_in then max_in := Elg.in_degree new_g v
    done
  end;
  {
    Stats.graph_id = Elg.id new_g;
    nb_nodes = Elg.nb_nodes new_g;
    nb_edges = Elg.nb_edges new_g;
    nb_labels = nl;
    label_names;
    label_edges;
    label_sources;
    label_targets;
    nodes_with_out = !nodes_with_out;
    nodes_with_in = !nodes_with_in;
    out_hist;
    in_hist;
    max_out_degree = !max_out;
    max_in_degree = !max_in;
  }

(* --- application --------------------------------------------------------- *)

type applied = {
  pg : Pg.t;
  summary : Elg.delta_summary;
  stats : Stats.t;
}

let apply_res pg ops =
  Failpoint.check "graph.delta";
  let old_g = Pg.elg pg in
  match Pg.apply_delta_res pg ops with
  | Error msg -> Error (Gq_error.Parse { what = "delta"; msg })
  | Ok { Pg.ap_pg; ap_summary; ap_adds; ap_dels } ->
      let new_g = Pg.elg ap_pg in
      let stats =
        (* Incremental maintenance keys touched nodes by their old dense
           ids, which node deletion invalidates (survivors compact); a
           batch that removed nodes falls back to the O(n + m) fresh
           scan — the same asymptotics as the CSR rebuild it rides on. *)
        if ap_summary.Elg.removed_nodes > 0 then Stats.of_elg new_g
        else
          stats_after ~old_g ~old_st:(Stats.get old_g) ~new_g ~adds:ap_adds
            ~dels:ap_dels
      in
      Stats.register stats;
      Ok { pg = ap_pg; summary = ap_summary; stats }

let apply_file_res pg path =
  match parse_file_res path with
  | Error _ as e -> e
  | Ok ops -> apply_res pg ops
