(* The traced run's in-process replay.  The request stream the traced
   server saw is replayed, in send order, against two in-process states
   built from the same graph:

   - a reference [Session] (own caches, own WAL), where each request is
     timed whole through [Session.handle_safe];
   - a layered state, where the same request is re-executed as the
     sequence of public calls the session makes — plan compile, product
     lookup/build, kernel evaluation, path/GQL evaluation, reply
     encoding, delta apply, WAL append, cache invalidation, publish,
     checkpoint — each timed as a span.

   Spans (request id, layer, start, end, parent) are kept in memory and
   written out once the replay ends.  The sum of a request's layer spans
   over its [handle_safe] time is the replay's coverage: how much of the
   session's time the layer split accounts for. *)

open Pb_util
module G = Pb_gen

type span = { rid : int; layer : string; t0 : float; t1 : float; parent : int }

type t = {
  mutable spans : span array;
  mutable nspans : int;
  layer_time : (string, Sample.t) Hashtbl.t;  (* layer -> durations (ms) *)
  handle : (G.kind, Sample.t) Hashtbl.t;  (* verb -> handle_safe (ms) *)
  covered : (G.kind, float * float) Hashtbl.t;  (* verb -> (layers, handle) ms *)
  handle_by_seq : (int, float) Hashtbl.t;  (* traffic seq -> handle_safe ms *)
  mutable requests : int;
  mutable minor_words : float;
  mutable major : int;
  mutable checkpoint_bytes : int;
  mutable payload_bytes : int;
}

let create () =
  {
    spans = Array.make 4096 { rid = 0; layer = ""; t0 = 0.0; t1 = 0.0; parent = -1 };
    nspans = 0;
    layer_time = Hashtbl.create 32;
    handle = Hashtbl.create 8;
    covered = Hashtbl.create 8;
    handle_by_seq = Hashtbl.create 1024;
    requests = 0;
    minor_words = 0.0;
    major = 0;
    checkpoint_bytes = 0;
    payload_bytes = 0;
  }

let sample tbl k =
  match Hashtbl.find_opt tbl k with
  | Some s -> s
  | None ->
      let s = Sample.create () in
      Hashtbl.replace tbl k s;
      s

let push t s =
  if t.nspans = Array.length t.spans then begin
    let a = Array.make (2 * t.nspans) s in
    Array.blit t.spans 0 a 0 t.nspans;
    t.spans <- a
  end;
  t.spans.(t.nspans) <- s;
  t.nspans <- t.nspans + 1;
  t.nspans - 1

(* Time [f] as one span of [layer] under [parent]; its duration also
   counts toward the request's layer sum [acc]. *)
let span t ~rid ~parent ~acc layer f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  ignore (push t { rid; layer; t0; t1; parent });
  Sample.add (sample t.layer_time layer) (ms_of (t1 -. t0));
  acc := !acc +. (t1 -. t0);
  x

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.nspans - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "{\"span\":%d,\"rid\":%d,\"layer\":%s,\"start\":%.9f,\"end\":%.9f,\"parent\":%d}\n"
          i s.rid (Wire.jstr s.layer) s.t0 s.t1 s.parent
      done)

(* --- the layered state ----------------------------------------------------- *)

type layered = {
  cache : Rpq_compile.t;
  graph : Pg.t Epoch.t;
  wal : Wal.t;
  wal_dir : string;
}

let gov () = Governor.make ~cancel:(ref false) ()
let or_fail = ok_or_die

let open_wal ?obs dir pg =
  let w, _ = or_fail (Wal.open_res ?obs ~policy:Wal.Always ~checkpoint_every:200 dir) in
  ignore (or_fail (Wal.checkpoint_res w pg));
  w

let render_list xs = Wire.jarr (List.map Wire.jstr xs)

let reply_wrap answers count =
  Wire.jobj
    [ ("id", Wire.jint 1); ("cmd", Wire.jstr "x"); ("status", Wire.jstr "ok");
      ("answers", answers); ("count", Wire.jint count) ]

(* One request through the layers; returns the layer-time sum. *)
let layered_request t l ~rid (r : G.req) =
  let acc = ref 0.0 in
  let root = push t { rid; layer = "request"; t0 = now (); t1 = 0.0; parent = -1 } in
  let sp layer f = span t ~rid ~parent:root ~acc layer f in
  let pg = Option.get (Epoch.snapshot l.graph) in
  let g = Pg.elg pg in
  let encode strings =
    sp "reply.encode" (fun () ->
        let xs = strings () in
        ignore (reply_wrap (render_list xs) (List.length xs)))
  in
  (match r.G.kind with
  | G.Ping -> ()
  | G.Rpq_from ->
      let c = or_fail (sp "plan.compile" (fun () -> Rpq_compile.compile l.cache r.G.text)) in
      let was = Rpq_compile.product_cached l.cache g c in
      sp (if was then "product.lookup" else "product.build") (fun () ->
          ignore (Rpq_compile.product l.cache g c));
      let src = Elg.node_id g r.G.node in
      let out =
        sp "kernel.eval" (fun () ->
            Governor.value (Rpq_compile.from_source_bounded l.cache (gov ()) g c ~src))
      in
      encode (fun () -> List.map (Elg.node_name g) out)
  | G.Rpq ->
      let c = or_fail (sp "plan.compile" (fun () -> Rpq_compile.compile l.cache r.G.text)) in
      let backward =
        Planner.direction_of (Stats.get g) c.Plan_cache.ast = Planner.Backward
      in
      let was = (not backward) && Rpq_compile.product_cached l.cache g c in
      sp (if was then "product.lookup" else "product.build") (fun () ->
          ignore
            (if backward then Rpq_compile.product_rev l.cache g c
             else Rpq_compile.product l.cache g c));
      let out =
        sp "kernel.eval" (fun () ->
            Governor.value (Rpq_compile.pairs_bounded l.cache (gov ()) g c))
      in
      encode (fun () ->
          List.map (fun (u, v) -> Elg.node_name g u ^ " -> " ^ Elg.node_name g v) out)
  | G.Shortest -> (
      match String.split_on_char ' ' r.G.line with
      | [ _; s; d; text ] ->
          let re = or_fail (sp "plan.compile" (fun () -> Rpq_parse.parse_res text)) in
          let out =
            sp "paths.shortest" (fun () ->
                Governor.value
                  (Path_modes.shortest_bounded (gov ()) g re ~src:(Elg.node_id g s)
                     ~tgt:(Elg.node_id g d)))
          in
          encode (fun () -> List.map (Path.to_string g) out)
      | _ -> failwith ("bad shortest line " ^ r.G.line))
  | G.Query ->
      let text = String.sub r.G.line 6 (String.length r.G.line - 6) in
      let q = or_fail (sp "plan.compile" (fun () -> Gql_query.parse_res text)) in
      let rel =
        sp "gql.eval" (fun () ->
            Governor.value (Gql_query.eval_bounded ~max_len:8 (gov ()) pg q))
      in
      encode (fun () ->
          List.map
            (fun row -> String.concat " | " (List.map (Relation.cell_to_string g) row))
            (Relation.rows rel))
  | G.Add_edge | G.Del_edge ->
      let ops = Option.to_list r.G.op in
      t.payload_bytes <- t.payload_bytes + String.length (Delta.render ops);
      let applied = or_fail (sp "delta.apply" (fun () -> Delta.apply_res pg ops)) in
      ignore (or_fail (sp "wal.append" (fun () -> Wal.append_res l.wal ops)));
      let s = applied.Delta.summary in
      sp "plan.apply_delta" (fun () ->
          Rpq_compile.apply_delta l.cache ~old_graph:g
            ~new_graph:(Pg.elg applied.Delta.pg)
            ~touched_labels:s.Elg.touched_labels
            ~nodes_stable:(s.Elg.added_nodes = 0 && s.Elg.removed_nodes = 0));
      sp "epoch.publish" (fun () -> ignore (Epoch.publish l.graph applied.Delta.pg));
      let t0 = now () in
      let ck = or_fail (Wal.maybe_checkpoint_res l.wal applied.Delta.pg) in
      let t1 = now () in
      (* Only a checkpoint that happened is a checkpoint span. *)
      if ck then begin
        ignore (push t { rid; layer = "wal.checkpoint"; t0; t1; parent = root });
        Sample.add (sample t.layer_time "wal.checkpoint") (ms_of (t1 -. t0));
        t.checkpoint_bytes <-
          t.checkpoint_bytes
          + file_size
              (Filename.concat l.wal_dir
                 (Printf.sprintf "checkpoint-%d.gqb" (Wal.generation l.wal)))
      end;
      acc := !acc +. (t1 -. t0));
  t.spans.(root) <- { (t.spans.(root)) with t1 = now () };
  !acc

(* --- driving the replay ----------------------------------------------------- *)

type input = {
  pg : Pg.t;
  traffic : (int * G.req) array;  (* (traffic seq, request), send order *)
  probes : (int * G.req) array;  (* (traffic seq, request), replayed whatever the budget *)
  budget : float;  (* seconds of read replay before reads are cut short *)
  dir : string;  (* scratch for the two WALs *)
}

type result = {
  trace : t;
  cache : Rpq_compile.t;  (* the layered state's caches *)
  wal_dir : string;  (* the layered state's log *)
  segment_bytes : int;  (* bytes appended to the layered log's segments *)
}

(* Writes replayed at most (each one fsyncs twice: once per state). *)
let max_writes = 60

let run inp =
  let t = create () in
  let rdir = Filename.concat inp.dir "replay-ref.wal"
  and ldir = Filename.concat inp.dir "replay-layers.wal" in
  rm_rf rdir;
  rm_rf ldir;
  let sh = Session.make_shared ~wal:(open_wal rdir inp.pg) Session.default_config in
  Session.publish_initial sh inp.pg;
  let sess = Session.create sh in
  let wal_obs = Obs.make ~metrics:(Metrics.create ()) () in
  let l =
    {
      cache = Rpq_compile.create ();
      graph = Epoch.create ();
      wal = open_wal ~obs:wal_obs ldir inp.pg;
      wal_dir = ldir;
    }
  in
  ignore (Epoch.publish l.graph inp.pg);
  let rid = ref 0 in
  let one ~seq (r : G.req) =
    incr rid;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let reply = Session.handle_safe sess ~id:!rid r.G.line in
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    (match reply with
    | Session.Reply s, _ when str_field s "status" <> Some "ok" ->
        failwith ("replay: " ^ s)
    | _ -> ());
    t.requests <- t.requests + 1;
    t.minor_words <- t.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    t.major <- t.major + (g1.Gc.major_collections - g0.Gc.major_collections);
    ignore (push t { rid = !rid; layer = "session.handle_safe"; t0; t1; parent = -1 });
    let h = ms_of (t1 -. t0) in
    Sample.add (sample t.handle r.G.kind) h;
    Hashtbl.replace t.handle_by_seq seq h;
    let layers = ms_of (layered_request t l ~rid:!rid r) in
    let a, b = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt t.covered r.G.kind) in
    Hashtbl.replace t.covered r.G.kind (a +. layers, b +. h)
  in
  (* Reads replay in send order until the budget is spent; writes always
     replay (up to [max_writes]), so every write layer is measured. *)
  let deadline = now () +. inp.budget and writes = ref 0 in
  Array.iter
    (fun (seq, (r : G.req)) ->
      if G.is_write r.G.kind then begin
        if !writes < max_writes then begin
          incr writes;
          one ~seq r
        end
      end
      else if now () <= deadline then one ~seq r)
    inp.traffic;
  Array.iter (fun (seq, r) -> one ~seq r) inp.probes;
  (* A replay without a natural checkpoint still measures one. *)
  if not (Hashtbl.mem t.layer_time "wal.checkpoint") then begin
    let pg = Option.get (Epoch.snapshot l.graph) in
    let t0 = now () in
    ignore (or_fail (Wal.checkpoint_res l.wal pg));
    let t1 = now () in
    ignore (push t { rid = 0; layer = "wal.checkpoint"; t0; t1; parent = -1 });
    Sample.add (sample t.layer_time "wal.checkpoint") (ms_of (t1 -. t0));
    t.checkpoint_bytes <-
      t.checkpoint_bytes
      + file_size
          (Filename.concat ldir (Printf.sprintf "checkpoint-%d.gqb" (Wal.generation l.wal)))
  end;
  Wal.close l.wal;
  Session.wal_close sh;
  let segment_bytes =
    Option.value ~default:0 (List.assoc_opt "wal.bytes" (Obs.counters wal_obs))
  in
  { trace = t; cache = l.cache; wal_dir = ldir; segment_bytes }

(* --- reading the trace ------------------------------------------------------ *)

let durations t layer =
  match Hashtbl.find_opt t.layer_time layer with
  | Some s -> Sample.to_array s
  | None -> [||]

let handle_durations t kind =
  match Hashtbl.find_opt t.handle kind with
  | Some s -> Sample.to_array s
  | None -> [||]

let handle_ms t seq = Hashtbl.find_opt t.handle_by_seq seq

(* Layer-span time over handle_safe time, for one verb. *)
let coverage t kind =
  match Hashtbl.find_opt t.covered kind with
  | Some (layers, handle) when handle > 0.0 -> layers /. handle
  | _ -> 0.0
