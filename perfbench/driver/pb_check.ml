(* Answer checking.  Every reply the run can check is compared with
   answers computed in-process on the same generated graph; write_mix
   additionally checks the server's final state against the initial
   graph plus the acknowledged writes, and the log it leaves behind
   after a SIGKILL against the same model. *)

open Pb_util
module G = Pb_gen
module D = Pb_drive

(* An in-process serve session over [pg], for reference answers. *)
let reference_session pg =
  let sh = Session.make_shared Session.default_config in
  Session.publish_initial sh pg;
  Session.create sh

let reply_of sess line =
  match Session.handle_safe sess ~id:1 line with
  | Session.Reply s, _ | Session.Quit s, _ -> s
  | Session.Silent, _ -> ""

(* Expected digests, memoized by request line.  rpq-from requests are
   resolved together per regex: one multi-source evaluation over every
   distinct source the run asked about. *)
let expected pg (outs : D.outcome array) =
  let g = Pg.elg pg in
  let memo = Hashtbl.create 1024 in
  let cache = Rpq_compile.create () in
  let by_text = Hashtbl.create 64 in
  Array.iter
    (fun (o : D.outcome) ->
      let r = o.D.req in
      if r.G.kind = G.Rpq_from && not (Hashtbl.mem memo r.G.line) then begin
        Hashtbl.replace memo r.G.line None;
        Hashtbl.replace by_text r.G.text
          (r :: Option.value ~default:[] (Hashtbl.find_opt by_text r.G.text))
      end)
    outs;
  Hashtbl.iter
    (fun text reqs ->
      match Rpq_compile.compile cache text with
      | Error _ -> ()
      | Ok c ->
          let reqs = Array.of_list reqs in
          let srcs = Array.map (fun r -> Elg.node_id g r.G.node) reqs in
          let rows =
            Governor.value
              (Rpq_compile.from_source_batch cache (Governor.unlimited ()) g c ~srcs)
          in
          Array.iteri
            (fun i r ->
              Hashtbl.replace memo r.G.line
                (Some
                   (digest_of_strings
                      (List.map (Elg.node_name g) (Array.to_list rows.(i))))))
            reqs)
    by_text;
  let sess = reference_session pg in
  fun (r : G.req) ->
    match Hashtbl.find_opt memo r.G.line with
    | Some d -> d
    | None ->
        let d = answers_digest (reply_of sess r.G.line) in
        Hashtbl.replace memo r.G.line d;
        d

type verdict = { failed : int; mismatched : int; unchecked : int }

(* Every request must come back "ok".  A read is compared with the
   reference when [checkable] says its answer cannot depend on the
   writes. *)
let replies ?(checkable = fun _ -> true) pg (outs : D.outcome array) =
  let exp = expected pg outs in
  let failed = ref 0 and mismatched = ref 0 and unchecked = ref 0 in
  Array.iter
    (fun (o : D.outcome) ->
      if o.D.status <> "ok" then incr failed
      else if D.wants_digest o.D.req then
        if checkable o.D.req then begin
          if o.D.digest <> exp o.D.req then begin
            incr failed;
            incr mismatched
          end
        end
        else incr unchecked)
    outs;
  { failed = !failed; mismatched = !mismatched; unchecked = !unchecked }

(* write_mix: a read is checkable when it cannot see a written label. *)
let disjoint_from written (r : G.req) =
  match r.G.labels with
  | None -> false
  | Some ls -> not (List.exists (fun l -> List.mem l written) ls)

(* --- final state ---------------------------------------------------------- *)

let edge_set pg =
  let g = Pg.elg pg in
  let l =
    Elg.fold_edges
      (fun e acc ->
        ( Elg.edge_name g e,
          Elg.node_name g (Elg.src g e),
          Elg.label g e,
          Elg.node_name g (Elg.tgt g e) )
        :: acc)
      g []
  in
  (Elg.nb_nodes g, List.sort compare l)

(* The initial graph plus [ops] applied in order, as an edge set. *)
let model pg ops =
  let nodes, edges = edge_set pg in
  let tbl = Hashtbl.create (List.length edges) in
  List.iter (fun (n, s, l, t) -> Hashtbl.replace tbl n (s, l, t)) edges;
  List.iter
    (function
      | Pg.Add_edge { name; src; label; tgt; _ } -> Hashtbl.replace tbl name (src, label, tgt)
      | Pg.Del_edge name -> Hashtbl.remove tbl name
      | _ -> ())
    ops;
  ( nodes,
    List.sort compare (Hashtbl.fold (fun n (s, l, t) acc -> (n, s, l, t) :: acc) tbl []) )

(* Acknowledged writes in the order they were sent (a delete is only
   sent after its add was acknowledged, and distinct pairs commute). *)
let acked_ops (outs : D.outcome array) =
  List.filter_map
    (fun (o : D.outcome) ->
      if G.is_write o.D.req.G.kind && o.D.status = "ok" then o.D.req.G.op else None)
    (Array.to_list outs)

let same_state expected pg = edge_set pg = expected
