(* One serve-protocol session: the command dispatch behind both
   `gqd --serve` (stdin/stdout, one session) and `gqd --listen` (one
   session per connected client over a shared graph snapshot and a
   shared compilation cache).

   Protocol: one command per line, one JSON object per reply line.
   Blank lines and '#' comments are ignored; every other line gets
   exactly one reply carrying a monotonically increasing "id".  Every
   evaluation runs under Governor budgets inside [Supervise.run]
   (exceptions classified, transient faults retried, per-query-class
   circuit breaker), and dispatch has a catch-all so even a bug in
   reply rendering answers with a structured error instead of dying.

   Commands:
     load PATH                  load (replace) the graph snapshot;
                                accepts text or GQB1 binary
     add-edge NAME SRC LABEL TGT [k=v ...]
                                insert one edge (implicit nodes created)
     del-edge NAME              delete one edge by name
     del-node NAME              delete one node and its incident edges
     delta-load PATH            apply a batch of add/del/deln ops from a file
     save-bin PATH              write the snapshot as a GQB1 binary file
     rpq REGEX                  all endpoint pairs of an RPQ
     rpq-from NODE REGEX        nodes reachable from NODE
     shortest SRC TGT REGEX     all shortest matching paths
     query MATCH ... RETURN ... MATCH/RETURN query over the graph
     plan QUERY                 EXPLAIN: cost estimates, atom order,
                                direction, cache status (no evaluation)
     set KEY VALUE              max-steps | max-results | timeout |
                                retries (VALUE `none` clears a budget)
     stats                      breaker states + plan-cache counters
     ping                       liveness probe
     quit                       exit 0

   Reply shape (field order fixed; see README "Resilience & fault
   injection"):
     {"id":N,"cmd":"rpq","status":"ok|partial|degraded|error|shed",
      "code":C,"degraded":B,"attempts":A[,"reason":R]
      [,"error":{"kind":K,"msg":M}][,"answers":[...],"count":N]}
   "code" follows the CLI exit-code contract: 0 ok, 1 parse/unknown
   node, 2 evaluation/fault, 3 I/O, 4 budget exhausted/shed.

   Concurrency: a client's state-changing requests ([changes_state]) run
   alone — the server starts one only after the client's earlier
   requests have replied, and the client's later requests only after it
   has — so per-client settings are never written while another request
   of the same client reads them; reads between two such requests may
   run concurrently on several workers.  All
   cross-client state is the [shared] record: the graph snapshot is an
   atomic swapped under [graph_lock] together with the cache-generation
   bump, and the compilation cache is internally synchronised. *)

open Wire

type config = {
  retries : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  degraded_max_steps : int;
  initial_max_steps : int option;
  initial_max_results : int option;
  initial_timeout : float option;
  ceiling_max_steps : int option;
  ceiling_max_results : int option;
  ceiling_timeout : float option;
  obs : Obs.t;
}

let default_config =
  {
    retries = 3;
    breaker_threshold = 5;
    breaker_cooldown = 30.0;
    degraded_max_steps = 1000;
    initial_max_steps = None;
    initial_max_results = None;
    initial_timeout = None;
    ceiling_max_steps = None;
    ceiling_max_results = None;
    ceiling_timeout = None;
    obs = Obs.none;
  }

(* State shared by every session of one server process.  The graph is an
   epoch-published immutable snapshot: [load] parses (and deltas apply)
   off to the side, then publish the new snapshot and bump the cache
   generation under [graph_lock] (so concurrent writers publish snapshot
   and generation as a pair); readers grab whatever epoch is current and
   evaluate against that exact value unlocked — a later load or delta
   cannot mutate it out from under them. *)
type shared = {
  config : config;
  cache : Rpq_compile.t;
  graph : Pg.t Epoch.t;
  graph_lock : Mutex.t;
  deltas : int Atomic.t; (* delta batches applied since startup *)
  wal : Wal.t option;
      (* durability: updates append here (under [graph_lock], before
         publishing) when serve mode was started with --wal *)
}

let make_shared ?wal config =
  {
    config;
    cache = Rpq_compile.create ();
    graph = Epoch.create ();
    graph_lock = Mutex.create ();
    deltas = Atomic.make 0;
    wal;
  }

let shared_config sh = sh.config
let shared_cache sh = sh.cache
let graph_loaded sh = Epoch.snapshot sh.graph <> None
let shared_epoch sh = Epoch.epoch sh.graph

(* Publish a recovered snapshot before serving starts (gqd --wal):
   exactly what [load] does, minus the file read. *)
let publish_initial sh pg =
  Mutex.lock sh.graph_lock;
  ignore (Epoch.publish sh.graph pg);
  Rpq_compile.set_generation sh.cache (Elg.id (Pg.elg pg));
  Mutex.unlock sh.graph_lock

(* Periodic WAL housekeeping (interval fsync policy), called from the
   server's I/O loop under the writer lock — [Wal.t] is single-writer. *)
let wal_tick sh =
  match sh.wal with
  | None -> ()
  | Some w ->
      Mutex.lock sh.graph_lock;
      (match Wal.tick_res w with Ok _ | Error _ -> ());
      Mutex.unlock sh.graph_lock

let wal_close sh =
  match sh.wal with
  | None -> ()
  | Some w ->
      Mutex.lock sh.graph_lock;
      Wal.close w;
      Mutex.unlock sh.graph_lock

type t = {
  shared : shared;
  mutable retry : Retry.policy;
  breakers : Breaker.Group.t;
  mutable max_steps : int option;
  mutable max_results : int option;
  mutable timeout : float option;
  register_gov : Governor.t -> unit -> unit;
      (* watchdog hook: called with each governor as its evaluation
         starts, returns the matching unregister thunk *)
  extra_stats : unit -> jfield list;
}

let create ?(register_gov = fun _ () -> ()) ?(extra_stats = fun () -> [])
    shared =
  let config = shared.config in
  {
    shared;
    retry =
      {
        Retry.default with
        Retry.max_attempts = max 1 config.retries;
        base_delay = 0.001;
        max_delay = 0.1;
        budget = 1.0;
      };
    breakers =
      Breaker.Group.create ~obs:config.obs
        ~config:
          {
            Breaker.failure_threshold = max 1 config.breaker_threshold;
            cooldown = config.breaker_cooldown;
            success_threshold = 1;
          }
        ();
    max_steps = config.initial_max_steps;
    max_results = config.initial_max_results;
    timeout = config.initial_timeout;
    register_gov;
    extra_stats;
  }

(* Work done by the current request, for the server's per-client budget
   accounting.  One ctx per request, touched only by the worker domain
   running it. *)
type ctx = { mutable spent : int }

(* --- reply rendering ------------------------------------------------------ *)

(* The cmd field echoes client input (e.g. an unknown verb); bound it so
   a junk line of tens of kilobytes cannot balloon the reply — a flooding
   client must never dictate how much the server writes back. *)
let bound_cmd cmd = if String.length cmd > 64 then String.sub cmd 0 64 else cmd

let reply id cmd ~status ~code (extra : jfield list) =
  jobj
    (("id", jint id) :: ("cmd", jstr (bound_cmd cmd)) :: ("status", jstr status)
    :: ("code", jint code) :: extra)

(* Answer-bearing replies are rendered straight into the caller's
   buffer, field by field, in exactly [reply]'s bytes: the answers never
   pass through a list of strings or an intermediate JSON array. *)
let add_field b k v =
  Buffer.add_char b ',';
  add_jstr b k;
  Buffer.add_char b ':';
  Buffer.add_string b v

(* [reply]'s first four fields, without the closing brace. *)
let add_head b id cmd ~status ~code =
  Buffer.add_string b "{\"id\":";
  Buffer.add_string b (jint id);
  add_field b "cmd" (jstr (bound_cmd cmd));
  add_field b "status" (jstr status);
  add_field b "code" (jint code)

(* Append the JSON array of [xs], each element rendered by [add];
   returns the element count.  [fold] is [List.fold_left] or
   [Array.fold_left]. *)
let add_items fold b add xs =
  Buffer.add_char b '[';
  let n =
    fold
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add b x;
        i + 1)
      0 xs
  in
  Buffer.add_char b ']';
  n

let add_list b add xs = add_items List.fold_left b add xs
let add_array b add xs = add_items Array.fold_left b add xs

(* One rpq answer, ["src -> tgt"]. *)
let add_pair g b (u, v) =
  Buffer.add_char b '"';
  add_escaped b (Elg.node_name g u);
  Buffer.add_string b " -> ";
  add_escaped b (Elg.node_name g v);
  Buffer.add_char b '"'

let add_name g b v = add_jstr b (Elg.node_name g v)

let error_fields ?(attempts = 0) err =
  [
    ("degraded", jbool false);
    ("attempts", jint attempts);
    ( "error",
      jobj
        [ ("kind", jstr (Gq_error.kind err)); ("msg", jstr (Gq_error.to_string err)) ]
    );
  ]

let error_reply id cmd ?attempts err =
  reply id cmd ~status:"error" ~code:(Gq_error.exit_code err)
    (error_fields ?attempts err)

(* Structured load-shedding reply: the admission controller answers
   instead of evaluating.  "code":4 (the budget exit code — the server,
   not the query, is out of budget); clients should back off for
   [retry_after_ms] before resending. *)
let shed_reply ~id ~cmd ~reason ~retry_after_ms =
  reply id cmd ~status:"shed" ~code:4
    [
      ("degraded", jbool true);
      ("reason", jstr reason);
      ("retry_after_ms", jint retry_after_ms);
    ]

let parse_error id cmd msg =
  error_reply id cmd (Gq_error.Parse { what = "command"; msg })

(* Structured replies for frames the wire layer rejected before they
   could become commands. *)
let frame_error_reply ~id frame =
  match frame with
  | Wire.Too_long limit ->
      parse_error id "input" (Printf.sprintf "line exceeds %d bytes" limit)
  | Wire.Bad_utf8 -> parse_error id "input" "line is not valid UTF-8"
  | Wire.Line _ -> invalid_arg "frame_error_reply: not an error frame"

(* --- supervised evaluation ----------------------------------------------- *)

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let min_opt_f a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Float.min a b)

(* Effective budgets: the client's own settings clamped by the
   server-wide ceilings (a client may lower its budgets below the
   ceiling, never raise them above it). *)
(* Session governors always carry a cancel flag: the watchdog may cancel
   them, and — crucially — a cancellable governor is never [limitless],
   so its step counter runs even when the client set no caps.  Budget
   accounting ([ctx.spent], the server's per-client token bucket) relies
   on that: a hostile client must be charged for work it causes whether
   or not it opted into limits. *)
let governor_of sess () =
  let c = sess.shared.config in
  Governor.make ~obs:c.obs
    ?max_steps:(min_opt sess.max_steps c.ceiling_max_steps)
    ?max_results:(min_opt sess.max_results c.ceiling_max_results)
    ?timeout:(min_opt_f sess.timeout c.ceiling_timeout)
    ~cancel:(ref false) ()

(* Wrap [body] so that whatever governor it runs under — per-attempt
   from [governor_of], or the small degraded governor [Supervise]
   builds when a breaker rejects — is registered with the watchdog for
   its duration and has its step count charged to the request. *)
let governed sess ctx body gov =
  let unregister = sess.register_gov gov in
  Fun.protect
    ~finally:(fun () ->
      ctx.spent <- ctx.spent + Governor.steps gov;
      unregister ())
    (fun () ->
      Failpoint.check "serve.eval";
      body gov)

(* Run [body] under the session's budgets, retry policy and the [cls]
   breaker.  Split from reply rendering so a batched evaluation can run
   once and render per member. *)
let supervised_outcome sess ctx ~cls body =
  let breaker = Breaker.Group.get sess.breakers cls in
  Supervise.run ~obs:sess.shared.config.obs ~retry:sess.retry ~breaker
    ~degraded_max_steps:sess.shared.config.degraded_max_steps
    ~gov:(governor_of sess)
    (governed sess ctx body)

(* Render one supervised outcome as [id]'s reply into [b].  [render]
   appends the answers array for a payload and returns its count; an
   aborted run carries no payload and answers [[]]. *)
let render_outcome b id ~cls sup ~render =
  match sup.Supervise.outcome with
  | Error err ->
      Buffer.add_string b (error_reply id cls ~attempts:sup.Supervise.attempts err)
  | Ok outcome ->
      let status, code, reason =
        match outcome with
        | Governor.Complete _ ->
            ((if sup.Supervise.degraded then "degraded" else "ok"), 0, None)
        | Governor.Partial (_, r) | Governor.Aborted r ->
            ( (if sup.Supervise.degraded then "degraded" else "partial"),
              Gq_error.exit_code (Gq_error.Budget r),
              Some r )
      in
      add_head b id cls ~status ~code;
      add_field b "degraded" (jbool sup.Supervise.degraded);
      add_field b "attempts" (jint sup.Supervise.attempts);
      Option.iter
        (fun r -> add_field b "reason" (jstr (Governor.reason_slug r)))
        reason;
      Buffer.add_string b ",\"answers\":";
      let count =
        match outcome with
        | Governor.Complete x | Governor.Partial (x, _) -> render b x
        | Governor.Aborted _ ->
            Buffer.add_string b "[]";
            0
      in
      add_field b "count" (jint count);
      Buffer.add_char b '}'

let supervised sess ctx b id ~cls body ~render =
  render_outcome b id ~cls (supervised_outcome sess ctx ~cls body) ~render

let graph_or_fail sess =
  match Epoch.snapshot sess.shared.graph with
  | Some pg -> pg
  | None -> raise (Gq_error.Error (Gq_error.Eval "no graph loaded"))

let node_id_or_fail g name =
  match Elg.node_id g name with
  | id -> id
  | exception Not_found -> raise (Gq_error.Error (Gq_error.Unknown_node name))

(* --- commands ------------------------------------------------------------ *)

let cmd_load sess ctx id path =
  let breaker = Breaker.Group.get sess.breakers "load" in
  let sup =
    Supervise.run ~obs:sess.shared.config.obs ~retry:sess.retry ~breaker
      ~degraded_max_steps:sess.shared.config.degraded_max_steps
      ~gov:(governor_of sess)
      (governed sess ctx (fun _gov ->
           match Graph_io.load_file_res path with
           | Ok pg -> Governor.Complete pg
           | Error err -> raise (Gq_error.Error err)))
  in
  match sup.Supervise.outcome with
  | Error err -> error_reply id "load" ~attempts:sup.Supervise.attempts err
  | Ok outcome -> (
      match outcome with
      | Governor.Complete pg | Governor.Partial (pg, _) -> (
          let g = Pg.elg pg in
          (* Publish snapshot and cache generation as a pair: plans
             (query-only) survive, products built against the previous
             graph are dropped.  Parsing cost isn't governor-ticked, so
             charge the request its edge count for budget accounting.

             With a WAL, the load must checkpoint *before* publishing: a
             load is not in the log, so serving a graph the log cannot
             reconstruct would break the recovery invariant.  A failed
             checkpoint therefore fails the load and keeps the previous
             epoch. *)
          Mutex.lock sess.shared.graph_lock;
          let ckpt =
            match sess.shared.wal with
            | None -> Ok ()
            | Some w -> (
                match Wal.checkpoint_res w pg with
                | Ok _gen -> Ok ()
                | Error e ->
                    Wal.note_checkpoint_error w;
                    Error e
                | exception e ->
                    Wal.note_checkpoint_error w;
                    Error (Gq_error.of_exn e))
          in
          (match ckpt with
          | Ok () ->
              ignore (Epoch.publish sess.shared.graph pg);
              Rpq_compile.set_generation sess.shared.cache (Elg.id g)
          | Error _ -> ());
          Mutex.unlock sess.shared.graph_lock;
          match ckpt with
          | Error err -> error_reply id "load" ~attempts:sup.Supervise.attempts err
          | Ok () ->
              ctx.spent <- ctx.spent + Elg.nb_edges g;
              reply id "load" ~status:"ok" ~code:0
                [
                  ("degraded", jbool sup.Supervise.degraded);
                  ("attempts", jint sup.Supervise.attempts);
                  ("nodes", jint (Elg.nb_nodes g));
                  ("edges", jint (Elg.nb_edges g));
                ])
      | Governor.Aborted r ->
          error_reply id "load" ~attempts:sup.Supervise.attempts
            (Gq_error.Budget r))

(* Apply a delta batch and publish the successor snapshot.  The whole
   apply runs under [graph_lock], serializing writers against [load] and
   each other; readers never take the lock — an in-flight query keeps
   its epoch.  Publishing pairs the snapshot with fine-grained cache
   invalidation: products over labels disjoint from the delta migrate
   warm to the new graph id ([Rpq_compile.apply_delta]).  A failed or
   faulted apply publishes nothing — the current epoch stands. *)
let cmd_delta sess ctx id verb ops =
  let breaker = Breaker.Group.get sess.breakers "update" in
  let sup =
    Supervise.run ~obs:sess.shared.config.obs ~retry:sess.retry ~breaker
      ~degraded_max_steps:sess.shared.config.degraded_max_steps
      ~gov:(governor_of sess)
      (governed sess ctx (fun _gov ->
           Mutex.lock sess.shared.graph_lock;
           Fun.protect
             ~finally:(fun () -> Mutex.unlock sess.shared.graph_lock)
             (fun () ->
               match Epoch.snapshot sess.shared.graph with
               | None ->
                   raise (Gq_error.Error (Gq_error.Eval "no graph loaded"))
               | Some pg -> (
                   match Delta.apply_res pg ops with
                   | Error err -> raise (Gq_error.Error err)
                   | Ok applied ->
                       (* Durability point: the record hits the log (and,
                          under fsync=always, the disk) before the epoch
                          is published — an acknowledged write is in the
                          log, a failed append publishes nothing.  A
                          failed append also rolled the segment back, so
                          a supervised retry re-runs the whole body
                          without duplicating the record. *)
                       let wal =
                         match sess.shared.wal with
                         | None -> None
                         | Some w -> (
                             match Wal.append_res w ops with
                             | Ok (lsn, synced) -> Some (lsn, synced)
                             | Error err -> raise (Gq_error.Error err))
                       in
                       let published = ref false in
                       try
                         let s = applied.Delta.summary in
                         Rpq_compile.apply_delta ~obs:sess.shared.config.obs
                           sess.shared.cache ~old_graph:(Pg.elg pg)
                           ~new_graph:(Pg.elg applied.Delta.pg)
                           ~touched_labels:s.Elg.touched_labels
                           ~nodes_stable:(s.Elg.added_nodes = 0 && s.Elg.removed_nodes = 0);
                         let epoch =
                           Epoch.publish sess.shared.graph applied.Delta.pg
                         in
                         published := true;
                         Atomic.incr sess.shared.deltas;
                         (* Rotation runs after publish: a checkpoint
                            failure is tolerated (the log still holds every
                            record) but counted and surfaced in stats. *)
                         (match sess.shared.wal with
                         | None -> ()
                         | Some w -> (
                             match Wal.maybe_checkpoint_res w applied.Delta.pg with
                             | Ok _ -> ()
                             | Error _ -> Wal.note_checkpoint_error w
                             | exception _ -> Wal.note_checkpoint_error w));
                         Governor.Complete (applied, epoch, wal)
                       with e ->
                         (* Publishing failed after the record hit the
                            log: take it back out before the supervised
                            retry re-runs this body, or the batch would
                            be appended (and replayed) twice. *)
                         (if not !published then
                            match (sess.shared.wal, wal) with
                            | Some w, Some (lsn, _) -> (
                                match Wal.undo_append_res w lsn with
                                | Ok _ | Error _ -> ())
                            | _ -> ());
                         raise e))))
  in
  match sup.Supervise.outcome with
  | Error err -> error_reply id verb ~attempts:sup.Supervise.attempts err
  | Ok outcome -> (
      match outcome with
      | Governor.Complete (applied, epoch, wal)
      | Governor.Partial ((applied, epoch, wal), _) ->
          let g = Pg.elg applied.Delta.pg in
          let s = applied.Delta.summary in
          (* Deltas aren't governor-ticked; charge the touched volume. *)
          ctx.spent <-
            ctx.spent + s.Elg.added_edges + s.Elg.removed_edges
            + s.Elg.added_nodes + 1;
          reply id verb ~status:"ok" ~code:0
            ([
               ("degraded", jbool sup.Supervise.degraded);
               ("attempts", jint sup.Supervise.attempts);
               ("nodes", jint (Elg.nb_nodes g));
               ("edges", jint (Elg.nb_edges g));
               ("epoch", jint epoch);
               ("added", jint s.Elg.added_edges);
               ("removed", jint s.Elg.removed_edges);
               ( "touched",
                 jarr (List.map jstr s.Elg.touched_labels) );
             ]
            @
            (* Only in --wal mode: the golden stdio transcripts (no WAL)
               stay byte-stable. *)
            match wal with
            | None -> []
            | Some (lsn, synced) ->
                [
                  ("durable", jbool synced);
                  ("wal_lsn", jint (Int64.to_int lsn));
                ])
      | Governor.Aborted r ->
          error_reply id verb ~attempts:sup.Supervise.attempts
            (Gq_error.Budget r))

(* Serialize the *current* snapshot; no lock — a concurrent delta just
   means the file captures the epoch that was current when we started,
   which is all copy-on-write can promise anyway. *)
let cmd_save_bin sess ctx id path =
  let breaker = Breaker.Group.get sess.breakers "save-bin" in
  let sup =
    Supervise.run ~obs:sess.shared.config.obs ~retry:sess.retry ~breaker
      ~degraded_max_steps:sess.shared.config.degraded_max_steps
      ~gov:(governor_of sess)
      (governed sess ctx (fun _gov ->
           match Epoch.current sess.shared.graph with
           | None -> raise (Gq_error.Error (Gq_error.Eval "no graph loaded"))
           | Some (epoch, pg) -> (
               match Graph_io.save_bin_res pg path with
               | Ok bytes ->
                   ctx.spent <- ctx.spent + Elg.nb_edges (Pg.elg pg);
                   Governor.Complete (epoch, bytes)
               | Error err -> raise (Gq_error.Error err))))
  in
  match sup.Supervise.outcome with
  | Error err -> error_reply id "save-bin" ~attempts:sup.Supervise.attempts err
  | Ok outcome -> (
      match outcome with
      | Governor.Complete (epoch, bytes) | Governor.Partial ((epoch, bytes), _)
        ->
          reply id "save-bin" ~status:"ok" ~code:0
            [
              ("degraded", jbool sup.Supervise.degraded);
              ("attempts", jint sup.Supervise.attempts);
              ("bytes", jint bytes);
              ("epoch", jint epoch);
            ]
      | Governor.Aborted r ->
          error_reply id "save-bin" ~attempts:sup.Supervise.attempts
            (Gq_error.Budget r))

(* Evaluation bodies return their answers as ids paired with the graph
   snapshot they were computed on, so rendering resolves names against
   that same snapshot. *)
let with_graph g outcome = Governor.map (fun xs -> (g, xs)) outcome

let cmd_rpq sess ctx b id src =
  let obs = sess.shared.config.obs in
  match Rpq_compile.compile ~obs sess.shared.cache src with
  | Error err -> Buffer.add_string b (error_reply id "rpq" err)
  | Ok c ->
      supervised sess ctx b id ~cls:"rpq"
        (fun gov ->
          let g = Pg.elg (graph_or_fail sess) in
          with_graph g (Rpq_compile.pairs_bounded ~obs sess.shared.cache gov g c))
        ~render:(fun b (g, pairs) -> add_list b (add_pair g) pairs)

let cmd_rpq_from sess ctx b id node src =
  let obs = sess.shared.config.obs in
  match Rpq_compile.compile ~obs sess.shared.cache src with
  | Error err -> Buffer.add_string b (error_reply id "rpq-from" err)
  | Ok c ->
      supervised sess ctx b id ~cls:"rpq-from"
        (fun gov ->
          let g = Pg.elg (graph_or_fail sess) in
          let src_id = node_id_or_fail g node in
          with_graph g
            (Rpq_compile.from_source_bounded ~obs sess.shared.cache gov g c
               ~src:src_id))
        ~render:(fun b (g, targets) -> add_list b (add_name g) targets)

let cmd_shortest sess ctx b id src_name tgt_name regex =
  match Rpq_parse.parse_res regex with
  | Error err -> Buffer.add_string b (error_reply id "shortest" err)
  | Ok r ->
      supervised sess ctx b id ~cls:"shortest"
        (fun gov ->
          let g = Pg.elg (graph_or_fail sess) in
          let src = node_id_or_fail g src_name in
          let tgt = node_id_or_fail g tgt_name in
          with_graph g
            (Path_modes.shortest_bounded ~obs:sess.shared.config.obs gov g r
               ~src ~tgt))
        ~render:(fun b (g, paths) ->
          add_list b (fun b p -> add_jstr b (Path.to_string g p)) paths)

let cmd_query sess ctx b id src =
  match Gql_query.parse_res src with
  | Error err -> Buffer.add_string b (error_reply id "query" err)
  | Ok q ->
      supervised sess ctx b id ~cls:"query"
        (fun gov ->
          let pg = graph_or_fail sess in
          match
            Gql_query.eval_bounded ~max_len:8 ~obs:sess.shared.config.obs gov
              pg q
          with
          | outcome -> with_graph (Pg.elg pg) outcome
          | exception Gql_query.Eval_error msg ->
              raise (Gq_error.Error (Gq_error.Eval msg)))
        ~render:(fun b (g, rel) ->
          add_list b
            (fun b row ->
              add_jstr b
                (String.concat " | " (List.map (Relation.cell_to_string g) row)))
            (Relation.rows rel))

let cmd_set sess id key value =
  let ok v = reply id "set" ~status:"ok" ~code:0 [ ("key", jstr key); ("value", jstr v) ] in
  let bad msg = error_reply id "set" (Gq_error.Parse { what = "set"; msg }) in
  let int_budget set =
    if value = "none" then (set None; ok value)
    else
      match int_of_string_opt value with
      | Some n when n >= 0 -> set (Some n); ok value
      | Some _ | None -> bad (Printf.sprintf "%s: expected a count or none, got %S" key value)
  in
  match key with
  | "max-steps" -> int_budget (fun v -> sess.max_steps <- v)
  | "max-results" -> int_budget (fun v -> sess.max_results <- v)
  | "timeout" ->
      if value = "none" then (sess.timeout <- None; ok value)
      else (
        match float_of_string_opt value with
        | Some t when t >= 0.0 -> sess.timeout <- Some t; ok value
        | Some _ | None -> bad (Printf.sprintf "timeout: expected seconds or none, got %S" value))
  | "retries" -> (
      match int_of_string_opt value with
      | Some n when n >= 1 ->
          sess.retry <- { sess.retry with Retry.max_attempts = n };
          ok value
      | Some _ | None -> bad (Printf.sprintf "retries: expected attempts >= 1, got %S" value))
  | _ -> bad (Printf.sprintf "unknown setting %S" key)

let plan_cache_fields cache =
  let plans = Rpq_compile.plans cache in
  [
    ("enabled", jbool true);
    ("compiled", jint (Plan_cache.length plans));
    ("hits", jint (Plan_cache.hits plans));
    ("misses", jint (Plan_cache.misses plans));
    ("evictions", jint (Plan_cache.evictions plans));
    ("products", jint (Rpq_compile.product_entries cache));
    ("product_hits", jint (Rpq_compile.product_hits cache));
    ("product_misses", jint (Rpq_compile.product_misses cache));
    ("invalidated", jint (Rpq_compile.invalidated cache));
    ("invalidated_by_label", jint (Rpq_compile.invalidated_by_label cache));
    ("retained", jint (Rpq_compile.retained cache));
    ("generation", jint (Rpq_compile.generation cache));
  ]

(* WAL health for `stats`, only present in --wal mode (golden
   transcripts are recorded without a WAL). *)
let wal_fields w =
  let c = Wal.counters w in
  [
    ("generation", jint c.Wal.c_gen);
    ("next_lsn", jint (Int64.to_int c.Wal.c_next_lsn));
    ("read_only", jbool c.Wal.c_read_only);
    ("policy", jstr (Wal.fsync_policy_to_string (Wal.policy w)));
    ("records", jint c.Wal.c_records);
    ("bytes", jint c.Wal.c_bytes);
    ("appends", jint c.Wal.c_appends);
    ("fsyncs", jint c.Wal.c_fsyncs);
    ("checkpoints", jint c.Wal.c_checkpoints);
    ("rotations", jint c.Wal.c_rotations);
    ("replayed", jint c.Wal.c_replayed);
    ("checkpoint_errors", jint c.Wal.c_checkpoint_errors);
  ]

let cmd_stats sess id =
  let breakers =
    List.map
      (fun (cls, b) -> (cls, jstr (Breaker.state_to_string (Breaker.state b))))
      (Breaker.Group.all sess.breakers)
  in
  reply id "stats" ~status:"ok" ~code:0
    ([
       ("graph", jbool (graph_loaded sess.shared));
       ("epoch", jint (Epoch.epoch sess.shared.graph));
       ("deltas", jint (Atomic.get sess.shared.deltas));
       ("breakers", jobj breakers);
       ( "failpoints",
         jobj
           (List.map
              (fun (site, p) -> (site, jstr (Failpoint.policy_to_string p)))
              (Failpoint.armed ())) );
       ("plan", jobj (plan_cache_fields sess.shared.cache));
       (* The parallelism decision in force: the multi-source kernel plus
          the last width the policy (or a pinning caller) chose. *)
       ( "par",
         jobj
           (("kernel", jstr "bitset")
           ::
           (match Par_policy.last () with
           | None -> []
           | Some d ->
               [
                 ("width", jint d.Par_policy.width);
                 ("reason", jstr (Par_policy.reason_slug d.Par_policy.reason));
               ])) );
     ]
    @ (match sess.shared.wal with
      | None -> []
      | Some w -> [ ("wal", jobj (wal_fields w)) ])
    @ sess.extra_stats ())

(* --- plan (EXPLAIN) ------------------------------------------------------ *)

let render_term = function
  | Crpq.TVar v -> v
  | Crpq.TConst c -> "@" ^ c

let render_atom (a : Crpq.atom) =
  render_term a.Crpq.x ^ " -[" ^ Regex.to_string Sym.to_string a.Crpq.re
  ^ "]-> " ^ render_term a.Crpq.y

let est_fields (e : Planner.estimate) =
  [
    ("est_card", jfloat e.Planner.card);
    ("est_sources", jfloat e.Planner.sources);
    ("est_targets", jfloat e.Planner.targets);
  ]

(* Product-edge upper estimate for the parallel decision: each NFA
   transition can pair with every edge its symbol matches. *)
let est_product_edges st (nfa : Sym.t Nfa.t) =
  Array.fold_left
    (fun acc trans ->
      List.fold_left
        (fun acc (sym, _) ->
          acc
          + Stats.sym_edges st
              (match sym with
              | Sym.Lbl a -> Stats.Lbl a
              | Sym.Any -> Stats.Any
              | Sym.Not s -> Stats.Not s))
        acc trans)
    0 nfa.Nfa.delta

(* The EXPLAIN payload: fields appended to the reply.  Shared by the
   serve [plan] command and the one-shot [gqd plan] subcommand. *)
let plan_fields ?(obs = Obs.none) cache g text =
  let st = Stats.get g in
  let is_crpq =
    let n = String.length text in
    let rec go i = i + 1 < n && ((text.[i] = '-' && text.[i + 1] = '[') || go (i + 1)) in
    go 0
  in
  if is_crpq then
    match Crpq_parse.parse_res text with
    | Error err -> Error err
    | Ok q ->
        let atoms = Array.of_list (Crpq.atoms q) in
        let plans = Crpq.explain g q in
        Ok
          [
            ("kind", jstr "crpq");
            ("planner", jbool true);
            ("cache", jobj [ ("enabled", jbool true) ]);
            ( "order",
              jarr
                (List.map (fun (ap, _) -> jint ap.Planner.index) plans) );
            ( "atoms",
              jarr
                (List.map
                   (fun (ap, mode) ->
                     jobj
                       ([
                          ("index", jint ap.Planner.index);
                          ("atom", jstr (render_atom atoms.(ap.Planner.index)));
                          ("mode", jstr mode);
                          ( "direction",
                            jstr (Planner.direction_to_string ap.Planner.direction)
                          );
                        ]
                       @ est_fields ap.Planner.est
                       @ [ ("cost", jfloat ap.Planner.cost) ]))
                   plans) );
          ]
  else
    let plan_hit =
      Plan_cache.was_cached (Rpq_compile.plans cache) ~flags:"rpq" text
    in
    match Rpq_compile.compile ~obs cache text with
    | Error err -> Error err
    | Ok c ->
        let product_hit = Rpq_compile.product_cached cache g c in
        let e = Planner.estimate st c.Plan_cache.ast in
        let dir = Planner.direction_of st c.Plan_cache.ast in
        let pe = est_product_edges st c.Plan_cache.nfa in
        let d =
          Par_policy.decide ~kernel:Par_policy.Bitset
            ~max_width:(Pool.size (Pool.default ()))
            ~sources:(int_of_float e.Planner.sources)
            ~product_edges:pe ()
        in
        Ok
          ([
             ("kind", jstr "rpq");
             ("planner", jbool true);
             ( "cache",
               jobj
                 [
                   ("plan", jstr (if plan_hit then "hit" else "miss"));
                   ("product", jstr (if product_hit then "hit" else "cold"));
                 ] );
             ("direction", jstr (Planner.direction_to_string dir));
           ]
          @ est_fields e
          @ [
              ( "parallel",
                jobj
                  [
                    ("kernel", jstr "bitset");
                    ("width", jint d.Par_policy.width);
                    ("work", jint d.Par_policy.work);
                    ("threshold", jint d.Par_policy.threshold);
                    ("reason", jstr (Par_policy.reason_slug d.Par_policy.reason));
                  ] );
            ])

let cmd_plan sess id text =
  match Epoch.snapshot sess.shared.graph with
  | None -> error_reply id "plan" (Gq_error.Eval "no graph loaded")
  | Some pg -> (
      match
        plan_fields ~obs:sess.shared.config.obs sess.shared.cache (Pg.elg pg)
          text
      with
      | Error err -> error_reply id "plan" err
      | Ok fields -> reply id "plan" ~status:"ok" ~code:0 fields)

(* --- dispatch ------------------------------------------------------------ *)

type action = Reply of string | Silent | Quit of string

let split_first line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let changes_state = function
  | "load" | "add-edge" | "del-edge" | "del-node" | "delta-load" | "set" -> true
  | _ -> false

let handle sess ctx b id line =
  let verb, rest = split_first line in
  (* Small replies are rendered as strings; the answer-bearing commands
     write into [b] themselves. *)
  let str s =
    Buffer.add_string b s;
    `Reply
  in
  match verb with
  | "ping" -> str (reply id "ping" ~status:"ok" ~code:0 [])
  | "quit" ->
      Buffer.add_string b (reply id "quit" ~status:"ok" ~code:0 []);
      `Quit
  | "stats" -> str (cmd_stats sess id)
  | "load" ->
      if rest = "" then str (parse_error id "load" "load: missing path")
      else str (cmd_load sess ctx id rest)
  | "add-edge" ->
      if rest = "" then
        str
          (parse_error id "add-edge"
             "add-edge: expected NAME SRC LABEL TGT [key=value ...]")
      else
        str
          (match Delta.parse_res ("add " ^ rest) with
          | Error err -> error_reply id "add-edge" err
          | Ok ops -> cmd_delta sess ctx id "add-edge" ops)
  | "del-edge" ->
      if rest = "" then
        str (parse_error id "del-edge" "del-edge: expected NAME")
      else
        str
          (match Delta.parse_res ("del " ^ rest) with
          | Error err -> error_reply id "del-edge" err
          | Ok ops -> cmd_delta sess ctx id "del-edge" ops)
  | "del-node" ->
      if rest = "" then
        str (parse_error id "del-node" "del-node: expected NAME")
      else
        str
          (match Delta.parse_res ("deln " ^ rest) with
          | Error err -> error_reply id "del-node" err
          | Ok ops -> cmd_delta sess ctx id "del-node" ops)
  | "delta-load" ->
      if rest = "" then
        str (parse_error id "delta-load" "delta-load: missing path")
      else
        str
          (match Delta.parse_file_res rest with
          | Error err -> error_reply id "delta-load" err
          | Ok ops -> cmd_delta sess ctx id "delta-load" ops)
  | "save-bin" ->
      if rest = "" then
        str (parse_error id "save-bin" "save-bin: missing path")
      else str (cmd_save_bin sess ctx id rest)
  | "rpq" ->
      if rest = "" then str (parse_error id "rpq" "rpq: missing regex")
      else begin
        cmd_rpq sess ctx b id rest;
        `Reply
      end
  | "rpq-from" -> (
      match split_first rest with
      | node, regex when node <> "" && regex <> "" ->
          cmd_rpq_from sess ctx b id node regex;
          `Reply
      | _ -> str (parse_error id "rpq-from" "rpq-from: expected NODE REGEX"))
  | "shortest" -> (
      match split_first rest with
      | src, rest' when src <> "" -> (
          match split_first rest' with
          | tgt, regex when tgt <> "" && regex <> "" ->
              cmd_shortest sess ctx b id src tgt regex;
              `Reply
          | _ -> str (parse_error id "shortest" "shortest: expected SRC TGT REGEX"))
      | _ -> str (parse_error id "shortest" "shortest: expected SRC TGT REGEX"))
  | "query" ->
      if rest = "" then str (parse_error id "query" "query: missing query text")
      else begin
        cmd_query sess ctx b id rest;
        `Reply
      end
  | "plan" ->
      if rest = "" then str (parse_error id "plan" "plan: missing query text")
      else str (cmd_plan sess id rest)
  | "set" -> (
      match split_first rest with
      | key, value when key <> "" && value <> "" -> str (cmd_set sess id key value)
      | _ -> str (parse_error id "set" "set: expected KEY VALUE"))
  | verb ->
      (* Bound the echoed verb: error messages must stay small no matter
         how long the junk line was. *)
      let shown =
        if String.length verb > 64 then String.sub verb 0 64 ^ "..." else verb
      in
      str (parse_error id verb (Printf.sprintf "unknown command %S" shown))

(* A per-worker render buffer that one huge reply grew past this is
   shrunk back, so the reply's size is not held for the process's
   lifetime. *)
let keep_bytes = 4 lsl 20

(* The finished line: [b] as one string ending in a newline — the only
   copy of the reply the server hands to the socket. *)
let take_line b =
  Buffer.add_char b '\n';
  let s = Buffer.contents b in
  if Buffer.length b > keep_bytes then Buffer.reset b else Buffer.clear b;
  s

(* The outermost safety net: if command handling itself blows up (a bug,
   an injected fault at an unsupervised site, a signal-free OOM), the
   session still answers with a structured error and keeps serving.
   Returns the action plus the governed work (steps) the request spent,
   for the server's per-client token-bucket accounting. *)
let handle_line sess b ~id line =
  let ctx = { spent = 0 } in
  Buffer.clear b;
  let kind =
    try handle sess ctx b id line
    with e ->
      (* A render that failed midway leaves a partial reply behind. *)
      Buffer.clear b;
      Buffer.add_string b (error_reply id "internal" (Gq_error.of_exn e));
      `Reply
  in
  let s = take_line b in
  ((match kind with `Reply -> Reply s | `Quit -> Quit s), ctx.spent)

let handle_safe sess ~id line =
  let chop line = String.sub line 0 (String.length line - 1) in
  match handle_line sess (Buffer.create 256) ~id line with
  | Reply s, spent -> (Reply (chop s), spent)
  | Quit s, spent -> (Quit (chop s), spent)
  | Silent, spent -> (Silent, spent)

(* --- request batching ----------------------------------------------------- *)

(* Requests coalesce when one evaluation can answer all of them: same
   verb, same regex (hence the same plan-cache entry and compiled
   automaton), same effective budgets and retry policy, and the same
   breaker state for the class — so the shared supervised run behaves
   exactly as each member's solo run would have.  The graph snapshot is
   read once inside the run, which is also what each queued member would
   have seen unbatched.  [rpq-from] keys ignore the source node: the
   bitset kernel packs all the batch's sources into one multi-source
   traversal. *)
let budget_signature sess cls =
  let io = function None -> "-" | Some n -> string_of_int n in
  let fo = function None -> "-" | Some f -> Printf.sprintf "%h" f in
  String.concat ","
    [
      io sess.max_steps;
      io sess.max_results;
      fo sess.timeout;
      string_of_int sess.retry.Retry.max_attempts;
      Breaker.state_to_string
        (Breaker.state (Breaker.Group.get sess.breakers cls));
    ]

let batch_key sess line =
  if not (graph_loaded sess.shared) then None
  else
    match split_first line with
    | "rpq", regex when regex <> "" ->
        Some ("rpq|" ^ regex ^ "|" ^ budget_signature sess "rpq")
    | "rpq-from", rest -> (
        match split_first rest with
        | node, regex when node <> "" && regex <> "" ->
            Some ("rpq-from|" ^ regex ^ "|" ^ budget_signature sess "rpq-from")
        | _ -> None)
    | _ -> None

(* One reply line per member: [render] writes it into [b]. *)
let each_line b members render =
  List.map
    (fun m ->
      render m;
      take_line b)
    members

(* One evaluation, one reply per member, each carrying its own id.  The
   answers array is rendered once, for the first member, and copied
   into the others. *)
let rpq_batch lead ctx b members regex =
  let obs = lead.shared.config.obs in
  match Rpq_compile.compile ~obs lead.shared.cache regex with
  | Error err ->
      each_line b members (fun (_, id, _) ->
          Buffer.add_string b (error_reply id "rpq" err))
  | Ok c ->
      let sup =
        supervised_outcome lead ctx ~cls:"rpq" (fun gov ->
            let g = Pg.elg (graph_or_fail lead) in
            with_graph g (Rpq_compile.pairs_bounded ~obs lead.shared.cache gov g c))
      in
      let rendered = ref None in
      let render b (g, pairs) =
        match !rendered with
        | Some (arr, n) ->
            Buffer.add_string b arr;
            n
        | None ->
            let start = Buffer.length b in
            let n = add_list b (add_pair g) pairs in
            rendered := Some (Buffer.sub b start (Buffer.length b - start), n);
            n
      in
      each_line b members (fun (_, id, _) ->
          render_outcome b id ~cls:"rpq" sup ~render)

(* Distinct source nodes packed into one multi-source run; members with
   an unknown node get their solo error reply without spoiling the
   batch, and duplicate nodes share one slot (and its answers). *)
let rpq_from_batch lead ctx b members regex =
  let obs = lead.shared.config.obs in
  match Rpq_compile.compile ~obs lead.shared.cache regex with
  | Error err ->
      each_line b members (fun (_, id, _) ->
          Buffer.add_string b (error_reply id "rpq-from" err))
  | Ok c -> (
      match Epoch.snapshot lead.shared.graph with
      | None ->
          (* [batch_key] requires a loaded graph; unreachable. *)
          each_line b members (fun (_, id, _) ->
              Buffer.add_string b
                (error_reply id "rpq-from" (Gq_error.Eval "no graph loaded")))
      | Some pg ->
          let g = Pg.elg pg in
          let slot = Hashtbl.create 8 in
          let srcs = ref [] and nsrc = ref 0 in
          let resolved =
            List.map
              (fun (_, id, line) ->
                let node, _ = split_first (snd (split_first line)) in
                match Elg.node_id g node with
                | sid ->
                    let k =
                      match Hashtbl.find_opt slot sid with
                      | Some k -> k
                      | None ->
                          let k = !nsrc in
                          Hashtbl.add slot sid k;
                          srcs := sid :: !srcs;
                          incr nsrc;
                          k
                    in
                    Ok (id, k)
                | exception Not_found -> Error (id, node))
              members
          in
          let srcs = Array.of_list (List.rev !srcs) in
          let sup =
            supervised_outcome lead ctx ~cls:"rpq-from" (fun gov ->
                Rpq_compile.from_source_batch ~obs lead.shared.cache gov g c
                  ~srcs)
          in
          each_line b resolved (function
              | Error (id, node) ->
                  Buffer.add_string b
                    (error_reply id "rpq-from" ~attempts:1
                       (Gq_error.Unknown_node node))
              | Ok (id, k) ->
                  (* The member's slice, straight off the kernel's
                     per-source array. *)
                  render_outcome b id ~cls:"rpq-from" sup ~render:(fun b arr ->
                      add_array b (add_name g)
                        (if k < Array.length arr then arr.(k) else [||]))))

let handle_batch b members =
  match members with
  | [] -> ([], [])
  | (lead, _, line) :: _ ->
      let ctx = { spent = 0 } in
      let verb, rest = split_first line in
      Buffer.clear b;
      let replies =
        match verb with
        | "rpq" -> rpq_batch lead ctx b members rest
        | "rpq-from" -> rpq_from_batch lead ctx b members (snd (split_first rest))
        | _ ->
            (* [batch_key] only keys rpq/rpq-from; fall back per member. *)
            List.map
              (fun (sess, id, l) ->
                let action, spent = handle_line sess b ~id l in
                ctx.spent <- ctx.spent + spent;
                match action with Reply r | Quit r -> r | Silent -> "")
              members
      in
      (* Split the governed work across the coalesced requests: every
         member's client is charged a fair share of the one run. *)
      let n = List.length members in
      let share = ctx.spent / n in
      let spents =
        List.mapi
          (fun i _ -> if i = 0 then ctx.spent - (share * (n - 1)) else share)
          members
      in
      (replies, spents)
