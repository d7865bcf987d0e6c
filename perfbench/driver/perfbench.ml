(* Serve benchmark entry point.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--gqd PATH]

   Builds the workload's seeded inputs, starts `gqd --listen` on a unix
   socket, drives it for S measured seconds after an untimed warm-up,
   checks every answer it can, and prints one JSON object as the last
   line of stdout: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
   is repeated against a server started with --metrics, the request
   stream is replayed in-process layer by layer, and the metrics are the
   per-layer ones. *)

open Pb_util
module G = Pb_gen
module D = Pb_drive
module P = Pb_proc

type args = {
  workload : G.workload;
  seed : int;
  seconds : float;
  trace : bool;
  gqd : string;
}

(* Scratch files, relative to the checkout root. *)
let work = ".perfbench"

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref 10.0 in
  let trace = ref 0 and gqd = ref ".perfbench/build/_build/default/bin/gqd.exe" in
  let spec =
    [
      ( "--workload",
        Arg.String
          (fun s ->
            match G.workload_of_string s with
            | Some w -> workload := Some w
            | None -> raise (Arg.Bad ("unknown workload " ^ s))),
        "NAME log_mix | bulk_rpq | write_mix" );
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Float (fun f -> seconds := f), "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--gqd", Arg.Set_string gqd, "PATH the gqd binary");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench";
  match (!workload, !seed) with
  | Some workload, Some seed ->
      { workload; seed; seconds = !seconds; trace = !trace = 1; gqd = !gqd }
  | _ -> die "--workload and --seed are required"

(* --- inputs --------------------------------------------------------------- *)

type inputs = {
  spec : G.spec;
  pg : Pg.t;
  pools : G.pools;
  graph_file : string;  (* what `load` reads: text, or GQB1 on bulk_rpq *)
  wal0 : string;  (* write_mix: the pristine log the server recovers *)
}

let make_inputs a dir =
  let spec = G.spec a.workload in
  let pg = G.graph spec ~seed:a.seed in
  let graph_file =
    if spec.G.binary then begin
      let f = Filename.concat dir "graph.gqb" in
      ignore (ok_or_die (Graph_io.save_bin_res pg f));
      f
    end
    else begin
      let f = Filename.concat dir "graph.txt" in
      write_file f (Graph_io.to_string pg);
      f
    end
  in
  let wal0 = Filename.concat dir "wal0" in
  if a.workload = G.Write_mix then begin
    let w, _ =
      ok_or_die (Wal.open_res ~policy:Wal.Never ~checkpoint_every:1_000_000 wal0)
    in
    ignore (ok_or_die (Wal.checkpoint_res w pg));
    List.iter
      (fun op -> ignore (ok_or_die (Wal.append_res w [ op ])))
      (G.wal_tail spec ~seed:a.seed);
    Wal.close w
  end;
  { spec; pg; pools = G.pools spec ~seed:a.seed pg; graph_file; wal0 }

(* --- server lifecycle ----------------------------------------------------- *)

(* Writes in the probe of the workloads without a writer (even); the
   cheaper log_mix writes get more samples for a steadier tail. *)
let probe_writes = function G.Bulk_rpq -> 100 | G.Log_mix | G.Write_mix -> 200

(* Start a server and bring it to its first ok reply with the graph
   loaded (or recovered).  Returns the process, the connection that
   loaded it, the seconds from spawn to that reply, and its WAL. *)
let start_server a inp dir ~tag ~metrics =
  let write_mix = a.workload = G.Write_mix in
  let wal = Filename.concat dir (tag ^ ".wal") in
  if write_mix then copy_dir inp.wal0 wal;
  let flags = P.flags ~write_mix ~metrics ~wal in
  let t0 = now () in
  let p = P.spawn ~gqd:a.gqd ~dir ~tag ~flags in
  let c = D.open_conn (P.connect p ~timeout:120.0) in
  let reply =
    if write_mix then D.ask c "stats" else D.ask c ("load " ^ inp.graph_file)
  in
  let ready =
    str_field reply "status" = Some "ok"
    && ((not write_mix) || find_from reply 0 "\"graph\":true" >= 0)
  in
  let dt = now () -. t0 in
  if not ready then begin
    P.kill p;
    die "server not ready: %s" reply
  end;
  (p, c, dt, wal)

(* A set-up that only measures: start, reach the first ok reply, kill. *)
let setup_only a inp dir ~tag =
  let p, c, dt, wal = start_server a inp dir ~tag ~metrics:false in
  P.kill p;
  Unix.close c.D.fd;
  rm_rf wal;
  dt

let plan_of a inp ~warmup =
  let spec = inp.spec in
  {
    D.reads =
      Array.init spec.G.read_conns (fun conn ->
          G.read_stream spec inp.pools ~seed:a.seed ~conn);
    inflight = spec.G.inflight;
    writes =
      (if spec.G.write_rate > 0.0 then Some (G.write_req spec inp.pools ~seed:a.seed)
       else None);
    write_rate = spec.G.write_rate;
    warmup;
    seconds = a.seconds;
  }

(* One measured phase against a fresh server. *)
type phase = {
  res : D.result;
  setup_s : float;  (* median over every set-up of the phase *)
  rss_mb : float;
  counters : (string, int) Hashtbl.t;  (* --metrics, after the drain *)
  stats : string;  (* the server's `stats` reply after the window *)
  probe : D.outcome array;  (* the write probe (workloads without a writer) *)
  read_probe : D.outcome array;  (* traced: reads of the verbs the window lacked *)
  state_ok : bool;  (* write_mix final-state and durability checks *)
  wal_dir : string;  (* write_mix: the server's log *)
}

(* Durability: the server's final state, and the log it leaves behind
   (after a SIGKILL, or a drain in the traced phase), must both equal
   the initial graph plus the acknowledged writes, in order. *)
let check_state inp dir p c wal res ~metrics =
  let expected = Pb_check.model inp.pg (Pb_check.acked_ops res.D.outcomes) in
  let saved = Filename.concat dir "final.gqb" in
  let r = D.ask c ("save-bin " ^ saved) in
  let live_ok =
    str_field r "status" = Some "ok"
    &&
    match Graph_io.load_file_res saved with
    | Ok pg -> Pb_check.same_state expected pg
    | Error _ -> false
  in
  if metrics then ignore (P.drain p ~timeout:30.0) else P.kill p;
  let recovered_ok =
    match Wal.recover_res wal with
    | Ok { Wal.rc_graph = Some pg; _ } -> Pb_check.same_state expected pg
    | Ok _ | Error _ -> false
  in
  if not live_ok then prerr_endline "perfbench: final state differs from the model";
  if not recovered_ok then
    prerr_endline "perfbench: recovered log differs from the acknowledged writes";
  live_ok && recovered_ok

(* Read verbs the window's traffic lacked (rpq-from, shortest and query
   on bulk_rpq; ping in a short run), 30 requests each, so every
   per-verb layer metric is measured on every workload's graph. *)
let probe_reads inp ~seed (traffic : D.outcome array) =
  let has k = Array.exists (fun (o : D.outcome) -> o.D.req.G.kind = k) traffic in
  List.concat_map
    (fun k ->
      if has k then []
      else List.init 30 (fun i -> G.probe_read inp.spec inp.pools ~seed k i))
    (G.Ping :: G.read_kinds)

(* [before] set-ups precede the window (the last one serves it) and
   [after] follow it, so the set-up median spans the whole run. *)
let run_phase a inp dir ~metrics ~before ~after =
  let tag i = Printf.sprintf "s%d%s" i (if metrics then "m" else "") in
  let early = List.init (before - 1) (fun i -> setup_only a inp dir ~tag:(tag i)) in
  let p, c0, dt, wal = start_server a inp dir ~tag:(tag before) ~metrics in
  let spec = inp.spec in
  let nconn = spec.G.read_conns + if spec.G.write_rate > 0.0 then 1 else 0 in
  let conns =
    Array.init nconn (fun i ->
        if i = 0 then c0 else D.open_conn (P.connect p ~timeout:10.0))
  in
  (* Half the write probe runs before the warm-up and half after the
     window, so it samples the machine at both ends of the run. *)
  let probe_half first =
    let half = probe_writes a.workload / 2 in
    if spec.G.write_rate > 0.0 then [||]
    else
      D.sequential c0
        (Array.init half (fun i ->
             G.probe_write spec ~seed:a.seed (if first then i else i + half)))
  in
  let pre = probe_half true in
  let res = D.run (plan_of a inp ~warmup:(Float.min 2.0 (a.seconds /. 4.0))) conns in
  let rss_mb = P.peak_rss_mb p in
  let stats = D.ask c0 "stats" in
  let probe = Array.append pre (probe_half false) in
  (* The traced server answers the read probe too, one request at a
     time, so those verbs get client latencies. *)
  let read_probe =
    if metrics then
      D.sequential c0 (Array.of_list (probe_reads inp ~seed:a.seed res.D.outcomes))
    else [||]
  in
  let state_ok =
    if a.workload = G.Write_mix then check_state inp dir p c0 wal res ~metrics
    else begin
      if metrics then ignore (P.drain p ~timeout:30.0) else P.kill p;
      true
    end
  in
  Array.iter (fun c -> try Unix.close c.D.fd with Unix.Unix_error _ -> ()) conns;
  let counters = if metrics then P.metrics p else Hashtbl.create 1 in
  let late = List.init after (fun i -> setup_only a inp dir ~tag:(tag (before + 1 + i))) in
  {
    res;
    setup_s = median (Array.of_list (early @ (dt :: late)));
    rss_mb;
    counters;
    stats;
    probe;
    read_probe;
    state_ok;
    wal_dir = wal;
  }

(* --- end-to-end metrics --------------------------------------------------- *)

(* Latencies of the measured reads (pings excluded) or writes, in ms; a
   write is timed from when it was due. *)
let timed_latencies ph ~writes =
  let s = Sample.create () in
  let add (o : D.outcome) =
    if o.D.status = "ok" && G.is_write o.D.req.G.kind = writes
       && o.D.req.G.kind <> G.Ping
    then Sample.add s (ms_of (o.D.t_done -. o.D.t_due))
  in
  Array.iter (fun (o : D.outcome) -> if o.D.timed then add o) ph.res.D.outcomes;
  if writes then Array.iter add ph.probe;
  Sample.to_array s

let throughput ph =
  let ok = ref 0 and last = ref ph.res.D.t_start in
  Array.iter
    (fun (o : D.outcome) ->
      if o.D.timed && o.D.status = "ok" then begin
        incr ok;
        if o.D.t_done > !last then last := o.D.t_done
      end)
    ph.res.D.outcomes;
  float_of_int !ok /. Float.max 1e-9 (!last -. ph.res.D.t_start)

let end_to_end ph =
  let reads = timed_latencies ph ~writes:false in
  let writes = timed_latencies ph ~writes:true in
  [
    ("throughput_rps", throughput ph, "1/s");
    ("read_p50_ms", quantile reads 0.5, "ms");
    ("read_p90_ms", quantile reads 0.9, "ms");
    ("write_p50_ms", quantile writes 0.5, "ms");
    ("write_p90_ms", quantile writes 0.9, "ms");
    ("setup_s", ph.setup_s, "s");
    ("peak_rss_mb", ph.rss_mb, "MiB");
  ]

(* --- per-layer metrics ---------------------------------------------------- *)

(* Median of three timed calls, in ms. *)
let median_ms f =
  median
    (Array.init 3 (fun _ ->
         let t0 = now () in
         f ();
         ms_of (now () -. t0)))

(* Log plus checkpoint bytes written per byte of delta payload: the
   traced server's log on write_mix, the replay's own log elsewhere. *)
let write_amp a traced (rp : Pb_replay.result) =
  if a.workload = G.Write_mix then begin
    let payload =
      List.fold_left
        (fun acc op -> acc + String.length (Delta.render [ op ]))
        0
        (Pb_check.acked_ops traced.res.D.outcomes)
    in
    (* Superseded checkpoints are deleted; the newest stands in for each. *)
    let newest =
      Array.fold_left
        (fun acc f ->
          if String.length f > 11 && String.sub f 0 11 = "checkpoint-" then
            max acc (file_size (Filename.concat traced.wal_dir f))
          else acc)
        0
        (try Sys.readdir traced.wal_dir with Sys_error _ -> [||])
    in
    let c = P.counter traced.counters in
    ratio (c "wal.bytes" + (c "wal.checkpoints" * newest)) payload
  end
  else
    let t = rp.Pb_replay.trace in
    ratio (rp.Pb_replay.segment_bytes + t.Pb_replay.checkpoint_bytes) t.Pb_replay.payload_bytes

let per_layer a inp dir ~untraced ~traced =
  let ctr = traced.counters in
  let c = P.counter ctr and cp = P.counter_prefix ctr in
  let outs = traced.res.D.outcomes in
  let traffic = Array.concat [ outs; traced.probe; traced.read_probe ] in
  let seqd = Array.mapi (fun i (o : D.outcome) -> (i, o.D.req)) traffic in
  let nread = Array.length traced.read_probe in
  let nrest = Array.length traffic - nread in
  let rp =
    Pb_replay.run
      {
        Pb_replay.pg = inp.pg;
        traffic = Array.sub seqd 0 nrest;
        probes = Array.sub seqd nrest nread;
        budget = Float.max 4.0 (a.seconds /. 2.0);
        dir;
      }
  in
  let t = rp.Pb_replay.trace in
  Pb_replay.write_jsonl t
    (Filename.concat work
       (Printf.sprintf "spans-%s-%d.jsonl" (G.workload_name a.workload) a.seed));
  let layer k = mean (Pb_replay.durations t k) in
  let lat (o : D.outcome) = ms_of (o.D.t_done -. o.D.t_sent) in
  let of_kind k outs =
    List.filter (fun (o : D.outcome) -> o.D.req.G.kind = k && o.D.status = "ok")
      (Array.to_list outs)
  in
  let pings =
    Array.of_list (List.map lat (of_kind G.Ping (Array.append outs traced.read_probe)))
  in
  (* Client latency minus the replayed handle_safe, for one read verb. *)
  let overhead k =
    Array.of_list
      (List.filter_map
         (fun (i, (o : D.outcome)) ->
           match Pb_replay.handle_ms t i with
           | Some h when o.D.status = "ok" && o.D.req.G.kind = k -> Some (lat o -. h)
           | _ -> None)
         (List.mapi (fun i o -> (i, o)) (Array.to_list traffic)))
  in
  let rpqs = of_kind G.Rpq outs @ of_kind G.Rpq_from outs in
  let sum f l = List.fold_left (fun acc o -> acc + f o) 0 l in
  let hit = c "plan.cache.hit" and miss = c "plan.cache.miss" in
  let phit = c "plan.product.hit" and pmiss = c "plan.product.miss" in
  let decisions = cp "rpq.par_decision." in
  let retained = Rpq_compile.retained rp.Pb_replay.cache in
  let dropped = Rpq_compile.invalidated_by_label rp.Pb_replay.cache in
  let thr_u = throughput untraced and thr_t = throughput traced in
  let p50 ph = median (timed_latencies ph ~writes:false) in
  [
    ("server.ping_p50_ms", median pings, "ms");
  ]
  @ List.map
      (fun k -> ("server.overhead_p50_ms." ^ G.verb k, median (overhead k), "ms"))
      G.read_kinds
  @ [
    ("server.batched_frac", ratio (c "server.batched") (List.length rpqs), "ratio");
    ("server.queue_peak", float_of_int (c "server.queue.depth"), "count");
    ("server.shed", float_of_int (cp "server.shed."), "count");
    ("server.slow_drops", float_of_int (c "server.slow_drops"), "count");
  ]
  @ List.map
      (fun k ->
        ( "session.handle_p50_ms." ^ G.verb k,
          median (Pb_replay.handle_durations t k),
          "ms" ))
      G.measured_kinds
  @ [
      ("plan.hit_rate", ratio hit (hit + miss), "ratio");
      ( "plan.evictions",
        float_of_int (Option.value ~default:0 (int_field traced.stats "evictions")),
        "count" );
      ("plan.compile_ms", layer "plan.compile", "ms");
      ("product.hit_rate", ratio phit (phit + pmiss), "ratio");
      ("product.build_ms", layer "product.build", "ms");
      ("product.retained_frac", ratio retained (retained + dropped), "ratio");
      ("kernel.eval_ms", layer "kernel.eval", "ms");
      ( "kernel.word_transitions_per_answer",
        ratio (c "rpq.bitset.word_transitions") (c "rpq.answers"),
        "ratio" );
      ( "kernel.pull_frac",
        ratio (c "rpq.bitset.pull_sweeps")
          (c "rpq.bitset.pull_sweeps" + c "rpq.bitset.push_sweeps"),
        "ratio" );
      ("kernel.width2_frac", ratio (c "rpq.par_width" - decisions) decisions, "ratio");
      ("reply.encode_ms", layer "reply.encode", "ms");
      ( "reply.bytes_per_answer",
        ratio (sum (fun o -> o.D.bytes) rpqs) (sum (fun o -> o.D.count) rpqs),
        "B" );
      ("paths.shortest_ms", layer "paths.shortest", "ms");
      ("gql.eval_ms", layer "gql.eval", "ms");
      ( "graph.load_ms",
        median_ms (fun () -> ignore (ok_or_die (Graph_io.load_file_res inp.graph_file))),
        "ms" );
      ("delta.apply_ms", layer "delta.apply", "ms");
      ("plan.apply_delta_ms", layer "plan.apply_delta", "ms");
      ("wal.append_ms", layer "wal.append", "ms");
      ("wal.fsyncs", float_of_int (c "wal.fsyncs"), "count");
      ("wal.checkpoint_ms", layer "wal.checkpoint", "ms");
      ("wal.checkpoints", float_of_int (c "wal.checkpoints"), "count");
      ("wal.write_amp", write_amp a traced rp, "ratio");
      ( "wal.recover_ms",
        (let dir = if a.workload = G.Write_mix then inp.wal0 else rp.Pb_replay.wal_dir in
         median_ms (fun () -> ignore (ok_or_die (Wal.recover_res dir)))),
        "ms" );
      ("supervise.retries", float_of_int (c "supervise.retried"), "count");
      ("governor.trips", float_of_int (cp "governor.trip."), "count");
      ( "gc.minor_mw_per_req",
        t.Pb_replay.minor_words /. 1e6 /. float_of_int (max 1 t.Pb_replay.requests),
        "Mword" );
      ("gc.major_collections", float_of_int t.Pb_replay.major, "count");
    ]
  @ List.map
      (fun k -> ("replay.coverage." ^ G.verb k, Pb_replay.coverage t k, "ratio"))
      G.measured_kinds
  @ [
      ("trace.overhead.throughput_frac", (thr_u -. thr_t) /. thr_u, "ratio");
      ("trace.overhead.read_p50_frac", (p50 traced -. p50 untraced) /. p50 untraced, "ratio");
    ]

(* --- output --------------------------------------------------------------- *)

let json_num x = if Float.is_nan x then "null" else Printf.sprintf "%.17g" x

let metrics_json ms =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v, u) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Wire.jstr k) (json_num v)
             (Wire.jstr u))
         ms)
  ^ "}"

(* What a result row records besides its metrics. *)
let info_line a inp ph (v : Pb_check.verdict) ~requests ~valid =
  let lag = Array.map ms_of ph.res.D.lag in
  let lag_q q = if Array.length lag = 0 then 0.0 else quantile lag q in
  Printf.sprintf
    "{\"run\":{\"workload\":%s,\"seed\":%d,\"seconds\":%g,\"trace\":%b,\"nproc\":%d,\"nodes\":%d,\"edges\":%d,\"labels\":%d,\"server_flags\":%s,\"requests\":%d,\"read_samples\":%d,\"write_samples\":%d,\"mismatched\":%d,\"unchecked\":%d,\"writer_lag_p99_ms\":%s,\"writer_lag_max_ms\":%s,\"valid\":%b}}"
    (Wire.jstr (G.workload_name a.workload)) a.seed a.seconds a.trace
    (Domain.recommended_domain_count ()) inp.spec.G.nodes inp.spec.G.edges
    (Array.length inp.spec.G.labels)
    (Wire.jstr
       (String.concat " "
          (P.flags ~write_mix:(a.workload = G.Write_mix) ~metrics:a.trace ~wal:"DIR")))
    requests
    (Array.length (timed_latencies ph ~writes:false))
    (Array.length (timed_latencies ph ~writes:true))
    v.Pb_check.mismatched v.Pb_check.unchecked (json_num (lag_q 0.99))
    (json_num (lag_q 1.0)) valid

(* A writer that fell behind its schedule measured a lighter load than
   it claims: such a run is invalid, not fast. *)
let max_writer_lag_ms = 100.0

let main () =
  let a = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let name = G.workload_name a.workload in
  let dir =
    Filename.concat work (Printf.sprintf "%s-%d-%d" name a.seed (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  let inp = make_inputs a dir in
  let checkable =
    if a.workload = G.Write_mix then
      Pb_check.disjoint_from [ G.cold_label; inp.pools.G.hot_label ]
    else fun _ -> true
  in
  let check ph =
    let outs = Array.concat [ ph.res.D.outcomes; ph.probe; ph.read_probe ] in
    (outs, Pb_check.replies ~checkable inp.pg outs)
  in
  let valid ph =
    Array.for_all (fun l -> ms_of l < max_writer_lag_ms) ph.res.D.lag
    && P.counter ph.counters "server.slow_drops" = 0
  in
  let ph = run_phase a inp dir ~metrics:false ~before:3 ~after:4 in
  let outs, v = check ph in
  let traced =
    if a.trace then Some (run_phase a inp dir ~metrics:true ~before:1 ~after:0) else None
  in
  let tv = Option.map check traced in
  let failed =
    v.Pb_check.failed
    + Option.fold ~none:0 ~some:(fun (_, tv) -> tv.Pb_check.failed) tv
  in
  let attempted =
    Array.length outs + Option.fold ~none:0 ~some:(fun (o, _) -> Array.length o) tv
  in
  let ok_state = ph.state_ok && Option.fold ~none:true ~some:(fun t -> t.state_ok) traced in
  let is_valid = valid ph && Option.fold ~none:true ~some:valid traced in
  let metrics =
    match traced with
    | None -> end_to_end ph
    | Some tr -> per_layer a inp dir ~untraced:ph ~traced:tr
  in
  print_endline
    (info_line a inp (Option.value traced ~default:ph) v ~requests:attempted ~valid:is_valid);
  let correct = failed = 0 && ok_state && is_valid in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
    correct attempted failed (metrics_json metrics);
  rm_rf dir;
  exit (if correct then 0 else 1)

(* Any failure exits non-zero without a result line; the at_exit hook in
   [Pb_proc] stops every server first. *)
let () =
  try main ()
  with e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 2
