(* Concurrent serve mode: wire framing, the admission queue, the
   wall-clock watchdog, and whole-server behaviour over real sockets —
   quotas, shedding, budget isolation, graceful drain — plus a QCheck
   property pinning the concurrent server to the single-session
   semantics query by query.

   Every server here listens on a loopback TCP socket with port 0 (the
   kernel picks a free port), so tests are sandbox-friendly and never
   collide. *)

let ( let@ ) f x = f x

(* --- fixtures ------------------------------------------------------------- *)

let bank_file =
  lazy
    (let path = Filename.temp_file "gq_bank" ".graph" in
     let oc = open_out path in
     output_string oc (Graph_io.to_string (Generators.bank_pg ()));
     close_out oc;
     path)

(* A 200-edge line graph: enough work that [rpq a*] costs thousands of
   governor steps — the expensive query of the budget tests. *)
let line_file =
  lazy
    (let path = Filename.temp_file "gq_line" ".graph" in
     let oc = open_out path in
     for i = 0 to 200 do Printf.fprintf oc "node n%d N\n" i done;
     for i = 0 to 199 do Printf.fprintf oc "edge e%d n%d a n%d\n" i i (i + 1) done;
     close_out oc;
     path)

(* --- wire ----------------------------------------------------------------- *)

let feed_string ?max_line s =
  let f = Wire.Framer.create ?max_line () in
  let frames = Wire.Framer.feed f (Bytes.of_string s) (String.length s) in
  (frames, Wire.Framer.flush f)

let test_framer_lines () =
  let frames, tail = feed_string "ping\nstats\n" in
  Alcotest.(check int) "two frames" 2 (List.length frames);
  (match frames with
  | [ Wire.Line a; Wire.Line b ] ->
      Alcotest.(check string) "first" "ping" a;
      Alcotest.(check string) "second" "stats" b
  | _ -> Alcotest.fail "expected two Line frames");
  Alcotest.(check bool) "no tail" true (tail = None)

let test_framer_split_feed () =
  let f = Wire.Framer.create () in
  let all = "load x.graph\nrpq a*\n" in
  let frames = ref [] in
  String.iter
    (fun c ->
      frames :=
        !frames @ Wire.Framer.feed f (Bytes.make 1 c) 1)
    all;
  match !frames with
  | [ Wire.Line a; Wire.Line b ] ->
      Alcotest.(check string) "first" "load x.graph" a;
      Alcotest.(check string) "second" "rpq a*" b
  | _ -> Alcotest.fail "byte-by-byte feed must yield the same frames"

let test_framer_too_long () =
  let frames, _ =
    feed_string ~max_line:8 (String.make 100 'x' ^ "\nping\n")
  in
  match frames with
  | [ Wire.Too_long n; Wire.Line p ] ->
      Alcotest.(check int) "reported bound" 8 n;
      Alcotest.(check string) "next line survives" "ping" p
  | _ -> Alcotest.fail "expected Too_long then Line"

let test_framer_eof_tail () =
  let frames, tail = feed_string "quit" in
  Alcotest.(check int) "no complete frame" 0 (List.length frames);
  match tail with
  | Some (Wire.Line l) -> Alcotest.(check string) "flushed tail" "quit" l
  | _ -> Alcotest.fail "expected flushed Line"

let test_utf8 () =
  let valid = [ ""; "ascii"; "caf\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x90\xab" ] in
  let invalid =
    [ "\xff"; "\xc0\xaf" (* overlong *); "\xed\xa0\x80" (* surrogate *);
      "\xf4\x90\x80\x80" (* > U+10FFFF *); "\xc3" (* truncated *) ]
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("valid " ^ String.escaped s) true (Wire.utf8_valid s))
    valid;
  List.iter
    (fun s ->
      Alcotest.(check bool) ("invalid " ^ String.escaped s) false (Wire.utf8_valid s))
    invalid;
  let frames, _ = feed_string "\xff\xfe\n" in
  match frames with
  | [ Wire.Bad_utf8 ] -> ()
  | _ -> Alcotest.fail "expected Bad_utf8 frame"

(* The escaper [Wire] used before its single-pass renderers, kept as the
   oracle they must match byte for byte. *)
let oracle_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let oracle_jstr s = Printf.sprintf "\"%s\"" (oracle_escape s)
let oracle_jarr items = "[" ^ String.concat "," items ^ "]"

let oracle_jobj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> oracle_jstr k ^ ":" ^ v) fields)
  ^ "}"

(* Byte strings weighted toward what escaping must get right: quotes,
   backslashes, every control byte, DEL, and multi-byte UTF-8. *)
let gen_json_string =
  QCheck.Gen.(
    map (String.concat "")
    @@ list_size (int_range 0 12)
         (frequency
            [
              (4, map (String.make 1) (char_range 'a' 'z'));
              (2, oneofl [ "\""; "\\"; "\x7f"; " -> " ]);
              (3, map (fun i -> String.make 1 (Char.chr i)) (int_range 0 0x1f));
              (2, oneofl [ "caf\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9f\x90\xab" ]);
              (1, map (String.make 1) char);
            ]))

let prop_escaping_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"jstr/jarr/jobj/add_jstr = old escaper"
    (QCheck.make
       ~print:(fun l -> String.concat " | " (List.map String.escaped l))
       QCheck.Gen.(list_size (int_range 0 5) gen_json_string))
    (fun strs ->
      let buf = Buffer.create 16 in
      Buffer.add_string buf "prefix";
      List.iter (Wire.add_jstr buf) strs;
      let esc = Buffer.create 16 in
      List.iter (Wire.add_escaped esc) strs;
      List.for_all (fun s -> Wire.jstr s = oracle_jstr s) strs
      && List.for_all (fun s -> Wire.json_escape s = oracle_escape s) strs
      && Buffer.contents buf
         = "prefix" ^ String.concat "" (List.map oracle_jstr strs)
      && Buffer.contents esc = String.concat "" (List.map oracle_escape strs)
      && Wire.jarr (List.map Wire.jstr strs)
         = oracle_jarr (List.map oracle_jstr strs)
      && Wire.jarr strs = oracle_jarr strs
      && Wire.jobj (List.map (fun s -> (s, Wire.jstr s)) strs)
         = oracle_jobj (List.map (fun s -> (s, oracle_jstr s)) strs))

(* --- admission ------------------------------------------------------------ *)

let test_admission_bounds () =
  let q = Admission.create ~capacity:2 () in
  Alcotest.(check bool) "push 1" true (Admission.push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Admission.push q 2 = `Ok);
  Alcotest.(check bool) "push 3 full" true (Admission.push q 3 = `Full);
  Alcotest.(check int) "depth" 2 (Admission.depth q);
  Alcotest.(check bool) "pop fifo" true (Admission.pop q = Some 1);
  Alcotest.(check bool) "room again" true (Admission.push q 3 = `Ok);
  Admission.close q;
  Alcotest.(check bool) "push after close" true (Admission.push q 4 = `Closed);
  Alcotest.(check bool) "drain 2" true (Admission.pop q = Some 2);
  Alcotest.(check bool) "drain 3" true (Admission.pop q = Some 3);
  Alcotest.(check bool) "closed+empty" true (Admission.pop q = None)

(* Concurrent producers and consumers: every successfully pushed item is
   popped exactly once, and closing wakes every blocked consumer. *)
let test_admission_concurrent () =
  let q = Admission.create ~capacity:8 () in
  let pushed = Atomic.make 0 and popped = Atomic.make 0 in
  let sum_pushed = Atomic.make 0 and sum_popped = Atomic.make 0 in
  let producers =
    Array.init 3 (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to 50 do
              let v = (p * 1000) + i in
              let rec go () =
                match Admission.push q v with
                | `Ok ->
                    Atomic.incr pushed;
                    ignore (Atomic.fetch_and_add sum_pushed v)
                | `Full -> Domain.cpu_relax (); go ()
                | `Closed -> ()
              in
              go ()
            done))
  in
  let consumers =
    Array.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let rec go () =
              match Admission.pop q with
              | Some v ->
                  Atomic.incr popped;
                  ignore (Atomic.fetch_and_add sum_popped v);
                  go ()
              | None -> ()
            in
            go ()))
  in
  Array.iter Domain.join producers;
  Admission.close q;
  Array.iter Domain.join consumers;
  Alcotest.(check int) "all pushed" 150 (Atomic.get pushed);
  Alcotest.(check int) "all popped" (Atomic.get pushed) (Atomic.get popped);
  Alcotest.(check int) "same items" (Atomic.get sum_pushed) (Atomic.get sum_popped)

(* --- watchdog ------------------------------------------------------------- *)

let test_watchdog () =
  let gov = Governor.make () in
  let tok = Watchdog.register ~deadline:10.0 gov in
  Alcotest.(check int) "watching" 1 (Watchdog.watching ());
  Alcotest.(check int) "before deadline" 0 (Watchdog.sweep ~now:9.9);
  Alcotest.(check bool) "still ok" true (Governor.ok gov);
  Alcotest.(check int) "past deadline" 1 (Watchdog.sweep ~now:10.0);
  Alcotest.(check bool) "cancelled" false (Governor.tick gov);
  Alcotest.(check bool) "reason" true
    (Governor.tripped gov = Some Governor.Cancelled);
  Alcotest.(check int) "idempotent sweep" 0 (Watchdog.sweep ~now:11.0);
  Watchdog.unregister tok;
  Alcotest.(check int) "unregistered" 0 (Watchdog.watching ())

(* --- whole-server tests --------------------------------------------------- *)

let loopback = Server.Tcp ("127.0.0.1", 0)

let base_config ?(workers = 1) ?(client_inflight = 4) ?(queue_depth = 16)
    ?(client_budget = 0) ?(max_clients = 8) ?hard_deadline ?(max_line = 65536)
    () =
  {
    (Server.default_config ~listen:loopback Session.default_config) with
    Server.workers = Some workers;
    client_inflight;
    queue_depth;
    client_steps_per_sec = client_budget;
    max_clients;
    hard_deadline;
    max_line;
    retry_after_ms = 5;
  }

let with_server cfg f =
  let t = Server.launch cfg in
  Fun.protect
    ~finally:(fun () ->
      Server.drain t;
      Server.await t)
    (fun () -> f t)

let with_delay ms f =
  Failpoint.arm "serve.eval" (Failpoint.Delay_ms (float_of_int ms));
  Fun.protect ~finally:(fun () -> Failpoint.disarm "serve.eval") f

type client = { fd : Unix.file_descr; ic : in_channel }

let connect t =
  let fd = Server.connect (Server.addr t) in
  { fd; ic = Unix.in_channel_of_descr fd }

let send c line =
  match Wire.write_all c.fd (line ^ "\n") with
  | Ok () -> ()
  | Error `Closed -> Alcotest.fail "server closed the connection mid-send"

let recv c = input_line c.ic

let recv_all c =
  let rec go acc =
    match input_line c.ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let has_field line k v =
  let needle = Printf.sprintf "\"%s\":%s" k v in
  let rec go i =
    i + String.length needle <= String.length line
    && (String.sub line i (String.length needle) = needle || go (i + 1))
  in
  go 0

(* Pipelined requests beyond the in-flight quota are shed with the
   documented reply shape, and every request line still gets exactly one
   reply. *)
let test_quota_shed () =
  let@ () = with_delay 200 in
  let@ t = with_server (base_config ~workers:1 ~client_inflight:1 ()) in
  let c = connect t in
  send c "rpq a*\nrpq b*\nrpq c*";
  (try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let replies = recv_all c in
  close_client c;
  Alcotest.(check int) "one reply per request" 3 (List.length replies);
  let shed =
    List.filter (fun r -> has_field r "status" "\"shed\"") replies
  in
  Alcotest.(check int) "two shed" 2 (List.length shed);
  List.iter
    (fun r ->
      Alcotest.(check bool) "reason" true (has_field r "reason" "\"client-quota\"");
      Alcotest.(check bool) "code 4" true (has_field r "code" "4");
      Alcotest.(check bool) "degraded" true (has_field r "degraded" "true"))
    shed;
  Alcotest.(check bool) "first request evaluated" true
    (List.exists (fun r -> has_field r "id" "1" && not (has_field r "status" "\"shed\"")) replies)

(* With a one-slot queue and a busy worker, overflow requests get the
   queue-full shed reply. *)
let test_queue_full_shed () =
  let@ () = with_delay 200 in
  let@ t =
    with_server (base_config ~workers:1 ~client_inflight:8 ~queue_depth:1 ())
  in
  let c = connect t in
  (* Let the worker dequeue the first request (it then sleeps in the
     200ms failpoint) before pipelining the rest — otherwise whether
     the second request finds the queue slot free is a race between
     this client and the worker's wakeup. *)
  send c "rpq a*";
  Unix.sleepf 0.05;
  send c "rpq b*\nrpq c*\nrpq d*";
  (try Unix.shutdown c.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let replies = recv_all c in
  close_client c;
  Alcotest.(check int) "one reply per request" 4 (List.length replies);
  let qfull =
    List.filter (fun r -> has_field r "reason" "\"queue-full\"") replies
  in
  Alcotest.(check int) "two shed on the full queue" 2 (List.length qfull)

(* The per-client token bucket: an expensive query drives the client
   into debt, and its next request is shed with a computed retry hint —
   the isolation mechanism of E21. *)
let test_budget_shed () =
  (* Budget below the cost of [rpq a*] on the line graph under either
     kernel: the bitset engine charges one tick per span *sweep*, so the
     same query costs ~63x fewer steps than the scalar engine's ~40k. *)
  let@ t = with_server (base_config ~workers:2 ~client_budget:500 ()) in
  let c = connect t in
  send c (Printf.sprintf "load %s" (Lazy.force line_file));
  let r1 = recv c in
  Alcotest.(check bool) "load ok" true (has_field r1 "status" "\"ok\"");
  send c "rpq a*";
  let r2 = recv c in
  Alcotest.(check bool) "expensive rpq evaluated" false
    (has_field r2 "status" "\"shed\"");
  send c "ping";
  let r3 = recv c in
  Alcotest.(check bool) "now in debt: shed" true
    (has_field r3 "reason" "\"client-budget\"");
  close_client c

(* Beyond max-clients, a connection is answered with a structured shed
   and closed — never silently dropped. *)
let test_connect_shed () =
  let@ t = with_server (base_config ~max_clients:0 ()) in
  let c = connect t in
  let replies = recv_all c in
  close_client c;
  match replies with
  | [ r ] ->
      Alcotest.(check bool) "connect shed" true
        (has_field r "cmd" "\"connect\"" && has_field r "reason" "\"max-clients\"")
  | _ -> Alcotest.fail "expected exactly the connect-shed reply"

(* Malformed input gets structured errors and never kills the session:
   an over-long line, binary garbage, then a healthy command. *)
let test_hostile_input () =
  let@ t = with_server (base_config ~max_line:64 ()) in
  let c = connect t in
  send c (String.make 500 'x');
  let r1 = recv c in
  Alcotest.(check bool) "too-long is an error reply" true
    (has_field r1 "status" "\"error\"" && has_field r1 "id" "1");
  send c "rpq \xff\xfe";
  let r2 = recv c in
  Alcotest.(check bool) "bad utf8 is an error reply" true
    (has_field r2 "status" "\"error\"" && has_field r2 "id" "2");
  send c "ping";
  let r3 = recv c in
  Alcotest.(check bool) "session survives" true (has_field r3 "status" "\"ok\"");
  close_client c

(* One hostile client (oversized lines, garbage, a flood of expensive
   queries) next to K well-behaved clients: every well-behaved request
   completes ok, none is shed or garbled. *)
let test_hostile_plus_wellbehaved () =
  let@ t = with_server (base_config ~workers:2 ~max_clients:8 ()) in
  let hostile = connect t in
  send hostile (Printf.sprintf "load %s" (Lazy.force line_file));
  ignore (recv hostile);
  send hostile
    (String.make 100_000 'z' ^ "\n\xff\xfe\nnonsense cmd\nrpq a*\nrpq a*\nrpq a*");
  let wb = Array.init 3 (fun _ -> connect t) in
  let n = 10 in
  Array.iter
    (fun c ->
      for i = 1 to n do
        send c "ping";
        let r = recv c in
        Alcotest.(check bool) "wb reply ok" true
          (has_field r "status" "\"ok\"" && has_field r "id" (string_of_int i))
      done)
    wb;
  Array.iter close_client wb;
  close_client hostile

(* Graceful drain loses nothing: a request still evaluating when drain
   begins is finished and answered before the server exits. *)
let test_drain_keeps_inflight () =
  let@ () = with_delay 150 in
  let t = Server.launch (base_config ~workers:1 ()) in
  let c = connect t in
  send c "ping";
  ignore (recv c);
  send c "rpq a*\nrpq b*";
  Unix.sleepf 0.05 (* both admitted: one in flight, one queued *);
  Server.drain t;
  Server.await t;
  let replies = recv_all c in
  close_client c;
  Alcotest.(check int) "both in-flight requests answered" 2 (List.length replies);
  List.iter
    (fun r ->
      Alcotest.(check bool) "not dropped" true
        (has_field r "id" "2" || has_field r "id" "3"))
    replies

(* The watchdog cancels a query past the hard deadline: the reply is a
   structured partial with reason "cancelled", not a hung worker. *)
let test_watchdog_cancels_runaway () =
  let@ t = with_server (base_config ~workers:1 ~hard_deadline:0.15 ()) in
  let c = connect t in
  send c (Printf.sprintf "load %s" (Lazy.force line_file));
  ignore (recv c);
  (* ~40k-step query, slowed to a crawl: every bfs step sleeps, so only
     the watchdog can end it promptly. *)
  Failpoint.arm "rpq.bfs.step" (Failpoint.Delay_ms 2.0);
  Fun.protect
    ~finally:(fun () -> Failpoint.disarm "rpq.bfs.step")
    (fun () ->
      send c "rpq a*";
      let r = recv c in
      Alcotest.(check bool) "cancelled" true
        (has_field r "reason" "\"cancelled\"" && has_field r "code" "4"));
  close_client c

(* stats in listen mode carries the server block. *)
let test_stats_server_block () =
  let@ t = with_server (base_config ()) in
  let c = connect t in
  send c "stats";
  let r = recv c in
  Alcotest.(check bool) "server object present" true
    (has_field r "clients" "1" && has_field r "draining" "false");
  close_client c

(* --- bulk replies ------------------------------------------------------------ *)

(* 5k nodes, 20k edges over two labels: a full [(a|b).(a|b)] has tens of
   thousands of answers, a reply of over a megabyte. *)
let bulk_file =
  lazy
    (let path = Filename.temp_file "gq_bulk" ".graph" in
     let oc = open_out path in
     let g =
       Generators.random_graph ~seed:7 ~nodes:5000 ~edges:20_000
         ~labels:[ "a"; "b" ]
     in
     for v = 0 to Elg.nb_nodes g - 1 do
       Printf.fprintf oc "node %s N\n" (Elg.node_name g v)
     done;
     for e = 0 to Elg.nb_edges g - 1 do
       Printf.fprintf oc "edge %s %s %s %s\n" (Elg.edge_name g e)
         (Elg.node_name g (Elg.src g e)) (Elg.label g e)
         (Elg.node_name g (Elg.tgt g e))
     done;
     close_out oc;
     path)

let bulk_queries = [ "rpq (a|b).(a|b)"; "rpq (b|a).(b|a)" ]

(* Whatever [line] is answered by a fresh session under [id]. *)
let solo_reply ~id line =
  let sess = Session.create (Session.make_shared Session.default_config) in
  ignore (Session.handle_safe sess ~id:1 ("load " ^ Lazy.force bulk_file));
  match Session.handle_safe sess ~id line with
  | Session.Reply r, _ -> r
  | _ -> Alcotest.fail "expected a reply"

(* One client pipelines two requests whose replies each dwarf a socket
   buffer, over a unix socket, and reads only once both are answered:
   both replies must still arrive whole, in one piece each, never
   interleaved although two workers write them, each byte-identical to
   the solo reply for its id.  At pool widths 1 and 4 (the serve-mode
   width rule caps either). *)
let test_pipelined_bulk_replies () =
  let expected =
    List.mapi (fun i q -> (i + 2, solo_reply ~id:(i + 2) q)) bulk_queries
  in
  List.iter
    (fun (_, r) ->
      Alcotest.(check bool) "reply exceeds a socket buffer" true
        (String.length r > 1 lsl 20))
    expected;
  let saved = Option.value (Sys.getenv_opt "GQ_DOMAINS") ~default:"" in
  Fun.protect ~finally:(fun () -> Unix.putenv "GQ_DOMAINS" saved) @@ fun () ->
  List.iter
    (fun domains ->
      Unix.putenv "GQ_DOMAINS" domains;
      let sock = Filename.temp_file "gq_serve" ".sock" in
      let@ t =
        with_server
          { (base_config ~workers:2 ()) with Server.listen = Server.Unix_path sock }
      in
      let c = connect t in
      (* Garbled framing must fail the test, not hang it. *)
      Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 20.0;
      send c ("load " ^ Lazy.force bulk_file);
      Alcotest.(check bool) "load ok" true (has_field (recv c) "status" "\"ok\"");
      send c (String.concat "\n" bulk_queries);
      Unix.sleepf 0.3;
      let got = List.map (fun _ -> recv c) bulk_queries in
      List.iter
        (fun (id, want) ->
          match List.filter (fun r -> has_field r "id" (string_of_int id)) got with
          | [ r ] ->
              Alcotest.(check bool)
                (Printf.sprintf "GQ_DOMAINS=%s: reply %d whole" domains id)
                true (r = want)
          | _ -> Alcotest.failf "GQ_DOMAINS=%s: no single reply %d" domains id)
        expected;
      send c "ping";
      Alcotest.(check bool) "connection still in step" true
        (has_field (recv c) "id" "4");
      close_client c)
    [ "1"; "4" ]

(* Serve mode sizes the evaluation pool to the hardware threads left per
   worker: with a worker per thread a large request stays serial, and
   the parallelism policy says why. *)
let test_serve_width () =
  let workers = Domain.recommended_domain_count () in
  let@ t = with_server (base_config ~workers ()) in
  Alcotest.(check int) "one evaluation domain per request" 1
    (Pool.size (Pool.default ()));
  let c = connect t in
  send c ("load " ^ Lazy.force bulk_file);
  ignore (recv c);
  send c (List.hd bulk_queries);
  ignore (recv c);
  send c "stats";
  let r = recv c in
  Alcotest.(check bool) "policy reports hardware_serial" true
    (has_field r "width" "1" && has_field r "reason" "\"hardware_serial\"");
  close_client c

(* --- request batching: attribution and parity ----------------------------- *)

(* Two pipelined clients issuing the identical cached query must get
   byte-identical, correctly-attributed replies from one batched run —
   each exactly what a fresh solo session would have answered under its
   own id. *)
let test_session_batching () =
  let shared = Session.make_shared Session.default_config in
  let sa = Session.create shared and sb = Session.create shared in
  Alcotest.(check bool) "not batchable before load" true
    (Session.batch_key sa "rpq Transfer*" = None);
  (match Session.handle_safe sa ~id:1 (Printf.sprintf "load %s" (Lazy.force bank_file)) with
  | Session.Reply _, _ -> ()
  | _ -> Alcotest.fail "load failed");
  Alcotest.(check bool) "rpq batchable" true
    (Session.batch_key sa "rpq Transfer*" <> None);
  Alcotest.(check bool) "key equal across sessions" true
    (Session.batch_key sa "rpq Transfer*" = Session.batch_key sb "rpq Transfer*");
  Alcotest.(check bool) "different regex, different key" true
    (Session.batch_key sa "rpq Transfer*" <> Session.batch_key sa "rpq Transfer");
  Alcotest.(check bool) "ping not batchable" true
    (Session.batch_key sa "ping" = None);
  (* Reference: what a fresh solo session answers for [line] under [id]. *)
  let solo id line =
    match Session.handle_safe (Session.create shared) ~id line with
    | Session.Reply r, _ -> r ^ "\n"
    | _ -> Alcotest.fail "expected a reply"
  in
  let replies, spents =
    Session.handle_batch (Buffer.create 16)
      [ (sa, 5, "rpq Transfer*"); (sb, 9, "rpq Transfer*") ]
  in
  (match replies with
  | [ ra; rb ] ->
      Alcotest.(check string) "leader attributed" (solo 5 "rpq Transfer*") ra;
      Alcotest.(check string) "follower attributed" (solo 9 "rpq Transfer*") rb
  | _ -> Alcotest.fail "expected two replies");
  Alcotest.(check int) "one spent share per member" 2 (List.length spents);
  (* rpq-from: distinct sources pack into one multi-source run; a repeat
     source dedups; an unknown source gets its own structured error. *)
  let lines =
    [
      (sa, 11, "rpq-from a1 Transfer*");
      (sb, 12, "rpq-from a2 Transfer*");
      (sa, 13, "rpq-from a1 Transfer*");
      (sb, 14, "rpq-from nosuch Transfer*");
    ]
  in
  let replies, spents = Session.handle_batch (Buffer.create 16) lines in
  Alcotest.(check int) "four replies" 4 (List.length replies);
  Alcotest.(check int) "four spent shares" 4 (List.length spents);
  List.iter2
    (fun (_, id, line) r ->
      Alcotest.(check string) (Printf.sprintf "rpq-from id %d" id) (solo id line) r)
    lines replies

(* --- property: server sessions = stdio session, query by query ----------- *)

let command_pool =
  [|
    "ping";
    "rpq Transfer*";
    "rpq Transfer.Transfer*";
    "rpq-from a1 Transfer*";
    "shortest a1 a3 Transfer*";
    "query MATCH (x:Account)-[:Transfer]->(y) RETURN x.owner, y.owner";
    "set max-steps 40";
    "set max-steps none";
    "set max-results 2";
    "rpq Transfer)(";
    "rpq-from nosuch Transfer*";
    "definitely-not-a-command";
  |]

let gen_commands =
  QCheck.make
    ~print:(fun l -> String.concat " ; " l)
    QCheck.Gen.(
      map
        (fun idxs ->
          List.map (fun i -> command_pool.(i mod Array.length command_pool)) idxs)
        (list_size (int_range 1 8) (int_bound 1000)))

(* Reference semantics: a fresh single session handling the same lines
   with the same ids. *)
let reference_replies commands =
  let sess = Session.create (Session.make_shared Session.default_config) in
  List.mapi
    (fun i line ->
      match Session.handle_safe sess ~id:(i + 1) line with
      | Session.Reply s, _ | Session.Quit s, _ -> s
      | Session.Silent, _ -> "")
    commands

let prop_server_equals_session =
  QCheck.Test.make ~count:12 ~name:"server session = stdio session"
    gen_commands (fun cmds ->
      let cmds = (Printf.sprintf "load %s" (Lazy.force bank_file)) :: cmds in
      let expected = reference_replies cmds in
      let actual =
        let@ t = with_server (base_config ~workers:2 ()) in
        let c = connect t in
        let replies =
          List.map
            (fun line ->
              send c line;
              recv c)
            cmds
        in
        close_client c;
        replies
      in
      expected = actual)

(* --- suite ---------------------------------------------------------------- *)

let () =
  (* The ambient fault schedule of `make check-faults` arms serve.eval
     with a delay; these tests arm and disarm their own failpoints, so
     start from a clean registry. *)
  Failpoint.clear ();
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "newline frames" `Quick test_framer_lines;
          Alcotest.test_case "split feeds" `Quick test_framer_split_feed;
          Alcotest.test_case "line bound" `Quick test_framer_too_long;
          Alcotest.test_case "eof tail" `Quick test_framer_eof_tail;
          Alcotest.test_case "utf8 validation" `Quick test_utf8;
          QCheck_alcotest.to_alcotest prop_escaping_matches_oracle;
        ] );
      ( "admission",
        [
          Alcotest.test_case "bounds + close" `Quick test_admission_bounds;
          Alcotest.test_case "concurrent prod/cons" `Quick test_admission_concurrent;
        ] );
      ("watchdog", [ Alcotest.test_case "sweep cancels" `Quick test_watchdog ]);
      ( "server",
        [
          Alcotest.test_case "quota shed" `Quick test_quota_shed;
          Alcotest.test_case "queue-full shed" `Quick test_queue_full_shed;
          Alcotest.test_case "budget shed" `Quick test_budget_shed;
          Alcotest.test_case "connect shed" `Quick test_connect_shed;
          Alcotest.test_case "hostile input" `Quick test_hostile_input;
          Alcotest.test_case "hostile + well-behaved" `Quick
            test_hostile_plus_wellbehaved;
          Alcotest.test_case "drain keeps in-flight" `Quick
            test_drain_keeps_inflight;
          Alcotest.test_case "watchdog cancels runaway" `Quick
            test_watchdog_cancels_runaway;
          Alcotest.test_case "stats server block" `Quick test_stats_server_block;
          Alcotest.test_case "batched replies attributed" `Quick
            test_session_batching;
          Alcotest.test_case "pipelined bulk replies" `Quick
            test_pipelined_bulk_replies;
          Alcotest.test_case "serve-mode kernel width" `Quick test_serve_width;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_server_equals_session ] );
    ]
