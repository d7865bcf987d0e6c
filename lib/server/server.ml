(* The concurrent multi-client server behind `gqd --listen`, and the
   hardened single-session stdio loop behind `gqd --serve`.

   Architecture: one I/O domain multiplexes the listening socket and
   every connected client with [Unix.select]; complete frames are
   admitted into a bounded [Admission] queue; a fixed pool of worker
   domains pops requests, runs them through [Session.handle_line]
   (shared graph snapshot, shared compilation cache, per-client
   breakers and budgets) and writes the reply back under the client's
   write lock.  Everything that crosses domains is an atomic, a mutex,
   or the queue.

   Admission control, in the order a frame meets it:
     - connect: beyond [max_clients], the connection is answered with a
       structured "shed" reply and closed;
     - per-client in-flight quota: more than [client_inflight]
       unanswered requests from one client are shed, not queued — one
       client cannot occupy the whole queue;
     - per-client budget: a token bucket refilled at
       [client_steps_per_sec] governor-steps per second; a client in
       debt is shed with a computed retry_after_ms until the bucket
       refills.  This is what isolates well-behaved clients from a
       pathological one on any machine, including a single core: the
       expensive client burns its bucket and is then shed (costing ~no
       CPU) while others keep their latency;
     - queue depth: a full queue sheds instead of growing — bounded
       queue + shedding keeps tail latency flat under overload.

   A wall-clock watchdog ([Watchdog], swept by the I/O loop) cancels
   any evaluation running past [hard_deadline], so a runaway query
   returns a structured partial reply instead of occupying a worker
   forever.

   Graceful drain (SIGTERM/SIGINT or [drain]): stop accepting and
   reading, close the admission queue, let workers finish the backlog
   (watchdog still sweeping), join them, close every client — no
   admitted request is ever dropped without a reply. *)

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* "unix:PATH" | "tcp:HOST:PORT" | "tcp:PORT" | bare path. *)
let parse_listen s =
  let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefixed "unix:" then Ok (Unix_path (after "unix:"))
  else if prefixed "tcp:" then
    let rest = after "tcp:" in
    match String.rindex_opt rest ':' with
    | Some i -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "invalid tcp address %S" rest))
    | None -> (
        match int_of_string_opt rest with
        | Some p when p >= 0 -> Ok (Tcp ("127.0.0.1", p))
        | _ -> Error (Printf.sprintf "invalid tcp address %S" rest))
  else if s = "" then Error "empty listen address"
  else Ok (Unix_path s)

type config = {
  listen : addr;
  max_clients : int;
  queue_depth : int;
  client_inflight : int;
  client_steps_per_sec : int;  (* 0 = no per-client budget *)
  workers : int option;  (* None: GQ_DOMAINS / recommended (Pool) *)
  hard_deadline : float option;  (* wall-clock seconds per evaluation *)
  retry_after_ms : int;  (* baseline back-off hint in shed replies *)
  max_line : int;
  session : Session.config;
}

let default_config ~listen session =
  {
    listen;
    max_clients = 64;
    queue_depth = 128;
    client_inflight = 4;
    client_steps_per_sec = 0;
    workers = None;
    hard_deadline = None;
    retry_after_ms = 50;
    max_line = 65536;
    session;
  }

(* --- per-client token bucket --------------------------------------------- *)

(* Refilled at [rate] governor-steps/second, capacity one second's
   worth; charged post-evaluation with the steps the request actually
   spent.  Debt is capped at two seconds' worth so one accidental
   monster query locks a client out for a bounded time, while a
   sustained flood keeps the client pinned at max debt (shed at ~zero
   CPU cost until it relents). *)
type bucket = {
  block : Mutex.t;
  mutable level : float;
  mutable last : float;
  rate : float;
}

let bucket_make ~now rate = { block = Mutex.create (); level = rate; last = now; rate }

let bucket_refill b ~now =
  b.level <- Float.min b.rate (b.level +. ((now -. b.last) *. b.rate));
  b.last <- now

(* (admitted, retry_after_ms when not). *)
let bucket_admit b ~now =
  Mutex.lock b.block;
  bucket_refill b ~now;
  let ok = b.level > 0.0 in
  let wait_ms =
    if ok then 0
    else int_of_float (Float.ceil ((1.0 -. b.level) /. b.rate *. 1000.0))
  in
  Mutex.unlock b.block;
  (ok, wait_ms)

let bucket_charge b spent =
  Mutex.lock b.block;
  b.level <- Float.max (b.level -. float_of_int spent) (-2.0 *. b.rate);
  Mutex.unlock b.block

(* --- server state --------------------------------------------------------- *)

type client = {
  cid : int;
  fd : Unix.file_descr;  (* non-blocking *)
  framer : Wire.Framer.t;
  session : Session.t;
  inflight : int Atomic.t;
  wlock : Mutex.t;  (* guards the pending fields and ordering of writes to [fd] *)
  pending : string Queue.t;  (* whole reply lines the socket couldn't take yet *)
  mutable pending_off : int;  (* bytes of the head line already written *)
  mutable pending_bytes : int;  (* unwritten bytes across [pending] *)
  alive : bool Atomic.t;  (* write side usable; cleared on write error *)
  closing : bool Atomic.t;  (* quit seen: close once in-flight drains *)
  bucket : bucket option;
  mutable input_done : bool;  (* I/O domain only: EOF / read error *)
  mutable next_id : int;  (* I/O domain only *)
  olock : Mutex.t;  (* guards [running], [barrier_out] and [held] *)
  mutable running : int;  (* requests queued or executing *)
  mutable barrier_out : bool;  (* one of them changes state *)
  held : request Queue.t;  (* waiting behind a barrier, arrival order *)
}

and request = {
  rc : client;
  rid : int;
  rline : string;
  rbarrier : bool;  (* [Session.changes_state] *)
}

type state = {
  cfg : config;
  obs : Obs.t;
  shared : Session.shared;
  queue : request Admission.t;
  listen_fd : Unix.file_descr;
  actual : addr;
  draining : bool Atomic.t;
  stopped : bool Atomic.t;
  nclients : int Atomic.t;
  batched : int Atomic.t;  (* requests answered from a coalesced run *)
  workers_done : int Atomic.t;
  nworkers : int;
  rbuf : Bytes.t;  (* I/O domain read scratch *)
  wake_r : Unix.file_descr;  (* self-pipe: a worker left output pending *)
  wake_w : Unix.file_descr;
  mutable next_cid : int;  (* I/O domain only *)
  mutable listener_open : bool;  (* I/O domain only *)
}

type t = { st : state; io : unit Domain.t }

(* --- replies over the wire ------------------------------------------------ *)

(* Client sockets are non-blocking and every reply goes through a
   bounded per-client output queue: a reader that stalls (or floods
   without reading, like a hostile pipeline) can never block the I/O
   domain or a worker mid-[send] — that would wedge every other client
   behind one slow socket.  A reply line the socket can't take at once
   is queued whole, with the offset already written, and flushed by the
   I/O loop when [select] reports the fd writable.  A client with
   [max_pending] bytes queued behind the line being written is not
   reading and is dropped; the line in progress does not count, so a
   reader that pipelines replies larger than the bound still gets them.
   Each line is written in order under [wlock], so two in-flight
   replies to one client never interleave. *)
let max_pending = 1 lsl 20

(* Write as much of [s] from [off0] as the socket accepts without
   blocking. *)
let write_nb fd s off0 =
  let len = String.length s in
  let rec go off =
    if off >= len then `All
    else
      match Unix.write_substring fd s off (len - off) with
      | 0 -> `Partial off
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Partial off
      | exception Unix.Unix_error (_, _, _) -> `Failed
  in
  go off0

(* Wake the I/O domain out of [select] so it starts flushing a queue a
   worker just filled, instead of at its next timeout.  A full pipe
   already holds a pending wake-up. *)
let wake st =
  try ignore (Unix.write_substring st.wake_w "w" 0 1)
  with Unix.Unix_error _ -> ()

let drain_wakes st =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read st.wake_r b 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

(* [line] is one whole reply, newline included. *)
let send st c line =
  Mutex.lock c.wlock;
  let r =
    if not (Atomic.get c.alive) then `Dead
    else if c.pending_bytes > 0 then
      let head = String.length (Queue.peek c.pending) - c.pending_off in
      if c.pending_bytes - head >= max_pending then `Slow
      else begin
        Queue.add line c.pending;
        c.pending_bytes <- c.pending_bytes + String.length line;
        `Sent
      end
    else
      match write_nb c.fd line 0 with
      | `All -> `Sent
      | `Failed -> `Err
      | `Partial off ->
          Queue.add line c.pending;
          c.pending_off <- off;
          c.pending_bytes <- String.length line - off;
          `Queued
  in
  Mutex.unlock c.wlock;
  match r with
  | `Sent -> Obs.incr st.obs "server.replies"
  | `Queued ->
      Obs.incr st.obs "server.replies";
      wake st
  | `Dead -> ()
  | `Err ->
      (* EPIPE or peer reset: drop only this client; its in-flight work
         still completes (and discards its replies here). *)
      if Atomic.exchange c.alive false then
        Obs.incr st.obs "server.write_drops"
  | `Slow ->
      if Atomic.exchange c.alive false then
        Obs.incr st.obs "server.slow_drops"

let has_pending c =
  Mutex.lock c.wlock;
  let p = c.pending_bytes > 0 in
  Mutex.unlock c.wlock;
  p

(* I/O domain, when [select] reports [c.fd] writable: write queued lines
   in order, resuming the head line at its offset. *)
let flush_pending st c =
  Mutex.lock c.wlock;
  let rec go () =
    match Queue.peek_opt c.pending with
    | None -> ()
    | Some line -> (
        match write_nb c.fd line c.pending_off with
        | `All ->
            c.pending_bytes <- c.pending_bytes - (String.length line - c.pending_off);
            c.pending_off <- 0;
            ignore (Queue.pop c.pending);
            go ()
        | `Partial off ->
            c.pending_bytes <- c.pending_bytes - (off - c.pending_off);
            c.pending_off <- off
        | `Failed ->
            Queue.clear c.pending;
            c.pending_off <- 0;
            c.pending_bytes <- 0;
            if Atomic.exchange c.alive false then
              Obs.incr st.obs "server.write_drops")
  in
  if Atomic.get c.alive then go ();
  Mutex.unlock c.wlock

let shed st c ~id ~cmd ~reason ~retry_after_ms =
  Obs.incr st.obs ("server.shed." ^ reason);
  send st c (Session.shed_reply ~id ~cmd ~reason ~retry_after_ms ^ "\n")

(* --- per-client ordering ---------------------------------------------------- *)

(* A request that changes state is a per-client barrier: it starts only
   once every earlier request of its client has replied, and the
   client's later requests start only once it has replied.  Reads
   between barriers run concurrently.  A request that may not start yet
   is held on its client, never queued, so [Admission.take_matching]
   cannot batch it ahead of the barrier; the worker that finishes the
   request blocking it runs it next. *)
let can_start c r = (not c.barrier_out) && ((not r.rbarrier) || c.running = 0)

let mark_running c r =
  c.running <- c.running + 1;
  if r.rbarrier then c.barrier_out <- true

(* I/O domain: [true] when [r] starts now (counted as running), [false]
   when it is held. *)
let start_or_hold c r =
  Mutex.lock c.olock;
  let start = Queue.is_empty c.held && can_start c r in
  if start then mark_running c r else Queue.add r c.held;
  Mutex.unlock c.olock;
  start

(* [r] has replied (or was never queued): the client's next held
   request if it may start now, already counted as running. *)
let release c r =
  Mutex.lock c.olock;
  c.running <- c.running - 1;
  if r.rbarrier then c.barrier_out <- false;
  let next =
    match Queue.peek_opt c.held with
    | Some h when can_start c h ->
        ignore (Queue.pop c.held);
        mark_running c h;
        Some h
    | _ -> None
  in
  Mutex.unlock c.olock;
  next

(* --- worker domains ------------------------------------------------------- *)

(* One batch fills at most one bitset word: a leader plus 62 stolen
   requests pack 63 sources into a single multi-source sweep. *)
let max_batch = 63

let worker st () =
  let gauge_inflight = Obs.gauge_fn st.obs "server.inflight" in
  (* This worker's render buffer, reused by every request it serves. *)
  let buf = Buffer.create 4096 in
  let finish c =
    (* Decrement last: while a request is in flight its client's fd
       is never closed, so a worker can never write into a reused
       descriptor. *)
    ignore (Atomic.fetch_and_add c.inflight (-1));
    gauge_inflight (-1)
  in
  let solo { rc = c; rid; rline; _ } =
    let action, spent = Session.handle_line c.session buf ~id:rid rline in
    (match c.bucket with
    | Some b when spent > 0 -> bucket_charge b spent
    | _ -> ());
    match action with
    | Session.Silent -> ()
    | Session.Reply s -> send st c s
    | Session.Quit s ->
        send st c s;
        Atomic.set c.closing true
  in
  let rec serve r =
    (if Atomic.get r.rc.alive then
       match Session.batch_key r.rc.session r.rline with
       | Some key -> batched r key
       | None -> solo r);
    complete r
  and complete r =
    (* The next held request is taken before [r] stops counting as in
       flight, so its client is never reaped in between. *)
    let next = release r.rc r in
    finish r.rc;
    Option.iter serve next
  and batched lead key =
    match
      Admission.take_matching st.queue ~limit:(max_batch - 1) ~f:(fun r ->
          Atomic.get r.rc.alive
          && Session.batch_key r.rc.session r.rline = Some key)
    with
    | [] -> solo lead
    | stolen ->
        let members = lead :: stolen in
        ignore (Atomic.fetch_and_add st.batched (List.length members));
        Obs.add st.obs "server.batched" (List.length members);
        let replies, spents =
          Session.handle_batch buf
            (List.map (fun r -> (r.rc.session, r.rid, r.rline)) members)
        in
        List.iter2
          (fun r (reply, spent) ->
            (match r.rc.bucket with
            | Some b when spent > 0 -> bucket_charge b spent
            | _ -> ());
            send st r.rc reply)
          members
          (List.combine replies spents);
        (* The leader is completed by [serve]; stolen requests are
           completed here (per request, not per client — a pipelining
           client may own several members of one batch). *)
        List.iter complete stolen
  in
  let rec loop () =
    match Admission.pop st.queue with
    | None -> ()
    | Some r ->
        serve r;
        loop ()
  in
  loop ();
  ignore (Atomic.fetch_and_add st.workers_done 1)

(* --- admission ------------------------------------------------------------ *)

let verb_of line = fst (Session.split_first line)

let admit st c frame =
  match frame with
  | Wire.Too_long _ | Wire.Bad_utf8 ->
      c.next_id <- c.next_id + 1;
      Obs.incr st.obs
        (match frame with
        | Wire.Too_long _ -> "server.bad_frame.too_long"
        | _ -> "server.bad_frame.utf8");
      send st c (Session.frame_error_reply ~id:c.next_id frame ^ "\n")
  | Wire.Line raw ->
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else begin
        c.next_id <- c.next_id + 1;
        let id = c.next_id in
        let cmd = verb_of line in
        Obs.incr st.obs "server.requests";
        if Atomic.get st.draining then
          shed st c ~id ~cmd ~reason:"draining"
            ~retry_after_ms:st.cfg.retry_after_ms
        else if Atomic.get c.inflight >= st.cfg.client_inflight then
          shed st c ~id ~cmd ~reason:"client-quota"
            ~retry_after_ms:st.cfg.retry_after_ms
        else begin
          let admitted, wait_ms =
            match c.bucket with
            | None -> (true, 0)
            | Some b -> bucket_admit b ~now:(Unix.gettimeofday ())
          in
          if not admitted then
            shed st c ~id ~cmd ~reason:"client-budget"
              ~retry_after_ms:(max st.cfg.retry_after_ms wait_ms)
          else begin
            ignore (Atomic.fetch_and_add c.inflight 1);
            Obs.gauge_add st.obs "server.inflight" 1;
            let r =
              { rc = c; rid = id; rline = line; rbarrier = Session.changes_state cmd }
            in
            if start_or_hold c r then
              match Admission.push st.queue r with
              | `Ok -> ()
              | `Full | `Closed ->
                  (* Nothing was held behind [r]: it started with an
                     empty hold queue, and only this domain holds. *)
                  ignore (release c r);
                  ignore (Atomic.fetch_and_add c.inflight (-1));
                  Obs.gauge_add st.obs "server.inflight" (-1);
                  shed st c ~id ~cmd ~reason:"queue-full"
                    ~retry_after_ms:st.cfg.retry_after_ms
          end
        end
      end

(* --- I/O domain ----------------------------------------------------------- *)

let register_gov st gov =
  match st.cfg.hard_deadline with
  | None -> fun () -> ()
  | Some hd ->
      let tok = Watchdog.register ~deadline:(Unix.gettimeofday () +. hd) gov in
      fun () -> Watchdog.unregister tok

(* Appended to every `stats` reply in listen mode. *)
let server_stats st () =
  [
    ( "server",
      Wire.jobj
        [
          ("clients", Wire.jint (Atomic.get st.nclients));
          ("queue", Wire.jint (Admission.depth st.queue));
          ("batched", Wire.jint (Atomic.get st.batched));
          ("draining", Wire.jbool (Atomic.get st.draining));
        ] );
  ]

let close_client st c =
  Atomic.set c.alive false;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  ignore (Atomic.fetch_and_add st.nclients (-1));
  Obs.gauge_add st.obs "server.clients" (-1);
  Obs.incr st.obs "server.disconnects"

let close_listener st =
  if st.listener_open then begin
    st.listener_open <- false;
    (try Unix.close st.listen_fd with Unix.Unix_error _ -> ());
    match st.actual with
    | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end

let accept_one st clients =
  match Unix.accept st.listen_fd with
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
    ->
      ()
  | fd, _ ->
      if
        Atomic.get st.draining
        || List.length !clients >= st.cfg.max_clients
      then begin
        (* Over capacity: answer with a structured shed so the client
           can back off, instead of a silent RST or an unbounded
           accept. *)
        Obs.incr st.obs "server.shed.max-clients";
        ignore
          (Wire.write_all fd
             (Session.shed_reply ~id:0 ~cmd:"connect" ~reason:"max-clients"
                ~retry_after_ms:st.cfg.retry_after_ms
             ^ "\n"));
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        (match st.actual with
        | Tcp _ -> (
            try Unix.setsockopt fd Unix.TCP_NODELAY true
            with Unix.Unix_error _ -> ())
        | Unix_path _ -> ());
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        st.next_cid <- st.next_cid + 1;
        let now = Unix.gettimeofday () in
        let c =
          {
            cid = st.next_cid;
            fd;
            framer = Wire.Framer.create ~max_line:st.cfg.max_line ();
            session =
              Session.create ~register_gov:(register_gov st)
                ~extra_stats:(server_stats st) st.shared;
            inflight = Atomic.make 0;
            wlock = Mutex.create ();
            pending = Queue.create ();
            pending_off = 0;
            pending_bytes = 0;
            alive = Atomic.make true;
            closing = Atomic.make false;
            bucket =
              (if st.cfg.client_steps_per_sec > 0 then
                 Some (bucket_make ~now (float_of_int st.cfg.client_steps_per_sec))
               else None);
            input_done = false;
            next_id = 0;
            olock = Mutex.create ();
            running = 0;
            barrier_out = false;
            held = Queue.create ();
          }
        in
        clients := !clients @ [ c ];
        ignore (Atomic.fetch_and_add st.nclients 1);
        Obs.gauge_add st.obs "server.clients" 1;
        Obs.incr st.obs "server.accepted"
      end

let read_client st c =
  match Unix.read c.fd st.rbuf 0 (Bytes.length st.rbuf) with
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
  | exception Unix.Unix_error (_, _, _) ->
      Atomic.set c.alive false;
      c.input_done <- true
  | 0 ->
      c.input_done <- true;
      (* Unterminated trailing line: still a command (EOF flush). *)
      (match Wire.Framer.flush c.framer with
      | Some frame -> admit st c frame
      | None -> ())
  | n -> List.iter (admit st c) (Wire.Framer.feed c.framer st.rbuf n)

(* A client record is reaped only once nothing can still write to it
   (no in-flight requests), its input side is finished (EOF, quit, or a
   dead write side), and every buffered reply has reached the socket —
   closing with output pending would drop tail replies. *)
let reapable c =
  Atomic.get c.inflight = 0
  && (c.input_done || Atomic.get c.closing || not (Atomic.get c.alive))
  && ((not (Atomic.get c.alive)) || not (has_pending c))

(* How long a drain waits for a non-reading client to take its buffered
   replies before forfeiting them: graceful shutdown must not hinge on
   a peer that stopped reading. *)
let drain_flush_deadline = 5.0

let io_main st workers =
  let clients = ref [] in
  let finished = ref false in
  let drain_started = ref None in
  let wfds_of () =
    List.filter_map
      (fun c -> if Atomic.get c.alive && has_pending c then Some c.fd else None)
      !clients
  in
  let flush_ready wready =
    List.iter
      (fun c -> if List.mem c.fd wready then flush_pending st c)
      !clients
  in
  while not !finished do
    let now = Unix.gettimeofday () in
    let cancelled = Watchdog.sweep ~now in
    if cancelled > 0 then Obs.add st.obs "server.watchdog.cancelled" cancelled;
    (* Interval-policy group commit: bound the unsynced window even when
       no new update arrives to trigger the fsync. *)
    Session.wal_tick st.shared;
    let keep, dead = List.partition (fun c -> not (reapable c)) !clients in
    List.iter (close_client st) dead;
    clients := keep;
    if Atomic.get st.draining then begin
      (* Drain: stop accepting and reading; the closed queue feeds
         workers the backlog, the watchdog keeps sweeping so even a
         runaway in-flight query terminates, and buffered replies keep
         flushing so nothing already answered is lost. *)
      close_listener st;
      if not (Admission.closed st.queue) then Admission.close st.queue;
      (match !drain_started with
      | None -> drain_started := Some now
      | Some t0 ->
          if now -. t0 > drain_flush_deadline then
            List.iter
              (fun c ->
                if Atomic.get c.alive && has_pending c then begin
                  if Atomic.exchange c.alive false then
                    Obs.incr st.obs "server.slow_drops"
                end)
              !clients);
      if
        Atomic.get st.workers_done = st.nworkers
        && List.for_all (fun c -> Atomic.get c.inflight = 0) !clients
        && List.for_all
             (fun c -> (not (Atomic.get c.alive)) || not (has_pending c))
             !clients
      then begin
        List.iter (close_client st) !clients;
        clients := [];
        finished := true
      end
      else begin
        match Unix.select [ st.wake_r ] (wfds_of ()) [] 0.01 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, wready, _ ->
            if ready <> [] then drain_wakes st;
            flush_ready wready
      end
    end
    else begin
      let fds =
        st.wake_r :: st.listen_fd
        :: List.filter_map
             (fun c ->
               if
                 Atomic.get c.alive && (not c.input_done)
                 && not (Atomic.get c.closing)
               then Some c.fd
               else None)
             !clients
      in
      match Unix.select fds (wfds_of ()) [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, wready, _ ->
          if List.mem st.wake_r ready then drain_wakes st;
          flush_ready wready;
          if List.mem st.listen_fd ready then accept_one st clients;
          List.iter
            (fun c -> if List.mem c.fd ready then read_client st c)
            !clients
    end
  done;
  Array.iter Domain.join workers;
  (* Workers are gone: nothing can append any more; flush and close. *)
  Session.wal_close st.shared;
  close_listener st;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ st.wake_r; st.wake_w ];
  Atomic.set st.stopped true

(* --- lifecycle ------------------------------------------------------------ *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_loopback)

let make_listener = function
  | Unix_path path ->
      (* A stale socket file from a crashed predecessor would make bind
         fail; serving is the only use of these paths, so remove it. *)
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Unix_path path)
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
      Unix.listen fd 64;
      let actual =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Tcp (host, p)
        | _ -> Tcp (host, port)
      in
      (fd, actual)

(* Client side of [addr]: one connected stream socket. *)
let connect = function
  | Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (resolve_host host, port));
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      fd

let launch ?wal ?initial cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, actual = make_listener cfg.listen in
  let obs = cfg.session.Session.obs in
  let nworkers =
    match cfg.workers with
    | Some n -> max 1 n
    | None -> max 1 (Pool.size (Pool.create ()))
  in
  (* Serve-mode kernel width: the worker domains already fill the cores,
     so a request forks only into the hardware threads left over per
     worker — usually none, and the parallelism policy then reports
     [hardware_serial] instead of spawning and joining a domain on top
     of every large request. *)
  Pool.set_default_size (max 1 (Domain.recommended_domain_count () / nworkers));
  let gauge_depth = Obs.gauge_fn obs "server.queue.depth" in
  let depth_seen = ref 0 in
  let shared = Session.make_shared ?wal cfg.session in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  (* A recovered snapshot (gqd --wal) is live before the first client
     connects. *)
  Option.iter (Session.publish_initial shared) initial;
  let st =
    {
      cfg;
      obs;
      shared;
      queue =
        Admission.create ~capacity:cfg.queue_depth
          ~on_depth:(fun d ->
            gauge_depth (d - !depth_seen);
            depth_seen := d)
          ();
      listen_fd;
      actual;
      draining = Atomic.make false;
      stopped = Atomic.make false;
      nclients = Atomic.make 0;
      batched = Atomic.make 0;
      workers_done = Atomic.make 0;
      nworkers;
      rbuf = Bytes.create 8192;
      wake_r;
      wake_w;
      next_cid = 0;
      listener_open = true;
    }
  in
  let workers = Array.init nworkers (fun _ -> Domain.spawn (worker st)) in
  let io = Domain.spawn (fun () -> io_main st workers) in
  { st; io }

let addr t = t.st.actual
let drain t = Atomic.set t.st.draining true

(* Poll-then-join: polling keeps the main domain responsive to signals
   (a SIGTERM handler calling [drain] fires between sleeps), joining
   guarantees the I/O domain has fully shut down before we return. *)
let await t =
  while not (Atomic.get t.st.stopped) do
    try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Domain.join t.io

let run ?wal ?initial cfg =
  let t = launch ?wal ?initial cfg in
  let stop _ = drain t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  await t

(* --- hardened stdio session (gqd --serve) --------------------------------- *)

(* The single-client loop, on the same wire layer as the server: line
   length is bounded, malformed UTF-8 gets a structured reply, and
   writes survive short writes / a closed stdout (exit instead of
   SIGPIPE death). *)
let run_stdio ?(max_line = 65536) ?wal ?initial scfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let shared = Session.make_shared ?wal scfg in
  Option.iter (Session.publish_initial shared) initial;
  let sess = Session.create shared in
  let framer = Wire.Framer.create ~max_line () in
  let buf = Bytes.create 8192 in
  let out = Buffer.create 4096 in
  let id = ref 0 in
  (* [line] ends in its newline. *)
  let emit line =
    match Wire.write_all Unix.stdout line with
    | Ok () -> true
    | Error `Closed -> false
  in
  (* [true] to keep serving. *)
  let handle_frame frame =
    match frame with
    | Wire.Too_long _ | Wire.Bad_utf8 ->
        incr id;
        emit (Session.frame_error_reply ~id:!id frame ^ "\n")
    | Wire.Line raw ->
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then true
        else begin
          incr id;
          match Session.handle_line sess out ~id:!id line with
          | Session.Silent, _ -> true
          | Session.Reply s, _ -> emit s
          | Session.Quit s, _ ->
              ignore (emit s);
              false
        end
  in
  (* Under fsync=interval the bounded-loss window must hold even when
     the client goes quiet: poll stdin with a timeout and tick the WAL
     while idle, mirroring [io_main]'s periodic sweep.  Other policies
     (and no WAL) keep the plain blocking read. *)
  let interval_wal =
    match wal with
    | Some w -> ( match Wal.policy w with Wal.Interval _ -> true | _ -> false)
    | None -> false
  in
  let rec serve () =
    if interval_wal then begin
      match Unix.select [ Unix.stdin ] [] [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> serve ()
      | [], _, _ ->
          Session.wal_tick shared;
          serve ()
      | _ -> read_once ()
    end
    else read_once ()
  and read_once () =
    match Unix.read Unix.stdin buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> serve ()
    | exception Unix.Unix_error (_, _, _) -> ()
    | 0 -> (
        match Wire.Framer.flush framer with
        | Some frame -> ignore (handle_frame frame)
        | None -> ())
    | n ->
        let rec go = function
          | [] -> serve ()
          | f :: fs -> if handle_frame f then go fs else ()
        in
        go (Wire.Framer.feed framer buf n)
  in
  serve ();
  Session.wal_close shared
