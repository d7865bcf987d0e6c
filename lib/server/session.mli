(** One serve-protocol session: command dispatch behind both
    [gqd --serve] (single stdio session) and [gqd --listen] (one
    session per client over shared state).

    A session owns everything one client may mutate — retry policy,
    budgets, per-query-class breakers — while the graph snapshot and
    the compilation cache live in the {!shared} record, safe to use
    from every worker domain: the snapshot is an {!Epoch}-published
    immutable value ([load] replaces it wholesale; [add-edge] /
    [del-edge] / [delta-load] publish an incrementally-built successor,
    each paired with its cache invalidation under one writer lock), and
    the cache synchronises internally.  Readers never block on writers:
    an in-flight query keeps evaluating against the epoch it grabbed.

    Reply shape and field order are fixed (see README "Serving"): the
    stdio transcripts are byte-stable golden files. *)

(** {1 Configuration and shared state} *)

type config = {
  retries : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  degraded_max_steps : int;
  initial_max_steps : int option;
  initial_max_results : int option;
  initial_timeout : float option;
  ceiling_max_steps : int option;
      (** server-wide clamp: a client's [set max-steps] cannot exceed it *)
  ceiling_max_results : int option;
  ceiling_timeout : float option;
  obs : Obs.t;
}

val default_config : config

(** State shared by every session of one server process: config, the
    compilation cache, and the published graph snapshot. *)
type shared

(** [wal] makes every update durable: [add-edge] / [del-edge] /
    [del-node] / [delta-load] append to the log (under the writer lock,
    before publishing) and reply with [durable] / [wal_lsn]; [load]
    checkpoints; [stats] gains a ["wal"] object. *)
val make_shared : ?wal:Wal.t -> config -> shared

val shared_config : shared -> config
val shared_cache : shared -> Rpq_compile.t
val graph_loaded : shared -> bool

(** Current snapshot epoch (0 before the first [load]). *)
val shared_epoch : shared -> int

(** Publish a recovered snapshot before serving starts (what [load]
    does, minus the file read and the checkpoint). *)
val publish_initial : shared -> Pg.t -> unit

(** Periodic WAL housekeeping (interval-policy fsync), from the server's
    I/O loop; takes the writer lock.  No-op without a WAL. *)
val wal_tick : shared -> unit

(** Flush and close the WAL at shutdown.  No-op without a WAL. *)
val wal_close : shared -> unit

(** {1 Sessions} *)

type t

(** [register_gov] is the watchdog hook: called with each governor as
    its evaluation starts (including the degraded rescue governor),
    returning the matching unregister thunk.  [extra_stats] fields are
    appended to every [stats] reply (the server adds a ["server"]
    object). *)
val create :
  ?register_gov:(Governor.t -> unit -> unit) ->
  ?extra_stats:(unit -> Wire.jfield list) ->
  shared ->
  t

type action =
  | Reply of string
  | Silent
  | Quit of string  (** final reply; the session is over *)

(** Dispatch one command line.  Never raises: even a bug in handling
    answers a structured ["internal"] error.  Also returns the governed
    work (steps) the request spent, for per-client budget accounting. *)
val handle_safe : t -> id:int -> string -> action * int

(** [handle_line sess buf ~id line] is {!handle_safe} rendering into
    [buf], a buffer the caller reuses across requests (one per server
    worker): answers are written straight into it, and the reply comes
    back as one string that already ends in ['\n'] — the only copy the
    caller needs to hand to the socket.  [buf] is cleared first and
    left empty (shrunk back if one huge reply grew it past 4 MiB). *)
val handle_line : t -> Buffer.t -> id:int -> string -> action * int

(** First space-separated token and trimmed remainder. *)
val split_first : string -> string * string

(** [changes_state verb] — [load], [add-edge], [del-edge], [del-node],
    [delta-load] and [set]: the verbs that change the graph or the
    session's settings.  A concurrent server runs such a request as a
    per-client barrier (see {!Server}), so a client's pipelined
    [load g; rpq ...] always evaluates against [g]. *)
val changes_state : string -> bool

(** {1 Request batching}

    Queued requests that would run the same compiled automaton under the
    same budgets coalesce into one evaluation, fanned back out per
    client (the serve-mode face of the multi-source bitset kernel). *)

(** [batch_key sess line] — [Some key] when [line] is batchable for this
    session: rpq / rpq-from with the key covering verb, regex, effective
    budgets, retry policy and breaker state (rpq-from keys ignore the
    source node — sources pack into one multi-source run).  [None] for
    everything else, including when no graph is loaded. *)
val batch_key : t -> string -> string option

(** [handle_batch buf members] — evaluate a batch of key-equal requests
    [(session, id, line)] once and render one reply per member, in
    order, each under its own id and ending in ['\n'] (rendered through
    [buf] as {!handle_line} does); the second list is each member's
    share of the governed work (for token-bucket charging).  The first
    member is the leader: its session's budgets/retry/breaker drive the
    run (equal across members by construction of the key). *)
val handle_batch :
  Buffer.t -> (t * int * string) list -> string list * int list

(** {1 Reply rendering} *)

val reply :
  int -> string -> status:string -> code:int -> Wire.jfield list -> string

val error_reply : int -> string -> ?attempts:int -> Gq_error.t -> string

(** Structured load-shedding reply ([status:"shed"], [code:4]): the
    admission controller answers instead of evaluating; clients should
    back off [retry_after_ms] before resending. *)
val shed_reply :
  id:int -> cmd:string -> reason:string -> retry_after_ms:int -> string

(** Structured reply for a frame the wire layer rejected (over-long or
    non-UTF-8 input).  @raise Invalid_argument on [Wire.Line]. *)
val frame_error_reply : id:int -> Wire.frame -> string

(** {1 EXPLAIN} *)

(** The EXPLAIN payload fields, shared by the serve [plan] command and
    the one-shot [gqd plan] subcommand. *)
val plan_fields :
  ?obs:Obs.t ->
  Rpq_compile.t ->
  Elg.t ->
  string ->
  (Wire.jfield list, Gq_error.t) result
