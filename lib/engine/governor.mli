(** Resource governor: budgets, deadlines, cooperative cancellation.

    Every evaluation engine in this repository explores a combinatorial
    space — product graphs, path enumerations, join assignments — that the
    paper's adversarial families (Figure 5, Sections 5-6) blow up
    exponentially.  A governor is a mutable budget shared across one
    query evaluation: engines call {!tick} on each unit of work and
    {!emit} on each produced result, and stop descending as soon as
    either returns [false].  Exhaustion is {e sticky}: once a resource
    trips, every subsequent {!tick}/{!emit} returns [false], so deep
    recursions unwind promptly and nested engine calls sharing the
    governor stop too.

    A bounded entry point returns the results computed so far wrapped by
    {!seal}: [Complete] when no resource tripped, [Partial] tagged with
    the exhausted resource otherwise, and [Aborted] on cooperative
    cancellation.

    Governors are domain-safe: counters are atomics, so one governor may
    be shared by every worker of a {!Pool}-parallel evaluation.  The
    result budget is exact under contention ({!emit} admits exactly
    [max_results] answers across all domains); the step counter may
    overshoot its cap by at most one batch per worker, which only
    affects reporting.  The Complete/Partial contract survives
    parallelism: workers observe a trip on their next {!tick}/{!emit}
    and unwind, so a [Partial] payload is still a subset of the complete
    answer. *)

(** The resource that ran out. *)
type reason = Steps | Results | Deadline | Cancelled

val reason_to_string : reason -> string

(** Outcome of a governed evaluation. *)
type 'a outcome = Complete of 'a | Partial of 'a * reason | Aborted of reason

type t

(** [make ()] builds a governor; omitted limits are infinite.

    - [obs]: telemetry sink; the moment a budget trips, the counter
      [governor.trip.<steps|results|deadline|cancelled>] is bumped
      (exactly once, CAS-guarded), so aborted runs are attributable.
    - [max_steps]: cap on {!tick} calls (fuel).
    - [max_results]: cap on results kept ({!emit} returns [false] for the
      result that would exceed it, so at most [max_results] are kept).
    - [timeout]: relative deadline in seconds, measured with [Sys.time]
      from the moment of creation and checked every few hundred ticks.
    - [cancel]: a flag that any cooperating party (signal handler,
      another thread of control) may set to [true] to abort. *)
val make :
  ?obs:Obs.t ->
  ?max_steps:int ->
  ?max_results:int ->
  ?timeout:float ->
  ?cancel:bool ref ->
  unit ->
  t

(** A governor that never trips: bounded code run under it behaves
    exactly like the unbounded original. *)
val unlimited : unit -> t

(** Count one unit of work; [false] means stop (budget exhausted,
    deadline passed, or cancelled). *)
val tick : t -> bool

(** [tick_many t k] charges [k] units at once — the same budget as [k]
    ticks with a single counter update, for hot loops that expand a
    whole adjacency span per iteration.  [false] means stop. *)
val tick_many : t -> int -> bool

(** Count one produced result; [false] means the result must be dropped
    and the search stopped. *)
val emit : t -> bool

(** [emit_many t k] admits up to [k] results in one CAS and returns the
    number admitted (0..k); the result cap stays exact and trips
    [Results] when it truncates the batch.  Unlike {!emit}, a prior
    steps/deadline trip does not zero the batch: block kernels discover
    answers before the trip stops them, and those already-computed facts
    belong in the Partial payload just like answers {!emit} admitted
    before the trip.  A [Results] or [Cancelled] trip admits
    nothing. *)
val emit_many : t -> int -> int

(** [true] while no resource has tripped. *)
val ok : t -> bool

(** Request cooperative cancellation (sets the cancel flag). *)
val cancel : t -> unit

val steps : t -> int
val results : t -> int

(** The first resource that tripped, if any. *)
val tripped : t -> reason option

(** Short machine-friendly name of a reason: ["steps"], ["results"],
    ["deadline"], ["cancelled"] — used in counter names and JSONL rows. *)
val reason_slug : reason -> string

(** [observe t] snapshots the governor into a sink (default: the sink
    given to {!make}): adds [governor.steps] / [governor.results] and,
    when recording into a sink other than the governor's own, the
    [governor.trip.*] reason.  Call once per governed run. *)
val observe : ?obs:Obs.t -> t -> unit

(** Wrap a finished computation: [Complete v] if nothing tripped,
    [Aborted Cancelled] on cancellation, [Partial (v, r)] otherwise. *)
val seal : t -> 'a -> 'a outcome

(** Keep a prefix of [xs] allowed by the result budget (one {!emit} per
    kept element). *)
val take_results : t -> 'a list -> 'a list

val map : ('a -> 'b) -> 'a outcome -> 'b outcome

(** The computed value; [default] for [Aborted] (which carries none). *)
val payload : default:'a -> 'a outcome -> 'a

(** The value of a [Complete] outcome.
    @raise Invalid_argument on [Partial] or [Aborted]; use only where
    completeness is guaranteed, e.g. under {!unlimited}. *)
val value : 'a outcome -> 'a

val is_complete : 'a outcome -> bool

(** ["complete"], ["partial (budget exhausted: ...)"], or
    ["aborted (...)"] — the CLI and bench report format. *)
val outcome_status : 'a outcome -> string
