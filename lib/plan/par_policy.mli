(** Adaptive parallelism policy.

    Forking domains pays a fixed cost (spawn, stop-the-world GC
    synchronization) that only amortizes when there is real work and
    real hardware.  The policy estimates work as [units x product edges]
    — where a unit is one parallel grain: a source for a per-source
    engine ({!Scalar}, used by path counting), a 63-source block for the
    bitset kernel — and decides a fork width: serial below the
    {!threshold} (500,000 relaxations, calibrated against the
    bit-parallel kernel), and never more domains than the machine has
    hardware threads.

    Every decision carries a {!reason}, is counted under
    [rpq.par_decision.<reason>] when a sink is supplied, and is recorded
    as the process-wide {!last} decision so serve-mode [stats] replies
    can explain the width in force.

    An explicit [?pool] argument at an engine entry point bypasses the
    policy: callers who pin a width (tests pinning determinism across
    widths, the CLI's [--domains]) keep exactly that width — engines
    record it with {!pinned} so telemetry still explains the choice. *)

type kernel = Scalar | Bitset

(** Why the width came out the way it did. *)
type reason =
  | Below_threshold  (** estimated work under {!threshold} *)
  | Hardware_serial  (** enough work, but 1 hardware thread / pool slot *)
  | Few_units
      (** enough work and hardware, but too few parallel grains to give
          each worker {!min_units_per_worker} of them *)
  | Calibrated_serial
      (** measured runs ({!record}) show this width losing to serial *)
  | Parallel  (** width > 1 *)
  | Pinned  (** explicit pool: the caller chose the width *)

val reason_slug : reason -> string

type decision = {
  width : int;  (** domains to use; 1 = serial *)
  units : int;  (** parallel grains: sources (scalar) or blocks (bitset) *)
  work : int;  (** estimated work (units x product edges) *)
  threshold : int;  (** work threshold in force *)
  hardware : int;  (** hardware threads available *)
  reason : reason;
}

(** Estimated work below which evaluation stays serial: 500,000. *)
val threshold : int

(** Cached [Domain.recommended_domain_count ()]. *)
val hardware : unit -> int

(** [decide ~max_width ~sources ~product_edges ()] — width 1 when the
    estimated work is under the threshold, when only one hardware thread
    or pool slot is available, when there are fewer than
    {!min_units_per_worker} parallel grains per prospective worker, or when
    calibration ({!record}) measured the candidate width losing to
    serial; otherwise [min max_width hardware (units / min_units)].
    Bumps [rpq.par_decision.<reason>] on [obs] and records the decision
    as {!last}.  [?hardware] overrides the detected thread count
    (tests / bench demos on fixed hardware). *)
val decide :
  ?obs:Obs.t ->
  ?kernel:kernel ->
  ?hardware:int ->
  max_width:int ->
  sources:int ->
  product_edges:int ->
  unit ->
  decision

(** Record an explicitly pinned width (an engine called with [?pool]) as
    the {!last} decision. *)
val pinned : width:int -> decision

(** The most recent decision taken in this process, if any. *)
val last : unit -> decision option

(** Record [d] as the {!last} decision. *)
val note : decision -> unit

(** {1 Measured calibration} *)

(** Wall clock for timing engine runs (engines have no other monotonic
    source below the CLI layer). *)
val now : unit -> float

(** Parallel grains each worker must receive before forking is worth
    it: 4. *)
val min_units_per_worker : int

(** [record ~width ~sources ~product_edges ~elapsed] — report a
    completed run; feeds the per-(kernel, width) seconds-per-work-unit
    EMA that {!decide} consults before keeping a parallel width.  Runs
    under the work/time floor are ignored. *)
val record :
  ?kernel:kernel ->
  width:int ->
  sources:int ->
  product_edges:int ->
  elapsed:float ->
  unit ->
  unit

(** Measured EMA rate for (kernel, width), if any run was recorded. *)
val calibrated_rate : kernel:kernel -> width:int -> float option

(** Forget all recorded rates (bench phase isolation, tests). *)
val reset_calibration : unit -> unit
