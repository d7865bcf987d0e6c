type reason = Steps | Results | Deadline | Cancelled

let reason_to_string = function
  | Steps -> "step budget"
  | Results -> "result cap"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"

type 'a outcome = Complete of 'a | Partial of 'a * reason | Aborted of reason

(* Counters are atomics so one governor can be shared by every domain of
   a parallel evaluation (Pool): workers race on [tick]/[emit], the first
   trip wins via compare-and-set, and stickiness is a plain atomic read,
   so all workers observe exhaustion promptly.  Step counting tolerates a
   small overshoot under contention (fetch-and-add, then compare); the
   result budget is exact (CAS loop), because [emit] decides whether a
   specific answer is kept. *)
type t = {
  max_steps : int;
  max_results : int;
  deadline : float option; (* absolute, in Sys.time seconds *)
  cancel_flag : bool ref;
  steps : int Atomic.t;
  results : int Atomic.t;
  tripped : reason option Atomic.t;
  (* No budget, no deadline, no external cancel ref: [tick]/[emit] skip
     the counter updates entirely, so an unlimited governor shared by
     many domains costs one atomic read per call and never contends. *)
  limitless : bool;
  obs : Obs.t;
}

(* Deadline checks call [Sys.time]; amortize them over this many ticks. *)
let deadline_mask = 255

let reason_slug = function
  | Steps -> "steps"
  | Results -> "results"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"

let make ?(obs = Obs.none) ?(max_steps = max_int) ?(max_results = max_int)
    ?timeout ?cancel () =
  {
    max_steps;
    max_results;
    deadline = Option.map (fun dt -> Sys.time () +. dt) timeout;
    cancel_flag = (match cancel with Some f -> f | None -> ref false);
    steps = Atomic.make 0;
    results = Atomic.make 0;
    tripped = Atomic.make None;
    limitless =
      max_steps = max_int && max_results = max_int && timeout = None
      && cancel = None;
    obs;
  }

let unlimited () = make ()

let trip t r =
  if Atomic.compare_and_set t.tripped None (Some r) then
    Obs.incr t.obs ("governor.trip." ^ reason_slug r);
  false

let deadline_passed t =
  match t.deadline with Some d -> Sys.time () > d | None -> false

(* Charge [k] units of work at once (a full adjacency span, say): the
   same budget as [k] ticks with one atomic update.  Trips at the first
   boundary crossed; the steps counter may overshoot the cap by the
   batch size, which only affects reporting. *)
let tick_many t k =
  match Atomic.get t.tripped with
  | Some _ -> false
  | None ->
      if t.limitless then true
      else if k <= 0 then true
      else begin
        let s = Atomic.fetch_and_add t.steps k + k in
        if !(t.cancel_flag) then trip t Cancelled
        else if s > t.max_steps then trip t Steps
        else if
          (* Crossed a multiple of [deadline_mask + 1] within the batch? *)
          s land lnot deadline_mask <> (s - k) land lnot deadline_mask
          && deadline_passed t
        then trip t Deadline
        else true
      end

let tick t = tick_many t 1

let rec emit t =
  match Atomic.get t.tripped with
  | Some _ -> false
  | None ->
      if t.limitless then true
      else begin
        let r = Atomic.get t.results in
        if r >= t.max_results then trip t Results
        else if Atomic.compare_and_set t.results r (r + 1) then true
        else emit t
      end

(* Bulk admission for the bitset kernel, which discovers a whole block's
   answers before it gets a chance to emit them.  Admits up to [k]
   results against the result cap in one CAS and returns the number
   admitted.  Unlike [emit], a prior *non-result* trip (steps, deadline)
   does not zero the batch: those answers were computed before the trip,
   exactly like answers [emit] admitted before the trip, and
   dropping them would make Partial payloads gratuitously empty.  The
   result cap itself stays exact, and a [Results]/[Cancelled] trip still
   admits nothing. *)
let rec emit_many t k =
  if k <= 0 then 0
  else if t.limitless then k
  else
    match Atomic.get t.tripped with
    | Some (Results | Cancelled) -> 0
    | Some (Steps | Deadline) | None ->
        let r = Atomic.get t.results in
        if r >= t.max_results then begin
          ignore (trip t Results);
          0
        end
        else
          let adm = min k (t.max_results - r) in
          if Atomic.compare_and_set t.results r (r + adm) then begin
            if adm < k then ignore (trip t Results);
            adm
          end
          else emit_many t k

let ok t = Atomic.get t.tripped = None

let cancel t =
  t.cancel_flag := true;
  ignore (Atomic.compare_and_set t.tripped None (Some Cancelled))

let steps t = Atomic.get t.steps
let results t = Atomic.get t.results
let tripped t = Atomic.get t.tripped

(* Ticks are counted on the governor's own atomics (shared with the
   budget logic), not duplicated into the sink per call; a snapshot at
   the end of an evaluation transfers them.  Call once per governed
   run — the counters are cumulative adds.  The trip reason was already
   recorded at trip time when the sink is the governor's own, so it is
   only re-recorded into a different sink. *)
let observe ?obs t =
  let sink = match obs with Some o -> o | None -> t.obs in
  Obs.add sink "governor.steps" (Atomic.get t.steps);
  Obs.add sink "governor.results" (Atomic.get t.results);
  match Atomic.get t.tripped with
  | Some r when not (sink == t.obs) ->
      Obs.incr sink ("governor.trip." ^ reason_slug r)
  | Some _ | None -> ()

let seal t v =
  match Atomic.get t.tripped with
  | None -> Complete v
  | Some Cancelled -> Aborted Cancelled
  | Some r -> Partial (v, r)

let take_results t xs =
  let rec go acc = function
    | [] -> List.rev acc
    | x :: rest -> if emit t then go (x :: acc) rest else List.rev acc
  in
  go [] xs

let map f = function
  | Complete v -> Complete (f v)
  | Partial (v, r) -> Partial (f v, r)
  | Aborted r -> Aborted r

let payload ~default = function
  | Complete v | Partial (v, _) -> v
  | Aborted _ -> default

let value = function
  | Complete v -> v
  | Partial (_, r) | Aborted r ->
      invalid_arg
        ("Governor.value: evaluation was cut short by " ^ reason_to_string r)

let is_complete = function Complete _ -> true | Partial _ | Aborted _ -> false

let outcome_status = function
  | Complete _ -> "complete"
  | Partial (_, r) ->
      Printf.sprintf "partial (budget exhausted: %s)" (reason_to_string r)
  | Aborted r -> Printf.sprintf "aborted (%s)" (reason_to_string r)
