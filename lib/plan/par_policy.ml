type kernel = Scalar | Bitset

type reason =
  | Below_threshold
  | Hardware_serial
  | Few_units
  | Calibrated_serial
  | Parallel
  | Pinned

let reason_slug = function
  | Below_threshold -> "below_threshold"
  | Hardware_serial -> "hardware_serial"
  | Few_units -> "few_units"
  | Calibrated_serial -> "calibrated_serial"
  | Parallel -> "parallel"
  | Pinned -> "pinned"

type decision = {
  width : int;
  units : int;
  work : int;
  threshold : int;
  hardware : int;
  reason : reason;
}

(* Calibrated against the bit-parallel kernel: one work unit is one
   relaxation (a per-source product-edge visit, or one word-sized sweep
   of a span entry — both a handful of ns), and a domain spawn plus its GC
   synchronization costs on the order of 100us.  500k units is roughly a
   millisecond of serial work, the point where forking starts to pay; the
   old 2M default was tuned to a slower per-source engine and left mid-size
   bitset workloads serial on real hardware. *)
let threshold = 500_000

(* Forking below this many parallel grains per worker never amortizes
   the spawn + stop-the-world cost: a width-2 run over three bitset
   blocks leaves one worker idle half the time while both pay the GC
   synchronization.  The committed E22 rows where width 2 lost to serial
   all sit under this grain count. *)
let min_units_per_worker = 4

(* Computed at module initialisation: serve workers decide widths from
   several domains at once, and concurrent forcing of a shared [Lazy.t]
   raises [Lazy.Undefined]. *)
let hw = max 1 (Domain.recommended_domain_count ())
let hardware () = hw

let now () = Unix.gettimeofday ()

(* --- measured calibration ------------------------------------------------ *)

(* Engines report completed runs ({!record}); [decide] only keeps a
   width > 1 verdict when a measured run at that width actually beat the
   measured serial rate.  Rates are seconds per estimated work unit,
   EMA-smoothed, keyed by (kernel, width) — a process-wide memory, so a
   long-lived serve process (or a bench that runs serial and parallel
   phases) stops re-picking a width it has watched lose.  Workload shape
   drifts, so this is a heuristic: the 5% slack and the work floor keep
   one noisy tiny run from flipping the decision. *)

let calib_lock = Mutex.create ()
let calib : (kernel * int, float) Hashtbl.t = Hashtbl.create 8

(* Runs too small to time meaningfully would poison the EMA. *)
let calib_min_work = 50_000
let calib_min_elapsed = 1e-4

let units_of ~kernel ~sources =
  match kernel with Scalar -> sources | Bitset -> (sources + 62) / 63

let record ?(kernel = Scalar) ~width ~sources ~product_edges ~elapsed () =
  let units = units_of ~kernel ~sources in
  let work = units * max 1 product_edges in
  if work >= calib_min_work && elapsed >= calib_min_elapsed then begin
    let r = elapsed /. float_of_int work in
    Mutex.lock calib_lock;
    let key = (kernel, max 1 width) in
    let r' =
      match Hashtbl.find_opt calib key with
      | Some prev -> (0.7 *. prev) +. (0.3 *. r)
      | None -> r
    in
    Hashtbl.replace calib key r';
    Mutex.unlock calib_lock
  end

let calibrated_rate ~kernel ~width =
  Mutex.lock calib_lock;
  let r = Hashtbl.find_opt calib (kernel, width) in
  Mutex.unlock calib_lock;
  r

let reset_calibration () =
  Mutex.lock calib_lock;
  Hashtbl.reset calib;
  Mutex.unlock calib_lock

(* The most recent decision taken anywhere in the process, for the serve
   [stats] reply: one atomic write per decision, read without locking. *)
let last_decision : decision option Atomic.t = Atomic.make None
let last () = Atomic.get last_decision
let note d = Atomic.set last_decision (Some d)

let pinned ~width =
  let d =
    {
      width = max 1 width;
      units = 0;
      work = 0;
      threshold;
      hardware = hardware ();
      reason = Pinned;
    }
  in
  note d;
  d

let decide ?(obs = Obs.none) ?(kernel = Scalar) ?hardware:hw ~max_width ~sources
    ~product_edges () =
  let hardware = match hw with Some h -> max 1 h | None -> hardware () in
  let sources = max 0 sources and product_edges = max 1 product_edges in
  (* Parallel grain: per-source engines ([Rpq_count]) fork over
     sources, the bitset kernel over 63-source blocks — work is units x
     product edges in both, in comparable relaxation units. *)
  let units = units_of ~kernel ~sources in
  (* Saturating multiply: sizes are far below sqrt(max_int), but keep it
     robust anyway. *)
  let work =
    if units > 0 && product_edges > max_int / units then max_int
    else units * product_edges
  in
  let width, reason =
    if work < threshold then (1, Below_threshold)
    else begin
      let cap = min max_width hardware in
      if cap <= 1 then (1, Hardware_serial)
      else begin
        let w = min cap (units / min_units_per_worker) in
        if w <= 1 then (1, Few_units)
        else
          match
            (calibrated_rate ~kernel ~width:1, calibrated_rate ~kernel ~width:w)
          with
          | Some serial, Some par when par >= serial *. 0.95 ->
              (1, Calibrated_serial)
          | _ -> (w, Parallel)
      end
    end
  in
  let d = { width; units; work; threshold; hardware; reason } in
  Obs.incr obs ("rpq.par_decision." ^ reason_slug reason);
  note d;
  d
