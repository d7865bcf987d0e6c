type ('k, 'v) entry = { value : 'v; gen : int; mutable last_used : int }

(* The table, the logical clock and every entry's recency field are
   guarded by [lock]; the statistics counters are atomics so concurrent
   serve-mode sessions can read a live [hits]/[misses] snapshot without
   taking (or contending on) the table lock. *)
type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable tick : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  invalidated : int Atomic.t;
  lock : Mutex.t;
}

let create ~capacity () =
  let capacity = max 1 capacity in
  {
    capacity;
    table = Hashtbl.create capacity;
    tick = 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    invalidated = Atomic.make 0;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let capacity t = t.capacity
let length t = locked t (fun () -> Hashtbl.length t.table)

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.table k with
      | Some e ->
          t.tick <- t.tick + 1;
          e.last_used <- t.tick;
          Atomic.incr t.hits;
          Some e.value
      | None ->
          Atomic.incr t.misses;
          None)

let peek t k =
  locked t (fun () ->
      Option.map (fun e -> e.value) (Hashtbl.find_opt t.table k))

let evict_lru t =
  (* Linear scan for the oldest entry; capacity is small by design. *)
  let victim = ref None and oldest = ref max_int in
  Hashtbl.iter
    (fun k e ->
      if e.last_used < !oldest then begin
        oldest := e.last_used;
        victim := Some k
      end)
    t.table;
  match !victim with
  | Some k ->
      Hashtbl.remove t.table k;
      Atomic.incr t.evictions
  | None -> ()

let add t ~gen k v =
  locked t (fun () ->
      if Hashtbl.mem t.table k then Hashtbl.remove t.table k
      else if Hashtbl.length t.table >= t.capacity then evict_lru t;
      t.tick <- t.tick + 1;
      Hashtbl.add t.table k { value = v; gen; last_used = t.tick })

let drop_generations_except t gen =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun k e acc -> if e.gen <> gen then k :: acc else acc)
          t.table []
      in
      List.iter (Hashtbl.remove t.table) doomed;
      let n = List.length doomed in
      ignore (Atomic.fetch_and_add t.invalidated n);
      n)

let sweep t ~f =
  locked t (fun () ->
      (* Collect verdicts first: the callback must not observe a table
         mid-mutation, and rekeys must not collide with entries not yet
         visited. *)
      let actions =
        Hashtbl.fold (fun k e acc -> (k, e, f k e.value) :: acc) t.table []
      in
      let dropped = ref 0 and rekeyed = ref 0 in
      List.iter
        (fun (k, (e : (_, _) entry), verdict) ->
          match verdict with
          | `Keep -> ()
          | `Drop ->
              Hashtbl.remove t.table k;
              incr dropped
          | `Rekey (k', gen, value) ->
              Hashtbl.remove t.table k;
              Hashtbl.replace t.table k'
                { value; gen; last_used = e.last_used };
              incr rekeyed)
        actions;
      ignore (Atomic.fetch_and_add t.invalidated !dropped);
      (!dropped, !rekeyed))

let clear t = locked t (fun () -> Hashtbl.reset t.table)
let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let evictions t = Atomic.get t.evictions
let invalidated t = Atomic.get t.invalidated
