(* The client side of a run: up to two connections to the server, read
   connections in a closed loop (each keeps [inflight] requests
   outstanding and sends the next only when one is answered) and an
   optional writer connection in an open loop (writes are due on a fixed
   schedule, whether or not earlier ones have been answered).  One
   thread multiplexes all connections with [select]. *)

open Pb_util
module G = Pb_gen

type outcome = {
  req : G.req;
  t_due : float;  (* open loop: when it was due; closed loop: = t_sent *)
  t_sent : float;
  timed : bool;  (* sent inside the measured window *)
  mutable t_done : float;  (* nan until answered *)
  mutable status : string;  (* reply status, or "eof" / "timeout" *)
  mutable digest : digest option;
  mutable bytes : int;
  mutable count : int;
}

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  mutable next_id : int;
  pending : (int, outcome) Hashtbl.t;
  mutable eof : bool;
}

let open_conn fd =
  { fd; rbuf = Buffer.create 65536; next_id = 0; pending = Hashtbl.create 16; eof = false }

let send_line c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then
      match Unix.write_substring c.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0;
  c.next_id <- c.next_id + 1;
  c.next_id

let chunk = Bytes.create (1 lsl 20)

(* Read what is available; call [on_line] on every complete line. *)
let read_lines c on_line =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error _ -> c.eof <- true
  | 0 -> c.eof <- true
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.unsafe_get chunk i = '\n' then begin
          Buffer.add_subbytes c.rbuf chunk !start (i - !start);
          let line = Buffer.contents c.rbuf in
          Buffer.clear c.rbuf;
          start := i + 1;
          on_line line
        end
      done;
      if !start < n then Buffer.add_subbytes c.rbuf chunk !start (n - !start)

(* One synchronous request, outside any measured loop. *)
let ask c line =
  let id = send_line c line in
  let got = ref None in
  while !got = None && not c.eof do
    read_lines c (fun l -> if reply_id l = id then got := Some l)
  done;
  match !got with Some l -> l | None -> failwith ("no reply to " ^ line)

(* Which replies to digest while running; the rest only need a status. *)
let wants_digest (r : G.req) =
  match r.G.kind with G.Ping | G.Add_edge | G.Del_edge -> false | _ -> true

let record_reply o line =
  o.t_done <- now ();
  o.status <- Option.value ~default:"?" (str_field line "status");
  o.bytes <- String.length line;
  o.count <- Option.value ~default:0 (int_field line "count");
  if wants_digest o.req then o.digest <- answers_digest line

(* Requests one at a time on [c], each sent when the previous one was
   answered (the write probe). *)
let sequential c (reqs : G.req array) =
  Array.map
    (fun (r : G.req) ->
      let t = now () in
      let line = ask c r.G.line in
      let o =
        {
          req = r; t_due = t; t_sent = t; timed = false;
          t_done = Float.nan; status = ""; digest = None; bytes = 0; count = 0;
        }
      in
      record_reply o line;
      o)
    reqs

type plan = {
  reads : (unit -> G.req) array;  (* one stream per read connection *)
  inflight : int;
  writes : (int -> G.req) option;  (* open-loop writer stream *)
  write_rate : float;
  warmup : float;  (* seconds of untimed traffic first *)
  seconds : float;  (* measured window *)
}

type result = {
  outcomes : outcome array;  (* send order *)
  t_start : float;  (* window start *)
  lag : float array;  (* writer: send time minus due time, seconds *)
}

let reply_timeout = 60.0

(* Run [plan] over [conns]: read connections first, then the writer's.
   Requests sent before the warm-up ends are untimed. *)
let run plan (conns : conn array) =
  let nread = Array.length plan.reads in
  let outs = ref [] in
  let lag = Sample.create () in
  let t0 = now () in
  let t_start = t0 +. plan.warmup in
  let t_end = t_start +. plan.seconds in
  let issue c (r : G.req) ~due =
    let t = now () in
    let id = send_line c r.G.line in
    let o =
      {
        req = r; t_due = due; t_sent = t;
        timed = t >= t_start && t < t_end; t_done = Float.nan; status = "";
        digest = None; bytes = 0; count = 0;
      }
    in
    outs := o :: !outs;
    Hashtbl.replace c.pending id o
  in
  (* Writer state: write i is due at t_start + i / rate; a delete waits
     for its add's reply (the two may otherwise race on two workers). *)
  let wnext = ref 0 and added = Hashtbl.create 64 in
  let writer = if Option.is_some plan.writes then Some conns.(nread) else None in
  let next_due () = t_start +. (float_of_int !wnext /. plan.write_rate) in
  let on_line c line =
    let id = reply_id line in
    match Hashtbl.find_opt c.pending id with
    | None -> ()
    | Some o ->
        Hashtbl.remove c.pending id;
        record_reply o line;
        match o.req.G.op with
        | Some (Pg.Add_edge { name; _ }) -> Hashtbl.replace added name ()
        | _ -> ()
  in
  let refill t =
    if t < t_end then
      for i = 0 to nread - 1 do
        let c = conns.(i) in
        while (not c.eof) && Hashtbl.length c.pending < plan.inflight do
          issue c (plan.reads.(i) ()) ~due:(now ())
        done
      done;
    match (writer, plan.writes) with
    | Some c, Some gen when not c.eof ->
        let continue = ref true in
        while !continue do
          let due = next_due () in
          if due >= t_end || due > now () then continue := false
          else begin
            let r = gen !wnext in
            let ready =
              match r.G.op with
              | Some (Pg.Del_edge name) -> Hashtbl.mem added name
              | _ -> true
            in
            if ready then begin
              Sample.add lag (now () -. due);
              issue c r ~due;
              incr wnext
            end
            else continue := false
          end
        done
    | _ -> ()
  in
  let pending_total () =
    Array.fold_left (fun a c -> a + Hashtbl.length c.pending) 0 conns
  in
  let finished = ref false in
  while not !finished do
    let t = now () in
    refill t;
    let t = now () in
    if t >= t_end && pending_total () = 0 then finished := true
    else if t >= t_end +. reply_timeout then begin
      Array.iter
        (fun c ->
          Hashtbl.iter (fun _ o -> o.status <- "timeout") c.pending;
          Hashtbl.reset c.pending)
        conns;
      finished := true
    end
    else begin
      let fds =
        List.filter_map
          (fun c -> if c.eof then None else Some c.fd)
          (Array.to_list conns)
      in
      let timeout =
        match writer with
        | Some _ when t < t_end -> Float.max 0.001 (Float.min 0.05 (next_due () -. t))
        | _ -> 0.05
      in
      (match Unix.select fds [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          Array.iter
            (fun c -> if List.mem c.fd ready then read_lines c (on_line c))
            conns);
      Array.iter
        (fun c ->
          if c.eof && Hashtbl.length c.pending > 0 then begin
            Hashtbl.iter (fun _ o -> o.status <- "eof") c.pending;
            Hashtbl.reset c.pending
          end)
        conns
    end
  done;
  {
    outcomes = Array.of_list (List.rev !outs);
    t_start;
    lag = Sample.to_array lag;
  }
