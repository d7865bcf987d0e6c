(* The measured program: one `gqd --listen` subprocess on a unix socket,
   started with pinned flags and an environment cleared of every GQ_*
   knob, so a stray variable in the caller's shell cannot change what is
   measured. *)

open Pb_util

type t = {
  pid : int;
  sock : string;
  err : string;  (* the server's stderr, where --metrics lands *)
}

let clean_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 3 && String.sub kv 0 3 = "GQ_"))
       (Array.to_list (Unix.environment ())))

(* Every flag that shapes the measurement is passed explicitly. *)
let flags ~write_mix ~metrics ~wal =
  [ "--workers"; "2"; "--client-inflight"; "4" ]
  @ (if write_mix then
       [ "--wal"; wal; "--fsync"; "always"; "--checkpoint-every"; "200" ]
     else [])
  @ if metrics then [ "--metrics" ] else []

(* Every server still running; an exit for any reason kills and reaps
   them, so no run leaves a process behind. *)
let live = Hashtbl.create 8

let reap_all () =
  Hashtbl.iter
    (fun pid () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    live;
  Hashtbl.reset live

let () = at_exit reap_all

let spawn ~gqd ~dir ~tag ~flags =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let err = Filename.concat dir (tag ^ ".err") in
  (try Sys.remove sock with Sys_error _ -> ());
  let argv = Array.of_list ((gqd :: "--listen" :: sock :: flags)) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let errfd =
    Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close errfd)
      (fun () -> Unix.create_process_env gqd argv (clean_env ()) devnull devnull errfd)
  in
  Hashtbl.replace live pid ();
  { pid; sock; err }

let alive t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ | (exception Unix.Unix_error _) ->
      Hashtbl.remove live t.pid;
      false

(* Connect, retrying while the server is still starting (WAL recovery
   runs before the socket is bound). *)
let connect t ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if now () > deadline || not (alive t) then
          die "gqd did not start listening on %s (see %s)" t.sock t.err;
        Unix.sleepf 0.001;
        go ()
  in
  go ()

let wait_exit t =
  Hashtbl.remove live t.pid;
  match Unix.waitpid [] t.pid with
  | _, st -> st
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Unix.WEXITED 0

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (wait_exit t)

(* Graceful drain (SIGTERM): the server answers what it admitted, prints
   its --metrics summary and exits 0.  Falls back to SIGKILL. *)
let drain t ~timeout =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if now () > deadline then begin
          kill t;
          false
        end
        else begin
          Unix.sleepf 0.01;
          go ()
        end
    | _, st ->
        Hashtbl.remove live t.pid;
        st = Unix.WEXITED 0
    | exception Unix.Unix_error _ ->
        Hashtbl.remove live t.pid;
        false
  in
  go ()

(* Peak resident set (VmHWM) of the live server, in MiB. *)
let peak_rss_mb t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec go () =
            match input_line ic with
            | exception End_of_file -> Float.nan
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                    float_of_int kb /. 1024.0)
            | _ -> go ()
          in
          go ())

(* The --metrics summary: "name value" counter lines, "name total sum"
   histogram lines and "name level peak" gauge lines.  Gauges are keyed
   by name with their peak. *)
let metrics t =
  let tbl = Hashtbl.create 64 in
  (match read_file t.err with
  | exception Sys_error _ -> ()
  | s ->
      List.iter
        (fun l ->
          match String.split_on_char ' ' (String.trim l) with
          | [ k; v ] -> Option.iter (Hashtbl.replace tbl k) (int_of_string_opt v)
          | [ k; _; peak ] -> Option.iter (Hashtbl.replace tbl k) (int_of_string_opt peak)
          | _ -> ())
        (String.split_on_char '\n' s));
  tbl

let counter tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k)

let counter_prefix tbl p =
  Hashtbl.fold
    (fun k v acc ->
      if String.length k >= String.length p && String.sub k 0 (String.length p) = p
      then acc + v
      else acc)
    tbl 0
