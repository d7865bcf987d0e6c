(* Write-ahead log for delta batches.  See wal.mli for the format and
   the durability contract; the serve-mode writer appends under its
   writer lock, so no internal locking is needed — the counter reads the
   stats path performs from other domains are single-word and benign. *)

let wal_magic = "GQW1"
let header_len = 20 (* magic | u64 gen | u64 base lsn *)
let rec_header_len = 20 (* u32 len | u64 checksum | u64 lsn *)

type fsync_policy = Always | Interval of float | Never

let fsync_policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s when String.length s > 9 && String.sub s 0 9 = "interval:" -> (
      let ms = String.sub s 9 (String.length s - 9) in
      match float_of_string_opt ms with
      | Some f when f >= 0. -> Ok (Interval f)
      | _ -> Error (Printf.sprintf "bad fsync interval %S" ms))
  | _ -> Error (Printf.sprintf "unknown fsync policy %S (want always | interval:MS | never)" s)

let fsync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval ms ->
      if Float.is_integer ms then Printf.sprintf "interval:%.0f" ms
      else Printf.sprintf "interval:%g" ms

type t = {
  dir : string;
  pol : fsync_policy;
  checkpoint_every : int;
  checkpoint_bytes : int;
  obs : Obs.t;
  mutable gen : int; (* current generation; 0 before any checkpoint *)
  mutable fd : Unix.file_descr option; (* current segment, None when read-only or gen 0 *)
  mutable lsn : int64; (* next LSN to assign *)
  mutable records : int; (* records in the current segment *)
  mutable bytes : int; (* valid bytes in the current segment (incl. header) *)
  mutable last_fsync : float;
  mutable dirty : bool;
  mutable ro : bool;
  mutable last_append : (int64 * int) option;
      (* (lsn, pre-append byte length) of the newest record in the
         current segment, for [undo_append_res]; cleared at rotation *)
  mutable appends : int;
  mutable fsyncs : int;
  mutable checkpoints : int;
  mutable rotations : int;
  mutable replayed : int;
  mutable checkpoint_errors : int;
}

type recovery = {
  rc_graph : Pg.t option;
  rc_gen : int;
  rc_base_gen : int;
  rc_next_lsn : int64;
  rc_replayed : int;
  rc_truncated : bool;
  rc_warnings : string list;
}

type counters = {
  c_gen : int;
  c_next_lsn : int64;
  c_read_only : bool;
  c_records : int;
  c_bytes : int;
  c_appends : int;
  c_fsyncs : int;
  c_checkpoints : int;
  c_rotations : int;
  c_replayed : int;
  c_checkpoint_errors : int;
}

type record = {
  r_gen : int;
  r_lsn : int64;
  r_bytes : int;
  r_payload : string;
}

let err_parse fmt =
  Printf.ksprintf (fun msg -> Error (Gq_error.Parse { what = "wal"; msg })) fmt

let err_io fmt = Printf.ksprintf (fun msg -> Error (Gq_error.Io msg)) fmt
let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* --- paths and directory listing ----------------------------------------- *)

let checkpoint_path dir gen = Filename.concat dir (Printf.sprintf "checkpoint-%d.gqb" gen)
let segment_path dir gen = Filename.concat dir (Printf.sprintf "wal-%d.log" gen)

let gen_of ~prefix ~suffix name =
  let pl = String.length prefix and sl = String.length suffix in
  let nl = String.length name in
  if nl > pl + sl && String.sub name 0 pl = prefix
     && String.sub name (nl - sl) sl = suffix
  then
    let mid = String.sub name pl (nl - pl - sl) in
    match int_of_string_opt mid with Some g when g > 0 -> Some g | _ -> None
  else None

(* (checkpoint generations, segment generations), both sorted ascending. *)
let list_gens dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error (Gq_error.Io msg)
  | entries ->
      let cps = ref [] and segs = ref [] in
      Array.iter
        (fun name ->
          (match gen_of ~prefix:"checkpoint-" ~suffix:".gqb" name with
          | Some g -> cps := g :: !cps
          | None -> ());
          match gen_of ~prefix:"wal-" ~suffix:".log" name with
          | Some g -> segs := g :: !segs
          | None -> ())
        entries;
      Ok (List.sort compare !cps, List.sort compare !segs)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Ok s
  | exception Sys_error msg -> Error (Gq_error.Io msg)
  | exception End_of_file -> err_io "%s: truncated file" path

(* --- record framing ------------------------------------------------------ *)

let checksum ~lsn payload =
  let b = Bytes.create (8 + String.length payload) in
  Bytes.set_int64_le b 0 lsn;
  Bytes.blit_string payload 0 b 8 (String.length payload);
  Graph_io.fnv1a64 (Bytes.to_string b)

let encode_header ~gen ~base_lsn =
  let b = Bytes.create header_len in
  Bytes.blit_string wal_magic 0 b 0 4;
  Bytes.set_int64_le b 4 (Int64.of_int gen);
  Bytes.set_int64_le b 12 base_lsn;
  Bytes.to_string b

let encode_record ~lsn payload =
  let n = String.length payload in
  let b = Bytes.create (rec_header_len + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.set_int64_le b 4 (checksum ~lsn payload);
  Bytes.set_int64_le b 12 lsn;
  Bytes.blit_string payload 0 b rec_header_len n;
  Bytes.to_string b

(* One scanned segment: records in order plus where the valid prefix
   ends.  [sg_torn] marks a dropped tail (short write or a failed check
   on the very last record). *)
type seg_scan = {
  sg_base : int64;
  sg_recs : (int64 * string) list;
  sg_valid_len : int;
  sg_torn : bool;
}

(* [allow_torn] distinguishes the last segment of a recovery chain (a
   crash can tear its tail) from inner segments, where any framing
   damage is refused as corruption. *)
let scan_segment ~gen ~allow_torn path =
  let* s = read_file path in
  let flen = String.length s in
  if flen < header_len then
    if allow_torn then
      (* A crash between segment creation and the header fsync leaves a
         short or empty file: nothing to replay. *)
      Ok { sg_base = -1L; sg_recs = []; sg_valid_len = 0; sg_torn = flen > 0 }
    else err_parse "%s: truncated segment header (%d bytes)" path flen
  else if String.sub s 0 4 <> wal_magic then
    err_parse "%s: bad magic %S (want %S)" path (String.sub s 0 4) wal_magic
  else
    let hgen = Int64.to_int (String.get_int64_le s 4) in
    if hgen <> gen then
      err_parse "%s: header generation %d disagrees with filename" path hgen
    else
      let base = String.get_int64_le s 12 in
      let recs = ref [] and nrec = ref 0 in
      let pos = ref header_len and torn = ref false in
      let result = ref None in
      (while !result = None && not !torn && !pos < flen do
         let expect = Int64.add base (Int64.of_int !nrec) in
         if !pos + rec_header_len > flen then torn := true
         else begin
           let len = Int32.to_int (String.get_int32_le s !pos) in
           if len < 0 || !pos + rec_header_len + len > flen then
             (* Framing runs past EOF: a torn tail when nothing follows,
                otherwise undecidable — treated as torn since no further
                record can be framed either way. *)
             torn := true
           else begin
             let stored = String.get_int64_le s (!pos + 4) in
             let lsn = String.get_int64_le s (!pos + 12) in
             let payload = String.sub s (!pos + rec_header_len) len in
             let last = !pos + rec_header_len + len = flen in
             if stored <> checksum ~lsn payload then
               if last then torn := true
               else
                 result :=
                   Some
                     (err_parse
                        "%s: checksum mismatch at record %d (offset %d), valid records follow — refusing to recover"
                        path !nrec !pos)
             else if lsn <> expect then
               if last then torn := true
               else
                 result :=
                   Some
                     (err_parse "%s: LSN %Ld at record %d (expected %Ld)" path
                        lsn !nrec expect)
             else begin
               recs := (lsn, payload) :: !recs;
               incr nrec;
               pos := !pos + rec_header_len + len
             end
           end
         end
       done;
       if !torn && not allow_torn then
         result :=
           Some (err_parse "%s: torn record in a non-final segment" path));
      (match !result with
      | Some e -> e
      | None ->
          Ok
            {
              sg_base = base;
              sg_recs = List.rev !recs;
              sg_valid_len = !pos;
              sg_torn = !torn;
            })

(* End LSN of a segment (base + records), tolerating a torn tail —
   used to place the next LSN when the current segment is missing
   (crash between checkpoint and rotation).  A torn tail record had its
   LSN assigned by the writer before the crash; count it, so that LSN is
   never reissued to a new write in a later generation — the torn bytes
   stay behind in the abandoned segment, and reuse would break LSN
   uniqueness across the retained log history (visible in wal-dump). *)
let scan_end_lsn ~gen path =
  let* sc = scan_segment ~gen ~allow_torn:true path in
  if sc.sg_base < 0L then Ok None
  else
    let n = List.length sc.sg_recs + if sc.sg_torn then 1 else 0 in
    Ok (Some (Int64.add sc.sg_base (Int64.of_int n)))

(* --- recovery ------------------------------------------------------------ *)

let empty_recovery =
  {
    rc_graph = None;
    rc_gen = 0;
    rc_base_gen = 0;
    rc_next_lsn = 1L;
    rc_replayed = 0;
    rc_truncated = false;
    rc_warnings = [];
  }

(* Replay coalescing: by default every segment's records are parsed
   up front and applied as ONE [Delta.apply_res] batch — one counting-pass
   CSR rebuild per segment instead of one per record, which turns
   recovery of an n-record segment from O(n * (V + E)) into O(V + E + n).
   [Pg.apply_delta_res] gives batches sequential semantics (an op sees
   the effects of every earlier op, within and across record boundaries),
   so the recovered state is identical to per-record replay — pinned by
   test_wal.  Per-record replay is the fallback whenever a batched apply
   fails, so errors still name the exact LSN; [~coalesce:false] forces
   it, as test_wal's reference. *)
(* Internal recovery, also returning the valid byte length and record
   count of the current segment so [open_res] can truncate a torn tail
   and resume its rotation-threshold bookkeeping. *)
let recover_internal ?(coalesce = true) dir =
  if not (Sys.file_exists dir) then Ok (empty_recovery, 0, 0)
  else
    let* cps, segs = list_gens dir in
    match (cps, segs) with
    | [], [] -> Ok (empty_recovery, 0, 0)
    | [], _ -> err_parse "%s: log segments without any checkpoint" dir
    | _ ->
        let warnings = ref [] in
        (* Anchor: newest checkpoint that loads and validates; fall back
           generation by generation on 0-byte/garbage snapshots.  Strictly
           GQB1 — the sniffing loader would accept a zeroed file as an
           empty *text* graph and silently anchor at the wrong state. *)
        let load_checkpoint path =
          match
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          with
          | s -> Graph_io.of_bin_string_res s
          | exception Sys_error msg -> err_io "%s" msg
        in
        let rec pick = function
          | [] -> err_io "%s: no checkpoint generation validates" dir
          | g :: older -> (
              match load_checkpoint (checkpoint_path dir g) with
              | Ok pg -> Ok (g, pg)
              | Error e ->
                  warnings :=
                    Printf.sprintf
                      "checkpoint generation %d invalid (%s); falling back" g
                      (Gq_error.to_string e)
                    :: !warnings;
                  pick older)
        in
        let* base_gen, base_pg = pick (List.rev cps) in
        let top =
          List.fold_left max
            (List.fold_left max base_gen cps)
            segs
        in
        (* Replay segments base_gen..top in order; only the last may be
           torn.  LSN continuity across segment boundaries is enforced. *)
        let chain = List.filter (fun g -> g >= base_gen) segs in
        let graph = ref base_pg in
        let replayed = ref 0 and truncated = ref false in
        let next = ref None and cur_valid = ref 0 and cur_records = ref 0 in
        let rec replay = function
          | [] -> Ok ()
          | g :: rest ->
              let last = rest = [] in
              let* sc =
                scan_segment ~gen:g ~allow_torn:last (segment_path dir g)
              in
              if sc.sg_torn then truncated := true;
              if last then begin
                cur_valid := sc.sg_valid_len;
                cur_records := List.length sc.sg_recs
              end;
              if sc.sg_base >= 0L then begin
                match !next with
                | Some l when sc.sg_base <> l ->
                    err_parse
                      "%s: segment %d starts at LSN %Ld, expected %Ld (missing segment?)"
                      dir g sc.sg_base l
                | _ ->
                    let rec per_record = function
                      | [] -> Ok ()
                      | (lsn, payload) :: more -> (
                          match
                            let* ops = Delta.parse_res payload in
                            Delta.apply_res !graph ops
                          with
                          | Ok applied ->
                              graph := applied.Delta.pg;
                              incr replayed;
                              per_record more
                          | Error e ->
                              err_parse "%s: replaying LSN %Ld: %s" dir lsn
                                (Gq_error.to_string e))
                    in
                    let batched recs =
                      match
                        let* parsed =
                          List.fold_left
                            (fun acc (lsn, payload) ->
                              let* acc = acc in
                              match Delta.parse_res payload with
                              | Ok ops -> Ok (ops :: acc)
                              | Error e ->
                                  err_parse "%s: replaying LSN %Ld: %s" dir
                                    lsn (Gq_error.to_string e))
                            (Ok []) recs
                        in
                        Delta.apply_res !graph
                          (List.concat (List.rev parsed))
                      with
                      | Ok applied ->
                          graph := applied.Delta.pg;
                          replayed := !replayed + List.length recs;
                          Ok ()
                      | Error _ ->
                          (* Re-run record by record so the error names
                             the exact LSN (recovery aborts either way). *)
                          per_record recs
                    in
                    let* () =
                      if coalesce then batched sc.sg_recs
                      else per_record sc.sg_recs
                    in
                    next :=
                      Some
                        (Int64.add sc.sg_base
                           (Int64.of_int (List.length sc.sg_recs)));
                    replay rest
              end
              else replay rest
        in
        let* () = replay chain in
        let* next_lsn =
          match !next with
          | Some l -> Ok l
          | None -> (
              (* No replayable segment at or above the anchor: place the
                 next LSN after the newest completed segment below it. *)
              match List.filter (fun g -> g < base_gen) segs with
              | [] -> Ok 1L
              | below -> (
                  let g = List.fold_left max 0 below in
                  let* e = scan_end_lsn ~gen:g (segment_path dir g) in
                  Ok (Option.value e ~default:1L)))
        in
        Ok
          ( {
              rc_graph = Some !graph;
              rc_gen = top;
              rc_base_gen = base_gen;
              rc_next_lsn = next_lsn;
              rc_replayed = !replayed;
              rc_truncated = !truncated;
              rc_warnings = List.rev !warnings;
            },
            !cur_valid,
            !cur_records )

let recover_res ?coalesce dir =
  let* r, _, _ = recover_internal ?coalesce dir in
  Ok r

(* --- open ---------------------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go o =
    if o < n then
      let k = Unix.write fd b o (n - o) in
      go (o + k)
  in
  go 0

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let unix_msg e fn arg =
  Printf.sprintf "%s: %s: %s" fn arg (Unix.error_message e)

(* Open (or create) segment [gen] for appending, truncating to
   [valid_len] first; writes a fresh header when the file is new or its
   header was torn.  Returns the descriptor and the segment's valid
   byte length. *)
let open_segment ~dir ~gen ~base_lsn ~valid_len =
  let path = segment_path dir gen in
  let existed = Sys.file_exists path in
  (* O_APPEND keeps every write at EOF even after a rollback ftruncate. *)
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  try
    let len =
      if (not existed) || valid_len < header_len then begin
        Unix.ftruncate fd 0;
        write_all fd (encode_header ~gen ~base_lsn);
        Unix.fsync fd;
        if not existed then fsync_dir dir;
        header_len
      end
      else begin
        Unix.ftruncate fd valid_len;
        valid_len
      end
    in
    (fd, len)
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let open_res ?(obs = Obs.none) ?(policy = Always) ?(checkpoint_every = 1000)
    ?(checkpoint_bytes = 16 * 1024 * 1024) ?(read_only = false) dir =
  match
    let* () =
      if Sys.file_exists dir then
        if Sys.is_directory dir then Ok ()
        else err_io "%s: not a directory" dir
      else
        match Unix.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Unix.Unix_error (e, fn, arg) ->
            err_io "%s" (unix_msg e fn arg)
    in
    let* r, valid_len, cur_records = recover_internal dir in
    let t =
      {
        dir;
        pol = policy;
        checkpoint_every = max 1 checkpoint_every;
        checkpoint_bytes = max 1 checkpoint_bytes;
        obs;
        gen = r.rc_gen;
        fd = None;
        lsn = r.rc_next_lsn;
        records = 0;
        bytes = 0;
        last_fsync = Unix.gettimeofday ();
        dirty = false;
        ro = read_only;
        last_append = None;
        appends = 0;
        fsyncs = 0;
        checkpoints = 0;
        rotations = 0;
        replayed = r.rc_replayed;
        checkpoint_errors = 0;
      }
    in
    Obs.add obs "wal.replayed" r.rc_replayed;
    let r =
      if t.ro || r.rc_gen = 0 then r
      else
        (* Resume appending to the current segment: drop any torn tail,
           re-create the segment if the crash landed between checkpoint
           and rotation.  An unwritable directory degrades to read-only
           inspection mode with a structured warning. *)
        match
          open_segment ~dir ~gen:r.rc_gen ~base_lsn:r.rc_next_lsn ~valid_len
        with
        | fd, len ->
            t.fd <- Some fd;
            t.bytes <- len;
            (* [cur_records] counts the chain's final segment; a freshly
               re-created segment (header only) starts from zero. *)
            t.records <- (if len > header_len then cur_records else 0);
            r
        | exception Unix.Unix_error ((EACCES | EPERM | EROFS) as e, fn, arg) ->
            t.ro <- true;
            {
              r with
              rc_warnings =
                r.rc_warnings
                @ [
                    Printf.sprintf
                      "log directory unwritable (%s); serving read-only"
                      (unix_msg e fn arg);
                  ];
            }
        | exception Unix.Unix_error (e, fn, arg) ->
            raise (Gq_error.Error (Gq_error.Io (unix_msg e fn arg)))
    in
    Ok (t, r)
  with
  | Ok _ as ok -> ok
  | Error _ as e -> e
  | exception Gq_error.Error e -> Error e
  | exception Sys_error msg -> Error (Gq_error.Io msg)
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Gq_error.Io (unix_msg e fn arg))

(* --- appending ----------------------------------------------------------- *)

let now () = Unix.gettimeofday ()

let fsync_now t fd =
  Failpoint.check "wal.fsync";
  Unix.fsync fd;
  t.fsyncs <- t.fsyncs + 1;
  t.last_fsync <- now ();
  t.dirty <- false;
  Obs.incr t.obs "wal.fsyncs"

let append_res t ops =
  Failpoint.check "wal.append";
  if t.ro then err_io "wal: read-only mode, refusing append"
  else
    match t.fd with
    | None -> err_io "wal: no checkpoint generation yet (load a graph first)"
    | Some fd -> (
        let lsn = t.lsn in
        let payload = Delta.render ops in
        let rec_bytes = encode_record ~lsn payload in
        let rollback () =
          (* Restore the pre-append segment length so a supervised retry
             cannot leave a duplicate or half-written record behind. *)
          try Unix.ftruncate fd t.bytes with Unix.Unix_error _ -> ()
        in
        match
          write_all fd rec_bytes;
          t.dirty <- true;
          let synced =
            match t.pol with
            | Always ->
                fsync_now t fd;
                true
            | Interval ms when (now () -. t.last_fsync) *. 1000. >= ms ->
                fsync_now t fd;
                true
            | Interval _ | Never -> false
          in
          synced
        with
        | synced ->
            t.last_append <- Some (lsn, t.bytes);
            t.lsn <- Int64.add lsn 1L;
            t.records <- t.records + 1;
            t.bytes <- t.bytes + String.length rec_bytes;
            t.appends <- t.appends + 1;
            Obs.incr t.obs "wal.appends";
            Obs.add t.obs "wal.bytes" (String.length rec_bytes);
            Ok (lsn, synced)
        | exception Unix.Unix_error (e, fn, arg) ->
            rollback ();
            err_io "%s" (unix_msg e fn arg)
        | exception e ->
            (* Failpoint.Injected and friends: roll back, let the
               supervision layer classify. *)
            rollback ();
            raise e)

(* Undo the most recent successful append, under the same writer lock
   that issued it: truncate the segment back and rewind the LSN.  The
   serve path calls this when publishing the already-appended delta
   fails — without it, a supervised retry of the append-then-publish
   body would write the batch a second time under a fresh LSN, and
   replay would apply the ops twice (a duplicate add-edge then bricks
   recovery with a parse error).  [Ok false] when [lsn] is not the
   newest append (a rotation or another append intervened) — nothing is
   touched.  If the truncate itself fails the log flips read-only:
   appending past a record that was never acknowledged would make
   replay apply it anyway. *)
let undo_append_res t lsn =
  match (t.fd, t.last_append) with
  | Some fd, Some (l, prev) when l = lsn && Int64.add l 1L = t.lsn -> (
      match Unix.ftruncate fd prev with
      | () ->
          (* O_APPEND puts the retry's write back at the truncated EOF,
             re-using this LSN — exactly the rolled-back layout. *)
          (if t.pol = Always && not t.dirty then
             try Unix.fsync fd with Unix.Unix_error _ -> ());
          t.lsn <- l;
          t.records <- t.records - 1;
          t.bytes <- prev;
          t.appends <- t.appends - 1;
          t.last_append <- None;
          Obs.incr t.obs "wal.undone";
          Ok true
      | exception Unix.Unix_error (e, fn, arg) ->
          t.ro <- true;
          err_io "wal: undo of LSN %Ld failed (%s); log now read-only" lsn
            (unix_msg e fn arg))
  | _ -> Ok false

let flush_res t =
  match t.fd with
  | Some fd when t.dirty && not t.ro -> (
      match fsync_now t fd with
      | () -> Ok true
      | exception Unix.Unix_error (e, fn, arg) ->
          err_io "%s" (unix_msg e fn arg))
  | _ -> Ok false

let tick_res t =
  match (t.pol, t.fd) with
  | Interval ms, Some _
    when t.dirty && (not t.ro) && (now () -. t.last_fsync) *. 1000. >= ms ->
      flush_res t
  | _ -> Ok false

(* --- checkpointing ------------------------------------------------------- *)

let delete_old_generations t =
  (* Keep the current and previous generations; the previous checkpoint
     anchors recovery if the current one is ever damaged. *)
  match list_gens t.dir with
  | Error _ -> ()
  | Ok (cps, segs) ->
      let rm path = try Sys.remove path with Sys_error _ -> () in
      List.iter
        (fun g -> if g <= t.gen - 2 then rm (checkpoint_path t.dir g))
        cps;
      List.iter
        (fun g -> if g <= t.gen - 2 then rm (segment_path t.dir g))
        segs

let checkpoint_res t pg =
  Failpoint.check "wal.checkpoint";
  if t.ro then err_io "wal: read-only mode, refusing checkpoint"
  else
    let gen' = t.gen + 1 in
    let* _bytes = Graph_io.save_bin_res pg (checkpoint_path t.dir gen') in
    (* From here checkpoint-<gen'> is durably on disk.  If the rotation
       below fails it must not stay: recovery anchors at the newest
       checkpoint and replays only segments >= its generation, so an
       orphaned checkpoint-<gen'> would silently drop every append a
       surviving writer acks into wal-<gen> afterwards.  Unlink the
       orphan (and fsync the directory) before surfacing the error; if
       even the unlink fails, flip read-only — refusing further appends
       beats acknowledging writes the next recovery would not replay. *)
    let abandon () =
      match Sys.remove (checkpoint_path t.dir gen') with
      | () -> fsync_dir t.dir
      | exception Sys_error _ -> t.ro <- true
    in
    match
      Failpoint.check "wal.rotate";
      (* Flush the old segment before abandoning it, then cut over. *)
      (match t.fd with
      | Some fd when t.dirty -> fsync_now t fd
      | _ -> ());
      open_segment ~dir:t.dir ~gen:gen' ~base_lsn:t.lsn ~valid_len:0
    with
    | fd', len ->
        (match t.fd with
        | Some old -> ( try Unix.close old with Unix.Unix_error _ -> ())
        | None -> ());
        t.fd <- Some fd';
        t.gen <- gen';
        t.records <- 0;
        t.bytes <- len;
        t.dirty <- false;
        t.last_append <- None;
        t.checkpoints <- t.checkpoints + 1;
        t.rotations <- t.rotations + 1;
        Obs.incr t.obs "wal.checkpoints";
        Obs.incr t.obs "wal.rotations";
        delete_old_generations t;
        Ok gen'
    | exception Unix.Unix_error (e, fn, arg) ->
        abandon ();
        err_io "%s" (unix_msg e fn arg)
    | exception e ->
        (* Injected faults and friends: remove the orphan, then let the
           supervision layer classify the original failure. *)
        abandon ();
        raise e

let maybe_checkpoint_res t pg =
  if
    (not t.ro)
    && t.fd <> None
    && (t.records >= t.checkpoint_every || t.bytes >= t.checkpoint_bytes)
  then
    let* _gen = checkpoint_res t pg in
    Ok true
  else Ok false

let note_checkpoint_error t =
  t.checkpoint_errors <- t.checkpoint_errors + 1;
  Obs.incr t.obs "wal.checkpoint_errors"

(* --- accessors ----------------------------------------------------------- *)

let read_only t = t.ro
let generation t = t.gen
let next_lsn t = t.lsn
let policy t = t.pol

let counters t =
  {
    c_gen = t.gen;
    c_next_lsn = t.lsn;
    c_read_only = t.ro;
    c_records = t.records;
    c_bytes = t.bytes;
    c_appends = t.appends;
    c_fsyncs = t.fsyncs;
    c_checkpoints = t.checkpoints;
    c_rotations = t.rotations;
    c_replayed = t.replayed;
    c_checkpoint_errors = t.checkpoint_errors;
  }

let close t =
  (match flush_res t with Ok _ | Error _ -> ());
  match t.fd with
  | Some fd ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None
  | None -> ()

(* --- offline dump -------------------------------------------------------- *)

let dump_res dir =
  let* _cps, segs = list_gens dir in
  let rec go acc warns = function
    | [] -> Ok (List.rev acc, List.rev warns)
    | g :: rest ->
        let path = segment_path dir g in
        let* sc = scan_segment ~gen:g ~allow_torn:true path in
        let acc =
          List.fold_left
            (fun acc (lsn, payload) ->
              {
                r_gen = g;
                r_lsn = lsn;
                r_bytes = String.length payload;
                r_payload = payload;
              }
              :: acc)
            acc sc.sg_recs
        in
        let warns =
          if sc.sg_torn then
            Printf.sprintf "%s: torn tail truncated after %d record%s" path
              (List.length sc.sg_recs)
              (if List.length sc.sg_recs = 1 then "" else "s")
            :: warns
          else warns
        in
        go acc warns rest
  in
  go [] [] segs
