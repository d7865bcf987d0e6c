(** Durable write-ahead log for delta batches.

    A WAL directory holds checkpoint/segment generation pairs:

    {v
    checkpoint-<gen>.gqb   GQB1 snapshot (crash-safe atomic rename)
    wal-<gen>.log          delta records appended since that snapshot
    v}

    Segment layout, all integers little-endian:

    {v
    header   magic "GQW1" | u64 generation | u64 base LSN
    record   u32 payload length | u64 FNV-1a checksum | u64 LSN | payload
    v}

    The checksum covers the 8 LSN bytes followed by the payload; the
    payload is the textual delta format ({!Delta.render}), so replay
    reuses the total parser.  Records are appended *before* the delta is
    published (append-then-apply under the server's writer lock), and a
    failed append truncates the segment back to its pre-append length,
    making retries safe.

    Recovery loads the newest checkpoint that validates — a 0-byte or
    corrupt checkpoint falls back to the previous generation with a
    structured warning, replaying the intervening segments — and replays
    the log tail.  A torn final record (short write at the very end of
    the last segment) is tolerated and truncated; a checksum-corrupt
    record in the middle of the log is refused with
    [Error (Parse {what = "wal"})].

    Checkpointing writes the snapshot crash-safely ({!Graph_io.save_bin_res}),
    rotates to a fresh segment, and deletes generations older than the
    previous one (kept as the fallback anchor).

    Failpoint sites: [wal.append], [wal.fsync], [wal.checkpoint],
    [wal.rotate].  Obs counters: [wal.appends], [wal.bytes],
    [wal.fsyncs], [wal.checkpoints], [wal.rotations], [wal.replayed]. *)

type t

(** Group-commit policy: [Always] fsyncs every append (each
    acknowledgement is durable); [Interval ms] fsyncs when at least [ms]
    milliseconds have passed since the last sync (bounded loss window);
    [Never] leaves syncing to the OS (fastest, weakest). *)
type fsync_policy = Always | Interval of float | Never

(** Accepts ["always"], ["never"], ["interval:MS"]. *)
val fsync_policy_of_string : string -> (fsync_policy, string) result

val fsync_policy_to_string : fsync_policy -> string

type recovery = {
  rc_graph : Pg.t option;  (** [None] when the directory holds nothing *)
  rc_gen : int;  (** current (newest) generation, 0 when empty *)
  rc_base_gen : int;  (** checkpoint generation the replay anchored at *)
  rc_next_lsn : int64;  (** next LSN to assign *)
  rc_replayed : int;  (** records replayed *)
  rc_truncated : bool;  (** a torn final record was dropped *)
  rc_warnings : string list;
}

(** Offline recovery: read-only, touches nothing on disk.

    Replay coalesces each segment's records into one {!Delta.apply_res}
    batch — one counting-pass CSR rebuild per segment instead of one per
    record.  Batches have sequential semantics, so the recovered state
    is identical to per-record replay; a failing batch is re-run record
    by record so the error names the exact LSN.  [~coalesce:false]
    (default [true]) replays record by record throughout — the
    reference the tests pin batched replay against. *)
val recover_res : ?coalesce:bool -> string -> (recovery, Gq_error.t) result

(** Open a WAL directory for serving: runs recovery, truncates a torn
    tail, opens (or re-creates) the current segment for appending.  The
    directory is created when missing.  [read_only] forces inspection
    mode; an unwritable directory degrades to read-only mode with a
    structured warning instead of failing.  [checkpoint_every] /
    [checkpoint_bytes] are the rotation thresholds for
    {!maybe_checkpoint_res} (records and segment bytes). *)
val open_res :
  ?obs:Obs.t ->
  ?policy:fsync_policy ->
  ?checkpoint_every:int ->
  ?checkpoint_bytes:int ->
  ?read_only:bool ->
  string ->
  (t * recovery, Gq_error.t) result

(** Append one delta batch; returns its LSN and whether the record is
    already fsynced (per policy).  On failure the segment is truncated
    back to its pre-append length, so a supervised retry cannot
    duplicate the record.  [Error (Io _)] in read-only mode or before
    the first checkpoint. *)
val append_res : t -> Pg.delta_op list -> (int64 * bool, Gq_error.t) result

(** Undo the most recent successful append (same writer-lock scope as
    the append): truncate the segment back and rewind the LSN, so a
    caller whose post-append publish failed can retry the whole
    append-then-publish body without writing the batch twice.  [Ok
    false] when [lsn] is not the newest append (nothing is touched);
    [Error (Io _)] — and the log flips read-only — when the truncate
    itself fails, since appending past an unacknowledged record would
    make replay apply it anyway. *)
val undo_append_res : t -> int64 -> (bool, Gq_error.t) result

(** Snapshot [pg] as the next generation and rotate to a fresh segment;
    returns the new generation.  Also the bootstrap path: the first
    checkpoint (e.g. serve-mode [load]) creates generation 1.  If the
    rotation fails after the snapshot file was written, the orphaned
    checkpoint is unlinked again before the error surfaces — recovery
    anchors at the newest checkpoint and skips older segments, so an
    orphan would silently drop every append acknowledged afterwards; if
    even that unlink fails, the log flips read-only. *)
val checkpoint_res : t -> Pg.t -> (int, Gq_error.t) result

(** {!checkpoint_res} when a rotation threshold is crossed; [Ok true]
    when it checkpointed. *)
val maybe_checkpoint_res : t -> Pg.t -> (bool, Gq_error.t) result

(** Force an fsync of any unsynced appends. [Ok true] when it synced. *)
val flush_res : t -> (bool, Gq_error.t) result

(** Interval-policy housekeeping: fsync when dirty and the interval has
    elapsed.  Cheap no-op otherwise; safe to call from a periodic
    sweep. *)
val tick_res : t -> (bool, Gq_error.t) result

(** Count a swallowed checkpoint failure (the server tolerates them —
    the log still holds every record — but surfaces the count). *)
val note_checkpoint_error : t -> unit

val read_only : t -> bool
val generation : t -> int
val next_lsn : t -> int64
val policy : t -> fsync_policy

type counters = {
  c_gen : int;
  c_next_lsn : int64;
  c_read_only : bool;
  c_records : int;  (** records in the current segment *)
  c_bytes : int;  (** bytes in the current segment *)
  c_appends : int;
  c_fsyncs : int;
  c_checkpoints : int;
  c_rotations : int;
  c_replayed : int;
  c_checkpoint_errors : int;
}

val counters : t -> counters

(** Flush and close the segment descriptor (best-effort). *)
val close : t -> unit

type record = {
  r_gen : int;
  r_lsn : int64;
  r_bytes : int;  (** payload bytes *)
  r_payload : string;
}

(** Every record of every segment present, in generation order, plus
    warnings (torn tails).  Corrupt mid-segment framing is an error. *)
val dump_res : string -> (record list * string list, Gq_error.t) result
