(** Serve-protocol wire layer: JSON rendering, bounded newline framing,
    UTF-8 validation, and partial-write-safe output.

    This is the robustness boundary of the server: an endless line
    cannot grow an unbounded buffer (it becomes one {!Too_long} frame),
    binary garbage cannot corrupt the JSON reply stream (it becomes
    {!Bad_utf8}), and a reply spanning several socket buffers is never
    truncated by a short [write]. *)

(** {1 JSON rendering} *)

(** A reply is an ordered list of key/rendered-value pairs — field
    order in the output is exactly list order. *)
type jfield = string * string

(** JSON string escaping: ['"'], ['\\'], and every byte below 0x20
    (['\n'], ['\t'], ['\r'] as two-byte escapes, the rest as
    [\u00XX]); every other byte, UTF-8 included, is copied unchanged.
    A string that needs no escaping is returned as is. *)
val json_escape : string -> string

(** [jstr s] is [s] escaped and quoted, built in one exact-size
    allocation when [s] needs no escaping; [jobj] and [jarr] build
    their result in one exact-size allocation. *)
val jstr : string -> string

val jint : int -> string
val jbool : bool -> string
val jfloat : float -> string
val jobj : jfield list -> string
val jarr : string list -> string

(** [add_jstr buf s] appends [jstr s] to [buf]; a name that needs no
    escaping is copied straight in, without an intermediate string. *)
val add_jstr : Buffer.t -> string -> unit

(** [add_escaped buf s] appends [json_escape s] (no quotes), for
    composing one JSON string from several parts. *)
val add_escaped : Buffer.t -> string -> unit

(** {1 Framing} *)

(** [true] iff well-formed UTF-8 (RFC 3629): no overlongs, no
    surrogates, nothing above U+10FFFF. *)
val utf8_valid : string -> bool

type frame =
  | Line of string  (** a complete, length-bounded, valid-UTF-8 line *)
  | Too_long of int  (** a line exceeded the bound; payload discarded *)
  | Bad_utf8  (** a complete line that is not well-formed UTF-8 *)

(** Incremental newline framer with a hard per-line length bound. *)
module Framer : sig
  type t

  val create : ?max_line:int -> unit -> t

  (** [feed t bytes len] consumes [len] bytes, returning the complete
      frames oldest-first.  An over-long line buffers at most
      [max_line] bytes and yields exactly one [Too_long]. *)
  val feed : t -> bytes -> int -> frame list

  (** At EOF: the unterminated remainder as a final frame, if any — a
      command file without a trailing newline still runs its last
      command. *)
  val flush : t -> frame option
end

(** {1 Output} *)

(** Write the whole string: loops on short writes, retries [EINTR];
    [Error `Closed] on any write error ([EPIPE], [ECONNRESET], ...) —
    the peer is gone, drop that client only.  Serve-mode entry points
    ignore [SIGPIPE] so the error is reported here instead of killing
    the process. *)
val write_all : Unix.file_descr -> string -> (unit, [ `Closed ]) result
