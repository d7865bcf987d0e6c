(* The serve protocol's wire layer: JSON rendering, newline framing with
   a hard line-length bound, UTF-8 validation, and a write loop that
   survives short writes and broken pipes.

   Framing is the robustness boundary of the server: a client that
   streams an endless line must not grow an unbounded buffer, a client
   that sends binary garbage must get a structured reply rather than
   corrupt a JSON stream, and a reply larger than one socket buffer must
   never be truncated because [Unix.write] returned short. *)

(* --- JSON rendering ------------------------------------------------------ *)

(* Answers are node names, which almost never need escaping, so every
   renderer first scans for a byte that does ('"', '\\', or a control
   byte below 0x20) and copies the string unchanged when there is none.
   Strings are built at their exact size, never through [Printf]. *)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let clean s =
  let rec go i =
    i >= String.length s
    || ((not (needs_escape (String.unsafe_get s i))) && go (i + 1))
  in
  go 0

let hex = "0123456789abcdef"

let json_escape s =
  if clean s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf "\\u00";
            Buffer.add_char buf hex.[Char.code c lsr 4];
            Buffer.add_char buf hex.[Char.code c land 0xf]
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let add_escaped buf s = Buffer.add_string buf (json_escape s)

let add_jstr buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* A reply is an ordered list of key/rendered-value pairs. *)
type jfield = string * string

let jint = string_of_int
let jbool = string_of_bool
let jfloat x = Printf.sprintf "%.1f" x

(* [items] comma-separated between [l] and [r], in one exact-size
   allocation: [width] is an item's rendered length, [blit b pos x]
   writes it at [pos] and returns the position after it. *)
let enclose l r items ~width ~blit =
  let n =
    List.fold_left (fun n x -> n + width x + 1) 1 items
    + if items = [] then 1 else 0
  in
  let b = Bytes.create n in
  Bytes.set b 0 l;
  let first = ref true in
  let pos =
    List.fold_left
      (fun pos x ->
        if !first then begin
          first := false;
          blit b pos x
        end
        else begin
          Bytes.set b pos ',';
          blit b (pos + 1) x
        end)
      1 items
  in
  Bytes.set b pos r;
  Bytes.unsafe_to_string b

let blit_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* ["\""; s; "\""] at [pos]. *)
let blit_quoted b pos s =
  Bytes.set b pos '"';
  let pos = blit_string b (pos + 1) s in
  Bytes.set b pos '"';
  pos + 1

let jstr s =
  let e = json_escape s in
  let b = Bytes.create (String.length e + 2) in
  ignore (blit_quoted b 0 e);
  Bytes.unsafe_to_string b

let jarr items = enclose '[' ']' items ~width:String.length ~blit:blit_string

let jobj fields =
  enclose '{' '}' fields
    ~width:(fun (k, v) -> String.length (json_escape k) + 3 + String.length v)
    ~blit:(fun b pos (k, v) ->
      let pos = blit_quoted b pos (json_escape k) in
      Bytes.set b pos ':';
      blit_string b (pos + 1) v)

(* --- UTF-8 validation ---------------------------------------------------- *)

(* Standard table-free validator: accepts exactly well-formed UTF-8
   (RFC 3629) — no overlongs, no surrogates, nothing above U+10FFFF. *)
let utf8_valid s =
  let n = String.length s in
  let byte i = Char.code s.[i] in
  let cont i = i < n && byte i land 0xC0 = 0x80 in
  let rec go i =
    if i >= n then true
    else
      let b = byte i in
      if b < 0x80 then go (i + 1)
      else if b < 0xC2 then false (* continuation or overlong lead *)
      else if b < 0xE0 then cont (i + 1) && go (i + 2)
      else if b < 0xF0 then
        cont (i + 1) && cont (i + 2)
        && (b <> 0xE0 || byte (i + 1) >= 0xA0) (* overlong *)
        && (b <> 0xED || byte (i + 1) < 0xA0) (* surrogates *)
        && go (i + 3)
      else if b < 0xF5 then
        cont (i + 1) && cont (i + 2) && cont (i + 3)
        && (b <> 0xF0 || byte (i + 1) >= 0x90) (* overlong *)
        && (b <> 0xF4 || byte (i + 1) < 0x90) (* > U+10FFFF *)
        && go (i + 4)
      else false
  in
  go 0

(* --- newline framing with a length bound --------------------------------- *)

type frame =
  | Line of string  (* a complete, length-bounded, valid-UTF-8 line *)
  | Too_long of int  (* a line exceeded the bound; payload discarded *)
  | Bad_utf8  (* a complete line that is not well-formed UTF-8 *)

module Framer = struct
  type t = {
    max_line : int;
    pending : Buffer.t;
    mutable discarding : bool;
        (* inside an over-long line: swallow bytes until its newline *)
  }

  let create ?(max_line = 65536) () =
    { max_line = max 1 max_line; pending = Buffer.create 256; discarding = false }

  let finish_line t acc =
    let line = Buffer.contents t.pending in
    Buffer.clear t.pending;
    if t.discarding then begin
      t.discarding <- false;
      Too_long t.max_line :: acc
    end
    else if utf8_valid line then Line line :: acc
    else Bad_utf8 :: acc

  (* Feed [len] bytes; returns the complete frames, oldest first.  A
     line longer than [max_line] yields exactly one [Too_long] once its
     terminating newline (or EOF flush) arrives; its payload is never
     buffered beyond the bound. *)
  let feed t bytes len =
    let frames = ref [] in
    for i = 0 to len - 1 do
      let c = Bytes.get bytes i in
      if c = '\n' then frames := finish_line t !frames
      else if not t.discarding then begin
        if Buffer.length t.pending >= t.max_line then begin
          Buffer.clear t.pending;
          t.discarding <- true
        end
        else Buffer.add_char t.pending c
      end
    done;
    List.rev !frames

  (* EOF: the unterminated remainder, if any, as a final frame — so a
     piped command file without a trailing newline still runs its last
     command, matching the old [input_line] behaviour. *)
  let flush t =
    if Buffer.length t.pending = 0 && not t.discarding then None
    else
      match finish_line t [] with frame :: _ -> Some frame | [] -> None
end

(* --- writes that survive short writes and broken pipes ------------------- *)

(* Loop until every byte is written.  [EINTR] retries; [EPIPE],
   [ECONNRESET] and any other write error mean the peer is gone — the
   caller drops that one client and keeps serving the rest.  (Serve-mode
   processes ignore [SIGPIPE]; see [Server.run].) *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write fd b off (n - off) with
      | 0 -> Error `Closed
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> Error `Closed
  in
  go 0
