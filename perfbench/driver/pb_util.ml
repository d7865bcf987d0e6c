(* Small shared helpers: clocks, order statistics, reply scanning, and
   file-system chores inside the benchmark's work directory. *)

let now = Unix.gettimeofday
let ms_of dt = dt *. 1000.0

(* --- order statistics ----------------------------------------------------- *)

(* Linear-interpolated quantile of an unsorted sample; [nan] on empty. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (n - 1) (i + 1) in
    let f = pos -. float_of_int i in
    (s.(i) *. (1.0 -. f)) +. (s.(j) *. f)
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* A growable float sample. *)
module Sample = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* --- reply scanning ------------------------------------------------------- *)

let find_from s i needle =
  let n = String.length s and m = String.length needle in
  let rec go i =
    if i + m > n then -1
    else if String.unsafe_get s i = needle.[0] && String.sub s i m = needle then i
    else go (i + 1)
  in
  go i

(* The reply id: every reply starts with {"id":N. *)
let reply_id line =
  let p = 6 in
  if String.length line < p || String.sub line 0 p <> "{\"id\":" then -1
  else begin
    let v = ref 0 and i = ref p in
    while !i < String.length line && line.[!i] >= '0' && line.[!i] <= '9' do
      v := (!v * 10) + Char.code line.[!i] - 48;
      incr i
    done;
    !v
  end

(* Value of a string field such as "status":"ok" (no escapes expected). *)
let str_field line key =
  let needle = "\"" ^ key ^ "\":\"" in
  match find_from line 0 needle with
  | -1 -> None
  | i ->
      let j = i + String.length needle in
      let k = String.index_from line j '"' in
      Some (String.sub line j (k - j))

let int_field line key =
  let needle = "\"" ^ key ^ "\":" in
  match find_from line 0 needle with
  | -1 -> None
  | i ->
      let j = i + String.length needle in
      let k = ref j in
      while !k < String.length line && (line.[!k] = '-' || (line.[!k] >= '0' && line.[!k] <= '9')) do
        incr k
      done;
      int_of_string_opt (String.sub line j (!k - j))

(* An order-independent digest of a JSON string array: the count plus
   two sums of 64-bit FNV-1a hashes taken over each element's escaped
   bytes.  Replies and in-process answers may list the same set in a
   different order (solo vs. batched rpq-from), so the check compares
   multisets, without sorting or allocating per element. *)
type digest = { count : int; h1 : int; h2 : int }

let fnv_prime = 0x100000001b3
let fnv_basis = 0x0bf29ce484222325 (* FNV offset basis, cut to 63 bits *)

(* Digest of the array that starts at [s.[i] = '['].  Returns the digest
   and the index just past the closing bracket. *)
let digest_array s i =
  let n = String.length s in
  if i >= n || s.[i] <> '[' then invalid_arg "digest_array";
  let count = ref 0 and h1 = ref 0 and h2 = ref 0 in
  let i = ref (i + 1) in
  let fin = ref false in
  while not !fin do
    if !i >= n then invalid_arg "digest_array: truncated";
    match String.unsafe_get s !i with
    | ']' ->
        fin := true;
        incr i
    | ',' | ' ' -> incr i
    | '"' ->
        let h = ref fnv_basis in
        incr i;
        let stop = ref false in
        while not !stop do
          let c = String.unsafe_get s !i in
          if c = '"' then stop := true
          else begin
            let c, step =
              if c = '\\' then (String.unsafe_get s (!i + 1), 2) else (c, 1)
            in
            h := (!h lxor Char.code c) * fnv_prime;
            if step = 2 then h := (!h lxor 0x5c) * fnv_prime;
            i := !i + step
          end
        done;
        incr i;
        incr count;
        h1 := !h1 + !h;
        h2 := !h2 + ((!h lxor (!h lsr 29)) * 0x2545f4914f6cdd1d)
    | _ -> invalid_arg "digest_array: not a string array"
  done;
  ({ count = !count; h1 = !h1; h2 = !h2 }, !i)

(* Digest of the "answers" array of a reply, if it has one. *)
let answers_digest line =
  match find_from line 0 "\"answers\":[" with
  | -1 -> None
  | i -> (
      match digest_array line (i + String.length "\"answers\":") with
      | d, _ -> Some d
      | exception Invalid_argument _ -> None)

(* Digest of in-process answers, over the same escaped bytes the wire
   carries. *)
let digest_of_strings xs =
  let b = Buffer.create 64 in
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Wire.jstr x))
    xs;
  Buffer.add_char b ']';
  fst (digest_array (Buffer.contents b) 0)

(* --- files ---------------------------------------------------------------- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      if not (Sys.is_directory s) then write_file (Filename.concat dst f) (read_file s))
    (Sys.readdir src)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let ok_or_die = function Ok x -> x | Error e -> die "%s" (Gq_error.to_string e)
