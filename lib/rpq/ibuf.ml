(* Growable flat int buffer for the bitset kernel: answers are collected
   as [u * n + v] codes (or plain node ids), appended without allocation
   in the hot loop and consumed in bulk at the end. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 64 0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let clear b = b.len <- 0
let sub b k = Array.sub b.data 0 (min k b.len)

(* Bulk-write protocol for hot emission loops: [reserve b k] grows the
   backing array to hold [len + k] more elements and returns it; the
   caller writes [data.(len) .. data.(len + k - 1)] directly and then
   [set_len b (len + k)] — no per-element capacity check or call. *)
let reserve b k =
  let need = b.len + k in
  if need > Array.length b.data then begin
    let cap = ref (max 64 (Array.length b.data)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let d = Array.make !cap 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data

let set_len b n = b.len <- n
