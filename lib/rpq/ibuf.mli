(** Growable flat int buffer for answer codes and scratch lists.

    Used by the bit-parallel RPQ kernel: pushes are amortized O(1) with
    no per-element allocation, and the contents are consumed in bulk
    ([data] / {!sub}) once a run finishes. *)

type t = { mutable data : int array; mutable len : int }

val create : unit -> t
val push : t -> int -> unit

(** Forget the contents (capacity is kept). *)
val clear : t -> unit

(** [sub b k] — fresh array of the first [min k len] elements
    (the admitted prefix of a target buffer). *)
val sub : t -> int -> int array

(** [reserve b k] — ensure capacity for [len + k] elements and
    return the backing array: the bulk-write protocol for hot emission
    loops.  Write [data.(len) ..] directly, then {!set_len}. *)
val reserve : t -> int -> int array

(** Commit writes made through {!reserve}. *)
val set_len : t -> int -> unit
