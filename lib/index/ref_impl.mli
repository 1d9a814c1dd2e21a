(** Reference implementations on plain OCaml arrays — no simulation, no
    cost model.  The simulated index structures are cross-validated against
    these, query by query, in the test suite and (optionally) inside
    experiment runs. *)

val rank : int array -> int -> int
(** [rank keys q] over a strictly increasing [keys] is the number of
    elements [<= q] — equivalently the index of the first element greater
    than [q].  Result is in [\[0, length keys\]]. *)

val partition_of : delimiters:int array -> int -> int
(** [partition_of ~delimiters q] maps a key to the partition whose range
    contains it: with [p] delimiters (the least key of partitions
    [1..p]), the result is in [\[0, p\]]. *)

(** Dynamic oracle: the live keys in sorted blocks of at most 1024,
    indexed by each block's first key and a prefix count — the reference
    the log-structured {!Segments} index is cross-validated against, op
    for op.  [rank] and [mem] cost O(log n).  An update rebuilds one
    block and the O(n / 512) block index; a block that overflows or
    empties re-cuts the whole set, in O(n), into blocks of 256 to 512
    keys. *)
module Dyn : sig
  type t

  val create : int array -> t
  (** Copy of a strictly-increasing key array. *)

  val size : t -> int
  val rank : t -> int -> int
  (** Number of live keys [<= q]. *)

  val mem : t -> int -> bool

  val insert : t -> int -> bool
  (** Make the key live; returns whether the set changed. *)

  val delete : t -> int -> bool
  (** Remove the key; returns whether the set changed. *)

  val to_sorted_array : t -> int array
end
