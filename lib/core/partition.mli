(** Range partitioning of the sorted key set across slave nodes, and the
    master's delimiter table (Section 3.2, Figure 2).

    The sorted key array is cut into [n] contiguous slices of near-equal
    size; slice [s] starts at rank [base s].  The delimiter table holds
    the first key of slices [1..n-1]; the partition responsible for a
    query [q] is the number of delimiters [<= q], so queries below every
    delimiter go to slice 0 and queries at or above the last delimiter go
    to slice [n-1]. *)

type t

val split : int -> parts:int -> int array
(** [split n ~parts] cuts [[0, n)] into [parts >= 1] contiguous ranges of
    near-equal size: range [i] is [[b.(i), b.(i+1))] of the returned
    [parts + 1] boundaries, and sizes differ by at most one (the first
    [n mod parts] ranges hold the extra elements).  The one split used
    for key slices, masters' query chunks and router groups. *)

val make : keys:int array -> parts:int -> t
(** [make ~keys ~parts] partitions the strictly-increasing [keys] into
    [parts >= 1] slices.  Requires [Array.length keys >= parts]. *)

val parts : t -> int
val delimiters : t -> int array
(** [parts - 1] keys, strictly increasing. *)

val base : t -> int -> int
(** Global rank of the first key of a slice (what a slave adds to its
    local rank). *)

val slice : t -> int -> int array
(** Copy of the keys of one slice. *)

val slice_len : t -> int -> int

val owner : t -> int -> int
(** [owner t q] is the slice whose range contains [q] (host-side
    reference; the simulated master uses its delimiter
    {!Index.Sorted_array}). *)

val max_slice_bytes : t -> word_bytes:int -> int
(** Footprint of the largest slice — what must fit in a slave's cache. *)
