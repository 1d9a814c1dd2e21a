val sort : float array -> unit
(** Sort a float array in place, ascending.  Equivalent to
    [Array.sort Float.compare] on NaN-free input (the simulator's
    arrival times, response times and latency samples), but with unboxed
    comparisons — the arrival merge and the rollup paths sort hundreds
    of thousands of elements per run. *)

val select : float array -> int -> float
(** [select a k] returns the [k]-th order statistic of [a] (ascending,
    0-based), permuting [a] in the process.  The value equals what
    [sort a; a.(k)] would produce, at O(n) instead of O(n log n) — used
    for quantile reads that do not need the whole sorted array. *)
