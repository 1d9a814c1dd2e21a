(** Master-side failover bookkeeping for fault-injected Method C runs.

    Tracks the batches in flight, sweeps them for reply timeouts,
    re-sends within a retry budget, and declares a destination dead when
    the budget is exhausted — at which point the batch is handed back to
    the driver to re-route (resolve with the master's local reference
    lookup, or report its queries lost).  All counters roll up into
    {!Run_result.degraded}.

    Fault-free runs never construct one of these: the zero-fault driver
    code path is untouched. *)

type pending = {
  qids : int array;  (** Global query indices carried by the batch. *)
  payload : int array;  (** The query keys, for re-sends and fallback. *)
  dst : int;  (** Destination node of the last send. *)
  home : int;  (** Master node that collects this batch's reply. *)
  mutable attempts : int;  (** Re-sends so far. *)
  mutable sent_at : float;  (** Simulated time of the last send. *)
}

val make_pending :
  qids:int array -> payload:int array -> dst:int -> home:int -> now:float ->
  pending

type t

val create : Fault.Plan.t -> timeout_default:float -> nodes:int -> t
(** [timeout_default] is used when the plan's spec carries no
    [failover:timeout=] clause; drivers derive it from the network
    profile and batch size. *)

val plan : t -> Fault.Plan.t
val timeout_ns : t -> float

val note_finish : t -> now:float -> unit
(** Record a completion time; {!finish_at} keeps the maximum.  Degraded
    runs report this instead of [Engine.now] (timeout timer events keep
    the engine clock running past the last useful event). *)

val finish_at : t -> float

val sweep :
  t ->
  now:float ->
  in_flight:(int, pending) Hashtbl.t ->
  resend:(int -> pending -> unit) ->
  redispatch:(int -> pending -> unit) ->
  unit
(** Scan [in_flight] for batches silent for {!timeout_ns} or longer,
    in ascending batch-id order (deterministic regardless of hash-table
    iteration order).  A stale batch whose destination is not yet dead
    and has retries left is re-sent via [resend] (the driver performs
    the actual send; [attempts]/[sent_at] are updated here).  Once the
    retry budget is exhausted the destination is declared dead, the
    entry is removed, and [redispatch] is called — as it also is,
    immediately, for every stale batch addressed to an already-dead
    node.  An entry that an interleaved sweep (another target's, run
    while this one was suspended in [redispatch]) has already re-sent or
    removed is skipped when its turn comes. *)

val note_fallback : t -> int -> unit
(** [n] queries resolved by the master's local lookup. *)

val note_lost : t -> queries:int -> unit
(** One batch abandoned, losing [queries] queries. *)

val degraded : t -> Run_result.degraded
(** Roll up the failover counters and the plan's injection stats. *)
