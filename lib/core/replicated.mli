(** Methods A and B — the paper's baselines, with the n-ary tree index
    replicated on every node (Section 3, Section A.2.1).  A answers each
    query with one tree traversal, taking a cache miss per uncached
    level; B pushes batches through L2-cache-sized subtrees with the
    Zhou-Ross buffering technique (Section 3.1), so each subtree is
    traversed while cache-resident.

    This module is the one driver for both.  Each method keeps only its
    lookup kernel; each work source — a closed query stream ({!run}),
    open-loop arrivals ({!serve}) or an update/query stream ({!run_ops})
    — decides when work is grouped and how a response is timed.

    A closed run follows the paper's Figure 3 protocol: one node
    (["worker"]) processes the whole stream and the time is divided by
    the cluster size, charging the dispatcher nothing ("the benefit of
    the doubt").  Replicated update work runs on every node, so it does
    not divide: cluster time is [(raw - update_ns) / n_nodes + update_ns].

    Every rank is validated: a static replica's after the run against
    {!Index.Ref_impl.rank}, a log-structured one's online against an
    {!Index.Ref_impl.Dyn} oracle advanced to the same stream point.
    Raises [Invalid_argument] for a Method C variant. *)

val run :
  Workload.Scenario.t ->
  method_id:Methods.id ->
  keys:int array ->
  queries:int array ->
  Run_result.t
(** Drain [queries] on one node.  A times each query by its busy time;
    B processes consecutive batches of the scenario's batch size, every
    member waiting for the whole batch. *)

val serve :
  Workload.Scenario.t ->
  jobs:int ->
  method_id:Methods.id ->
  keys:int array ->
  queries:int array ->
  arrivals:float array ->
  start_at:float array ->
  done_at:float array ->
  ops:Workload.Mutation.op array ->
  policy:Index.Segments.policy ->
  Run_result.t
(** Open-loop serving: query [i] is admitted at [arrivals.(i)] on node
    [i mod n_nodes] (["node0"], ...), each node an independent engine
    epoch; fills [start_at.(i)] and [done_at.(i)].  A serves one query
    at a time; B drains everything that arrived while it waited, up to
    the batch size, in one pass.  A non-empty [ops] (A only) makes every
    replica an {!Index.Segments} under [policy] that applies every
    update in stream order.  [jobs] runs the epochs on that many worker
    domains unless a profiler, tracer or cache microscope is installed;
    output is byte-identical at any value.  [serving] is [None] and
    [slave_idle] is the nodes' mean idle fraction. *)

val run_ops :
  Workload.Scenario.t ->
  policy:Index.Segments.policy ->
  method_id:Methods.id ->
  keys:int array ->
  queries:int array ->
  ops:Workload.Mutation.op array ->
  stats:(Index.Segments.t list -> lost_updates:int -> 'a * (string * float) list) ->
  Run_result.t * 'a
(** One node over an interleaved stream, [Query i] naming
    [queries.(i)], the replica an {!Index.Segments} under [policy].
    Updates apply immediately; B's pass answers its buffered queries
    after every update applied before it.  B needs the queries in index
    order, as {!Workload.Mutation.plan} emits them.  [stats] (with [0]
    lost updates) summarises the replica; its counters join the metrics
    and its value is returned beside the result. *)
