(** Method C — the paper's contribution: a single index {e distributed
    over the CPU caches} of the cluster (Sections 2 and 3.2).

    One master node owns a small sorted array of partition delimiters;
    each slave holds one cache-sized partition of the sorted key set.
    Queries stream into the master, which routes each key to the owning
    slave's outgoing batch buffer; full buffers are shipped as one
    message.  Slaves process each incoming batch against their resident
    partition and ship the ranks to the target.  Master dispatch, slave
    lookups, network transfer and the resulting cache pollution all run
    concurrently in the discrete-event simulation, so slave idle time and
    the 128 KB cache-contention dip are emergent, not assumed.

    The sub-methods differ only in the slave-side structure
    ({!Slave_node}): C-1 = CSB+ tree, C-2 = n-ary tree walked with the
    buffering technique over L1-sized subtrees, C-3 = sorted array with
    binary search.

    This module is the one Method C driver.  Every run shares the
    cluster set-up, staging, slave loop, failover and result assembly;
    what differs is the {e work source} and the {e topology}:

    - work sources: a closed query stream ({!run}), open-loop arrivals
      ({!serve}) and an interleaved update/query stream ({!run_ops});
    - topologies: [Scenario.n_masters] replicated masters (the paper's
      §3.2 remedy for master overload: nodes [0 .. n_masters-1] each run
      a replica of the delimiter table, slaves serve batches from all
      masters in arrival order and reply to the sender), or one master
      over a tier of [routers] (Appendix A.2.3, the [T > 2L] case).

    Faults: with a non-empty {!Fault.Spec.t} the network drops,
    duplicates or delays messages per the spec, crashed slaves stop
    serving, and the masters fail over — reply timeouts re-send a batch
    up to the spec's retry budget, after which its destination is
    declared dead and its batches are resolved with the home master's
    local full-key index (or reported lost when the spec disables
    fallback).  The outcome is accounted in the result's [degraded]
    field; a run never returns a silently-wrong rank.  A spec for which
    {!Fault.Spec.is_none} holds takes the exact fault-free code path
    (byte-identical result). *)

val run :
  ?faults:Fault.Spec.t ->
  ?routers:int ->
  Workload.Scenario.t ->
  variant:Methods.id ->
  keys:int array ->
  queries:int array ->
  Run_result.t
(** [run sc ~variant ~keys ~queries] with [variant] one of [C1]/[C2]/[C3]
    drains the query set, split into one contiguous chunk per master.
    Uses [sc.n_nodes - sc.n_masters] slaves and [sc.batch_bytes]
    messages.  Every returned rank is validated against the reference
    implementation.  Raises [Invalid_argument] for variants [A]/[B] or a
    cluster without a slave.

    With [~routers] (at least 1), node 0 is the only master, nodes
    [1..routers] are routers and the remaining
    [sc.n_nodes - 1 - routers] nodes are slaves; every router gets a
    near-equal contiguous group of slaves, and the master routes by one
    delimiter per group.  The scenario name gains a ["+hier"] suffix.
    Under faults, a router that dies between consuming a master batch
    and cutting its sub-batches leaves queries no in-flight entry
    covers, so after two consecutive silent timeouts with an empty
    in-flight table the target resolves every outstanding query through
    the master's fallback index (or reports them lost).  Raises
    [Invalid_argument] for fewer slaves than routers. *)

val serve :
  ?faults:Fault.Spec.t ->
  ?series:Obs.Series.builder ->
  Workload.Scenario.t ->
  variant:Methods.id ->
  keys:int array ->
  queries:int array ->
  arrivals:float array ->
  start_at:float array ->
  done_at:float array ->
  Run_result.t
(** One open-loop serving run: query [i] is admitted at [arrivals.(i)]
    at master [i mod n_masters].  A master about to go idle first ships
    its partial buffers, so buffer residence never outlives the
    backlog.  Fills [start_at.(i)] (service start) and [done_at.(i)]
    (delivery; untouched for lost queries); response times run from
    admission.  With [series], re-sends, redispatches, fallbacks and
    losses are noted on that timeline.  The result's [serving] is
    [None]: {!Serve} rolls the timestamps up. *)

val run_ops :
  ?faults:Fault.Spec.t ->
  Workload.Scenario.t ->
  policy:Index.Segments.policy ->
  variant:Methods.id ->
  keys:int array ->
  queries:int array ->
  ops:Workload.Mutation.op array ->
  stats:(Index.Segments.t list -> lost_updates:int -> 'a * (string * float) list) ->
  Run_result.t * 'a
(** One run over an interleaved update/query stream, [Query i] naming
    [queries.(i)].  Every slave holds its partition as an
    {!Index.Segments} under [policy], whatever the variant.  Updates are
    forwarded to the owning slave like queries (phase
    ["update_forward"]) and applied in stream order; answers are checked
    against per-slave {!Index.Ref_impl.Dyn} oracles advanced at staging
    time.  After dispatch the master sends its target an end-of-dispatch
    marker (counted in [messages]), since the stream may end in
    update-only batches.

    [stats segments ~lost_updates] summarises the slaves' partitions and
    the update words of abandoned batches; its counters join the run's
    metrics and its value is returned beside the result.

    Requires a single master (per-slave update order is defined by one
    staging stream) and, under faults, only crash / degrade / failover
    clauses: drop, dup, delay and slow faults can replay update batches
    and raise [Invalid_argument].  There is no fallback (a master's
    static snapshot cannot answer post-update queries): a dead slave's
    batches are counted lost. *)
