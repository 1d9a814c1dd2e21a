open Simcore

(* One driver for methods A and B.  Every node holds the whole index,
   so nodes never talk; what varies is data: the method's lookup kernel
   (one search per query for A, one batched pass for B) and the work
   source, which decides when work is grouped and how a response is
   timed. *)

(* An interleaved update/query stream and the replica's segment policy. *)
type stream = { ops : Workload.Mutation.op array; policy : Index.Segments.policy }

type serve = {
  arrivals : float array;
  start_at : float array;
  done_at : float array;
  jobs : int;
}

type source =
  | Batch  (** Closed query stream on one node. *)
  | Ops of stream  (** Closed update/query stream on one node. *)
  | Serve of serve * stream option
      (** Open-loop arrivals dealt round robin, one engine epoch per
          node; with a stream, every node also applies every update. *)

(* A node's copy of the index: the static tree (wrapped for B's
   buffered passes), or a log-structured replica whose answers are
   checked online against an oracle advanced to the same stream point. *)
type replica =
  | Tree of Index.Nary_tree.t
  | Buffered of Index.Buffered.t
  | Log of Index.Segments.t * Index.Ref_impl.Dyn.t

type node = {
  eng : Engine.t;
  m : Machine.t;
  replica : replica;
  queries : int array;  (** This node's query keys, slot [j] at [q_base + j]. *)
  q_base : int;
  r_base : int;
  lat : Latency.t;
  prof : Obs.Profile.t option;  (** The ambient profiler, read once per run. *)
  mutable errors : int;
  mutable update_ns : float;
}

let make_node (sc : Workload.Scenario.t) ~name ~method_id ~policy ~prof
    ~keys queries =
  let eng = Engine.create () in
  let m = Machine.create eng ~name sc.Workload.Scenario.params in
  let replica =
    match policy with
    | Some policy ->
        let seg = Index.Segments.create m ~policy keys in
        Log (seg, Index.Ref_impl.Dyn.create keys)
    | None -> (
        let lo = Machine.words_allocated m in
        let tree = Index.Nary_tree.build m keys in
        Machine.label_region m ~label:"partition" ~base:lo
          ~words:(Machine.words_allocated m - lo);
        match (method_id : Methods.id) with
        | Methods.B ->
            Buffered
              (Index.Buffered.create
                 ~max_batch:(max 1 (Workload.Scenario.queries_per_batch sc))
                 tree)
        | Methods.A | Methods.C1 | Methods.C2 | Methods.C3 -> Tree tree)
  in
  let cnt = Array.length queries in
  let q_base = Machine.labelled_alloc m ~label:"queries" (max 1 cnt) in
  let r_base = Machine.labelled_alloc m ~label:"results" (max 1 cnt) in
  Machine.poke_array m q_base queries;
  {
    eng; m; replica; queries; q_base; r_base; lat = Latency.create (); prof;
    errors = 0; update_ns = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Kernels *)

(* Method A: one search for slot [j]. *)
let lookup nd j =
  let q = Machine.read nd.m (nd.q_base + j) in
  let rank =
    match nd.replica with
    | Tree t -> Index.Nary_tree.search t q
    | Buffered b -> Index.Nary_tree.search (Index.Buffered.tree b) q
    | Log (seg, oracle) ->
        let rank = Index.Segments.search seg q in
        if rank <> Index.Ref_impl.Dyn.rank oracle q then
          nd.errors <- nd.errors + 1;
        rank
  in
  Machine.write nd.m (nd.r_base + j) rank

(* Method B: one batched pass over slots [pos, pos+len).  The
   log-structured replica has no buffered form; its pass searches each
   query in turn, reflecting every update applied before the pass. *)
let pass nd ~pos ~len =
  match nd.replica with
  | Buffered b ->
      Index.Buffered.process_batch b ~queries:(nd.q_base + pos)
        ~results:(nd.r_base + pos) ~n:len
  | Tree _ | Log _ ->
      for j = pos to pos + len - 1 do
        lookup nd j
      done

(* One insert or delete on the replica, checked against the oracle;
   its busy time is the node's replicated update work. *)
let update nd (op : Workload.Mutation.op) =
  match nd.replica with
  | Log (seg, oracle) ->
      let before = Machine.busy_ns nd.m in
      let agree =
        match op with
        | Workload.Mutation.Insert k ->
            Index.Segments.insert seg k = Index.Ref_impl.Dyn.insert oracle k
        | Workload.Mutation.Delete k ->
            Index.Segments.delete seg k = Index.Ref_impl.Dyn.delete oracle k
        | Workload.Mutation.Query _ -> true
      in
      if not agree then nd.errors <- nd.errors + 1;
      nd.update_ns <- nd.update_ns +. (Machine.busy_ns nd.m -. before)
  | Tree _ | Buffered _ -> invalid_arg "Replicated: update on a static replica"

(* The static replicas are validated after the run by peeking every
   result slot; the log-structured one was checked online. *)
let validate nd ~keys =
  match nd.replica with
  | Log _ -> ()
  | Tree _ | Buffered _ ->
      for j = 0 to Array.length nd.queries - 1 do
        if Machine.peek nd.m (nd.r_base + j)
           <> Index.Ref_impl.rank keys nd.queries.(j)
        then nd.errors <- nd.errors + 1
      done

(* ------------------------------------------------------------------ *)
(* Closed-stream timing: A by busy-ns delta per query, B by engine time
   per batch.  With a profiler installed, a response that enters the
   tail is split into CPU and the memory components of its cache delta. *)

let cache_mark nd =
  match nd.prof with
  | Some _ -> Cachesim.Hierarchy.stats (Machine.hierarchy nd.m)
  | None -> Cachesim.Hierarchy.zero_stats

let note_cpu p nd ~mark ~id ~ns ~batch ~busy =
  let ds =
    Cachesim.Hierarchy.sub_stats
      (Cachesim.Hierarchy.stats (Machine.hierarchy nd.m))
      mark
  in
  let mem = Cachesim.Hierarchy.stats_breakdown (Machine.params nd.m) ds in
  Obs.Tail.note (Obs.Profile.tail p) ~id ~ns ~batch
    ~breakdown:(("cpu", busy -. ds.Cachesim.Hierarchy.cost_ns) :: mem)

let timed_lookup nd j =
  let before = Machine.busy_ns nd.m in
  let mark = cache_mark nd in
  lookup nd j;
  let d = Machine.busy_ns nd.m -. before in
  Latency.add nd.lat d;
  match nd.prof with
  | Some p when Obs.Tail.qualifies (Obs.Profile.tail p) d ->
      note_cpu p nd ~mark ~id:j ~ns:d ~batch:1 ~busy:d
  | Some _ | None -> ()

(* Every query of the batch waits for the whole batch: residence time =
   batch processing duration. *)
let timed_pass nd ~pos ~len =
  Machine.sync nd.m;
  let started = Engine.now nd.eng in
  let busy0 = Machine.busy_ns nd.m in
  let mark = cache_mark nd in
  pass nd ~pos ~len;
  Machine.sync nd.m;
  Machine.sample_residency nd.m;
  let resp = Engine.now nd.eng -. started in
  Latency.add_many nd.lat resp len;
  match nd.prof with
  | Some p when Obs.Tail.qualifies (Obs.Profile.tail p) resp ->
      note_cpu p nd ~mark ~id:pos ~ns:resp ~batch:len
        ~busy:(Machine.busy_ns nd.m -. busy0)
  | Some _ | None -> ()

(* The closed sources as one walk: the batch source is the stream
   [Query 0 .. Query n-1] with no updates, walked without building it.
   A flushes its clock every 8192 items to keep the event queue off the
   per-query path; B buffers queries up to the batch size while updates
   apply immediately, dirtying the cache mid-batch. *)
let run_closed nd ~method_id ~batch_keys ~ops ~n =
  let a = (method_id : Methods.id) = Methods.A in
  (* B's buffered queries hold the contiguous slots [first, first+blen). *)
  let first = ref 0 and blen = ref 0 in
  let flush () =
    if !blen > 0 then begin
      let pos = !first and len = !blen in
      first := pos + len;
      blen := 0;
      timed_pass nd ~pos ~len
    end
  in
  for i = 0 to (match ops with None -> n | Some o -> Array.length o) - 1 do
    (* The item's query slot, or [-1] for an update. *)
    let qi =
      match ops with
      | None -> i
      | Some o -> (
          match o.(i) with
          | Workload.Mutation.Query qi -> qi
          | op ->
              update nd op;
              -1)
    in
    if qi < 0 then ()
    else if a then timed_lookup nd qi
    else begin
      if qi <> !first + !blen then
        invalid_arg "Replicated: op stream queries out of order";
      incr blen;
      if !blen = batch_keys then flush ()
    end;
    if a && i land 8191 = 8191 then begin
      Machine.sync nd.m;
      Machine.sample_residency nd.m
    end
  done;
  flush ();
  Machine.sync nd.m;
  if a then Machine.sample_residency nd.m

(* ------------------------------------------------------------------ *)
(* Open-loop timing: a response runs from admission to delivery.  A
   node waits for its next arrival, so accumulated lookup cost pushing
   the clock past the next admission shows as queueing delay. *)

(* Tail entry for one delivered query, split into queueing and service. *)
let note_tail nd ~qid ~batch ~arrived ~started ~finished =
  match nd.prof with
  | Some p when Obs.Tail.qualifies (Obs.Profile.tail p) (finished -. arrived)
    ->
      Obs.Tail.note (Obs.Profile.tail p) ~id:qid ~ns:(finished -. arrived)
        ~batch
        ~breakdown:
          [ ("queue", started -. arrived); ("service", finished -. started) ]
  | _ -> ()

(* Node [node] serves global arrivals [node, node+n_nodes, ...], slot [j]
   holding arrival [node + j*n_nodes]: round robin keeps every node busy
   through the whole horizon, where a contiguous split would leave all
   but one idle at any moment.  One group starts at slot [pos]:
   wait for its arrival, take every later slot that has arrived
   meanwhile (up to [cap]), answer them in one pass and deliver every
   member when the pass ends.  Returns the next slot. *)
let serve_group nd ~cap ~every ~n_nodes ~node sv pos =
  Machine.sync nd.m;
  let t = sv.arrivals.(node + (pos * n_nodes)) in
  let now = Engine.now nd.eng in
  if now < t then Engine.delay nd.eng (t -. now);
  let started = Engine.now nd.eng in
  let j = ref (pos + 1) in
  while
    !j < Array.length nd.queries
    && !j - pos < cap
    && sv.arrivals.(node + (!j * n_nodes)) <= started
  do
    incr j
  done;
  let len = !j - pos in
  for k = pos to !j - 1 do
    sv.start_at.(node + (k * n_nodes)) <- started
  done;
  pass nd ~pos ~len;
  Machine.sync nd.m;
  let fin = Engine.now nd.eng in
  for k = pos to !j - 1 do
    let qid = node + (k * n_nodes) in
    sv.done_at.(qid) <- fin;
    note_tail nd ~qid ~batch:len ~arrived:sv.arrivals.(qid) ~started
      ~finished:fin;
    Latency.add nd.lat (fin -. sv.arrivals.(qid))
  done;
  if pos mod every = 0 then Machine.sample_residency nd.m;
  !j

(* A serves groups of one, sampling residency every 64th query; B's
   batches are singletons at low load and grow, amortizing, as load
   rises.  With a stream, every node walks all of it: updates are
   replicated work on the node clock, so a burst of them delays the
   queries queued behind it; queries are served by their owner only. *)
let run_open nd ~method_id ~batch_keys ~n_nodes ~node sv stream =
  let cap, every =
    match (method_id : Methods.id) with
    | Methods.B -> (batch_keys, 1)
    | Methods.A | Methods.C1 | Methods.C2 | Methods.C3 -> (1, 64)
  in
  match stream with
  | None ->
      let pos = ref 0 in
      while !pos < Array.length nd.queries do
        pos := serve_group nd ~cap ~every ~n_nodes ~node sv !pos
      done
  | Some s ->
      for i = 0 to Array.length s.ops - 1 do
        match s.ops.(i) with
        | Workload.Mutation.Query qid when qid mod n_nodes = node ->
            ignore (serve_group nd ~cap ~every ~n_nodes ~node sv (qid / n_nodes))
        | Workload.Mutation.Query _ -> ()
        | op -> update nd op
      done

(* ------------------------------------------------------------------ *)
(* Node epochs.  The nodes never communicate, so each node's whole
   timeline is one epoch on its own engine — and, when nothing is
   recording, on its own domain.  Every accumulator is kept per node
   and merged in node-index order afterwards, so the merged result is
   one canonical value however the epochs were scheduled: any [jobs]
   value gives byte-identical output.  The serving timestamps need no
   merge: nodes fill them at disjoint indices. *)

(* Ambient recorders are domain-local: a worker domain would not see
   the profiler/tracer/scope installed on the caller, so instrumented
   runs keep every epoch inline.  The epoch structure (and thus every
   output) is the same either way; only the scheduling differs. *)
let recording () =
  Obs.Profile.current () <> None
  || Trace.current () <> None
  || Obs.Cachescope.current () <> None

let run_epochs ~jobs n_nodes sim =
  if n_nodes < 1 then invalid_arg "Replicated: need at least one node";
  let thunks = List.init n_nodes (fun node () -> sim node) in
  if jobs > 1 && not (recording ()) then
    Array.of_list (Exec.Pool.run ~jobs:(min jobs n_nodes) thunks)
  else Array.of_list (List.map (fun f -> f ()) thunks)

let drive (sc : Workload.Scenario.t) ~source ~method_id ~keys ~queries
    ~finish =
  let n_nodes = sc.Workload.Scenario.n_nodes in
  let batch_keys = max 1 (Workload.Scenario.queries_per_batch sc) in
  (match ((method_id : Methods.id), source) with
  | (Methods.C1 | Methods.C2 | Methods.C3), _ ->
      invalid_arg "Replicated: method must be A or B"
  | Methods.B, Serve (_, Some _) ->
      invalid_arg "Replicated: method B serves no update stream"
  | (Methods.A | Methods.B), _ -> ());
  let n =
    match source with
    | Serve (sv, _) -> Array.length sv.arrivals
    | Batch | Ops _ -> Array.length queries
  in
  let stream =
    match source with Batch -> None | Ops s -> Some s | Serve (_, s) -> s
  in
  let policy = Option.map (fun s -> s.policy) stream in
  let prof = Obs.Profile.current () in
  (* One node runs a closed stream and the cluster time is normalized;
     serving runs every node. *)
  let sim node =
    let name, phase, local =
      match source with
      | Batch | Ops _ -> ("worker", "lookup", queries)
      | Serve _ ->
          ( Printf.sprintf "node%d" node,
            "serve",
            Array.init
              ((n - node + n_nodes - 1) / n_nodes)
              (fun j -> queries.(node + (j * n_nodes))) )
    in
    let nd = make_node sc ~name ~method_id ~policy ~prof ~keys local in
    Machine.set_phase nd.m phase;
    Engine.spawn nd.eng ~name (fun () ->
        match source with
        | Batch | Ops _ ->
            run_closed nd ~method_id ~batch_keys
              ~ops:(Option.map (fun s -> s.ops) stream)
              ~n
        | Serve (sv, _) ->
            run_open nd ~method_id ~batch_keys ~n_nodes ~node sv stream);
    Engine.run nd.eng;
    validate nd ~keys;
    nd
  in
  let nodes =
    match source with
    | Serve (sv, _) -> run_epochs ~jobs:sv.jobs n_nodes sim
    | Batch | Ops _ -> run_epochs ~jobs:1 1 sim
  in
  let machines = Array.map (fun nd -> nd.m) nodes in
  (* Merge in node order into node 0's accumulator. *)
  let lat = nodes.(0).lat in
  for i = 1 to Array.length nodes - 1 do
    Latency.merge_into lat nodes.(i).lat
  done;
  let sum f = Array.fold_left (fun acc nd -> acc + f nd) 0 nodes in
  let errors = sum (fun nd -> nd.errors) in
  (* The node clocks' maximum is the makespan. *)
  let raw =
    Array.fold_left (fun a nd -> Float.max a (Engine.now nd.eng)) 0.0 nodes
  in
  (* A closed run simulates one node over the whole stream: query work
     divides over the cluster, replicated update work runs on every
     node, so it does not divide. *)
  let total, idle =
    match source with
    | Serve _ ->
        ( raw,
          Array.fold_left
            (fun acc m -> acc +. (1.0 -. (Machine.busy_ns m /. raw)))
            0.0 machines
          /. float_of_int n_nodes )
    | Batch | Ops _ ->
        let update_ns = Float.min nodes.(0).update_ns raw in
        (((raw -. update_ns) /. float_of_int n_nodes) +. update_ns, 0.0)
  in
  let engines = Array.to_list (Array.map (fun nd -> nd.eng) nodes) in
  let segments =
    Array.to_list nodes
    |> List.filter_map (fun nd ->
           match nd.replica with Log (seg, _) -> Some seg | _ -> None)
  in
  let extra, counters = finish segments in
  ( {
      Run_result.method_id;
      scenario = sc.Workload.Scenario.name;
      n_queries = n;
      n_nodes;
      batch_bytes = sc.Workload.Scenario.batch_bytes;
      total_ns = total;
      raw_ns = raw;
      per_key_ns = total /. float_of_int (max 1 n);
      slave_idle = idle;
      master_busy = 0.0;
      messages = 0;
      bytes_sent = 0;
      validation_errors = errors;
      cache =
        Array.fold_left
          (fun acc m ->
            Cachesim.Hierarchy.add_stats acc
              (Cachesim.Hierarchy.stats (Machine.hierarchy m)))
          Cachesim.Hierarchy.zero_stats machines;
      overflow_flushes =
        sum (fun nd ->
            match nd.replica with
            | Buffered b -> Index.Buffered.overflow_flushes b
            | Tree _ | Log _ -> 0);
      mean_response_ns = Latency.mean lat;
      p95_response_ns = Latency.percentile lat 0.95;
      metrics =
        Telemetry.snapshot ~eng:(List.hd engines) ~more_engines:(List.tl engines)
          ~machines ~latency:lat ~validation_errors:errors ~counters ();
      trace = None;
      profile = None;
      degraded = Run_result.no_degradation;
      serving = None;
      timeline = None;
      scope = None;
    },
    extra )

let no_extra _ = ((), [])

let run sc ~method_id ~keys ~queries =
  fst (drive sc ~source:Batch ~method_id ~keys ~queries ~finish:no_extra)

let serve sc ~jobs ~method_id ~keys ~queries ~arrivals ~start_at ~done_at
    ~ops ~policy =
  let stream = if Array.length ops = 0 then None else Some { ops; policy } in
  fst
    (drive sc
       ~source:(Serve ({ arrivals; start_at; done_at; jobs }, stream))
       ~method_id ~keys ~queries ~finish:no_extra)

let run_ops sc ~policy ~method_id ~keys ~queries ~ops ~stats =
  drive sc ~source:(Ops { ops; policy }) ~method_id ~keys ~queries
    ~finish:(fun segs -> stats segs ~lost_updates:0)
