open Simcore

(* One driver for every Method C run.  What varies is data: the work
   source (how queries reach the masters and when a response is timed)
   and the topology ([routers = 0]: masters send straight to the
   slaves; [routers > 0]: one master, a router tier re-batching per
   slave). *)

type serve = {
  arrivals : float array;
  start_at : float array;
  done_at : float array;
  series : Obs.Series.builder option;
}

type source =
  | Batch  (** Closed query stream, one contiguous chunk per master. *)
  | Serve of serve
      (** Open-loop arrivals dealt round robin over the masters. *)
  | Ops of Workload.Mutation.op array * Index.Segments.policy
      (** Interleaved update/query stream, one master. *)

let drive ?faults (sc : Workload.Scenario.t) ~source ~routers ~variant ~keys
    ~queries ~finish =
  let params = sc.Workload.Scenario.params in
  let net_profile = sc.Workload.Scenario.net in
  let n_nodes = sc.Workload.Scenario.n_nodes in
  let n_masters = if routers > 0 then 1 else sc.Workload.Scenario.n_masters in
  if n_masters < 1 then invalid_arg "Method_c: need at least one master";
  let n_slaves = n_nodes - n_masters - routers in
  if n_slaves < max 1 routers then
    invalid_arg "Method_c: need a slave, and one per router";
  let first_slave = n_masters + routers in
  let n = Array.length queries in
  let batch_keys = Workload.Scenario.queries_per_batch sc in
  let eng = Engine.create () in
  (* A fault plan only exists for a non-empty spec, so the fault-free run
     takes exactly the pre-fault-support code paths (bit-identical). *)
  let plan =
    match faults with
    | Some spec when not (Fault.Spec.is_none spec) ->
        Some (Fault.Plan.create spec ~seed:sc.Workload.Scenario.seed)
    | _ -> None
  in
  let net = Netsim.Network.create ?faults:plan eng net_profile ~nodes:n_nodes in
  let part = Partition.make ~keys ~parts:n_slaves in
  let word = params.Cachesim.Mem_params.word_bytes in
  let overhead = net_profile.Netsim.Profile.host_overhead_ns in
  let policy =
    match source with Ops (_, policy) -> Some policy | Batch | Serve _ -> None
  in
  (* --- Machines: masters, routers, slaves.  A lone master is named
     "master" under the router tier and the op stream, "master0"
     otherwise. *)
  let master_name i =
    if routers > 0 || policy <> None then "master"
    else Printf.sprintf "master%d" i
  in
  let masters =
    Array.init n_masters (fun i ->
        Machine.create eng ~name:(master_name i) params)
  in
  let router_ms =
    Array.init routers (fun r ->
        Machine.create eng ~name:(Printf.sprintf "router%d" r) params)
  in
  let slaves =
    Array.init n_slaves (fun s ->
        Machine.create eng ~name:(Printf.sprintf "slave%d" s) params)
  in
  let slave_idx =
    Array.init n_slaves (fun s ->
        Slave_node.build ?policy variant slaves.(s) (Partition.slice part s)
          ~batch_keys ~params)
  in
  (* --- Host-side oracle and bookkeeping.  The op stream's expected
     ranks are filled at staging time from per-slave dynamic oracles:
     one master and non-overtaking channels make staging order the
     slaves' processing order. *)
  let expected =
    match source with
    | Ops _ -> Array.make (max 1 n) (-1)
    | Batch | Serve _ -> Array.map (fun q -> Index.Ref_impl.rank keys q) queries
  in
  let oracles =
    match source with
    | Ops _ ->
        Array.init n_slaves (fun s ->
            Index.Ref_impl.Dyn.create (Partition.slice part s))
    | Batch | Serve _ -> [||]
  in
  let errors = ref 0 in
  let lat = Latency.create () in
  let prof = Obs.Profile.current () in
  (* Per-batch slave-side cost breakdowns, recorded by the slaves and
     joined with replies at the targets (tail-query inspector). *)
  let batch_profile =
    match prof with Some _ -> Some (Hashtbl.create 512) | None -> None
  in
  let read_at = Array.make (max 1 n) 0.0 in
  let next_batch_id = ref 0 in
  let in_flight : (int, Failover.pending) Hashtbl.t = Hashtbl.create 256 in
  let lost_updates = ref 0 in
  (* --- Failover state (degraded runs only).  The timeout default is
     several end-to-end batch times over every dispatch hop, so a
     healthy reply can never race it. *)
  let fo =
    match plan with
    | None -> None
    | Some p ->
        let hops = if routers > 0 then 2.0 else 1.0 in
        let timeout_default =
          8.0
          *. ((hops
              *. (net_profile.Netsim.Profile.latency_ns
                 +. Netsim.Profile.transfer_ns net_profile
                      sc.Workload.Scenario.batch_bytes))
             +. overhead)
        in
        Some (Failover.create p ~timeout_default ~nodes:n_nodes)
  in
  (* --- Per-master work: [count] items, item [j] being query
     [first + j * stride]. *)
  let chunks = Partition.split n ~parts:n_masters in
  let share mi =
    match source with
    | Batch -> (chunks.(mi), 1, chunks.(mi + 1) - chunks.(mi))
    | Serve _ -> (mi, n_masters, (n - mi + n_masters - 1) / n_masters)
    | Ops _ -> (0, 1, n)
  in
  (* Queries each master's target still awaits. *)
  let rem = Array.init n_masters (fun mi -> let _, _, c = share mi in c) in
  (* --- Staging: per-destination buffers on a dispatching machine,
     shipped as one [Data] batch the moment one fills.  Every batch is
     registered in flight before it is sent. *)
  let stager m ~src ~home ~width ~cap ~dst ~phase =
    let bufs =
      Array.init width (fun _ ->
          Machine.labelled_alloc m ~label:"mpi_staging" batch_keys)
    in
    let lens = Array.make width 0 in
    let qids = Array.init width (fun _ -> Array.make batch_keys 0) in
    let qlens = Array.make width 0 in
    let flush d =
      let len = lens.(d) in
      if len > 0 then begin
        Machine.sync m;
        Machine.set_phase m "batch_xfer";
        Machine.compute m overhead;
        Machine.sync m;
        let payload = Array.init len (fun j -> Machine.peek m (bufs.(d) + j)) in
        let id = !next_batch_id in
        incr next_batch_id;
        Hashtbl.add in_flight id
          (Failover.make_pending
             ~qids:(Array.sub qids.(d) 0 qlens.(d))
             ~payload ~dst:(dst d) ~home ~now:(Engine.now eng));
        Netsim.Network.isend net ~src ~dst:(dst d) ~tag:Proto.data_tag
          ~phase:"batch_xfer" ~size:(len * word)
          (Proto.Data (id, payload));
        Machine.set_phase m phase;
        lens.(d) <- 0;
        qlens.(d) <- 0
      end
    in
    (* [qid < 0] stages an update word, which carries no query. *)
    let stage d w qid =
      Machine.write m (bufs.(d) + lens.(d)) w;
      if qid >= 0 then begin
        qids.(d).(qlens.(d)) <- qid;
        qlens.(d) <- qlens.(d) + 1
      end;
      lens.(d) <- lens.(d) + 1;
      if lens.(d) = cap then flush d
    in
    let flush_all () =
      for d = 0 to width - 1 do
        flush d
      done
    in
    (stage, flush_all)
  in
  let labelled_index m ~label ks =
    let lo = Machine.words_allocated m in
    let idx = Index.Sorted_array.build m ks in
    Machine.label_region m ~label ~base:lo
      ~words:(Machine.words_allocated m - lo);
    idx
  in
  (* Router [r] owns the contiguous slave group [groups.(r), groups.(r+1)). *)
  let groups = Partition.split n_slaves ~parts:(max 1 routers) in
  let delimiters =
    if routers > 0 then
      Array.init (routers - 1) (fun r -> keys.(Partition.base part groups.(r + 1)))
    else Partition.delimiters part
  in
  (* Each master's (fallback, delimiter) tables.  The full-key fallback
     array resolves a dead destination's batches locally: degraded runs
     only, and never for the op stream, whose static snapshot cannot
     answer post-update queries.  The router-tier master lays out its
     delimiters first, a flat master its fallback first. *)
  let with_fallback = fo <> None && policy = None in
  let tables =
    Array.map
      (fun m ->
        let fallback () =
          if with_fallback then Some (labelled_index m ~label:"fallback" keys)
          else None
        in
        let delims () = labelled_index m ~label:"partition" delimiters in
        if routers > 0 then
          let d = delims () in
          (fallback (), d)
        else
          let fb = fallback () in
          (fb, delims ()))
      masters
  in
  (* --- Masters: route each item through the delimiter table into the
     staging buffers of the slaves (or router groups). *)
  let spawn_master mi =
    let m = masters.(mi) in
    let delims = snd tables.(mi) in
    let first, stride, count = share mi in
    let words =
      match source with
      | Ops (ops, _) ->
          Array.map
            (function
              | Workload.Mutation.Query qi ->
                  Proto.op_word Proto.op_query queries.(qi)
              | Workload.Mutation.Insert k -> Proto.op_word Proto.op_insert k
              | Workload.Mutation.Delete k -> Proto.op_word Proto.op_delete k)
            ops
      | Batch | Serve _ ->
          Array.init count (fun j -> queries.(first + (j * stride)))
    in
    let q_base =
      Machine.labelled_alloc m ~label:"queries" (max 1 (Array.length words))
    in
    Machine.poke_array m q_base words;
    (* Each destination's staging buffer holds batch/width keys and is
       shipped the moment it fills, so messages flow continuously and
       dispatch stays pipelined with slave lookups at every batch size —
       the paper's Figure 3 stays flat up to 4 MB batches with only ~20%
       slave idle time, which rules out any flush barrier. *)
    let width = if routers > 0 then routers else n_slaves in
    let stage, flush_all =
      stager m ~src:mi ~home:mi ~width
        ~cap:(max 1 (batch_keys / width))
        ~dst:(fun d -> n_masters + d)
        ~phase:"dispatch"
    in
    let route w qid = stage (Index.Sorted_array.search delims w) w qid in
    Machine.set_phase m "dispatch";
    Engine.spawn eng ~name:(Machine.name m) (fun () ->
        (match source with
        | Batch ->
            for j = 0 to count - 1 do
              let q = Machine.read m (q_base + j) in
              read_at.(first + j) <- Engine.now eng +. Machine.pending_ns m;
              route q (first + j);
              if j land 8191 = 8191 then begin
                Machine.sync m;
                Machine.sample_residency m
              end
            done
        | Serve sv ->
            for j = 0 to count - 1 do
              let qid = first + (j * stride) in
              let t = sv.arrivals.(qid) in
              Machine.sync m;
              if Engine.now eng < t then begin
                (* About to go idle: ship the partial buffers first so no
                   already-admitted query waits out the lull, then sleep
                   to the next admission. *)
                flush_all ();
                Machine.sync m;
                let now = Engine.now eng in
                if now < t then Engine.delay eng (t -. now)
              end;
              sv.start_at.(qid) <- Engine.now eng;
              route (Machine.read m (q_base + j)) qid;
              if j land 63 = 0 then Machine.sample_residency m
            done
        | Ops (ops, _) ->
            (* Updates route like queries but under phase
               "update_forward", advancing the owning slave's oracle. *)
            Array.iteri
              (fun i op ->
                let w = Machine.read m (q_base + i) in
                let k = Proto.op_key w in
                let forward apply =
                  Machine.set_phase m "update_forward";
                  let s = Index.Sorted_array.search delims k in
                  ignore (apply oracles.(s) k);
                  stage s w (-1);
                  Machine.set_phase m "dispatch"
                in
                (match op with
                | Workload.Mutation.Query qi ->
                    read_at.(qi) <- Engine.now eng +. Machine.pending_ns m;
                    let s = Index.Sorted_array.search delims k in
                    expected.(qi) <-
                      Partition.base part s
                      + Index.Ref_impl.Dyn.rank oracles.(s) k;
                    stage s w qi
                | Workload.Mutation.Insert _ -> forward Index.Ref_impl.Dyn.insert
                | Workload.Mutation.Delete _ -> forward Index.Ref_impl.Dyn.delete);
                if i land 8191 = 8191 then begin
                  Machine.sync m;
                  Machine.sample_residency m
                end)
              ops);
        flush_all ();
        Machine.sync m;
        Machine.sample_residency m;
        for d = 0 to width - 1 do
          Netsim.Network.isend net ~src:mi ~dst:(n_masters + d)
            ~tag:Proto.term_tag ~phase:"control" ~size:0 Proto.Term
        done;
        (* The op stream may end in update-only batches, so its target
           drains [in_flight] until this end-of-dispatch marker. *)
        if policy <> None then
          Netsim.Network.isend net ~src:mi ~dst:mi ~tag:Proto.term_tag
            ~phase:"control" ~size:0 Proto.Term)
  in
  for mi = 0 to n_masters - 1 do
    spawn_master mi
  done;
  (* --- Routers: re-batch incoming query batches per slave of the
     group, using the group's own delimiter slice. *)
  let spawn_router r =
    let m = router_ms.(r) in
    let g_lo = groups.(r) and g_hi = groups.(r + 1) in
    let width = g_hi - g_lo in
    let delims =
      labelled_index m ~label:"partition"
        (Array.init (width - 1) (fun i ->
             keys.(Partition.base part (g_lo + i + 1))))
    in
    let rx =
      [|
        Machine.labelled_alloc m ~label:"mpi_staging" batch_keys;
        Machine.labelled_alloc m ~label:"mpi_staging" batch_keys;
      |]
    in
    let node = 1 + r in
    let stage, flush_all =
      stager m ~src:node ~home:0 ~width
        ~cap:(max 1 (batch_keys / n_slaves))
        ~dst:(fun d -> first_slave + g_lo + d)
        ~phase:"route"
    in
    Machine.set_phase m "route";
    Engine.spawn eng ~name:(Machine.name m) (fun () ->
        let rx_sel = ref 0 in
        let serving = ref true in
        while !serving do
          let env = Netsim.Network.recv net ~dst:node in
          match env.Netsim.Network.payload with
          | Proto.Term ->
              flush_all ();
              Machine.sync m;
              for d = 0 to width - 1 do
                Netsim.Network.isend net ~src:node ~dst:(first_slave + g_lo + d)
                  ~tag:Proto.term_tag ~phase:"control" ~size:0 Proto.Term
              done;
              serving := false
          | Proto.Reply _ -> failwith "router received a reply"
          | Proto.Data (id, ks) -> (
              Machine.set_phase m "batch_xfer";
              Machine.compute m overhead;
              Machine.set_phase m "route";
              match Hashtbl.find_opt in_flight id with
              | None ->
                  (* Under faults a duplicate or an already-redispatched
                     batch can reach the router; consume and ignore it. *)
                  if plan = None then
                    failwith "router received an unknown batch"
              | Some p ->
                  Hashtbl.remove in_flight id;
                  let buf = rx.(!rx_sel) in
                  Machine.dma_write m buf ks;
                  for j = 0 to Array.length ks - 1 do
                    let q = Machine.read m (buf + j) in
                    stage (Index.Sorted_array.search delims q) q
                      p.Failover.qids.(j)
                  done;
                  Machine.sync m;
                  rx_sel := 1 - !rx_sel)
        done)
  in
  for r = 0 to routers - 1 do
    spawn_router r
  done;
  (* --- Slaves: answer batches from any upstream node in arrival order;
     reply to the sender, or under the router tier to the master's
     target. *)
  for s = 0 to n_slaves - 1 do
    Slave_node.spawn eng net slaves.(s) ~node:(first_slave + s)
      ~terms_expected:n_masters ~batch_keys ~index:slave_idx.(s)
      ~reply_dst:(if routers > 0 then fun ~src:_ -> 0 else fun ~src -> src)
      ~overhead_ns:overhead ?batch_profile ?faults:plan ()
  done;
  (* --- Delivery: a batch query times its response from the master's
     read, a served query from its admission.  [reply] is the id of the
     slave batch that answered, [None] for the master's fallback. *)
  let deliver qid ~batch ~reply =
    let now = Engine.now eng in
    let t0 =
      match source with
      | Serve sv ->
          sv.done_at.(qid) <- now;
          sv.arrivals.(qid)
      | Batch | Ops _ -> read_at.(qid)
    in
    let resp = now -. t0 in
    Latency.add lat resp;
    match prof with
    | Some p when Obs.Tail.qualifies (Obs.Profile.tail p) resp ->
        let breakdown =
          match source with
          | Serve sv ->
              let started = sv.start_at.(qid) in
              [ ("queue", started -. t0); ("service", now -. started) ]
          | Batch | Ops _ -> (
              match reply with
              | None -> [ ("redispatch", resp) ]
              | Some id ->
                  let bd =
                    match batch_profile with
                    | Some tbl ->
                        Option.value ~default:[] (Hashtbl.find_opt tbl id)
                    | None -> []
                  in
                  let slave_ns =
                    List.fold_left (fun acc (_, x) -> acc +. x) 0.0 bd
                  in
                  ("queue_and_net", resp -. slave_ns) :: bd)
        in
        Obs.Tail.note (Obs.Profile.tail p) ~id:qid ~ns:resp ~batch ~breakdown
    | Some _ | None -> ()
  in
  (* Replies carry partition-local ranks; the target adds the slave's
     base rank. *)
  let record_reply ~s ~id ~qids ~ranks =
    if Array.length qids <> Array.length ranks then incr errors
    else begin
      let reply = Some id in
      Array.iteri
        (fun j rank ->
          if Partition.base part s + rank <> expected.(qids.(j)) then
            incr errors;
          deliver qids.(j) ~batch:(Array.length ranks) ~reply)
        ranks
    end
  in
  (* Router tier only: which queries are answered or lost, for the
     stranded-query sweep below. *)
  let resolved = if routers > 0 then Array.make (max 1 n) false else [||] in
  let settle ~home qids =
    if routers > 0 then Array.iter (fun qid -> resolved.(qid) <- true) qids;
    rem.(home) <- rem.(home) - Array.length qids
  in
  let series =
    match source with Serve sv -> sv.series | Batch | Ops _ -> None
  in
  let note f = match series with Some b -> f b | None -> () in
  (* Resolve queries at their home master's full-key index, charged
     under phase [redispatch]. *)
  let fallback_resolve fo ~home qids payload =
    let m = masters.(home) in
    let fb = Option.get (fst tables.(home)) in
    let len = Array.length qids in
    Machine.set_phase m "redispatch";
    Array.iteri
      (fun j q ->
        let rank = Index.Sorted_array.search fb q in
        if rank <> expected.(qids.(j)) then incr errors)
      payload;
    Machine.sync m;
    Machine.set_phase m "dispatch";
    Failover.note_fallback fo len;
    note (fun b -> Obs.Series.note_fallback b ~at:(Engine.now eng) ~n:len ());
    Array.iter (fun qid -> deliver qid ~batch:len ~reply:None) qids
  in
  (* Re-send a stale batch from its home master.  Serving notes the
     retry on its timeline; the other sources charge the host overhead
     to the profile's [retry] phase. *)
  let resend id (p : Failover.pending) =
    (match (source, prof) with
    | Serve _, _ -> note (fun b -> Obs.Series.note_retry b ~at:(Engine.now eng) ())
    | (Batch | Ops _), Some pr ->
        Obs.Profile.charge pr ~path:[ "retry"; "host_overhead" ] overhead
    | (Batch | Ops _), None -> ());
    Netsim.Network.isend net ~src:p.Failover.home ~dst:p.Failover.dst
      ~tag:Proto.data_tag ~phase:"retry"
      ~size:(Array.length p.Failover.payload * word)
      (Proto.Data (id, p.Failover.payload))
  in
  (* The destination is dead: answer the batch from the home master's
     full-key index, or account it lost (its queries to [degraded], its
     update words to [lost_updates]). *)
  let redispatch fo _id (p : Failover.pending) =
    let len = Array.length p.Failover.qids in
    note (fun b ->
        let now = Engine.now eng in
        Obs.Series.note_redispatch b ~at:now ();
        Obs.Series.note_event b ~at:now
          ~label:(Printf.sprintf "redispatch:node=%d" p.Failover.dst));
    if with_fallback && Fault.Plan.fallback (Failover.plan fo) then
      fallback_resolve fo ~home:p.Failover.home p.Failover.qids
        p.Failover.payload
    else begin
      Failover.note_lost fo ~queries:len;
      note (fun b ->
          let now = Engine.now eng in
          for _ = 1 to len do
            Obs.Series.note_lost b ~at:now
          done);
      lost_updates :=
        !lost_updates + Array.length p.Failover.payload - len
    end;
    settle ~home:p.Failover.home p.Failover.qids
  in
  (* Stranded queries (router tier): a router died between consuming a
     master batch and cutting its sub-batches, so no in-flight entry
     covers them and nothing can arrive.  Resolve whatever is left. *)
  let strand fo =
    let qids =
      Array.of_list
        (List.filter (fun i -> not resolved.(i)) (List.init n (fun i -> i)))
    in
    let payload = Array.map (fun i -> queries.(i)) qids in
    if Fault.Plan.fallback (Failover.plan fo) then
      fallback_resolve fo ~home:0 qids payload
    else Failover.note_lost fo ~queries:(Array.length qids);
    settle ~home:0 qids
  in
  (* --- One target per master node, collecting that master's replies
     off the critical path (no CPU charged: validation is oracle
     bookkeeping).  A target is done when its queries are resolved; the
     op stream's when dispatch has ended and nothing is in flight. *)
  let dispatch_done = ref false in
  let finished mi =
    match source with
    | Ops _ -> !dispatch_done && Hashtbl.length in_flight = 0
    | Batch | Serve _ -> rem.(mi) <= 0
  in
  for mi = 0 to n_masters - 1 do
    Engine.spawn eng ~name:(Printf.sprintf "target%d" mi) (fun () ->
        let idle = ref 0 in
        while not (finished mi) do
          let received =
            match fo with
            | None -> Some (Netsim.Network.recv net ~dst:mi)
            | Some fo ->
                Netsim.Network.recv_timeout net ~dst:mi
                  ~timeout_ns:(Failover.timeout_ns fo)
          in
          (match received with
          | Some env -> (
              idle := 0;
              match env.Netsim.Network.payload with
              | Proto.Term -> dispatch_done := true
              | Proto.Reply (id, ranks) -> (
                  match Hashtbl.find_opt in_flight id with
                  | None ->
                      (* Late or duplicate reply for a batch already
                         resolved: benign under faults. *)
                      if fo = None then incr errors
                  | Some p ->
                      Hashtbl.remove in_flight id;
                      record_reply
                        ~s:(env.Netsim.Network.src - first_slave)
                        ~id ~qids:p.Failover.qids ~ranks;
                      settle ~home:p.Failover.home p.Failover.qids)
              | Proto.Data _ -> failwith "target received a data batch")
          | None -> if Hashtbl.length in_flight = 0 then incr idle);
          match fo with
          | None -> ()
          | Some fo ->
              Failover.sweep fo ~now:(Engine.now eng) ~in_flight ~resend
                ~redispatch:(redispatch fo);
              (* Two full silent timeouts with an empty table. *)
              if routers > 0 && !idle >= 2 && rem.(0) > 0 then strand fo
        done;
        match fo with
        | Some fo -> Failover.note_finish fo ~now:(Engine.now eng)
        | None -> ())
  done;
  Engine.run eng;
  (* Degraded runs leave stale recv_timeout timer events that keep the
     engine clock ticking after the last target finished; use the
     recorded completion time instead. *)
  let raw =
    match fo with
    | None -> Engine.now eng
    | Some f ->
        let fa = Failover.finish_at f in
        if fa > 0.0 then fa else Engine.now eng
  in
  if Hashtbl.length in_flight <> 0 then incr errors;
  let idle_sum = ref 0.0 in
  Array.iter
    (fun m -> idle_sum := !idle_sum +. (1.0 -. (Machine.busy_ns m /. raw)))
    slaves;
  let master_busy =
    Array.fold_left (fun acc m -> acc +. (Machine.busy_ns m /. raw)) 0.0 masters
    /. float_of_int n_masters
  in
  let sum_stats ms =
    Array.fold_left
      (fun acc m ->
        Cachesim.Hierarchy.add_stats acc
          (Cachesim.Hierarchy.stats (Machine.hierarchy m)))
      Cachesim.Hierarchy.zero_stats ms
  in
  let degraded =
    match fo with
    | None -> Run_result.no_degradation
    | Some f -> Failover.degraded f
  in
  let extra, counters = finish slave_idx ~lost_updates:!lost_updates in
  ( {
      Run_result.method_id = variant;
      scenario =
        (if routers > 0 then sc.Workload.Scenario.name ^ "+hier"
         else sc.Workload.Scenario.name);
      n_queries = n;
      n_nodes;
      batch_bytes = sc.Workload.Scenario.batch_bytes;
      total_ns = raw;
      raw_ns = raw;
      per_key_ns = raw /. float_of_int (max 1 n);
      slave_idle = !idle_sum /. float_of_int n_slaves;
      master_busy;
      messages = Netsim.Network.messages_sent net;
      bytes_sent = Netsim.Network.bytes_sent net;
      validation_errors = !errors;
      cache =
        Cachesim.Hierarchy.add_stats (sum_stats masters)
          (Cachesim.Hierarchy.add_stats (sum_stats router_ms)
             (sum_stats slaves));
      overflow_flushes =
        Array.fold_left
          (fun acc i -> acc + Slave_node.overflow_flushes i)
          0 slave_idx;
      mean_response_ns = Latency.mean lat;
      p95_response_ns = Latency.percentile lat 0.95;
      metrics =
        Telemetry.snapshot ~eng ~net
          ~machines:(Array.concat [ masters; router_ms; slaves ])
          ~latency:lat ~validation_errors:!errors ~counters
          ?degraded:(match fo with None -> None | Some _ -> Some degraded)
          ();
      trace = None;
      profile = None;
      degraded;
      serving = None;
      timeline = None;
      scope = None;
    },
    extra )

let no_extra _ ~lost_updates:_ = ((), [])

let run ?faults ?routers sc ~variant ~keys ~queries =
  let routers =
    match routers with
    | None -> 0
    | Some r when r >= 1 -> r
    | Some _ -> invalid_arg "Method_c.run: need at least one router"
  in
  fst
    (drive ?faults sc ~source:Batch ~routers ~variant ~keys ~queries
       ~finish:no_extra)

let serve ?faults ?series sc ~variant ~keys ~queries ~arrivals ~start_at
    ~done_at =
  fst
    (drive ?faults sc
       ~source:(Serve { arrivals; start_at; done_at; series })
       ~routers:0 ~variant ~keys ~queries ~finish:no_extra)

let check_op_faults (spec : Fault.Spec.t) =
  if spec.Fault.Spec.drop_p > 0.0 || spec.Fault.Spec.dup_p > 0.0
     || spec.Fault.Spec.delay_p > 0.0
  then
    invalid_arg
      "Dynamic: drop/dup/delay faults are unsupported (update streams \
       require in-order, exactly-once delivery)";
  if spec.Fault.Spec.slow <> [] then
    invalid_arg
      "Dynamic: slow-node faults are unsupported (a slow slave can outlive \
       the retry timeout and replay update batches)"

let run_ops ?faults (sc : Workload.Scenario.t) ~policy ~variant ~keys ~queries
    ~ops ~stats =
  if sc.Workload.Scenario.n_masters <> 1 then
    invalid_arg
      "Dynamic: method C requires a single master (per-slave update order \
       is defined by one staging stream)";
  Option.iter check_op_faults faults;
  drive ?faults sc ~source:(Ops (ops, policy)) ~routers:0 ~variant ~keys
    ~queries ~finish:(fun idx ~lost_updates ->
      stats
        (List.filter_map Slave_node.segments (Array.to_list idx))
        ~lost_updates)
