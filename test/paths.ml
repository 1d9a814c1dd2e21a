(* Exact fingerprints of the driver paths no other golden pins.  For
   Method C: the router tier, several masters, multi-master serving and
   the dynamic op stream under a crash.  For methods A and B: batch
   response times and overflow flushes, the tail entries of profiled
   batch runs, the op stream, dynamic serving over two worker domains,
   and B's greedy multi-query serving batches.  Every float prints in
   hex ([%h]), so any drift in simulated cost, response time or
   accounting shows as a diff against paths.golden.txt.  Run with
     dune build @runtest
   and promote an intentional change with `dune promote`. *)

open Dispatch

let parse_faults s =
  match Fault.Spec.parse s with Ok f -> f | Error e -> failwith e

let fingerprint label (r : Run_result.t) extra =
  let d = r.Run_result.degraded in
  Printf.printf
    "%s: per_key=%h raw=%h mean=%h p95=%h msgs=%d bytes=%d errors=%d \
     retries=%d redispatches=%d lost_batches=%d lost_queries=%d \
     fallback=%d dead=[%s] dropped=%d duplicated=%d delayed=%d \
     blackholed=%d%s\n"
    label r.Run_result.per_key_ns r.Run_result.raw_ns
    r.Run_result.mean_response_ns r.Run_result.p95_response_ns
    r.Run_result.messages r.Run_result.bytes_sent
    r.Run_result.validation_errors d.Run_result.retries
    d.Run_result.redispatches d.Run_result.lost_batches
    d.Run_result.lost_queries d.Run_result.fallback_lookups
    (String.concat ";" (List.map string_of_int d.Run_result.dead_nodes))
    d.Run_result.msgs_dropped d.Run_result.msgs_duplicated
    d.Run_result.msgs_delayed d.Run_result.msgs_blackholed extra

let sc = Workload.Scenario.ci
let keys, queries = Runner.workload sc
let n_slaves = sc.Workload.Scenario.n_nodes - 1

(* The router tier over the ci slave pool, as `ablation hierarchy`
   builds it. *)
let hier ?faults routers =
  Method_c.run ?faults ~routers
    (Workload.Scenario.with_nodes (1 + routers + n_slaves) sc)
    ~variant:Methods.C3 ~keys ~queries

let hier_runs =
  [
    ("hier C-3 routers=2", fun () -> hier 2);
    ("hier C-3 routers=3", fun () -> hier 3);
    ("hier C-3 routers=2 crash slave",
      fun () -> hier ~faults:(parse_faults "crash:node=5,at=5e4") 2);
    ("hier C-3 routers=2 crash router",
      fun () -> hier ~faults:(parse_faults "crash:node=1,at=5e4") 2);
    ("hier C-3 routers=2 crash router, no fallback",
      fun () ->
        hier
          ~faults:(parse_faults "crash:node=1,at=5e4+failover:fallback=none")
          2);
    ("hier C-3 routers=2 drop",
      fun () -> hier ~faults:(parse_faults "drop:p=0.02") 2);
  ]

(* Three replicated masters over the same slave pool, as `ablation
   masters` builds it. *)
let masters ?faults k =
  Runner.run ?faults
    (sc
    |> Workload.Scenario.with_masters k
    |> Workload.Scenario.with_nodes (n_slaves + k))
    ~method_id:Methods.C3 ~keys ~queries

let batch_runs =
  [
    ("batch C-3 masters=3", fun () -> masters 3);
    ("batch C-3 masters=3 crash",
      fun () -> masters ~faults:(parse_faults "crash:node=4,at=5e4") 3);
  ]

let serve ?faults k =
  let sc = Workload.Scenario.with_masters k sc in
  let arrival = Workload.Arrival.poisson 2e5 in
  let keys, queries, arrivals, _ = Serve.workload sc ~arrival in
  let rep =
    Serve.run_method ?faults sc ~arrival ~slo_ns:1e6 ~method_id:Methods.C3
      ~keys ~queries ~arrivals
  in
  let s = rep.Serve.serving in
  ( rep.Serve.run,
    Printf.sprintf " completed=%d serve_mean=%h serve_p95=%h queue=%h"
      s.Run_result.completed s.Run_result.mean_ns s.Run_result.p95_ns
      s.Run_result.mean_queue_ns )

let serve_runs =
  [
    ("serve C-3 masters=2 poisson:2e5", fun () -> serve 2);
    ("serve C-3 masters=2 poisson:2e5 crash",
      fun () -> serve ~faults:(parse_faults "crash:node=3,at=1e6") 2);
  ]

let updates =
  match Workload.Mutation.parse "0.2" with Ok u -> u | Error e -> failwith e

let dynamic ?faults variant =
  let r, st = Dynamic.run ?faults sc ~updates ~method_id:variant in
  ( r,
    Printf.sprintf " lost_updates=%d applied=%d noops=%d seals=%d merges=%d"
      st.Dynamic.lost_updates st.Dynamic.applied st.Dynamic.noops
      st.Dynamic.seals st.Dynamic.merges )

let dynamic_runs =
  [
    ("dynamic C-3 u=0.2 crash",
      fun () -> dynamic ~faults:(parse_faults "crash:node=3,at=5e4") Methods.C3);
    ("dynamic C-2 u=0.2", fun () -> dynamic Methods.C2);
  ]

(* --- Methods A and B. *)

let replicated method_id =
  let r = Runner.run sc ~method_id ~keys ~queries in
  (r, Printf.sprintf " overflow_flushes=%d" r.Run_result.overflow_flushes)

(* The kept tail of a profiled run: id, response, batch size and the
   breakdown in component order. *)
let profiled method_id =
  let p = Obs.Profile.create () in
  let r =
    Obs.Profile.with_recording p (fun () ->
        Runner.run sc ~method_id ~keys ~queries)
  in
  let entry (e : Obs.Tail.entry) =
    Printf.sprintf " [id=%d ns=%h batch=%d%s]" e.Obs.Tail.id e.Obs.Tail.ns
      e.Obs.Tail.batch
      (String.concat ""
         (List.map
            (fun (k, v) -> Printf.sprintf " %s=%h" k v)
            (List.sort compare e.Obs.Tail.breakdown)))
  in
  ( r,
    " tail:"
    ^ String.concat "" (List.map entry (Obs.Tail.worst (Obs.Profile.tail p))) )

let serve_line (rep : Serve.report) =
  let s = rep.Serve.serving in
  ( rep.Serve.run,
    Printf.sprintf
      " completed=%d serve_mean=%h serve_p95=%h queue=%h overflow_flushes=%d"
      s.Run_result.completed s.Run_result.mean_ns s.Run_result.p95_ns
      s.Run_result.mean_queue_ns rep.Serve.run.Run_result.overflow_flushes )

(* Dynamic serving: every node replays the update stream, over two
   worker domains. *)
let dynamic_serve_a () =
  let arrival = Workload.Arrival.poisson 2e5 in
  let keys, queries, arrivals, ops = Serve.workload ~updates sc ~arrival in
  serve_line
    (Serve.run_method ~jobs:2 ~updates ~ops sc ~arrival ~slo_ns:1e6
       ~method_id:Methods.A ~keys ~queries ~arrivals)

(* Past B's per-node service rate, so arrivals queue and the greedy
   batcher drains several queries per pass. *)
let serve_b_loaded () =
  let sc = Workload.Scenario.with_duration 2e6 sc in
  let arrival = Workload.Arrival.poisson 2e7 in
  let keys, queries, arrivals, _ = Serve.workload sc ~arrival in
  serve_line
    (Serve.run_method sc ~arrival ~slo_ns:1e6 ~method_id:Methods.B ~keys
       ~queries ~arrivals)

let replicated_runs =
  [
    ("batch A", fun () -> replicated Methods.A);
    ("batch B", fun () -> replicated Methods.B);
    ("batch A profiled", fun () -> profiled Methods.A);
    ("batch B profiled", fun () -> profiled Methods.B);
    ("dynamic A u=0.2", fun () -> dynamic Methods.A);
    ("dynamic B u=0.2", fun () -> dynamic Methods.B);
    ("serve A u=0.2 poisson:2e5 jobs=2", dynamic_serve_a);
    ("serve B poisson:2e7 duration=2e6", serve_b_loaded);
  ]

let () =
  List.iter
    (fun (label, run) -> fingerprint label (run ()) "")
    (hier_runs @ batch_runs);
  List.iter
    (fun (label, run) ->
      let r, extra = run () in
      fingerprint label r extra)
    (serve_runs @ dynamic_runs @ replicated_runs)
