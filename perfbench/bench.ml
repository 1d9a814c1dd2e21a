(* Paper-geometry benchmark: host throughput and simulated cost of the
   paper's three methods (A, B, C-3) at its geometry (327,680 keys,
   11 nodes, Pentium III + Myrinet), under one of three workloads.

   Two kinds of end-to-end number come out.  Host numbers say how fast
   the simulator produces results; they are wall-clock and noisy, so a
   driver's time is its best of repeated rounds, scaled by a reference
   kernel timed in the same run.  Simulated numbers are the
   paper's claim; they are deterministic for a seed, and the benchmark
   fails if they differ between rounds or between the untraced and the
   traced run, so a host-speed change that perturbs the simulation
   shows as a failure rather than as noise.

   Every layer is measured from outside: spans around this file's own
   calls into each library's public functions, the per-run counters a
   [Run_result.t] already carries, and calibration cells that time one
   layer operation in isolation.  Nothing inside the libraries is
   instrumented for the benchmark.

   Run through perfbench/run.py, which builds this executable; the last
   line of standard output is the JSON result object. *)

open Dispatch

let methods = [ Methods.A; Methods.B; Methods.C3 ]

(* A second seed, never used while the benchmark or a change is tuned,
   on which any later performance claim must also hold. *)
let held_out_seed = 7727

(* Table 3 of the paper: measured seconds for 2^23 keys on the real
   cluster (quoted in EXPERIMENTS.md).  The cost model is parameterised
   from Table 2 only, so Table 3 is held back from tuning and the error
   against it is an accuracy reading, not a fitted residual. *)
let paper_table3_s = [ (Methods.A, 0.39); (Methods.B, 0.36); (Methods.C3, 0.32) ]

let now = Unix.gettimeofday

(* Serving runs fan the per-node epochs of Methods A and B over this many
   worker domains, never more than the host has. *)
let nproc = Domain.recommended_domain_count ()
let jobs = min 2 nproc

(* ------------------------------------------------------------------ *)
(* Command line *)

let workload_name = ref ""
let seed = ref 2005
let seconds = ref 10.0
let trace = ref 0
let rev = ref "unknown"

(* Where the traced run writes its span file, relative to the checkout. *)
let out_dir = ".perfbench-out"

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload_name,
        "NAME paper-batch | paper-serve | paper-dynamic" );
      ("--seed", Arg.Set_int seed, "N workload seed (default 2005)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ( "--trace",
        Arg.Set_int trace,
        "0|1 untraced end-to-end run, or traced per-layer run" );
      ("--rev", Arg.Set_string rev, "REV source revision, for provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]"

(* ------------------------------------------------------------------ *)
(* Spans: recorded only in the traced run, kept in memory, written at
   the end.  Each span names its parent and the cell (workload, method,
   round or calibration) it belongs to. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span. *)
  cell : string;
  name : string;
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let spans = ref []
let open_spans = ref []
let next_span = ref 0

let with_span ~cell name f =
  if not !tracing then f ()
  else begin
    incr next_span;
    let s =
      {
        id = !next_span;
        parent = (match !open_spans with p :: _ -> p | [] -> 0);
        cell;
        name;
        t0 = now ();
        t1 = nan;
      }
    in
    spans := s :: !spans;
    open_spans := s.id :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        open_spans := List.tl !open_spans)
  end

let span_to_json t_origin s =
  let us t = Obs.Json.Float ((t -. t_origin) *. 1e6) in
  Obs.Json.Obj
    [
      ("name", Obs.Json.String s.name);
      ("ph", Obs.Json.String "X");
      ("pid", Obs.Json.Int 1);
      ("tid", Obs.Json.Int 1);
      ("ts", us s.t0);
      ("dur", Obs.Json.Float ((s.t1 -. s.t0) *. 1e6));
      ( "args",
        Obs.Json.Obj
          [
            ("id", Obs.Json.Int s.id);
            ("parent", Obs.Json.Int s.parent);
            ("cell", Obs.Json.String s.cell);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Inter-quartile range over the median, with quartiles computed as
   Python's [statistics.quantiles(xs, n=4)] does (exclusive method). *)
let spread xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 3 -. q 1) /. median xs

let sum = List.fold_left ( +. ) 0.0
let sum_by f xs = sum (List.map f xs)
let max_of = List.fold_left max neg_infinity

(* ------------------------------------------------------------------ *)
(* Reference kernel

   Slow-downs on a shared host last minutes, longer than a run, so the
   best of several rounds cannot hide them.  Each run therefore also
   times a fixed computation that uses none of the repository's code,
   and the host end-to-end metrics are scaled by its best time in the
   run.  The kernel has two halves, because the host's slow phases hit
   memory-bound and branch-bound code by different amounts and the
   simulator is both: a sort plus independent random reads over 32 MB,
   and binary searches plus an LRU set-associative cache model over
   tables that fit in the core's own cache.  All its tables are held off
   the OCaml heap.  [ref_nominal_s] is its best time on the 2-vCPU host
   where the benchmark was defined, so the scaled figures read as host
   seconds there.  A change to the simulator moves the scaled figures as
   it moves the raw ones; a slower or busier host moves both the raw
   figures and the kernel, and cancels. *)

let ref_nominal_s = 0.13
let ref_words = 1 lsl 22

let ref_unsorted =
  let st = Random.State.make [| 5 |] in
  Array.init (1 lsl 18) (fun _ -> Random.State.bits st)

let int_table n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let ref_table =
  lazy
    (let t = int_table ref_words in
     Bigarray.Array1.fill t 1;
     t)

let ref_sorted =
  lazy
    (let t = int_table (1 lsl 18) in
     for k = 0 to (1 lsl 18) - 1 do
       Bigarray.Array1.unsafe_set t k (3 * k)
     done;
     t)

let ref_sets = 2048
let ref_ways = 8
let ref_tags = lazy (int_table (ref_sets * ref_ways))
let ref_stamps = lazy (int_table (ref_sets * ref_ways))

let reference_kernel () =
  let open Bigarray.Array1 in
  let table = Lazy.force ref_table
  and sorted = Lazy.force ref_sorted
  and tags = Lazy.force ref_tags
  and stamps = Lazy.force ref_stamps in
  let t0 = now () in
  let a = Array.copy ref_unsorted in
  Array.sort compare a;
  let x = ref 1 and acc = ref 0 in
  let step () = x := ((!x * 1103515245) + 12345) land 0x3fffffff in
  for _ = 1 to 1 lsl 20 do
    step ();
    acc := !acc + unsafe_get table (!x land (ref_words - 1))
  done;
  for _ = 1 to 1 lsl 17 do
    step ();
    let q = !x mod (3 lsl 18) in
    let lo = ref 0 and hi = ref (dim sorted) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if unsafe_get sorted mid <= q then lo := mid + 1 else hi := mid
    done;
    acc := !acc + !lo
  done;
  fill tags (-1);
  fill stamps 0;
  let addr = ref 0 in
  for clock = 1 to 1 lsl 19 do
    step ();
    (* A quarter of the accesses jump, the rest walk the next line. *)
    addr := (if !x land 3 = 0 then !x else !addr + 32) land ((1 lsl 26) - 1);
    let line = !addr lsr 5 in
    let base = (line land (ref_sets - 1)) * ref_ways in
    let hit = ref (-1) and victim = ref base in
    for w = base to base + ref_ways - 1 do
      if unsafe_get tags w = line then hit := w
      else if unsafe_get stamps w < unsafe_get stamps !victim then victim := w
    done;
    if !hit >= 0 then unsafe_set stamps !hit clock
    else begin
      incr acc;
      unsafe_set tags !victim line;
      unsafe_set stamps !victim clock
    end
  done;
  ignore (Sys.opaque_identity (!acc, a));
  now () -. t0

let ref_best = ref infinity

let sample_reference () =
  for _ = 1 to 2 do
    ref_best := min !ref_best (reference_kernel ())
  done

(* ------------------------------------------------------------------ *)
(* Workloads *)

type kind = Batch | Serve | Dynamic

let kind_of = function
  | "paper-batch" -> Some Batch
  | "paper-serve" -> Some Serve
  | "paper-dynamic" -> Some Dynamic
  | _ -> None

(* Serving: Poisson arrivals at 2e5 offered qps, below the knee (4e5
   gives ~71% SLO violations for C-3 at the paper geometry), over half a
   simulated second (~1e5 arrivals) against a 1 ms budget. *)
let serve_qps = 2e5
let serve_arrival = Workload.Arrival.poisson serve_qps
let serve_slo_ns = 1e6

(* Dynamic: 0.1 updates per query under the default [mix] policy.  A's
   host cost grows faster than its volume, so the volume is fixed.  B
   answers a batch against the segment state at its drain, so with one
   128 KB batch over the whole stream its cost is one sample of the merge
   cascade and swings ~10% from seed to seed; 8 KB batches drain 16 times
   over the evolving state. *)
let updates = { Workload.Mutation.none with Workload.Mutation.ratio = 0.1 }

let scenario kind =
  let open Workload.Scenario in
  let base = with_seed !seed paper in
  match kind with
  | Batch -> with_queries (1 lsl 18) base
  | Serve -> base |> with_duration 5e8 |> with_offered_load serve_qps
  | Dynamic -> with_batch (with_queries (1 lsl 15) base) (8 * 1024)

type inputs = {
  kind : kind;
  sc : Workload.Scenario.t;
  keys : int array;
  queries : int array;
  arrivals : float array;
  ops : Workload.Mutation.op array;
}

let generate kind sc =
  match kind with
  | Batch ->
      let keys, queries = Runner.workload sc in
      { kind; sc; keys; queries; arrivals = [||]; ops = [||] }
  | Serve ->
      let keys, queries, arrivals, _ = Serve.workload sc ~arrival:serve_arrival in
      { kind; sc; keys; queries; arrivals; ops = [||] }
  | Dynamic ->
      let keys, queries, ops = Dynamic.workload sc ~updates in
      { kind; sc; keys; queries; arrivals = [||]; ops }

let items i =
  Array.length i.keys + Array.length i.queries + Array.length i.arrivals
  + Array.length i.ops

(* ------------------------------------------------------------------ *)
(* One driver call *)

type outcome = {
  m : Methods.id;
  r : Run_result.t;
  dyn : Dynamic.stats option;
  wall_s : float;
  ops : int;  (** Simulated queries plus updates retired. *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  profile : Obs.Profile.t option;
}

let call_driver i m =
  match i.kind with
  | Batch -> (Runner.run i.sc ~method_id:m ~keys:i.keys ~queries:i.queries, None)
  | Serve ->
      let rep =
        Serve.run_method ~jobs i.sc ~arrival:serve_arrival
          ~slo_ns:serve_slo_ns ~method_id:m ~keys:i.keys ~queries:i.queries
          ~arrivals:i.arrivals
      in
      (rep.Serve.run, None)
  | Dynamic ->
      let r, s = Dynamic.run i.sc ~updates ~method_id:m in
      (r, Some s)

(* With [profiled], the call runs under an ambient [Obs.Profile]
   (phase cost attribution); the serving drivers then run their node
   epochs sequentially, which changes host time but must not change any
   simulated number. *)
let run_one ~profiled i m =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let (r, dyn), profile =
    if not profiled then (call_driver i m, None)
    else begin
      let p = Obs.Profile.create () in
      let ((r, _) as res) =
        Obs.Profile.with_recording p (fun () -> call_driver i m)
      in
      Obs.Profile.finalize p ~total_ns:r.Run_result.raw_ns;
      if not (Obs.Profile.conserved p) then
        failwith ("profile not conserved for " ^ Methods.to_string m);
      (res, Some p)
    end
  in
  let wall_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let ops =
    match dyn with
    | Some s -> r.Run_result.n_queries + s.Dynamic.updates
    | None -> r.Run_result.n_queries
  in
  {
    m;
    r;
    dyn;
    wall_s;
    ops;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    profile;
  }

(* ------------------------------------------------------------------ *)
(* Reading a run *)

let series name (r : Run_result.t) =
  List.filter_map
    (fun (e : Obs.Metrics.Snapshot.entry) ->
      if e.name <> name then None
      else
        match e.value with
        | Obs.Metrics.Snapshot.Counter v | Obs.Metrics.Snapshot.Gauge v -> Some v
        | Obs.Metrics.Snapshot.Histogram _ -> None)
    r.Run_result.metrics

let total name r = sum (series name r)
let peak name r = max_of (0.0 :: series name r)

let serving (o : outcome) =
  match o.r.Run_result.serving with
  | Some s -> s
  | None -> failwith "serving run without a serving rollup"

(* Simulated cost per key.  Batch and dynamic runs: the driver's
   cluster-normalised makespan per query ([Run_result.per_key_ns]), caches
   cold at the start of every run.  Serving runs: the offered rate fixes
   the makespan, so the cost is the busiest node's simulated busy time per
   answered query — the inverse of the capacity the run leaves, in the
   same units as the batch figure. *)
let sim_ns_per_key kind o =
  match kind with
  | Batch | Dynamic -> o.r.Run_result.per_key_ns
  | Serve ->
      peak "node_busy_ns" o.r /. float_of_int (serving o).Run_result.completed

let failed kind o =
  let r = o.r in
  r.Run_result.validation_errors + r.Run_result.degraded.Run_result.lost_queries
  + (match kind with
    | Serve ->
        let s = serving o in
        s.Run_result.arrived - s.Run_result.completed
    | Batch | Dynamic -> 0)
  + match o.dyn with Some s -> s.Dynamic.lost_updates | None -> 0

(* Every simulated number of a run that must repeat exactly. *)
let signature kind o =
  let r = o.r in
  let c = r.Run_result.cache in
  [
    sim_ns_per_key kind o;
    r.Run_result.raw_ns;
    r.Run_result.mean_response_ns;
    r.Run_result.p95_response_ns;
    float_of_int r.Run_result.messages;
    float_of_int r.Run_result.bytes_sent;
    float_of_int r.Run_result.validation_errors;
    float_of_int c.Cachesim.Hierarchy.accesses;
    c.Cachesim.Hierarchy.cost_ns;
  ]
  @ (match r.Run_result.serving with
    | Some s ->
        Run_result.
          [
            s.p50_ns;
            s.p99_ns;
            s.warm_p50_ns;
            s.warm_p99_ns;
            float_of_int s.completed;
            float_of_int s.violations;
          ]
    | None -> [])
  @
  match o.dyn with
  | Some s ->
      Dynamic.
        [ float_of_int s.applied; float_of_int s.seals; float_of_int s.merges ]
  | None -> []

(* ------------------------------------------------------------------ *)
(* Rounds: one driver call per method *)

let run_round ~profiled ~label i =
  List.map
    (fun m ->
      let name = Methods.to_string m in
      with_span ~cell:(label ^ "/" ^ name) ("core." ^ name) (fun () ->
          run_one ~profiled i m))
    methods

let round_wall outs = sum_by (fun o -> o.wall_s) outs
let round_ops outs = List.fold_left (fun a o -> a + o.ops) 0 outs

let outcome_of m outs = List.find (fun o -> o.m = m) outs

(* ------------------------------------------------------------------ *)
(* Calibration cells: one layer operation timed in isolation through the
   layer's public functions, repeated so each reports its own spread. *)

let calib_reps = 5

type calib = { per_op : float; spread : float }

let calibrate ~cell ~ops body =
  let samples =
    List.init calib_reps (fun k ->
        with_span ~cell:(Printf.sprintf "calib/%s/%d" cell k) ("calib." ^ cell)
          (fun () ->
            let t0 = now () in
            body ();
            (now () -. t0) /. ops))
  in
  { per_op = median samples; spread = spread samples }

let fresh_machine () =
  Machine.create (Simcore.Engine.create ()) Cachesim.Mem_params.pentium3

(* Cache cells: one access through [Hierarchy.access_into] (the fused
   path every timed machine access takes), on streams chosen so that
   nearly every access takes one outcome. *)
let calib_cache ~cell ~span_bytes ~n ~stride =
  let st = Random.State.make [| 17 |] in
  let lines = span_bytes / 32 in
  let addrs =
    Array.init n (fun k ->
        if stride then (k * 4) mod span_bytes else Random.State.int st lines * 32)
  in
  let h = Cachesim.Hierarchy.create Cachesim.Mem_params.pentium3 in
  let charge = [| 0.0; 0.0 |] in
  let pass () =
    Array.iter
      (fun addr -> Cachesim.Hierarchy.access_into h ~addr ~write:false ~charge)
      addrs
  in
  pass ();
  calibrate ~cell ~ops:(float_of_int n) pass

(* L1 hits: 4 KB touched word by word. *)
let calib_cache_hit () =
  calib_cache ~cell:"cachesim_hit" ~span_bytes:4096 ~n:(1 lsl 21) ~stride:true

(* L1 misses that hit L2: random lines over 128 KB, inside the 512 KB L2
   and inside the TLB's reach. *)
let calib_cache_l2_hit () =
  calib_cache ~cell:"cachesim_l2_hit" ~span_bytes:(128 * 1024) ~n:(1 lsl 19)
    ~stride:false

(* L2 misses: random lines over 64 MB, so nearly every access misses L1,
   L2 and the TLB. *)
let calib_cache_miss () =
  calib_cache ~cell:"cachesim_miss" ~span_bytes:(64 lsl 20) ~n:(1 lsl 17)
    ~stride:false

(* Engine events: one process sleeping in a loop, each delay one event
   (suspend, queue, resume). *)
let engine_delays n =
  let e = Simcore.Engine.create () in
  Simcore.Engine.spawn e (fun () ->
      for _ = 1 to n do
        Simcore.Engine.delay e 1.0
      done);
  Simcore.Engine.run e;
  Simcore.Engine.events_executed e

let calib_event () =
  let n = 1 lsl 19 in
  let events = float_of_int (engine_delays 0 + n) in
  calibrate ~cell:"simcore_event" ~ops:events (fun () -> ignore (engine_delays n))

(* Messages: a sender and a receiver process over a two-node Myrinet.
   The engine events a message causes are already priced by the event
   cell, so the message cost is the remainder per message. *)
let calib_message ~ns_per_event =
  let n = 1 lsl 16 in
  let events = ref 0 in
  let c =
    calibrate ~cell:"netsim_message" ~ops:(float_of_int n) (fun () ->
        let e = Simcore.Engine.create () in
        let net = Netsim.Network.create e Netsim.Profile.myrinet ~nodes:2 in
        Simcore.Engine.spawn e (fun () ->
            for k = 1 to n do
              Netsim.Network.isend net ~src:0 ~dst:1 ~size:64 k
            done);
        Simcore.Engine.spawn e (fun () ->
            for _ = 1 to n do
              ignore (Netsim.Network.recv net ~dst:1)
            done);
        Simcore.Engine.run e;
        events := Simcore.Engine.events_executed e)
  in
  let event_share = float_of_int !events /. float_of_int n *. ns_per_event in
  { c with per_op = c.per_op -. event_share }

(* Index builds are tens of milliseconds each; four per sample keep the
   timer's share of the noise small. *)
let calib_build ~cell build keys =
  calibrate ~cell ~ops:4.0 (fun () ->
      for _ = 1 to 4 do
        ignore (Sys.opaque_identity (build (fresh_machine ()) keys))
      done)

(* The oracle check one driver call makes.  Static drivers run
   [Ref_impl.rank] over the query stream.  The dynamic drivers replay the
   whole update/query stream, inserts and deletes included, over a
   [Ref_impl.Dyn]: A and B over one copy of the keys, C-3 over one copy
   per slave's partition slice, so each insert moves a tenth of the
   data. *)
let calib_oracle ~cell body =
  calibrate ~cell ~ops:1.0 (fun () -> ignore (Sys.opaque_identity (body ())))

let static_oracle i () =
  Array.fold_left (fun acc q -> acc + Index.Ref_impl.rank i.keys q) 0 i.queries

let dynamic_oracle i ~parts () =
  let part = Partition.make ~keys:i.keys ~parts in
  let oracles =
    Array.init parts (fun s ->
        Index.Ref_impl.Dyn.create (Partition.slice part s))
  in
  let at k = oracles.(Partition.owner part k) in
  Array.fold_left
    (fun acc op ->
      match op with
      | Workload.Mutation.Query qi ->
          let q = i.queries.(qi) in
          acc + Index.Ref_impl.Dyn.rank (at q) q
      | Workload.Mutation.Insert k ->
          acc + Bool.to_int (Index.Ref_impl.Dyn.insert (at k) k)
      | Workload.Mutation.Delete k ->
          acc + Bool.to_int (Index.Ref_impl.Dyn.delete (at k) k))
    0 i.ops

(* Profile phases every workload has (A/B lookups, C-3 dispatch and
   transfers), and the ones only the update stream adds.  Only the first
   go into the result object: a phase a workload lacks would read 0 on
   every run. *)
let shared_phases = [ "lookup"; "dispatch"; "batch_xfer"; "reply" ]
let update_phases = [ "segment_probe"; "merge"; "update_forward" ]

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-34s %.6g %s\n" x.name x.value x.unit_)
    ms

let finite x = if Float.is_finite x then x else 0.0

let result_json ~correct ~attempted ~failed ms =
  Obs.Json.Obj
    [
      ("correct", Obs.Json.Bool correct);
      ("attempted", Obs.Json.Int attempted);
      ("failed", Obs.Json.Int failed);
      ( "metrics",
        Obs.Json.Obj
          (List.map
             (fun x ->
               ( x.name,
                 Obs.Json.Obj
                   [
                     ("value", Obs.Json.Float (finite x.value));
                     ("unit", Obs.Json.String x.unit_);
                   ] ))
             ms) );
    ]

(* ------------------------------------------------------------------ *)
(* Main *)

let () =
  let kind =
    match kind_of !workload_name with
    | Some k -> k
    | None ->
        prerr_endline ("bench: unknown workload " ^ !workload_name);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "bench: --trace must be 0 or 1";
    exit 2
  end;
  let wname = !workload_name in
  let traced = !trace = 1 in
  tracing := traced;
  Printf.printf
    "# perfbench workload=%s seed=%d held_out_seed=%d seconds=%g trace=%d\n"
    wname !seed held_out_seed !seconds !trace;
  Printf.printf "# provenance nproc=%d jobs=%d ocaml=%s rev=%s\n" nproc jobs
    Sys.ocaml_version !rev;
  Printf.printf
    "# geometry 327680 keys, 11 nodes, pentium3 + myrinet; caches start \
     empty in every driver call\n%!";
  let sc = scenario kind in

  (* Set-up: workload generation, repeated from a compacted heap each
     time; the median is [setup_s]. *)
  let gen_times = ref [] in
  let inputs = ref None in
  for k = 1 to 7 do
    inputs := None;
    Gc.compact ();
    sample_reference ();
    with_span ~cell:(Printf.sprintf "%s/setup/%d" wname k) "workload.gen"
      (fun () ->
        let t0 = now () in
        let i = generate kind sc in
        gen_times := (now () -. t0) :: !gen_times;
        inputs := Some i)
  done;
  let i = Option.get !inputs in
  let setup_s = median !gen_times in

  (* Untraced rounds for the measured time, each after a full major
     collection; simulated numbers must repeat exactly from round to
     round.  The heap high-water mark is read after the first round,
     before garbage from later rounds can raise it. *)
  let was_tracing = !tracing in
  tracing := false;
  Exec.Pool.reset_host_stats ();
  let t_start = now () in
  let rounds = ref [] in
  let pool_stats = ref None in
  let heap_mb = ref 0.0 in
  while !rounds = [] || now () -. t_start < !seconds do
    Gc.full_major ();
    sample_reference ();
    rounds := run_round ~profiled:false ~label:wname i :: !rounds;
    if !pool_stats = None then begin
      pool_stats := Some (Exec.Pool.host_stats ());
      heap_mb :=
        float_of_int
          ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1048576.0
    end
  done;
  tracing := was_tracing;
  let rounds = List.rev !rounds in
  let first = List.hd rounds in
  let mismatches = ref [] in
  let check_same ~what outs =
    List.iter2
      (fun o0 o ->
        if compare (signature kind o0) (signature kind o) <> 0 then
          mismatches :=
            Printf.sprintf "%s: %s differs" what (Methods.to_string o.m)
            :: !mismatches)
      first outs
  in
  List.iteri
    (fun k outs -> check_same ~what:(Printf.sprintf "round %d" (k + 1)) outs)
    rounds;
  let n_rounds = List.length rounds in
  let attempted = n_rounds * round_ops first in
  let failed_round = List.fold_left (fun a o -> a + failed kind o) 0 first in
  let failed_ops = n_rounds * failed_round in
  let validation_errors =
    List.fold_left (fun a o -> a + o.r.Run_result.validation_errors) 0 first
  in
  (* Host time of a driver is its best round.  Slow-downs on a shared
     host come in episodes of seconds, so the fastest of several rounds
     is the steadiest reading of what the code costs (the same estimator
     as the throughput trajectory in BENCH_009.json). *)
  let wall_of m =
    List.fold_left min infinity
      (List.map (fun outs -> (outcome_of m outs).wall_s) rounds)
  in
  let best_round_wall = sum_by wall_of methods in
  let raw_ops_per_s = float_of_int (round_ops first) /. best_round_wall in
  let host_speed = ref_nominal_s /. !ref_best in
  Printf.printf "# %d untraced rounds; driver wall s per round (%s):%s\n"
    n_rounds
    (String.concat "/" (List.map Methods.to_string methods))
    (String.concat ""
       (List.map
          (fun outs ->
            " "
            ^ String.concat "/"
                (List.map (fun o -> Printf.sprintf "%.3f" o.wall_s) outs))
          rounds));
  let sim ?(ms = methods) name f =
    List.map
      (fun m ->
        metric (name ^ "." ^ Methods.to_string m) "ns" (f (outcome_of m first)))
      ms
  in
  let resp = sim ~ms:[ Methods.B; Methods.C3 ] in
  let end_to_end =
    [
      metric "host_ops_per_s" "1/s" (raw_ops_per_s /. host_speed);
      metric "setup_s" "s" (setup_s *. host_speed);
      metric "host_heap_mb" "MB" !heap_mb;
    ]
    @ sim "sim_ns_per_key" (sim_ns_per_key kind)
    @ resp "sim_resp_mean_ns" (fun o -> o.r.Run_result.mean_response_ns)
    @ sim ~ms:[ Methods.C3 ] "sim_resp_p95_ns" (fun o ->
          o.r.Run_result.p95_response_ns)
  in
  print_metrics "end-to-end (untraced):" end_to_end;
  Printf.printf
    "  (host figures scaled to the reference host: kernel best %.4f s here \
     vs %.4f s nominal; unscaled %.6g ops/s, setup %.6g s)\n"
    !ref_best ref_nominal_s raw_ops_per_s setup_s;
  Printf.printf "  %-34s %.6g ratio (%d of %d operations)\n" "failed_ratio"
    (float_of_int failed_ops /. float_of_int attempted)
    failed_ops attempted;
  (match kind with
  | Serve ->
      List.iter
        (fun m ->
          let s = serving (outcome_of m first) in
          Printf.printf
            "  sim_p50_ns.%-23s %.6g ns  sim_p99_ns.%s %.6g ns  (warm phase, \
             %d samples; all %d: p50 %.6g p99 %.6g; SLO violations %d)\n"
            (Methods.to_string m) s.Run_result.warm_p50_ns (Methods.to_string m)
            s.Run_result.warm_p99_ns s.Run_result.warm_completed
            s.Run_result.completed s.Run_result.p50_ns s.Run_result.p99_ns
            s.Run_result.violations)
        methods
  | Batch ->
      Printf.printf
        "accuracy vs paper Table 3 (real hardware, held back from tuning; \
         simulated seconds per 2^23 keys):\n";
      List.iter
        (fun (m, paper_s) ->
          let s =
            Run_result.scaled_total_s (outcome_of m first).r ~queries:(1 lsl 23)
          in
          Printf.printf
            "  accuracy.err_vs_paper.%-12s %+.4f ratio (sim %.4f s, paper %.2f s)\n"
            (Methods.to_string m) ((s /. paper_s) -. 1.0) s paper_s)
        paper_table3_s;
      Printf.printf
        "  note: C-3's per-key cost still falls with volume (40.6 ns/key at \
         2^18 vs ~34.6 at 2^23 in results/fig3_paper.txt), so its 2^23 \
         estimate from 2^18 keys reads high\n"
  | Dynamic -> ());

  let correct_so_far () = validation_errors = 0 && !mismatches = [] in
  let finish ~correct ms =
    List.iter (fun s -> Printf.printf "FAIL %s\n" s) (List.rev !mismatches);
    if validation_errors > 0 then
      Printf.printf "FAIL %d validation errors\n" validation_errors;
    print_endline
      (Obs.Json.to_string ~pretty:false
         (result_json ~correct ~attempted ~failed:failed_ops ms));
    exit (if correct then 0 else 1)
  in
  if not traced then finish ~correct:(correct_so_far ()) end_to_end;

  (* ---- Traced run: per-layer numbers ---- *)
  let traced_round = run_round ~profiled:true ~label:(wname ^ "/traced") i in
  let traced_wall = round_wall traced_round in
  check_same ~what:"traced run" traced_round;
  let cal_hit = calib_cache_hit () in
  let cal_l2 = calib_cache_l2_hit () in
  let cal_miss = calib_cache_miss () in
  let cal_event = calib_event () in
  let cal_msg = calib_message ~ns_per_event:cal_event.per_op in
  let cal_nary =
    calib_build ~cell:"index_build_nary"
      (fun m k -> Index.Nary_tree.build m k)
      i.keys
  in
  let cal_sorted =
    calib_build ~cell:"index_build_sorted"
      (fun m k -> Index.Sorted_array.build m k)
      i.keys
  in
  let cal_oracle, cal_oracle_c3 =
    match kind with
    | Batch | Serve ->
        let c = calib_oracle ~cell:"index_oracle" (static_oracle i) in
        (c, c)
    | Dynamic ->
        ( calib_oracle ~cell:"index_oracle" (dynamic_oracle i ~parts:1),
          calib_oracle ~cell:"index_oracle_c3"
            (dynamic_oracle i ~parts:(sc.Workload.Scenario.n_nodes - 1)) )
  in

  let outs = first in
  let cs =
    List.fold_left
      (fun a o -> Cachesim.Hierarchy.add_stats a o.r.Run_result.cache)
      Cachesim.Hierarchy.zero_stats outs
  in
  let f = float_of_int in
  let l1_hits = f cs.Cachesim.Hierarchy.l1_hits in
  let accesses = f cs.Cachesim.Hierarchy.accesses in
  let l1_misses = accesses -. l1_hits in
  let totals name = sum_by (fun o -> total name o.r) outs in
  let events = totals "engine_events_executed" in
  let messages = sum_by (fun o -> f o.r.Run_result.messages) outs in
  let n_nodes = f sc.Workload.Scenario.n_nodes in
  let builds_s =
    sum_by
      (fun o ->
        match (o.m, kind) with
        | (Methods.A | Methods.B), Serve -> n_nodes *. cal_nary.per_op
        | (Methods.A | Methods.B), Batch -> cal_nary.per_op
        | _ -> cal_sorted.per_op)
      outs
  in
  let oracle_s =
    sum_by
      (fun o ->
        if o.m = Methods.C3 then cal_oracle_c3.per_op else cal_oracle.per_op)
      outs
  in
  (* [Dynamic.run] generates its own workload inside every call, so on
     paper-dynamic each driver call also pays one set-up. *)
  let in_driver_gen_s =
    match kind with
    | Dynamic -> f (List.length outs) *. setup_s
    | Batch | Serve -> 0.0
  in
  let l2_hits = f cs.Cachesim.Hierarchy.l2_hits in
  let cachesim_est =
    (l1_hits *. cal_hit.per_op) +. (l2_hits *. cal_l2.per_op)
    +. ((l1_misses -. l2_hits) *. cal_miss.per_op)
  in
  let simcore_est = events *. cal_event.per_op in
  let netsim_est = messages *. cal_msg.per_op in
  let unattributed =
    best_round_wall
    -. (cachesim_est +. simcore_est +. netsim_est +. builds_s +. oracle_s
      +. in_driver_gen_s)
  in
  let c3 = outcome_of Methods.C3 outs in
  let busy = series "node_busy_ns" c3.r in
  let ops_round = f (round_ops outs) in
  let dyn_total g =
    sum_by (fun o -> match o.dyn with Some s -> f (g s) | None -> 0.0) outs
  in
  let phase_ns phase =
    sum_by
      (fun o ->
        match o.profile with
        | None -> 0.0
        | Some p ->
            sum_by
              (fun (e : Obs.Profile.entry) ->
                match e.path with ph :: _ when ph = phase -> e.ns | _ -> 0.0)
              (Obs.Profile.entries p))
      traced_round
    /. f (Array.length i.queries)
  in
  let gc_total g = sum_by g outs in
  let hosts = Option.get !pool_stats in
  let per_layer =
    [
      metric "workload.gen_s" "s" setup_s;
      metric "workload.items" "count" (f (items i));
      metric "index.build_s" "s" builds_s;
      metric "index.oracle_s" "s" oracle_s;
      metric "cachesim.accesses" "count" accesses;
      metric "cachesim.l1_hit_ratio" "ratio" (l1_hits /. accesses);
      metric "cachesim.l2_hit_ratio" "ratio" (l2_hits /. l1_misses);
      metric "cachesim.rand_misses" "count" (f cs.Cachesim.Hierarchy.rand_misses);
      metric "cachesim.seq_misses" "count" (f cs.Cachesim.Hierarchy.seq_misses);
      metric "cachesim.tlb_misses" "count" (f cs.Cachesim.Hierarchy.tlb_misses);
      metric "cachesim.writebacks" "count" (f cs.Cachesim.Hierarchy.writebacks);
      metric "cachesim.prefetch_useful_ratio" "ratio"
        (totals "prefetch_useful" /. totals "prefetch_fills");
      metric "cachesim.host_ns_per_hit" "ns" (cal_hit.per_op *. 1e9);
      metric "cachesim.host_ns_per_l2_hit" "ns" (cal_l2.per_op *. 1e9);
      metric "cachesim.host_ns_per_miss" "ns" (cal_miss.per_op *. 1e9);
      metric "cachesim.host_s_est" "s" cachesim_est;
      metric "cachesim.sim_cost_ns" "ns" cs.Cachesim.Hierarchy.cost_ns;
      metric "machine.busy_ns.max" "ns" (max_of busy);
      metric "machine.busy_ns.mean" "ns" (sum busy /. f (List.length busy));
      metric "machine.words_allocated" "count" (total "node_words_allocated" c3.r);
      metric "simcore.events" "count" events;
      metric "simcore.processes" "count" (totals "engine_processes_spawned");
      metric "simcore.max_heap_depth" "count"
        (max_of (List.map (fun o -> peak "engine_max_heap_depth" o.r) outs));
      metric "simcore.host_ns_per_event" "ns" (cal_event.per_op *. 1e9);
      metric "simcore.host_s_est" "s" simcore_est;
      metric "netsim.messages" "count" messages;
      metric "netsim.bytes" "bytes"
        (sum_by (fun o -> f o.r.Run_result.bytes_sent) outs);
      metric "netsim.queue_ns" "ns" (totals "net_queue_ns");
      metric "netsim.tx_busy_ns.max" "ns"
        (max_of (List.map (fun o -> peak "net_tx_busy_ns" o.r) outs));
      metric "netsim.host_ns_per_message" "ns" (cal_msg.per_op *. 1e9);
      metric "netsim.host_s_est" "s" netsim_est;
    ]
    @ List.map
        (fun m -> metric ("core.wall_s." ^ Methods.to_string m) "s" (wall_of m))
        methods
    @ [
        metric "core.unattributed_s" "s" unattributed;
        metric "core.master_busy.C-3" "ratio" c3.r.Run_result.master_busy;
        metric "core.slave_idle.C-3" "ratio" c3.r.Run_result.slave_idle;
        metric "gc.minor_words_per_op" "words"
          (gc_total (fun o -> o.minor_words) /. ops_round);
        metric "gc.promoted_words_per_op" "words"
          (gc_total (fun o -> o.promoted_words) /. ops_round);
        metric "gc.major_collections" "count"
          (gc_total (fun o -> f o.major_collections));
      ]
    @ List.map
        (fun ph -> metric ("profile." ^ ph ^ ".ns_per_key") "ns" (phase_ns ph))
        shared_phases
    @ [
        (* On paper-serve the profiled round runs its node epochs
           sequentially, so this also counts the lost parallelism. *)
        metric "trace.overhead_s" "s" (traced_wall -. best_round_wall);
        metric "calib.cachesim_hit.spread" "ratio" cal_hit.spread;
        metric "calib.cachesim_l2_hit.spread" "ratio" cal_l2.spread;
        metric "calib.cachesim_miss.spread" "ratio" cal_miss.spread;
        metric "calib.simcore_event.spread" "ratio" cal_event.spread;
        metric "calib.netsim_message.spread" "ratio" cal_msg.spread;
        metric "calib.index_build.spread" "ratio"
          (max cal_nary.spread cal_sorted.spread);
        metric "calib.index_oracle.spread" "ratio"
          (max cal_oracle.spread cal_oracle_c3.spread);
      ]
  in
  print_metrics "per-layer (traced):" per_layer;
  (* Readings left out of the result object: they read 0 by construction,
     on every workload or on all but one. *)
  print_metrics "failure counts (0 unless the run fails, see failed):"
    [
      metric "core.validation_errors" "count" (f validation_errors);
      metric "core.lost_queries" "count" (f (failed_round - validation_errors));
    ];
  (match kind with
  | Dynamic ->
      print_metrics "dynamic-only (traced):"
        ([
           metric "index.seals" "count" (dyn_total (fun s -> s.Dynamic.seals));
           metric "index.merges" "count" (dyn_total (fun s -> s.Dynamic.merges));
           metric "index.majors" "count" (dyn_total (fun s -> s.Dynamic.majors));
           metric "index.segments_live" "count"
             (dyn_total (fun s -> s.Dynamic.segments));
           metric "index.delta_entries" "count"
             (dyn_total (fun s -> s.Dynamic.delta_entries));
         ]
        @ List.map
            (fun ph ->
              metric ("profile." ^ ph ^ ".ns_per_key") "ns" (phase_ns ph))
            update_phases);
      Printf.printf "  %-34s %.6g s (3 driver calls x set-up)\n"
        "workload.in_driver_gen_s" in_driver_gen_s;
      Printf.printf
        "absent here: core.mean_queue_ns.* (batch drivers have no admission \
         queue) and exec.* (only the serving drivers use the domain pool)\n"
  | Serve ->
      Printf.printf "serve-only (first untraced round):\n";
      List.iter
        (fun m ->
          Printf.printf "  core.mean_queue_ns.%-15s %.6g ns\n" (Methods.to_string m)
            (serving (outcome_of m first)).Run_result.mean_queue_ns)
        methods;
      let eff =
        hosts.Exec.Pool.task_wall_s
        /. (hosts.Exec.Pool.batch_wall_s *. f (max 1 hosts.Exec.Pool.max_workers))
      in
      Printf.printf
        "  (index.seals/merges/majors/segments_live/delta_entries and the \
         update phases absent: serving runs take no updates)\n";
      Printf.printf
        "  exec.task_wall_s %.6g s\n  exec.batch_wall_s %.6g s\n\
        \  exec.workers %d count\n  exec.efficiency %.6g ratio\n"
        hosts.Exec.Pool.task_wall_s hosts.Exec.Pool.batch_wall_s
        hosts.Exec.Pool.max_workers eff
  | Batch ->
      Printf.printf
        "absent here: core.mean_queue_ns.* (batch drivers have no admission \
         queue), exec.* (only the serving drivers use the domain pool), \
         index.seals/merges/majors/segments_live/delta_entries and the update \
         phases (no updates)\n");

  (* Span file: written once, at the end of the traced run. *)
  let t_origin = List.fold_left (fun a s -> min a s.t0) infinity !spans in
  let doc =
    Obs.Json.Obj
      [
        ( "otherData",
          Obs.Json.Obj
            [
              ("workload", Obs.Json.String wname);
              ("seed", Obs.Json.Int !seed);
              ("nproc", Obs.Json.Int nproc);
              ("jobs", Obs.Json.Int jobs);
              ("ocaml", Obs.Json.String Sys.ocaml_version);
              ("rev", Obs.Json.String !rev);
            ] );
        ( "traceEvents",
          Obs.Json.List (List.rev_map (span_to_json t_origin) !spans) );
      ]
  in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let path =
       Filename.concat out_dir
         (Printf.sprintf "%s-seed%d.trace.json" wname !seed)
     in
     let oc = open_out path in
     output_string oc (Obs.Json.to_string ~pretty:false doc);
     close_out oc;
     Printf.printf "# spans: %d written to %s\n" (List.length !spans) path
   with Sys_error e -> Printf.printf "# spans not written: %s\n" e);
  finish ~correct:(correct_so_far ()) per_layer
