(* Dynamic-index method drivers: each method's op-stream work source
   ([Replicated.run_ops], [Method_c.run_ops]) over one workload, with
   the update/segment accounting both report.  Every returned rank is
   checked against a [Ref_impl.Dyn] oracle replayed to the same point
   of the stream. *)

type stats = {
  updates : int;  (** updates in the stream *)
  applied : int;  (** effective state flips *)
  noops : int;  (** charged no-op updates *)
  lost_updates : int;  (** updates in crash-abandoned batches (C) *)
  seals : int;
  merges : int;
  majors : int;
  segments : int;  (** sealed segments live at end of run *)
  delta_entries : int;  (** delta entries at end of run *)
}

let stats_header =
  [
    "dyn.updates"; "dyn.applied"; "dyn.noops"; "dyn.lost_updates"; "dyn.seals";
    "dyn.merges"; "dyn.majors"; "dyn.segments"; "dyn.delta";
  ]

let stats_cells s =
  List.map string_of_int
    [
      s.updates; s.applied; s.noops; s.lost_updates; s.seals; s.merges;
      s.majors; s.segments; s.delta_entries;
    ]

let counters s =
  List.map
    (fun (k, v) -> (k, float_of_int v))
    [
      ("dyn_updates", s.updates); ("dyn_applied", s.applied);
      ("dyn_noops", s.noops); ("dyn_lost_updates", s.lost_updates);
      ("dyn_seals", s.seals); ("dyn_merges", s.merges);
      ("dyn_majors", s.majors); ("dyn_segments", s.segments);
      ("dyn_delta_entries", s.delta_entries);
    ]

(* Sum segment-level accounting over a run's delta indexes (one for
   methods A/B, one per slave for method C). *)
let collect ~updates ~lost_updates segs =
  let sum f = List.fold_left (fun a sg -> a + f sg) 0 segs in
  let st f = sum (fun sg -> f (Index.Segments.stats sg)) in
  {
    updates;
    applied =
      st (fun s -> s.Index.Segments.inserts + s.Index.Segments.deletes);
    noops = st (fun s -> s.Index.Segments.noops);
    lost_updates;
    seals = st (fun s -> s.Index.Segments.seals);
    merges = st (fun s -> s.Index.Segments.merges);
    majors = st (fun s -> s.Index.Segments.majors);
    segments = sum Index.Segments.segment_count;
    delta_entries = sum Index.Segments.delta_entries;
  }

(* ------------------------------------------------------------------ *)
(* Workload: the first two splits are exactly [Runner.workload]'s, so a
   dynamic run indexes the same keys and answers the same queries as
   the static baseline; the update stream is a new third split, so
   zero-update static runs are bit-identical to before. *)

let workload (sc : Workload.Scenario.t) ~updates =
  let g = Prng.Splitmix.create sc.Workload.Scenario.seed in
  let g_keys = Prng.Splitmix.split g in
  let g_queries = Prng.Splitmix.split g in
  let g_updates = Prng.Splitmix.split g in
  let keys = Workload.Keygen.index_keys g_keys ~n:sc.Workload.Scenario.n_keys in
  let queries =
    Workload.Keygen.uniform_queries g_queries
      ~n:sc.Workload.Scenario.n_queries
  in
  let ops =
    Workload.Mutation.plan updates g_updates
      ~n_queries:sc.Workload.Scenario.n_queries
  in
  (keys, queries, ops)

let run ?faults (sc : Workload.Scenario.t) ~updates ~method_id =
  let keys, queries, ops = workload sc ~updates in
  let n_updates =
    Workload.Mutation.n_updates updates ~n_queries:(Array.length queries)
  in
  let policy = Workload.Mutation.policy updates in
  let stats segs ~lost_updates =
    let st = collect ~updates:n_updates ~lost_updates segs in
    (st, counters st)
  in
  match (method_id : Methods.id) with
  | Methods.A | Methods.B ->
      Replicated.run_ops sc ~policy ~method_id ~keys ~queries ~ops ~stats
  | Methods.C1 | Methods.C2 | Methods.C3 ->
      Method_c.run_ops ?faults sc ~policy ~variant:method_id ~keys ~queries
        ~ops ~stats
