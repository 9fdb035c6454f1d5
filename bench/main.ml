(* Benchmark harness regenerating every table and figure of the paper's
   evaluation section (§5):

     fig7    - Figure 7: the multi-grouping query workload summary
     table3  - Table 3: single-grouping queries, Hive vs RAPIDAnalytics
               (BSBM at two scales, Chem2Bio2RDF)
     fig8a   - Figure 8(a): MG1-MG4 on the small BSBM dataset, 4 engines
     fig8b   - Figure 8(b): MG1-MG4 on the larger BSBM dataset, 4 engines
     fig8c   - Figure 8(c): MG6-MG10 on Chem2Bio2RDF, 4 engines
     table4  - Table 4: MG11-MG18 on PubMed, 4 engines
     ablation- toggle each optimization knob in isolation
     faults  - fault-injection degradation: simulated time vs fault
               rate for all four engines
     memory  - memory-budget degradation: simulated time, spills, OOM
               retries, and map-join fallbacks as the per-task heap
               shrinks, for all four engines
     recovery- checkpoint-recovery sweep: fault rate crossed with
               checkpoint policy, showing completion, replay cost, and
               checkpoint overhead for all four engines
     server  - query-server throughput sweep: a timed arrival stream
               through windowed admission and cross-query MQO, per-query
               latency percentiles and savings vs back-to-back runs
     overload- overload sweep: arrival rate crossed with fault rate,
               protected (deadline-aware shedding + circuit breaker +
               degradation ladder) vs unprotected goodput
     analyze - static cardinality estimation: catalog-build time,
               per-query analysis overhead, and estimation quality
               (q-error, interval soundness) across the catalog on all
               four engines; --bench-json FILE writes the artifact
     optimize- cost-based planner sweep: per-query planning time and a
               timed plan-cache hit, costed-vs-heuristic upper-bound
               cost deltas, per-engine byte-identity of optimized runs,
               and the plan-cache hit rate under the server's repeated
               workload; --bench-json FILE writes the artifact
     fuzz    - fuzzing harness: random analytical queries through the
               differential / metamorphic / analyzer / robustness
               oracles (cases/sec, per-oracle timings), plus a
               broken-engine self-test; --bench-json FILE writes the
               artifact
     wall    - Bechamel wall-clock microbenchmarks of the in-memory
               engines on representative queries

   Absolute numbers come from the MapReduce simulator's cost model
   (documented in DESIGN.md); the paper-facing claims are the shapes:
   who wins, by what factor, and where the crossovers are. Usage:

     dune exec bench/main.exe [--scale N] [--trace DIR] [--faults SPEC]
                              [--mem SPEC] [--checkpoint SPEC]
                              [--bench-json FILE] [section ...]
                              (default: all)

   An unknown section, or a missing, malformed or non-positive --scale,
   is a usage error (exit 2). --bench-json FILE needs exactly one of the
   artifact sections analyze, optimize, fuzz.

   With --trace DIR, each engine run writes its Chrome trace-event file
   to DIR/<section>-<query>-<engine>.json. With --faults SPEC (same
   key=value spec as `rapida query --faults`), every section's engine
   runs execute under that fault configuration; --mem SPEC (same spec as
   `rapida query --mem`) likewise bounds the per-task memory of every
   section's simulated cluster, and --checkpoint SPEC (same spec as
   `rapida query --checkpoint`) checkpoints every section's workflows. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Experiment = Rapida_harness.Experiment
module Report = Rapida_harness.Report

module Fault_injector = Rapida_mapred.Fault_injector
module Memory = Rapida_mapred.Memory
module Checkpoint = Rapida_mapred.Checkpoint
module Json = Rapida_mapred.Json
module Metrics = Rapida_mapred.Metrics
module Stats = Rapida_mapred.Stats

let scale = ref 1
let sections = ref []
let trace_dir = ref None
let bench_json = ref None
let fault_cfg = ref Fault_injector.default
let mem_cfg = ref Memory.default
let checkpoint_cfg = ref Checkpoint.default

let section_names =
  [ "all"; "fig7"; "table3"; "fig8a"; "fig8b"; "fig8c"; "table4"; "ablation";
    "faults"; "memory"; "recovery"; "server"; "overload"; "analyze";
    "optimize"; "fuzz"; "wall" ]

(* The sections that write a --bench-json artifact. *)
let artifact_sections = [ "analyze"; "optimize"; "fuzz" ]

let die_usage msg =
  prerr_endline ("error: " ^ msg);
  exit 2

let () =
  let set cfg parse_spec spec =
    Result.map (fun c -> cfg := c) (parse_spec spec)
  in
  let value_flags =
    [
      ( "--scale",
        fun n ->
          match int_of_string_opt n with
          | Some k when k > 0 -> Ok (scale := k)
          | _ ->
            Error
              (Printf.sprintf "--scale expects a positive integer, got %S" n)
      );
      ("--trace", fun dir -> Ok (trace_dir := Some dir));
      ("--bench-json", fun path -> Ok (bench_json := Some path));
      ("--faults", set fault_cfg Fault_injector.parse_spec);
      ("--mem", set mem_cfg Memory.parse_spec);
      ("--checkpoint", set checkpoint_cfg Checkpoint.parse_spec);
    ]
  in
  let rec parse = function
    | [] -> ()
    | flag :: rest when List.mem_assoc flag value_flags -> (
      match rest with
      | [] -> die_usage (flag ^ " expects a value")
      | value :: rest -> (
        match List.assoc flag value_flags value with
        | Ok () -> parse rest
        | Error msg -> die_usage msg))
    | s :: rest when List.mem s section_names ->
      sections := s :: !sections;
      parse rest
    | s :: _ ->
      die_usage
        (Printf.sprintf "unknown section %S; valid sections: %s" s
           (String.concat " " section_names))
  in
  parse (List.tl (Array.to_list Sys.argv))

let want section =
  !sections = [] || List.mem "all" !sections || List.mem section !sections

(* One artifact per file: two artifact sections would overwrite each
   other's --bench-json document. *)
let () =
  if
    !bench_json <> None
    && List.length (List.filter want artifact_sections) <> 1
  then
    die_usage
      "--bench-json needs exactly one of the sections analyze, optimize, fuzz"

(* The simulated cluster: paper-default startup costs with bandwidths
   scaled down by the ratio between the paper's dataset sizes (tens of
   GB) and this harness's (hundreds of KB), so that the startup-vs-data
   balance of each MR cycle matches the paper's regime. *)
let options =
  Plan_util.make
    ~cluster:
      (Rapida_mapred.Cluster.with_memory
         (Rapida_mapred.Cluster.scaled_down ~factor:1.0e5)
         !mem_cfg)
    ~map_join_threshold:(24 * 1024) ~faults:!fault_cfg
    ~checkpoint:!checkpoint_cfg ()

let all_engines = Engine.all_kinds
let table3_engines = Engine.[ Hive_naive; Rapid_analytics ]

(* Dataset scales: "small" BSBM stands in for BSBM-500K, "large" (4x) for
   BSBM-2M; the 4x ratio matches the paper's 500K -> 2M products. *)
let bsbm_small =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~products:(400 * !scale) ())))

let bsbm_large =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~products:(1600 * !scale) ())))

let chem =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Chem2bio.(generate (config ~compounds:(200 * !scale) ())))

let pubmed =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Pubmed.(
         generate (config ~publications:(600 * !scale) ())))

let queries ids = List.map Catalog.find_exn ids

let section_fig7 () =
  Fmt.pr "@.== Figure 7: evaluated RDF analytical queries ==@.";
  Fmt.pr "%a" Catalog.pp_figure7 ()

(* With --trace DIR, persist every engine run's span trace for offline
   inspection (chrome://tracing / Perfetto). *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let dump_traces ~section runs =
  match !trace_dir with
  | None -> ()
  | Some dir ->
    mkdir_p dir;
    List.iter
      (fun run ->
        List.iter
          (fun (r : Experiment.engine_result) ->
            let path =
              Filename.concat dir
                (Printf.sprintf "%s-%s-%s.json" section
                   run.Experiment.query.Catalog.id
                   (Engine.kind_name r.engine))
            in
            Rapida_mapred.Trace.write_file r.Experiment.trace path)
          run.Experiment.results)
      runs

let report ?section ~title ~engines runs =
  Fmt.pr "%a" (Report.pp_comparison ~title ~engines) runs;
  Fmt.pr "%a" (Report.pp_cycles ~title:(title ^ " - MR cycles") ~engines) runs;
  Fmt.pr "%a"
    (Report.pp_bytes ~title:(title ^ " - shuffle volume") ~engines)
    runs;
  Fmt.pr "%a"
    (Report.pp_phases ~title:(title ^ " - phase breakdown") ~engines)
    runs;
  Fmt.pr "%a" Report.pp_verification runs;
  match section with
  | Some section -> dump_traces ~section runs
  | None -> ()

let section_table3 () =
  let g_bsbm = queries [ "G1"; "G2"; "G3"; "G4" ] in
  let runs_small =
    Experiment.run_queries ~engines:table3_engines options
      ~label:"BSBM-small" (Lazy.force bsbm_small) g_bsbm
  in
  report ~section:"table3" ~title:"Table 3 (BSBM, small)" ~engines:table3_engines runs_small;
  let runs_large =
    Experiment.run_queries ~engines:table3_engines options
      ~label:"BSBM-large" (Lazy.force bsbm_large) g_bsbm
  in
  report ~section:"table3" ~title:"Table 3 (BSBM, large)" ~engines:table3_engines runs_large;
  let g_chem = queries [ "G5"; "G6"; "G7"; "G8"; "G9" ] in
  let runs_chem =
    Experiment.run_queries ~engines:table3_engines options
      ~label:"Chem2Bio2RDF" (Lazy.force chem) g_chem
  in
  report ~section:"table3" ~title:"Table 3 (Chem2Bio2RDF)" ~engines:table3_engines runs_chem

let section_fig8a () =
  let runs =
    Experiment.run_queries options ~label:"BSBM-small"
      (Lazy.force bsbm_small)
      (queries [ "MG1"; "MG2"; "MG3"; "MG4" ])
  in
  report ~section:"fig8a" ~title:"Figure 8(a): MG1-MG4" ~engines:all_engines runs

let section_fig8b () =
  let runs =
    Experiment.run_queries options ~label:"BSBM-large"
      (Lazy.force bsbm_large)
      (queries [ "MG1"; "MG2"; "MG3"; "MG4" ])
  in
  report ~section:"fig8b" ~title:"Figure 8(b): MG1-MG4 (4x scale)" ~engines:all_engines runs

let section_fig8c () =
  let runs =
    Experiment.run_queries options ~label:"Chem2Bio2RDF" (Lazy.force chem)
      (queries [ "MG6"; "MG7"; "MG8"; "MG9"; "MG10" ])
  in
  report ~section:"fig8c" ~title:"Figure 8(c): MG6-MG10" ~engines:all_engines runs

let section_table4 () =
  let runs =
    Experiment.run_queries options ~label:"PubMed" (Lazy.force pubmed)
      (queries
         [ "MG11"; "MG12"; "MG13"; "MG14"; "MG15"; "MG16"; "MG17"; "MG18" ])
  in
  report ~section:"table4" ~title:"Table 4: MG11-MG18" ~engines:all_engines runs

(* Ablations over the design choices DESIGN.md calls out: each knob is
   toggled in isolation on a workload where it matters, reporting the
   simulated-time and shuffle deltas. Results are always identical (the
   test suite enforces it); only costs move. *)
let section_ablation () =
  Fmt.pr "@.== Ablations ==@.";
  let run opts kind input id =
    let session = Engine.prepare kind (Lazy.force input) in
    match
      Engine.execute session (Plan_util.context opts)
        (Catalog.parse (Catalog.find_exn id))
    with
    | Ok out -> out
    | Error e -> failwith (Engine.error_message e)
  in
  let show label (on : Engine.output) (off : Engine.output) =
    Fmt.pr
      "%-42s on: %7.1fs %8.1fKB shuffled   off: %7.1fs %8.1fKB shuffled@."
      label
      (Stats.est_time_s on.Engine.stats)
      (float_of_int (Stats.total_shuffle_bytes on.Engine.stats) /. 1024.)
      (Stats.est_time_s off.Engine.stats)
      (float_of_int (Stats.total_shuffle_bytes off.Engine.stats) /. 1024.)
  in
  show "RA partial aggregation (MG1)"
    (run options Engine.Rapid_analytics bsbm_small "MG1")
    (run
       (Plan_util.make ~base:options ~ntga_combiner:false ())
       Engine.Rapid_analytics bsbm_small "MG1");
  show "RA filter pushdown (G6)"
    (run options Engine.Rapid_analytics chem "G6")
    (run
       (Plan_util.make ~base:options ~ntga_filter_pushdown:false ())
       Engine.Rapid_analytics chem "G6");
  show "Hive map-joins (G5)"
    (run options Engine.Hive_naive chem "G5")
    (run
       (Plan_util.make ~base:options ~map_join_threshold:0 ())
       Engine.Hive_naive chem "G5");
  show "Hive ORC storage (MG3)"
    (run options Engine.Hive_naive bsbm_small "MG3")
    (run
       (Plan_util.make ~base:options ~hive_compression:1.0 ())
       Engine.Hive_naive bsbm_small "MG3")

(* The knob sweeps below share one run loop and one table printer: each
   section only builds its labelled row configs and renders a completed
   run's cell. *)
let knob_sweep ~title ~baseline rows ~row_header ~cell_width ~cell ~legend
    cases =
  List.iter
    (fun (input, id) ->
      Experiment.knob_sweep ~baseline rows (Lazy.force input)
        (Catalog.find_exn id)
      |> Fmt.pr "%a"
           (Report.pp_knob_sweep ~title:(title id) ~row_header ~cell_width
              ~cell ~legend))
    cases

let timed (r : Experiment.knob_run) =
  Printf.sprintf "%.1fs (%.2fx)"
    (Stats.est_time_s r.Experiment.k_stats)
    r.Experiment.k_slowdown

let diverged (r : Experiment.knob_run) =
  if r.Experiment.k_matches then "" else "*"

(* Fault-injection degradation: each engine's simulated time as the
   per-attempt crash/straggler rate rises, relative to its own
   fault-free run. RAPIDAnalytics' shorter workflows re-roll fewer
   attempts, so it degrades the least in absolute seconds. Each rate
   sets both probabilities, with two whole-job retries and seeded
   injection. *)
let section_faults () =
  let seed = 7 in
  let rows =
    List.map
      (fun rate ->
        ( Printf.sprintf "%g" rate,
          Plan_util.make ~base:options
            ~faults:
              {
                Fault_injector.default with
                Fault_injector.seed;
                task_fail_p = rate;
                straggler_p = rate;
                job_retries = 2;
              }
            () ))
      [ 0.0; 0.02; 0.05; 0.1; 0.2 ]
  in
  knob_sweep
    ~title:(fun id -> Printf.sprintf "fault degradation: %s (seed %d)" id seed)
    ~baseline:(Plan_util.make ~base:options ~faults:Fault_injector.default ())
    rows ~row_header:("fault", 6) ~cell_width:18
    ~cell:(fun r -> timed r ^ diverged r)
    ~legend:"simulated seconds and slowdown vs fault-free; * = result diverged"
    [ (bsbm_small, "MG1"); (chem, "MG6") ]

(* Memory-budget degradation: each engine's simulated time as the
   per-task heap shrinks from 1 GiB to 1 KiB, relative to its own
   unbounded run. Results stay byte-identical at every budget; the
   sweep shows where each engine starts spilling, OOM-retrying, and
   falling back from broadcast map-joins to repartition joins.
   Shrinking the heap also shrinks the sort buffer (a container's sort
   buffer is a fraction of its heap, as in Hadoop), so one knob drives
   both spill pricing and the OOM/fallback ladder. *)
let section_memory () =
  let with_heap heap_bytes =
    let mem =
      {
        Memory.default with
        Memory.task_heap_bytes = heap_bytes;
        sort_buffer_bytes =
          max 1 (min Memory.default.Memory.sort_buffer_bytes (heap_bytes / 4));
      }
    in
    Plan_util.make ~base:options
      ~cluster:(Rapida_mapred.Cluster.with_memory options.cluster mem)
      ()
  in
  let pp_heap b =
    if b >= 1024 * 1024 * 1024 then
      Printf.sprintf "%dG" (b / (1024 * 1024 * 1024))
    else if b >= 1024 * 1024 then Printf.sprintf "%dM" (b / (1024 * 1024))
    else if b >= 1024 then Printf.sprintf "%dK" (b / 1024)
    else Printf.sprintf "%dB" b
  in
  let unbounded = Memory.default.Memory.task_heap_bytes in
  let rows =
    List.map
      (fun heap -> (pp_heap heap, with_heap heap))
      [ unbounded; 256 * 1024; 64 * 1024; 16 * 1024; 4 * 1024; 1024 ]
  in
  let cell (r : Experiment.knob_run) =
    String.concat ""
      [
        timed r;
        (if Stats.total_spill_passes r.Experiment.k_stats > 0 then " s"
         else "");
        (if Stats.total_oom_kills r.Experiment.k_stats > 0 then "!o" else "");
        (if Metrics.get r.Experiment.k_counters "mem.mapjoin_fallbacks" > 0
         then "+r"
         else "");
        diverged r;
      ]
  in
  knob_sweep
    ~title:(Printf.sprintf "memory degradation: %s")
    ~baseline:(with_heap unbounded) rows ~row_header:("heap", 8)
    ~cell_width:24 ~cell
    ~legend:
      "simulated seconds and slowdown vs the unbounded run; s = spilled, !o \
       = OOM retries, +r = map-join fell back to repartition, * = result \
       diverged"
    [ (bsbm_small, "MG1"); (chem, "G5") ]

(* Checkpoint-recovery sweep: fault rate crossed with checkpoint policy
   under deliberately harsh retry settings (two task attempts, no
   whole-job resubmissions), so the Never policy can actually abort
   while any active policy has recoveries to price, replaying only the
   jobs since the last checkpoint. Shows the checkpoint-write overhead
   at rate 0 and the replay cost as the rate rises. *)
let section_recovery () =
  let seed = 7 in
  let config rate policy =
    Plan_util.make ~base:options
      ~faults:
        {
          Fault_injector.default with
          Fault_injector.seed;
          task_fail_p = rate;
          max_attempts = 2;
          job_retries = 0;
        }
      ~checkpoint:{ Checkpoint.default with Checkpoint.policy }
      ()
  in
  let rows =
    List.concat_map
      (fun rate ->
        List.map
          (fun policy ->
            ( Fmt.str "%g %a" rate Checkpoint.pp_policy policy,
              config rate policy ))
          Checkpoint.[ Never; Every_k 1; Every_k 2; Adaptive (16 * 1024) ])
      [ 0.0; 0.1; 0.3 ]
  in
  let cell (r : Experiment.knob_run) =
    let recoveries = Metrics.get r.Experiment.k_counters "mr.recoveries" in
    let checkpoints = Stats.checkpoints_written r.Experiment.k_stats in
    String.concat ""
      [
        Printf.sprintf "%.1fs" (Stats.est_time_s r.Experiment.k_stats);
        (if recoveries > 0 then
           Printf.sprintf " r%d/%.0fs" recoveries
             (Stats.replayed_s r.Experiment.k_stats)
         else "");
        (if checkpoints > 0 then Printf.sprintf " c%d" checkpoints else "");
        diverged r;
      ]
  in
  knob_sweep
    ~title:(fun id ->
      Printf.sprintf "checkpoint recovery: %s (seed %d)" id seed)
    ~baseline:(config 0.0 Checkpoint.Never)
    rows ~row_header:("fault/policy", 20) ~cell_width:22 ~cell
    ~legend:
      "simulated seconds; rN/Ms = N recoveries replaying M s since the last \
       checkpoint, cK = K checkpoints written, aborted = ran out of retries, \
       * = result diverged"
    [ (bsbm_small, "MG1") ]

(* Query-server throughput: a generated BSBM arrival stream through the
   windowed-admission MQO server, sweeping admission window, scheduler
   policy, and sharing. The headline contrast: with sharing on, the
   MQO-capable engines run strictly fewer jobs and scan strictly fewer
   bytes than back-to-back execution, with every per-query answer
   identical to its solo run. *)
let section_server () =
  let workload =
    Rapida_server.Workload.generate_exn ~seed:11 ~n:(10 * !scale)
      ~mean_gap_s:3.0 ()
  in
  List.iter
    (fun kind ->
      let sweep =
        Experiment.throughput options kind (Lazy.force bsbm_small) workload
      in
      Fmt.pr "%a" Report.pp_throughput sweep)
    Engine.[ Hive_mqo; Rapid_analytics ]

(* Overload sweep: arrival rate crossed with per-attempt fault rate, the
   same deadline-carrying workload through a protected server (bounded
   queue, deadline-aware shedding, circuit breaker, degradation ladder)
   and an unprotected one. The headline: at the heaviest arrival x fault
   point, protection strictly wins on goodput — shedding a few queries
   (each with a typed fate) keeps the rest inside their deadlines. *)
let section_overload () =
  let sweep =
    Experiment.overload_sweep ~n:(12 * !scale) options Engine.Rapid_analytics
      (Lazy.force bsbm_small)
  in
  Fmt.pr "%a" Report.pp_overload sweep

(* With --bench-json FILE, the one artifact section that runs writes its
   committed BENCH document there: the bench name and scale, then the
   section's own fields. *)
let write_artifact bench fields =
  match !bench_json with
  | None -> ()
  | Some path ->
    let doc =
      Json.Obj
        (("bench", Json.String bench) :: ("scale", Json.Int !scale) :: fields)
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string doc);
        output_char oc '\n');
    Fmt.pr "wrote %s@." path

(* Static cardinality estimation: for each dataset, a one-pass catalog
   build (timed), then every catalog query on that dataset analyzed
   (timed), its plan nodes checked for interval soundness against the
   measured cardinalities, and all four engines' result cardinalities
   checked against the root interval. With --bench-json FILE the
   catalog-build and per-query analysis timings are written as the
   committed BENCH artifact — the on-disk perf trajectory. *)
let section_analyze () =
  let sweeps =
    List.map
      (fun (label, input, dataset) ->
        Experiment.estimation_sweep options ~label (Lazy.force input)
          (Catalog.by_dataset dataset))
      [
        ("BSBM-small", bsbm_small, Catalog.Bsbm);
        ("Chem2Bio2RDF", chem, Catalog.Chem2bio);
        ("PubMed", pubmed, Catalog.Pubmed);
      ]
  in
  List.iter
    (fun sweep ->
      Fmt.pr "%a" (Report.pp_estimation ~engines:all_engines) sweep)
    sweeps;
  let sweep_json (s : Experiment.estimation_sweep) =
    Json.Obj
      [
        ("label", Json.String s.Experiment.e_label);
        ("triples", Json.Int s.Experiment.e_triples);
        ( "catalog_build_ms",
          Json.Float (1000.0 *. s.Experiment.e_catalog_build_s) );
        ( "median_q_error",
          Json.Float (Experiment.median_q_error s.Experiment.e_estimations)
        );
        ( "queries",
          Json.List
            (List.map
               (fun (e : Experiment.estimation) ->
                 Json.Obj
                   [
                     ("id", Json.String e.Experiment.e_query.Catalog.id);
                     ( "analysis_ms",
                       Json.Float (1000.0 *. e.Experiment.e_analysis_s) );
                     ("nodes", Json.Int e.Experiment.e_nodes);
                     ("actual", Json.Int e.Experiment.e_actual);
                     ("q_error", Json.Float e.Experiment.e_q_error);
                     ( "max_node_q_error",
                       Json.Float e.Experiment.e_max_node_q_error );
                     ("violations", Json.Int e.Experiment.e_violations);
                   ])
               s.Experiment.e_estimations) );
      ]
  in
  write_artifact "analyze"
    [ ("datasets", Json.List (List.map sweep_json sweeps)) ]

(* Cost-based planner sweep: every multi-grouping BSBM query (plus a
   single-grouping control) planned cold and through the cache, the
   chosen orders priced against the heuristic orders at their upper
   bounds, per-engine byte-identity of optimized execution checked, and
   a repeated arrival stream driven through a planner-armed server so
   the plan cache shows its hit rate. With --bench-json FILE the
   planning/caching timings, cost deltas, and server cache counters are
   written as the committed BENCH artifact. *)
let section_optimize () =
  let module Server = Rapida_server.Server in
  let module Plan_cache = Rapida_planner.Plan_cache in
  let module Cost_model = Rapida_planner.Cost_model in
  let sweep =
    Experiment.optimize_sweep ~arrivals:(20 * !scale) options
      ~label:"BSBM-small" (Lazy.force bsbm_small)
      (queries [ "MG1"; "MG2"; "MG3"; "MG4"; "G1" ])
  in
  Fmt.pr "%a" (Report.pp_optimize ~engines:all_engines) sweep;
  let entry_json (e : Experiment.optimize_entry) =
    let delta_pct =
      if e.Experiment.p_heuristic_hi > 0.0 then
        100.0
        *. (e.Experiment.p_heuristic_hi -. e.Experiment.p_chosen_hi)
        /. e.Experiment.p_heuristic_hi
      else 0.0
    in
    Json.Obj
      [
        ("id", Json.String e.Experiment.p_query.Catalog.id);
        ("planning_ms", Json.Float e.Experiment.p_planning_ms);
        ("cache_hit_ms", Json.Float e.Experiment.p_replan_ms);
        ("units", Json.Int e.Experiment.p_units);
        ("hints", Json.Int e.Experiment.p_hints);
        ("heuristic_hi_cost_s", Json.Float e.Experiment.p_heuristic_hi);
        ("chosen_hi_cost_s", Json.Float e.Experiment.p_chosen_hi);
        ("cost_delta_pct", Json.Float delta_pct);
        ("all_verified", Json.Bool e.Experiment.p_all_verified);
        ("identical", Json.Bool e.Experiment.p_identical);
      ]
  in
  let server_json =
    match sweep.Experiment.p_server.Server.r_optimize with
    | None -> Json.Null
    | Some o ->
      let hits = o.Server.p_cache.Plan_cache.hits in
      let misses = o.Server.p_cache.Plan_cache.misses in
      Json.Obj
        [
          ("planned", Json.Int o.Server.p_planned);
          ("cache_hits", Json.Int hits);
          ("cache_misses", Json.Int misses);
          ( "hit_rate",
            Json.Float
              (if hits + misses > 0 then
                 float_of_int hits /. float_of_int (hits + misses)
               else 0.0) );
          ("invalidations", Json.Int o.Server.p_cache.Plan_cache.invalidations);
          ("evictions", Json.Int o.Server.p_cache.Plan_cache.evictions);
          ("misestimates", Json.Int o.Server.p_misestimates);
          ("fallbacks", Json.Int o.Server.p_fallbacks);
          ("breaker", Json.String o.Server.p_breaker);
        ]
  in
  write_artifact "optimize"
    [
      ( "policy",
        Json.String (Cost_model.policy_name sweep.Experiment.p_policy) );
      ("label", Json.String sweep.Experiment.p_label);
      ( "catalog_build_ms",
        Json.Float (1000.0 *. sweep.Experiment.p_catalog_build_s) );
      ( "queries",
        Json.List (List.map entry_json sweep.Experiment.p_entries) );
      ("server", server_json);
    ]

(* The fuzzing harness as a benchmark: a full-budget run of all four
   oracles over the built-in dataset (expected clean), plus a short run
   against an intentionally row-dropping engine that the differential
   oracle must catch — the self-test that the clean run's silence is
   meaningful. With --bench-json FILE the throughput (cases/sec),
   per-oracle timings, and shrink-step counts are written as the
   committed BENCH artifact. *)
let section_fuzz () =
  let module Fuzz = Rapida_fuzz.Fuzz in
  let sweep = Experiment.fuzz_sweep ~budget:(200 * !scale) () in
  Fmt.pr "@.== Fuzzing & differential oracles ==@.";
  Fmt.pr "%a" Fuzz.pp sweep.Experiment.f_clean;
  let broken = sweep.Experiment.f_broken in
  Fmt.pr "broken-engine run: %d cases, %d violation(s), caught=%b@."
    broken.Fuzz.r_cases (Fuzz.violations broken) sweep.Experiment.f_caught;
  (match broken.Fuzz.r_failures with
  | f :: _ ->
    Fmt.pr "first reproducer shrunk in %d step(s)@." f.Fuzz.f_shrink_steps
  | [] -> ());
  write_artifact "fuzz"
    [
      ("clean", Fuzz.to_json sweep.Experiment.f_clean);
      ("broken", Fuzz.to_json broken);
      ("caught", Json.Bool sweep.Experiment.f_caught);
      ("elapsed_s", Json.Float sweep.Experiment.f_elapsed_s);
    ]

(* Wall-clock microbenchmarks of the real in-memory executions, per
   engine, on representative queries from each workload. *)
let section_wall () =
  let open Bechamel in
  let bench_query label input_lazy id =
    let input = Lazy.force input_lazy in
    let q = Catalog.parse (Catalog.find_exn id) in
    List.map
      (fun kind ->
        (* Prepared outside the staged closure: the benchmark measures
           execution, not storage preparation. *)
        let session = Engine.prepare kind input in
        Test.make
          ~name:(Printf.sprintf "%s/%s/%s" label id (Engine.kind_name kind))
          (Staged.stage (fun () ->
               match Engine.execute session (Plan_util.context options) q with
               | Ok _ -> ()
               | Error e -> failwith (Engine.error_message e))))
      all_engines
  in
  let tests =
    Test.make_grouped ~name:"rapida"
      (bench_query "bsbm" bsbm_small "MG1"
      @ bench_query "chem" chem "MG6"
      @ bench_query "pubmed" pubmed "MG13")
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Fmt.pr "@.== Wall-clock (Bechamel, in-memory execution) ==@.";
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> (name, est) :: acc
        | _ -> (name, Float.nan) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, est) -> Fmt.pr "%-48s %12.2f ms/run@." name (est /. 1e6))
    rows

let () =
  Fmt.pr "RAPIDAnalytics benchmark harness (scale=%d)@." !scale;
  Fmt.pr "cluster model: %a@." Rapida_mapred.Cluster.pp options.cluster;
  if want "fig7" then section_fig7 ();
  if want "table3" then section_table3 ();
  if want "fig8a" then section_fig8a ();
  if want "fig8b" then section_fig8b ();
  if want "fig8c" then section_fig8c ();
  if want "table4" then section_table4 ();
  if want "ablation" then section_ablation ();
  if want "faults" then section_faults ();
  if want "memory" then section_memory ();
  if want "recovery" then section_recovery ();
  if want "server" then section_server ();
  if want "overload" then section_overload ();
  if want "analyze" then section_analyze ();
  if want "optimize" then section_optimize ();
  if want "fuzz" then section_fuzz ();
  if want "wall" then section_wall ()
