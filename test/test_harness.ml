(* Experiment harness: runs collect verified per-engine statistics and the
   reports render the paper-style tables. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Experiment = Rapida_harness.Experiment
module Report = Rapida_harness.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let input =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~products:80 ())))

let options = Plan_util.default_options

let run_mg1 =
  lazy
    (Experiment.run_query options ~label:"test" (Lazy.force input)
       (Catalog.find_exn "MG1"))

let test_run_collects_all_engines () =
  let run = Lazy.force run_mg1 in
  check_int "four engine results" 4 (List.length run.Experiment.results);
  check_bool "all agreed" true (Experiment.all_agreed run);
  List.iter
    (fun (r : Experiment.engine_result) ->
      check_bool "cycles positive" true (r.cycles > 0);
      check_bool "est time positive" true (r.est_time_s > 0.0);
      check_bool "no error" true (r.error = None);
      check_bool "rows" true (r.result_rows > 0);
      let module Trace = Rapida_mapred.Trace in
      let module Stats = Rapida_mapred.Stats in
      check_bool "one job span per cycle" true
        (List.length (Trace.spans_with_cat r.trace "job") = r.cycles);
      check_bool "phase breakdown covers the estimate" true
        (Float.abs (Stats.breakdown_total_s r.phases -. r.est_time_s)
        < 1e-6 *. Float.max 1.0 r.est_time_s))
    run.Experiment.results

let test_result_for () =
  let run = Lazy.force run_mg1 in
  check_bool "find rapid-analytics" true
    (Experiment.result_for run Engine.Rapid_analytics <> None);
  let ra = Option.get (Experiment.result_for run Engine.Rapid_analytics) in
  let naive = Option.get (Experiment.result_for run Engine.Hive_naive) in
  check_bool "RA uses fewer cycles than naive Hive" true
    (ra.Experiment.cycles < naive.Experiment.cycles)

let test_speedup () =
  let run = Lazy.force run_mg1 in
  match
    Report.speedup run ~baseline:Engine.Hive_naive
      ~target:Engine.Rapid_analytics
  with
  | Some s -> check_bool "speedup > 1" true (s > 1.0)
  | None -> Alcotest.fail "expected a speedup"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_reports_render () =
  let runs = [ Lazy.force run_mg1 ] in
  let comparison =
    Fmt.str "%a" (Report.pp_comparison ~title:"T" ~engines:Engine.all_kinds) runs
  in
  check_bool "mentions query" true (contains ~needle:"MG1" comparison);
  check_bool "mentions engine" true (contains ~needle:"RAPIDAnalytics" comparison);
  let cycles =
    Fmt.str "%a" (Report.pp_cycles ~title:"T" ~engines:Engine.all_kinds) runs
  in
  check_bool "cycles table renders" true (contains ~needle:"map-only" cycles);
  let bytes =
    Fmt.str "%a" (Report.pp_bytes ~title:"T" ~engines:Engine.all_kinds) runs
  in
  check_bool "bytes table renders" true (contains ~needle:"KB" bytes);
  let phases =
    Fmt.str "%a" (Report.pp_phases ~title:"T" ~engines:Engine.all_kinds) runs
  in
  check_bool "phase table renders" true
    (contains ~needle:"startup/map/shuffle+sort/reduce" phases);
  let verification = Fmt.str "%a" Report.pp_verification runs in
  check_bool "verification summary" true (contains ~needle:"1/1" verification)

let test_engine_subset () =
  let run =
    Experiment.run_query ~engines:[ Engine.Rapid_analytics ] options
      ~label:"test" (Lazy.force input) (Catalog.find_exn "G1")
  in
  check_int "one engine" 1 (List.length run.Experiment.results)

(* The one knob-sweep loop: a row equal to the baseline reproduces it on
   every engine, and a row whose workflow cannot finish (99% of task
   attempts crash, with no retries) comes back as an aborted point
   instead of raising. *)
let test_knob_sweep () =
  let module Fault_injector = Rapida_mapred.Fault_injector in
  let doomed =
    Plan_util.make ~base:options
      ~faults:
        {
          Fault_injector.default with
          Fault_injector.task_fail_p = 0.99;
          max_attempts = 1;
          job_retries = 0;
        }
      ()
  in
  let rows =
    Experiment.knob_sweep ~baseline:options
      [ ("same", options); ("doomed", doomed) ]
      (Lazy.force input) (Catalog.find_exn "MG1")
  in
  (match rows with
  | [ ("same", same); ("doomed", aborted) ] ->
    check_int "a point per engine" (List.length Engine.all_kinds)
      (List.length same);
    List.iter
      (function
        | Experiment.Completed r ->
          Alcotest.(check (float 0.0)) "slowdown 1" 1.0 r.Experiment.k_slowdown;
          check_bool "matches baseline" true r.Experiment.k_matches
        | Experiment.Aborted -> Alcotest.fail "baseline row aborted")
      same;
    check_int "a point per engine" (List.length Engine.all_kinds)
      (List.length aborted);
    List.iter
      (function
        | Experiment.Aborted -> ()
        | Experiment.Completed _ -> Alcotest.fail "doomed row completed")
      aborted
  | _ -> Alcotest.fail "rows come back labelled, in order");
  let table =
    Fmt.str "%a"
      (Report.pp_knob_sweep ~title:"T" ~row_header:("row", 6) ~cell_width:10
         ~cell:(fun r -> Printf.sprintf "%.2fx" r.Experiment.k_slowdown)
         ~legend:"L")
      rows
  in
  check_bool "completed cell" true (contains ~needle:"same        1.00x" table);
  check_bool "aborted cell" true (contains ~needle:"   aborted" table)

let suite =
  [
    Alcotest.test_case "run collects all engines" `Quick test_run_collects_all_engines;
    Alcotest.test_case "result_for and cycle ordering" `Quick test_result_for;
    Alcotest.test_case "speedup" `Quick test_speedup;
    Alcotest.test_case "reports render" `Quick test_reports_render;
    Alcotest.test_case "engine subset" `Quick test_engine_subset;
    Alcotest.test_case "knob sweep: baseline row and aborted row" `Quick
      test_knob_sweep;
  ]
