(* Cross-engine agreement: every engine must produce exactly the reference
   evaluator's result on every catalog query, over every dataset. This is
   the central correctness oracle of the reproduction. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Relops = Rapida_relational.Relops
module Table = Rapida_relational.Table
module Stats = Rapida_mapred.Stats

let bsbm_graph = lazy (Rapida_datagen.Bsbm.(generate (config ~products:120 ())))

let chem_graph =
  lazy (Rapida_datagen.Chem2bio.(generate (config ~compounds:60 ())))

let pubmed_graph =
  lazy (Rapida_datagen.Pubmed.(generate (config ~publications:150 ())))

let graph_for = function
  | Catalog.Bsbm -> Lazy.force bsbm_graph
  | Catalog.Chem2bio -> Lazy.force chem_graph
  | Catalog.Pubmed -> Lazy.force pubmed_graph

let inputs = Hashtbl.create 4

let input_for dataset =
  match Hashtbl.find_opt inputs dataset with
  | Some i -> i
  | None ->
    let i = Engine.input_of_graph (graph_for dataset) in
    Hashtbl.add inputs dataset i;
    i

let show_table t =
  Fmt.str "%a" Table.pp (Relops.canonicalize t)

(* Bridge to the session API, keeping the old string-error shape these
   tests match on. *)
let run kind ctx input q =
  Result.map_error Engine.error_message
    (Engine.execute (Engine.prepare kind input) ctx q)

let check_query_all_engines entry () =
  let q = Catalog.parse entry in
  let graph = graph_for entry.Catalog.dataset in
  let expected = Rapida_ref.Ref_engine.run graph q in
  List.iter
    (fun kind ->
      match
        run kind (Plan_util.context Plan_util.default_options)
          (input_for entry.Catalog.dataset) q
      with
      | Error msg ->
        Alcotest.failf "%s on %s: engine error: %s" (Engine.kind_name kind)
          entry.Catalog.id msg
      | Ok { table; _ } ->
        if not (Relops.same_results expected table) then
          Alcotest.failf
            "%s on %s: results differ.@.--- expected (reference):@.%s@.--- \
             got:@.%s"
            (Engine.kind_name kind) entry.Catalog.id (show_table expected)
            (show_table table))
    Engine.all_kinds

let non_empty_results entry () =
  (* Guards against vacuous agreement: catalog queries must return rows on
     the generated datasets. *)
  let q = Catalog.parse entry in
  let graph = graph_for entry.Catalog.dataset in
  let result = Rapida_ref.Ref_engine.run graph q in
  Alcotest.(check bool)
    (entry.Catalog.id ^ " returns rows")
    true
    (Table.cardinality result > 0)

(* MR-cycle contracts from the paper (§5.2) for the 2-star and 3-star
   multi-grouping queries. *)
let cycle_contract id kind expected () =
  let entry = Catalog.find_exn id in
  let q = Catalog.parse entry in
  match
    run kind (Plan_util.context Plan_util.default_options) (input_for entry.Catalog.dataset) q
  with
  | Error msg -> Alcotest.failf "engine error: %s" msg
  | Ok { stats; _ } ->
    Alcotest.(check int)
      (Printf.sprintf "%s cycles on %s" (Engine.kind_name kind) id)
      expected (Stats.cycles stats)

(* The static cycle predictor must match the executed workflow length for
   every catalog query and engine. *)
let prediction_matches_execution entry () =
  let q = Catalog.parse entry in
  List.iter
    (fun kind ->
      match
        run kind (Plan_util.context Plan_util.default_options)
          (input_for entry.Catalog.dataset) q
      with
      | Error msg ->
        Alcotest.failf "%s on %s: %s" (Engine.kind_name kind) entry.Catalog.id
          msg
      | Ok { stats; _ } ->
        Alcotest.(check int)
          (Printf.sprintf "%s cycles on %s" (Engine.kind_name kind)
             entry.Catalog.id)
          (Rapida_core.Plan_summary.predict kind q)
          (Stats.cycles stats))
    Engine.all_kinds

(* Basic graph patterns whose star-join graph has a cycle. Every edge
   past a spanning tree joins two stars that are already joined; the
   engines must skip it rather than join one of those stars again. *)
let cyclic_queries =
  [
    ( "triangle",
      "SELECT ?c ?n { { SELECT ?c (COUNT(?o1) AS ?n) { ?o1 product ?p . \
       ?o1 vendor ?v . ?o2 product ?p . ?o2 vendor ?v . ?v country ?c . } \
       GROUP BY ?c } }" );
    ( "4-cycle",
      "SELECT ?c ?n { { SELECT ?c (COUNT(?o1) AS ?n) { ?o1 product ?p . \
       ?o1 vendor ?v . ?o2 product ?p . ?o2 vendor ?v2 . ?v country ?c . \
       ?v2 country ?c . } GROUP BY ?c } }" );
  ]

(* A variable repeated inside one triple pattern or one star: the join
   must check that its bindings agree, so these answers are mostly
   empty. "Repeated in a later subquery" repeats it only in the second
   of two overlapping subqueries, where the shared-plan engines fold it
   into the first one's columns. The last query lists a variable twice
   in GROUP BY and in the outer SELECT: each result column is named
   once. *)
let repeated_var_queries =
  [
    ( "shared object in a star",
      "SELECT (COUNT(?o) AS ?n) { ?o validFrom ?d . ?o validTo ?d . }" );
    ( "group key repeated in a star",
      "SELECT ?f (COUNT(?p) AS ?n) { ?p productFeature ?f . ?p label ?l . \
       ?p producer ?f . } GROUP BY ?f" );
    ( "subject as object",
      "SELECT (COUNT(?o) AS ?n) { ?o validFrom ?o . ?o price ?pr . }" );
    ( "duplicate triple pattern",
      "SELECT ?f (COUNT(?p) AS ?n) { ?p productFeature ?f . \
       ?p productFeature ?f . } GROUP BY ?f" );
    ( "repeated in a later subquery",
      "SELECT ?f ?n ?m { { SELECT ?f (COUNT(?p) AS ?n) { \
       ?p productFeature ?f . ?p productFeature ?g . } GROUP BY ?f } \
       { SELECT ?f (COUNT(?p) AS ?m) { ?p productFeature ?f . \
       ?p productFeature ?f . } GROUP BY ?f } }" );
    ( "listed twice in GROUP BY and SELECT",
      "SELECT ?f ?f ?n ?m { { SELECT ?f (COUNT(?p) AS ?n) { \
       ?p productFeature ?f . ?p label ?l . } GROUP BY ?f ?f } \
       { SELECT ?f (COUNT(?p) AS ?m) { ?p productFeature ?f . } \
       GROUP BY ?f } }" );
  ]

let cyclic_graph =
  lazy (Rapida_datagen.Bsbm.(generate (config ~seed:42 ~products:60 ())))

let pattern_agrees ?(nonempty = true) src () =
  let graph = Lazy.force cyclic_graph in
  let q =
    match Rapida_sparql.Analytical.parse src with
    | Ok q -> q
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  let expected = Rapida_ref.Ref_engine.run graph q in
  if nonempty then
    Alcotest.(check bool) "reference returns rows" true
      (Table.cardinality expected > 0);
  let input = Engine.input_of_graph graph in
  List.iter
    (fun kind ->
      match run kind (Plan_util.context Plan_util.default_options) input q with
      | Error msg ->
        Alcotest.failf "%s: engine error: %s" (Engine.kind_name kind) msg
      | Ok { table; _ } ->
        if not (Relops.same_results expected table) then
          Alcotest.failf "%s: results differ.@.--- expected:@.%s@.--- got:@.%s"
            (Engine.kind_name kind) (show_table expected) (show_table table))
    Engine.all_kinds

let suite =
  let cyclic =
    List.map
      (fun (name, src) ->
        Alcotest.test_case
          (Printf.sprintf "cyclic %s pattern agrees across engines" name)
          `Quick (pattern_agrees src))
      cyclic_queries
  in
  let agreement =
    List.map
      (fun entry ->
        Alcotest.test_case
          (Printf.sprintf "%s agrees across engines" entry.Catalog.id)
          `Slow
          (check_query_all_engines entry))
      Catalog.all
  in
  let coverage =
    List.map
      (fun entry ->
        Alcotest.test_case
          (Printf.sprintf "%s non-empty" entry.Catalog.id)
          `Quick (non_empty_results entry))
      Catalog.all
  in
  let contracts =
    [
      Alcotest.test_case "MG1 cycles: rapid-analytics = 3" `Quick
        (cycle_contract "MG1" Engine.Rapid_analytics 3);
      Alcotest.test_case "MG1 cycles: rapid-plus = 5" `Quick
        (cycle_contract "MG1" Engine.Rapid_plus 5);
      Alcotest.test_case "MG1 cycles: hive-naive = 9" `Quick
        (cycle_contract "MG1" Engine.Hive_naive 9);
      Alcotest.test_case "MG3 cycles: rapid-analytics = 4" `Quick
        (cycle_contract "MG3" Engine.Rapid_analytics 4);
      Alcotest.test_case "MG3 cycles: rapid-plus = 7" `Quick
        (cycle_contract "MG3" Engine.Rapid_plus 7);
      Alcotest.test_case "G1 cycles: rapid-analytics = 2" `Quick
        (cycle_contract "G1" Engine.Rapid_analytics 2);
    ]
  in
  let predictions =
    List.map
      (fun entry ->
        Alcotest.test_case
          (Printf.sprintf "%s cycle prediction" entry.Catalog.id)
          `Quick
          (prediction_matches_execution entry))
      Catalog.all
  in
  let repeated =
    List.map
      (fun (name, src) ->
        Alcotest.test_case
          (Printf.sprintf "repeated variable (%s) agrees across engines" name)
          `Quick
          (pattern_agrees ~nonempty:false src))
      repeated_var_queries
  in
  agreement @ coverage @ contracts @ predictions @ cyclic @ repeated
