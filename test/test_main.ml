let () =
  Alcotest.run "rapida"
    [
      ("rdf", Test_rdf.suite);
      ("sparql", Test_sparql.suite);
      ("ntga", Test_ntga.suite);
      ("mapred", Test_mapred.suite);
      ("trace", Test_trace.suite);
      ("relational", Test_relational.suite);
      ("to-sparql", Test_to_sparql.suite);
      ("refengine", Test_refengine.suite);
      ("overlap", Test_overlap.suite);
      ("datagen", Test_datagen.suite);
      ("queries", Test_queries.suite);
      ("engines", Test_engines.suite);
      ("grouping-sets", Test_grouping_sets.suite);
      ("ablations", Test_ablations.suite);
      ("unbound", Test_unbound.suite);
      ("having", Test_having.suite);
      ("harness", Test_harness.suite);
      ("properties", Test_props.suite);
      ("faults", Test_faults.suite);
      ("recovery", Test_recovery.suite);
      ("memory", Test_memory.suite);
      ("analysis", Test_analysis.suite);
      ("card", Test_card.suite);
      ("server", Test_server.suite);
      ("planner", Test_planner.suite);
      ("fuzz", Test_fuzz.suite);
      ("complexity", Test_complexity.suite);
    ]
