(** Hive (MQO) baseline: the multi-query-optimization rewriting of Le et
    al. applied to the analytical query's graph patterns, executed
    Hive-style. The overlapping patterns are rewritten into one composite
    query whose pattern-specific triples become OPTIONAL (left outer
    joins); the composite result is materialized, then each original
    pattern's distinct bindings are extracted (one MR cycle per pattern)
    and aggregated (another cycle per pattern).

    As the paper observes, the materialization boundary prevents early
    projection and partial aggregation across the two HiveQL queries —
    the extraction re-reads the full composite result once per pattern.
    Falls back to {!Hive_naive} when the patterns do not overlap. *)

module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Vp_store = Rapida_relational.Vp_store
module Stats = Rapida_mapred.Stats

(** [run ctx vp q] evaluates [q]: the composite plan of its subqueries
    when they overlap ({!run_composite} with [q] as the one member),
    else {!Hive_naive.run}.
    @raise Failure or [Invalid_argument] when no plan exists, and
    {!Rapida_mapred.Workflow.Aborted} when a job exhausts its retries. *)
val run :
  Rapida_mapred.Exec_ctx.t -> Vp_store.t -> Analytical.t -> Table.t * Stats.t

(** [run_composite ctx vp composite members] evaluates [composite] once
    for several member queries — the cross-query MQO of the query server
    ({!Batch_exec}) — and returns the workflow it ran with one result
    table per member, in order. The composite is materialized once; then
    each member subquery's distinct bindings are extracted and
    aggregated, and each member's aggregates are final-joined. Member
    subquery ids are the composite's pattern ids. A solo run is the
    one-member case. Raises as {!run}. *)
val run_composite :
  Rapida_mapred.Exec_ctx.t -> Vp_store.t -> Composite.t -> Analytical.t list ->
  Rapida_mapred.Workflow.t * Table.t list
