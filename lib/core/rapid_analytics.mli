(** RAPIDAnalytics: the paper's contribution. Overlapping graph patterns
    are rewritten into one composite graph pattern evaluated with shared
    scans and joins (optional group filter + α-join), and all independent
    grouping-aggregations are computed in a single parallel Agg-Join
    cycle, followed by a map-only join of the aggregated triplegroups.

    When the patterns do not overlap (Def. 3.2 fails), evaluation falls
    back to the RAPID+ plan — the paper restricts the optimization to
    overlapping patterns. *)

module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Tg_store = Rapida_ntga.Tg_store
module Stats = Rapida_mapred.Stats

(** [run ctx store q] evaluates [q]: the composite plan of its
    subqueries when they overlap ({!run_composite} with [q] as the one
    member), else {!Rapid_plus.run}.
    @raise Failure or [Invalid_argument] when no plan exists, and
    {!Rapida_mapred.Workflow.Aborted} when a job exhausts its retries. *)
val run :
  Rapida_mapred.Exec_ctx.t -> Tg_store.t -> Analytical.t -> Table.t * Stats.t

(** [run_composite ctx store composite members] evaluates [composite]
    once for several member queries — the cross-query MQO of the query
    server ({!Batch_exec}) — and returns the workflow it ran with one
    result table per member, in order: one NTGA composite evaluation
    (scan, group filter, α-joins), {e one} parallel Agg-Join cycle
    computing every member subquery's grouping, then each member's
    final join. Member subquery ids are the composite's pattern ids.
    Star-local filters are pushed into the scan only when the members
    hold a single subquery between them. A solo run is the one-member
    case. Raises as {!run}. *)
val run_composite :
  Rapida_mapred.Exec_ctx.t -> Tg_store.t -> Composite.t -> Analytical.t list ->
  Rapida_mapred.Workflow.t * Table.t list

(** [plan_description q] renders the composite rewriting that [run] would
    use (or the overlap failure), for the CLI's explain command. *)
val plan_description : Analytical.t -> string
