module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Ops = Rapida_ntga.Ops
module Tg_store = Rapida_ntga.Tg_store
module Workflow = Rapida_mapred.Workflow
module Stats = Rapida_mapred.Stats
module Exec_ctx = Rapida_mapred.Exec_ctx
module Table = Rapida_relational.Table

(* Star-local filters are pushed into the scan only when the composite
   serves a single subquery; with several patterns the paper's scope
   assumes identical filters across patterns, and the catalog's
   multi-pattern queries carry none, so the general case keeps filters
   in the aggregation phase. *)
let star_filter_refine planner subqueries (star : Composite.star) =
  match subqueries with
  | _ when not planner.Exec_ctx.ntga_filter_pushdown -> Option.some
  | [ (sq : Analytical.subquery) ] -> (
    match List.find_opt (fun (s : Star.t) -> s.id = star.cs_id) sq.stars with
    | Some orig ->
      let refine, _, _ = Plan_util.push_star_filters orig sq.filters in
      refine
    | None -> Option.some)
  | _ -> Option.some

(* Map-side source of a composite star: scan the partitions covering the
   primary properties, push star-local filters, then apply the Optional
   Group Filter. *)
let star_source planner subqueries composite store (star : Composite.star) =
  let prim = Composite.prim_reqs composite star in
  let sec = Composite.sec_reqs composite star in
  let props = List.map (fun (r : Ops.prop_req) -> r.prop) prim in
  let tgs = Tg_store.scan store ~required:props in
  let filter_refine = star_filter_refine planner subqueries star in
  let refine tg =
    match filter_refine tg with
    | None -> None
    | Some tg -> (
      match Ops.opt_group_filter ~prim ~opt:sec [ tg ] with
      | [ tg' ] -> Some tg'
      | _ -> None)
  in
  Phys_ntga.Tgs { tgs; refine; star = star.cs_id }

(* α conditions restricted to the stars joined so far: a partial join is
   kept when at least one pattern could still match it. *)
let partial_keep (composite : Composite.t) (step : Composite.step) joined =
  List.exists
    (fun (p : Composite.pattern_info) ->
      let restricted =
        List.filter (fun (cs_id, _) -> List.mem cs_id step.prefix) p.alpha
      in
      Composite.alpha_holds restricted joined)
    composite.patterns

let eval_composite wf subqueries store (composite : Composite.t) =
  let planner = Exec_ctx.planner (Workflow.ctx wf) in
  let source id =
    star_source planner subqueries composite store
      (List.find (fun (s : Composite.star) -> s.cs_id = id) composite.stars)
  in
  match composite.stars with
  | [ only ] -> Phys_ntga.matches (source only.cs_id)
  | _ ->
    Composite.fold_walk
      (Composite.join_plan
         ?star_order:(Exec_ctx.join_order (Workflow.ctx wf) (-1))
         composite)
      ~first:(fun (s : Composite.step) ->
        Phys_ntga.join_cycle wf ~name:"composite_join0"
          ~left:(source s.joined.star) ~right:(source s.added.star)
          ~left_key:(Rapid_plus.key_of_endpoint s.joined)
          ~right_key:(Rapid_plus.key_of_endpoint s.added)
          ~keep:(partial_keep composite s))
      ~next:(fun i acc (s : Composite.step) ->
        Phys_ntga.join_cycle wf
          ~name:(Printf.sprintf "composite_join%d" i)
          ~left:(Phys_ntga.Pre acc) ~right:(source s.added.star)
          ~left_key:(Rapid_plus.key_of_endpoint s.joined)
          ~right_key:(Rapid_plus.key_of_endpoint s.added)
          ~keep:(partial_keep composite s))

(* The parallel Agg-Join: one agj per subquery, all evaluated in a single
   MR cycle over the composite matches. Bindings are extracted with each
   subquery's original star patterns against the joined parts they map
   to (the implicit n-split). *)
let agjs_of planner composite subqueries =
  List.map
    (fun (sq : Analytical.subquery) ->
      let info = Composite.pattern_info composite sq.sq_id in
      let stars =
        List.map
          (fun (orig_id, cs_id) ->
            (cs_id, List.find (fun (s : Star.t) -> s.id = orig_id) sq.stars))
          info.star_of
      in
      let filters =
        match subqueries with
        | [ _ ] -> Plan_util.pending_filters planner sq.stars sq.filters
        | _ -> sq.filters
      in
      {
        Phys_ntga.agj_id = sq.sq_id;
        stars;
        filters;
        group_by = sq.group_by;
        aggregates = sq.aggregates;
        alpha = Composite.alpha_holds info.alpha;
      })
    subqueries

let run_composite ctx store composite members =
  let wf = Workflow.create ctx in
  let planner = Exec_ctx.planner ctx in
  let pooled =
    List.concat_map (fun (q : Analytical.t) -> q.subqueries) members
  in
  let joined = eval_composite wf pooled store composite in
  let aggregated =
    Phys_ntga.agg_cycle wf ~name:"parallel_aggjoin"
      ~combiner:planner.Exec_ctx.ntga_combiner ~input:joined
      (agjs_of planner composite pooled)
    |> List.combine
         (List.map (fun (sq : Analytical.subquery) -> sq.sq_id) pooled)
  in
  let tables =
    List.map
      (fun (q : Analytical.t) ->
        List.map
          (fun (sq : Analytical.subquery) ->
            Plan_util.finish_subquery sq (List.assoc sq.sq_id aggregated))
          q.subqueries
        |> Plan_util.final_join wf q)
      members
  in
  (wf, tables)

let run ctx store (q : Analytical.t) =
  match Composite.build q.subqueries with
  | Error _ ->
    (* Non-overlapping patterns: the optimization does not apply; evaluate
       with the naive NTGA plan. *)
    Rapid_plus.run ctx store q
  | Ok composite -> (
    match run_composite ctx store composite [ q ] with
    | wf, [ table ] -> (table, Workflow.stats wf)
    | _ -> assert false)

let plan_description (q : Analytical.t) =
  match Composite.build q.subqueries with
  | Ok composite ->
    Fmt.str
      "@[<v>composite rewriting applies:@ %a@ %d parallel Agg-Join(s) in \
       one MR cycle@]"
      Composite.pp composite
      (List.length q.subqueries)
  | Error msg -> Fmt.str "composite rewriting does not apply: %s" msg
