module Ast = Rapida_sparql.Ast
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Mr_relops = Rapida_relational.Mr_relops
module Vp_store = Rapida_relational.Vp_store
module Workflow = Rapida_mapred.Workflow
module Stats = Rapida_mapred.Stats

let all_ids (composite : Composite.t) =
  List.map (fun (p : Composite.pattern_info) -> p.pat_id) composite.patterns

let is_prim composite (c : Composite.ctp) =
  List.for_all (fun id -> List.mem id c.owners) (all_ids composite)

(* One composite star, assembled in one multiway MR cycle: inner joins on
   the shared triples, left outer joins on the pattern-specific ones. *)
let star_table wf vp composite (star : Composite.star) =
  let required, optional =
    List.partition (is_prim composite) star.ctps
  in
  let scan = Plan_util.ctp_table vp ~subject_var:star.subject_var in
  Plan_util.star_join wf
    ~name:(Printf.sprintf "mqo_star%d" star.cs_id)
    ~required:(List.map scan required)
    ~optional:(List.map scan optional)

let eval_composite wf vp (composite : Composite.t) =
  let scan id =
    star_table wf vp composite
      (List.find (fun (s : Composite.star) -> s.cs_id = id) composite.stars)
  in
  match composite.stars with
  | [ only ] -> star_table wf vp composite only
  | _ ->
    Composite.fold_walk
      (Composite.join_plan
         ?star_order:(Rapida_mapred.Exec_ctx.join_order (Workflow.ctx wf) (-1))
         composite)
      ~first:(fun (s : Composite.step) ->
        Plan_util.pair_join wf ~name:"mqo_join0" (scan s.joined.star)
          (scan s.added.star))
      ~next:(fun i acc (s : Composite.step) ->
        Plan_util.pair_join wf
          ~name:(Printf.sprintf "mqo_join%d" i)
          acc (scan s.added.star))

(* Columns whose non-NULL value witnesses that a pattern's own secondary
   triples matched. *)
let witness_cols composite (info : Composite.pattern_info) =
  List.concat_map
    (fun (star : Composite.star) ->
      List.filter_map
        (fun (c : Composite.ctp) ->
          if List.mem info.pat_id c.owners && not (is_prim composite c) then
            Some c.obj_var
          else None)
        star.ctps)
    composite.Composite.stars

let extract_and_aggregate wf composite q_opt (sq : Analytical.subquery)
    (info : Composite.pattern_info) =
  let renames =
    List.map (fun (v, cv) -> (cv, v)) info.var_map
  in
  (* A variable the pattern repeats in a star maps to one composite
     column per triple it is the object of: the first one carries it. *)
  let cols = Composite.pattern_columns composite info in
  let var_of c = Option.value ~default:c (List.assoc_opt c renames) in
  let first c = List.find (fun c' -> var_of c' = var_of c) cols in
  let pos = Table.col_index q_opt in
  let witnesses = List.map pos (witness_cols composite info) in
  let repeats =
    List.filter_map
      (fun c -> if first c = c then None else Some (pos (first c), pos c))
      cols
  in
  (* Map-side: keep rows where the pattern's secondary witnesses bound
     and a repeated variable's columns agree. *)
  let filtered =
    Relops.filter
      (fun _ row ->
        List.for_all (fun i -> row.(i) <> None) witnesses
        && List.for_all
             (fun (i, j) ->
               match row.(i), row.(j) with
               | Some x, Some y -> Rapida_rdf.Term.equal x y
               | _ -> false)
             repeats)
      q_opt
  in
  (* One MR cycle: distinct bindings of the original pattern (the left
     outer joins duplicated them across other patterns' optional
     expansions). *)
  let distinct =
    Mr_relops.distinct_project wf
      ~name:(Printf.sprintf "mqo_extract%d" info.pat_id)
      ~cols:(List.filter (fun c -> first c = c) cols)
      filtered
  in
  (* Back to the pattern's own variable names, then filters (map-side) and
     one aggregation cycle. *)
  let renamed = Relops.rename_cols distinct renames in
  let renamed, pending = Plan_util.apply_ready_filters renamed sq.filters in
  if pending <> [] then
    failwith "filter variables not bound by the graph pattern";
  Mr_relops.group_aggregate wf
    ~name:(Printf.sprintf "mqo_groupby%d" info.pat_id)
    ~keys:sq.group_by ~aggs:(Plan_util.agg_specs sq) renamed
  |> Plan_util.finish_subquery sq

let run_composite ctx vp composite members =
  let wf = Workflow.create (Plan_util.hive_ctx ctx) in
  let q_opt = eval_composite wf vp composite in
  let tables =
    List.map
      (fun (q : Analytical.t) ->
        List.map
          (fun (sq : Analytical.subquery) ->
            extract_and_aggregate wf composite q_opt sq
              (Composite.pattern_info composite sq.sq_id))
          q.subqueries
        |> Plan_util.final_join wf q)
      members
  in
  (wf, tables)

let run ctx vp (q : Analytical.t) =
  match Composite.build q.subqueries with
  | Error _ -> Hive_naive.run ctx vp q
  | Ok composite -> (
    match run_composite ctx vp composite [ q ] with
    | wf, [ table ] -> (table, Workflow.stats wf)
    | _ -> assert false)
