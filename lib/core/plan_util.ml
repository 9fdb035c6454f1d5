open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Analytical = Rapida_sparql.Analytical
module Table = Rapida_relational.Table
module Relops = Rapida_relational.Relops
module Mr_relops = Rapida_relational.Mr_relops
module Vp_store = Rapida_relational.Vp_store
module Workflow = Rapida_mapred.Workflow
module Job = Rapida_mapred.Job
module Exec_ctx = Rapida_mapred.Exec_ctx

type options = {
  cluster : Rapida_mapred.Cluster.t;
  map_join_threshold : int;
  hive_compression : float;
  ntga_combiner : bool;
  ntga_filter_pushdown : bool;
  faults : Rapida_mapred.Fault_injector.config;
  checkpoint : Rapida_mapred.Checkpoint.config;
  verify_plans : bool;
  join_orders : (int * int list) list;
}

let default_options =
  {
    cluster = Rapida_mapred.Cluster.default;
    map_join_threshold = 64 * 1024;
    hive_compression = 0.06;
    ntga_combiner = true;
    ntga_filter_pushdown = true;
    faults = Rapida_mapred.Fault_injector.default;
    checkpoint = Rapida_mapred.Checkpoint.default;
    verify_plans = false;
    join_orders = [];
  }

let make ?(base = default_options) ?cluster ?map_join_threshold
    ?hive_compression ?ntga_combiner ?ntga_filter_pushdown ?faults
    ?checkpoint ?verify_plans ?join_orders () =
  {
    cluster = Option.value ~default:base.cluster cluster;
    map_join_threshold =
      Option.value ~default:base.map_join_threshold map_join_threshold;
    hive_compression =
      Option.value ~default:base.hive_compression hive_compression;
    ntga_combiner = Option.value ~default:base.ntga_combiner ntga_combiner;
    ntga_filter_pushdown =
      Option.value ~default:base.ntga_filter_pushdown ntga_filter_pushdown;
    faults = Option.value ~default:base.faults faults;
    checkpoint = Option.value ~default:base.checkpoint checkpoint;
    verify_plans = Option.value ~default:base.verify_plans verify_plans;
    join_orders = Option.value ~default:base.join_orders join_orders;
  }

(* Broadcast-everything heuristic: with the map-join threshold at
   max_int every star join is planned map-only, skipping planning-time
   cost comparisons and shuffle cycles. Answers are unchanged (the
   ablation identity properties cover the threshold), only cheaper and
   lower-variance — the overloaded server's last ladder rung. *)
let degrade_options base =
  (* Degraded plans also drop any optimizer hints: the heuristic
     (pre-optimizer) order is the misestimate-defense fallback, so
     degradation must land exactly there. *)
  { base with map_join_threshold = max_int; join_orders = [] }

let context options =
  Exec_ctx.create ~cluster:options.cluster
    ~planner:
      {
        Exec_ctx.map_join_threshold = options.map_join_threshold;
        hive_compression = options.hive_compression;
        ntga_combiner = options.ntga_combiner;
        ntga_filter_pushdown = options.ntga_filter_pushdown;
      }
    ~faults:(Rapida_mapred.Fault_injector.create options.faults)
    ~checkpoint:options.checkpoint ~verify_plans:options.verify_plans
    ~join_orders:options.join_orders ()

let hive_ctx ctx =
  Exec_ctx.with_cluster ctx
    {
      (Exec_ctx.cluster ctx) with
      Rapida_mapred.Cluster.compression_ratio =
        (Exec_ctx.planner ctx).Exec_ctx.hive_compression;
    }

(* The planner options a workflow's jobs were configured with. *)
let planner_of wf = Exec_ctx.planner (Workflow.ctx wf)

(* --- Memory-aware broadcast decisions ----------------------------------- *)

(* A build side broadcasts only when it also fits the per-task container
   heap: a map-join whose hash table overflows the heap would OOM every
   mapper, so the planner degrades to a repartition join instead — an
   extra full MR cycle, priced honestly (Hive's
   hive.mapjoin.localtask.max.memory safety fallback). *)
let task_heap_bytes wf =
  (Exec_ctx.cluster (Workflow.ctx wf)).Rapida_mapred.Cluster.task_heap_bytes

let note_mapjoin_fallback wf =
  Rapida_mapred.Metrics.add
    (Exec_ctx.metrics (Workflow.ctx wf))
    "mem.mapjoin_fallbacks" 1

let var_name = function
  | Ast.Nvar v -> v
  | Ast.Nterm t ->
    invalid_arg (Fmt.str "expected variable, got %a" Term.pp t)

(* [bind_scan t nodes] names a scan's columns after the pattern nodes
   they hold, [nodes] in [t]'s column order. A constant keeps the rows
   holding it and drops its column. A variable names the first column
   holding it; a repeated one keeps the rows whose other columns for it
   agree (?x p ?x: s = o) and drops those columns. A pattern of distinct
   variables is a schema relabel with no row copy. *)
let bind_scan (t : Table.t) nodes =
  let tests, named =
    List.fold_left
      (fun (tests, named) (i, node) ->
        match node with
        | Ast.Nterm c -> ((i, `Is c) :: tests, named)
        | Ast.Nvar v -> (
          match List.assoc_opt v named with
          | Some j -> ((i, `Same j) :: tests, named)
          | None -> (tests, named @ [ (v, i) ])))
      ([], [])
      (List.mapi (fun i node -> (i, node)) nodes)
  in
  let holds (row : Table.row) (i, test) =
    match row.(i), test with
    | None, _ -> false
    | Some x, `Is c -> Term.equal x c
    | Some _, `Same j -> Option.equal Term.equal row.(i) row.(j)
  in
  let t =
    if tests = [] then t
    else Relops.filter (fun _ row -> List.for_all (holds row) tests) t
  in
  let keep = List.map (fun (_, i) -> List.nth t.Table.schema i) named in
  let t = if List.length keep = List.length nodes then t else Relops.project t keep in
  Relops.rename_cols t (List.map2 (fun c (v, _) -> (c, v)) keep named)

(* The rdf:type triples as one (s, o) scan: the class partitions'
   union. *)
let class_union vp =
  Table.make ~name:"vp_type" ~schema:[ "s"; "o" ]
    (List.concat_map
       (fun (cls, t) ->
         List.map (fun row -> [| row.(0); Some cls |]) t.Table.rows)
       (Vp_store.class_partitions vp))

(* An unbound-property pattern scans the union of every partition as a
   three-column (s, p, o) relation. *)
let unbound_tp_table vp (tp : Ast.triple_pattern) =
  let spo p (row : Table.row) = [| row.(0); Some p; row.(1) |] in
  let rows =
    List.concat_map
      (fun (p, t) -> List.map (spo p) t.Table.rows)
      (Vp_store.property_partitions vp)
    @ List.map (spo Namespace.rdf_type) (class_union vp).Table.rows
  in
  bind_scan
    (Table.make ~name:"vp_all" ~schema:[ "!s"; "!p"; "!o" ] rows)
    [ tp.tp_s; tp.tp_p; tp.tp_o ]

let tp_table vp (tp : Ast.triple_pattern) =
  let bound t objects = bind_scan t (Ast.Nvar (var_name tp.tp_s) :: objects) in
  match tp.tp_p, tp.tp_o with
  | Ast.Nvar _, _ -> unbound_tp_table vp tp
  | Ast.Nterm prop, Ast.Nterm cls when Term.equal prop Namespace.rdf_type ->
    bound (Vp_store.type_table vp cls) []
  | Ast.Nterm prop, o when Term.equal prop Namespace.rdf_type ->
    bound (class_union vp) [ o ]
  | Ast.Nterm prop, o -> bound (Vp_store.property_table vp prop) [ o ]

let ctp_table vp ~subject_var (ctp : Composite.ctp) =
  (* A constant object stays as a witness column. *)
  let scan =
    match ctp.obj_const with
    | Some cls when Term.equal ctp.prop Namespace.rdf_type ->
      let t = Vp_store.type_table vp cls in
      Table.make ~name:t.Table.name ~schema:[ "s"; "o" ]
        (List.map (fun row -> [| row.(0); Some cls |]) t.Table.rows)
    | None when Term.equal ctp.prop Namespace.rdf_type -> class_union vp
    | None -> Vp_store.property_table vp ctp.prop
    | Some c ->
      Relops.filter
        (fun _ row -> Option.equal Term.equal row.(1) (Some c))
        (Vp_store.property_table vp ctp.prop)
  in
  bind_scan scan [ Ast.Nvar subject_var; Ast.Nvar ctp.obj_var ]

(* --- Star joins: map-only or reduce-side ------------------------------- *)

let star_join wf ~name ~required ~optional =
  match required, optional with
  | [ only ], [] -> only
  | _ ->
    let sizes = List.map Table.size_bytes (required @ optional) in
    let max_size = List.fold_left max 0 sizes in
    let small_enough =
      List.length
        (List.filter
           (fun s -> s < (planner_of wf).Exec_ctx.map_join_threshold)
           sizes)
      >= List.length sizes - 1
    in
    (* The largest table streams. It must be required (outer-joining a
       streamed optional table cannot preserve required semantics
       map-side). *)
    let stream =
      match List.find_index (( = ) max_size) sizes with
      | Some i when small_enough && i < List.length required ->
        (* The map-only form hashes every non-streamed table; that build
           side must also fit the task heap or each mapper would OOM. *)
        let build_bytes = List.fold_left ( + ) 0 sizes - max_size in
        if build_bytes < task_heap_bytes wf then Some i
        else begin
          note_mapjoin_fallback wf;
          None
        end
      | _ -> None
    in
    Mr_relops.star_join wf ?stream ~name ~required ~optional ()

let pair_join wf ~name a b =
  let threshold = (planner_of wf).Exec_ctx.map_join_threshold in
  let heap = task_heap_bytes wf in
  let sa = Table.size_bytes a and sb = Table.size_bytes b in
  let broadcastable s = s < threshold && s < heap in
  if broadcastable sb then Mr_relops.map_join wf ~name ~big:a ~small:b ()
  else if broadcastable sa then Mr_relops.map_join wf ~name ~big:b ~small:a ()
  else begin
    if min sa sb < threshold then note_mapjoin_fallback wf;
    Mr_relops.repartition_join wf ~name a b
  end

(* --- Filters and projections ------------------------------------------- *)

let apply_ready_filters table filters =
  let ready, pending =
    List.partition
      (fun e ->
        List.for_all (fun v -> Table.mem_col table v) (Ast.expr_vars e))
      filters
  in
  (Relops.filter_exprs ready table, pending)

let project_needed table keep =
  let cols =
    List.filter (fun c -> List.mem c keep) table.Table.schema
  in
  if List.length cols = List.length table.Table.schema then table
  else Relops.project table cols

let agg_specs (sq : Analytical.subquery) =
  List.map
    (fun (a : Analytical.aggregate) ->
      { Relops.func = a.func; distinct = a.distinct; col = a.arg; out = a.out })
    sq.aggregates

let ensure_total_row (sq : Analytical.subquery) table =
  if sq.group_by = [] && table.Table.rows = [] then
    let row =
      Array.of_list
        (List.map
           (fun (a : Analytical.aggregate) ->
             Rapida_sparql.Aggregate.(finish (init a.func ~distinct:a.distinct)))
           sq.aggregates)
    in
    { table with Table.rows = [ row ] }
  else table

(* The post-aggregation finish of one subquery: default grand-total row,
   then HAVING, which filters the aggregated groups (map-side, no extra
   cycle). *)
let finish_subquery (sq : Analytical.subquery) table =
  Relops.filter_exprs sq.having (ensure_total_row sq table)

let final_join wf (q : Analytical.t) tables =
  let finish t =
    Relops.project_exprs ~name:"result" q.outer_projection t
    |> Relops.order_limit ~order_by:q.Analytical.order_by
         ~limit:q.Analytical.limit
  in
  match tables with
  | [] -> invalid_arg "final_join: no subquery results"
  | [ only ] -> finish only
  | first :: rest ->
    let heap = task_heap_bytes wf in
    let joined =
      List.fold_left
        (fun acc t ->
          (* Aggregated results are normally tiny, but the heap guard
             still applies: an over-budget build side degrades to a
             repartition cycle rather than OOM-ing the mappers. *)
          if Table.size_bytes t < heap then
            Mr_relops.map_join wf ~name:"join_aggregates" ~big:acc ~small:t ()
          else begin
            note_mapjoin_fallback wf;
            Mr_relops.repartition_join wf ~name:"join_aggregates" acc t
          end)
        first rest
    in
    finish joined

(* --- NTGA star-local filter pushdown ----------------------------------- *)

(* A filter over exactly one variable, bound as the object of a star's
   triple pattern, can be evaluated triple-by-triple during the map-side
   group filter: triples whose object fails the predicate are dropped
   before the join (the paper pushes identical filters into the scan
   phase). Filters over the star's subject drop the whole triplegroup. *)
let push_star_filters (star : Rapida_sparql.Star.t) filters =
  let subject_var =
    match star.Rapida_sparql.Star.subject with
    | Ast.Nvar v -> Some v
    | Ast.Nterm _ -> None
  in
  let object_props v =
    List.filter_map
      (fun (tp : Ast.triple_pattern) ->
        match tp.tp_p, tp.tp_o with
        | Ast.Nterm p, Ast.Nvar v' when String.equal v v' -> Some p
        | _ -> None)
      star.Rapida_sparql.Star.patterns
  in
  let pushed, pending =
    List.partition
      (fun e ->
        match Ast.expr_vars e with
        | [ v ] -> subject_var = Some v || object_props v <> []
        | _ -> false)
      filters
  in
  let refine (tg : Rapida_ntga.Triplegroup.t) =
    List.fold_left
      (fun tg_opt e ->
        match tg_opt with
        | None -> None
        | Some (tg : Rapida_ntga.Triplegroup.t) -> (
          match Ast.expr_vars e with
          | [ v ] when subject_var = Some v ->
            let b =
              Rapida_sparql.Binding.bind Rapida_sparql.Binding.empty v
                tg.Rapida_ntga.Triplegroup.subject
            in
            if Rapida_sparql.Binding.eval_filter b e then Some tg else None
          | [ v ] ->
            let props = object_props v in
            let triples =
              List.filter
                (fun (t : Rapida_rdf.Triple.t) ->
                  if List.exists (Term.equal t.p) props then
                    let b =
                      Rapida_sparql.Binding.bind Rapida_sparql.Binding.empty v
                        t.o
                    in
                    Rapida_sparql.Binding.eval_filter b e
                  else true)
                tg.Rapida_ntga.Triplegroup.triples
            in
            Some { tg with Rapida_ntga.Triplegroup.triples }
          | _ -> Some tg))
      (Some tg) pushed
  in
  (refine, pushed, pending)

let pending_filters (planner : Exec_ctx.planner) stars filters =
  if not planner.ntga_filter_pushdown then filters
  else
    List.filter
      (fun f ->
        not
          (List.exists
             (fun star ->
               let _, pushed, _ = push_star_filters star [ f ] in
               pushed <> [])
             stars))
      filters
