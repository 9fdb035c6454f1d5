(* Every simulated figure of every catalog query on every engine, one
   line per dataset x query x engine: MR cycles (all/map-only), the
   simulated seconds and each phase of their breakdown as exact hex
   floats, bytes and records in/shuffled/out, reduce groups and combiner
   records in/out summed over the jobs, then the result's row count and
   a digest of its rows in order. Each dataset's lines follow one with
   its size and the byte totals of the Hive and NTGA stores, which the
   broadcast decisions are made from. The datasets and cluster are the
   bench.s at its default scale, so that star joins run both map-only and
   reduce-side. Deterministic: test/figures.t pins the output. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog
module Stats = Rapida_mapred.Stats
module Table = Rapida_relational.Table
module Term = Rapida_rdf.Term

let options =
  Plan_util.make
    ~cluster:(Rapida_mapred.Cluster.scaled_down ~factor:1.0e5)
    ~map_join_threshold:(24 * 1024) ()

let datasets =
  [
    ( Catalog.Bsbm,
      lazy Rapida_datagen.Bsbm.(generate (config ~products:400 ())) );
    ( Catalog.Chem2bio,
      lazy Rapida_datagen.Chem2bio.(generate (config ~compounds:200 ())) );
    ( Catalog.Pubmed,
      lazy Rapida_datagen.Pubmed.(generate (config ~publications:600 ())) );
  ]

let sum f (stats : Stats.t) =
  List.fold_left (fun acc j -> acc + f j) 0 stats.Stats.jobs

let rows_digest (t : Table.t) =
  let cell = function Some v -> Term.lexical v | None -> "\000" in
  List.map (fun r -> String.concat "\001" (Array.to_list (Array.map cell r)))
    t.Table.rows
  |> String.concat "\002"
  |> ( ^ ) (String.concat "," t.Table.schema ^ "\003")
  |> Digest.string |> Digest.to_hex

let line (stats : Stats.t) (table : Table.t) =
  let b = Stats.total_breakdown stats in
  Printf.sprintf
    "cycles=%d/%d t=%h phases=%h,%h,%h,%h,%h,%h in=%d/%d shuffle=%d/%d \
     out=%d/%d groups=%d combine=%d/%d rows=%d digest=%s"
    (Stats.cycles stats) (Stats.map_only_cycles stats)
    (Stats.est_time_s stats) b.startup_s b.map_s b.shuffle_s b.sort_s
    b.reduce_s b.spill_s
    (Stats.total_input_bytes stats) (sum (fun j -> j.input_records) stats)
    (Stats.total_shuffle_bytes stats)
    (sum (fun j -> j.shuffle_records) stats)
    (Stats.total_output_bytes stats)
    (sum (fun j -> j.output_records) stats)
    (sum (fun j -> j.reduce_groups) stats)
    (sum (fun j -> j.combine_input_records) stats)
    (sum (fun j -> j.combine_output_records) stats)
    (Table.cardinality table) (rows_digest table)

let () =
  List.iter
    (fun (dataset, graph) ->
      let graph = Lazy.force graph in
      let input = Engine.input_of_graph graph in
      let vp_parts, vp_bytes =
        Rapida_relational.Vp_store.stats (Engine.input_vp input)
      in
      let tg_parts, tg_bytes =
        Rapida_ntga.Tg_store.stats (Engine.input_tg_store input)
      in
      Printf.printf "%s triples=%d bytes=%d vp=%d/%d tg=%d/%d\n"
        (Catalog.dataset_name dataset)
        (Rapida_rdf.Graph.size graph) (Rapida_rdf.Graph.size_bytes graph)
        vp_parts vp_bytes tg_parts tg_bytes;
      List.iter
        (fun (entry : Catalog.entry) ->
          let q = Catalog.parse entry in
          List.iter
            (fun kind ->
              let result =
                Engine.execute (Engine.prepare kind input)
                  (Plan_util.context options) q
              in
              Printf.printf "%s %s %s %s\n" (Catalog.dataset_name dataset)
                entry.Catalog.id (Engine.kind_name kind)
                (match result with
                | Ok { table; stats; _ } -> line stats table
                | Error e -> "error: " ^ Engine.error_message e))
            Engine.all_kinds)
        (Catalog.by_dataset dataset))
    datasets
