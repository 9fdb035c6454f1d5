(** Hive-style relational physical operators over the MapReduce
    simulator. Each call runs one MR cycle on the given workflow (map-only
    for map-side joins) and returns the result table.

    These mirror how Hive compiles a star-join + aggregation query:
    repartition joins shuffle both inputs on the join key; map-joins
    broadcast a small table and stream the big one in a map-only cycle;
    GROUP BY shuffles partial aggregation states computed map-side (the
    combiner / hash-aggregation optimization). *)

(** [repartition_join wf ?kind ~name a b] is the natural join of [a] and
    [b] ({!Relops.natural_join}) as one MR cycle: both sides shuffle on
    their shared columns and each reducer joins its key's rows. *)
val repartition_join :
  Rapida_mapred.Workflow.t ->
  ?kind:[ `Inner | `Left_outer ] ->
  name:string -> Table.t -> Table.t -> Table.t

(** [map_join wf ~name ~big ~small] broadcasts [small] to all mappers.
    [small] must be the right side of the natural join. Like Hive's local
    hashtable task, it hashes [small] once per job; each streamed row of
    [big] only probes ({!Relops.join_prober}). *)
val map_join :
  Rapida_mapred.Workflow.t ->
  ?kind:[ `Inner | `Left_outer ] ->
  name:string -> big:Table.t -> small:Table.t -> unit -> Table.t

(** [star_join wf ?stream ~name ~required ~optional ()] joins tables
    sharing their first column, the star's subject, in one MR cycle, as
    Hive merges same-key joins: inner on [required], left-outer on
    [optional], natural on every column shared ({!Relops.natural_join}).
    With [~stream:i] it is a map-only cycle streaming the [i]-th
    required table past the others, broadcast; otherwise every row
    shuffles on its subject. Star subjects come from scans and are
    never NULL; a row with a NULL subject is dropped. *)
val star_join :
  Rapida_mapred.Workflow.t -> ?stream:int -> name:string ->
  required:Table.t list -> optional:Table.t list -> unit -> Table.t

val group_aggregate :
  Rapida_mapred.Workflow.t ->
  name:string -> keys:string list -> aggs:Relops.agg_spec list ->
  Table.t -> Table.t

(** [distinct_project wf ~name ~cols t] is SELECT DISTINCT cols — one MR
    cycle. *)
val distinct_project :
  Rapida_mapred.Workflow.t -> name:string -> cols:string list -> Table.t ->
  Table.t
