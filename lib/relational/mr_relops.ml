open Rapida_rdf
module Workflow = Rapida_mapred.Workflow
module Job = Rapida_mapred.Job
module Aggregate = Rapida_sparql.Aggregate

let key_size key =
  List.fold_left (fun acc t -> acc + String.length (Term.lexical t) + 2) 4 key

let opt_key_size key =
  List.fold_left
    (fun acc c ->
      acc + match c with Some t -> String.length (Term.lexical t) + 2 | None -> 1)
    4 key

(* A reduce-side join: each input row is shuffled, tagged with its
   input's index, on [job_key] of that index (no key: the row is
   dropped), and the kernel joins each key's per-input row groups. *)
let shuffle_join wf ~name ~job_key ~key_size j tables =
  let n = List.length tables in
  let input =
    List.concat
      (List.mapi (fun i t -> List.map (fun row -> (i, row)) t.Table.rows) tables)
  in
  let spec : ((int * Table.row), _, (int * Table.row), Table.row) Job.spec =
    {
      name;
      map =
        (fun ((i, row) as tagged) ->
          match job_key i row with
          | Some key -> [ (key, tagged) ]
          | None -> []);
      combine = None;
      reduce =
        (fun _key tagged ->
          let groups = Array.make n [] in
          List.fold_right
            (fun (i, row) () -> groups.(i) <- row :: groups.(i))
            tagged ();
          Relops.join_groups j groups);
      input_size = (fun (_, row) -> Table.row_size_bytes row);
      key_size;
      value_size = (fun (_, row) -> Table.row_size_bytes row + 1);
      output_size = Table.row_size_bytes;
    }
  in
  Table.make ~name ~schema:(Relops.join_schema j)
    (Workflow.run_job wf spec input)

(* A map-only join: each row of input [stream] probes the others, which
   every mapper hashes once per job. *)
let probe_join wf ~name ~stream j (t : Table.t) =
  let spec : (Table.row, Table.row) Job.map_only_spec =
    {
      mo_name = name;
      mo_map = Relops.join_prober j ~stream;
      mo_input_size = Table.row_size_bytes;
      mo_output_size = Table.row_size_bytes;
    }
  in
  Table.make ~name ~schema:(Relops.join_schema j)
    (Workflow.run_map_only wf spec t.Table.rows)

let pair ~kind a b =
  Relops.natural_join ~key:(Relops.shared_cols a b) [ (`Inner, a); (kind, b) ]

let repartition_join wf ?(kind = `Inner) ~name a b =
  let j = pair ~kind a b in
  shuffle_join wf ~name j [ a; b ]
    ~job_key:(fun i row ->
      match Relops.join_key j i row with
      | Some key -> Some (Some key)
      | None ->
        (* NULL join keys never match; in a left-outer join the left
           row must still survive, so route it to a private key, where
           it comes out NULL-padded. *)
        if i = 0 && kind = `Left_outer then Some None else None)
    ~key_size:(function Some k -> key_size k | None -> 4)

let map_join wf ?(kind = `Inner) ~name ~big ~small () =
  probe_join wf ~name ~stream:0 (pair ~kind big small) big

let star_join wf ?stream ~name ~required ~optional () =
  let subject =
    match required with
    | t :: _ -> List.hd t.Table.schema
    | [] -> invalid_arg "star_join: no required tables"
  in
  let j =
    Relops.natural_join ~key:[ subject ]
      (List.map (fun t -> (`Inner, t)) required
      @ List.map (fun t -> (`Left_outer, t)) optional)
  in
  match stream with
  | Some i -> probe_join wf ~name ~stream:i j (List.nth required i)
  | None ->
    let tables = required @ optional in
    let subject_at =
      Array.of_list (List.map (fun t -> Table.col_index t subject) tables)
    in
    shuffle_join wf ~name j tables
      ~job_key:(fun i row -> row.(subject_at.(i)))
      ~key_size:(fun key -> String.length (Term.lexical key) + 2)

let group_aggregate wf ~name ~keys ~aggs t =
  let key_idx = List.map (Table.col_index t) keys in
  let agg_idx =
    List.map
      (fun (a : Relops.agg_spec) -> Option.map (Table.col_index t) a.col)
      aggs
  in
  let init_states () =
    List.map
      (fun (a : Relops.agg_spec) -> Aggregate.init a.func ~distinct:a.distinct)
      aggs
  in
  let merge_states xs ys = List.map2 Aggregate.merge xs ys in
  let spec : (Table.row,
              Term.t option list,
              Aggregate.state list,
              Table.row) Job.spec =
    {
      name;
      map =
        (fun row ->
          let key = List.map (fun i -> row.(i)) key_idx in
          let states =
            List.map2
              (fun state idx ->
                let v =
                  match idx with
                  | None -> Some (Term.int 1)
                  | Some i -> row.(i)
                in
                Aggregate.add state v)
              (init_states ()) agg_idx
          in
          [ (key, states) ]);
      combine =
        Some
          (fun _key states ->
            match states with
            | [] -> []
            | first :: rest -> [ List.fold_left merge_states first rest ]);
      reduce =
        (fun key states ->
          match states with
          | [] -> []
          | first :: rest ->
            let merged = List.fold_left merge_states first rest in
            [ Array.of_list (key @ List.map Aggregate.finish merged) ]);
      input_size = Table.row_size_bytes;
      key_size = opt_key_size;
      value_size =
        (fun states ->
          List.fold_left (fun acc s -> acc + Aggregate.size_bytes s) 0 states);
      output_size = Table.row_size_bytes;
    }
  in
  let rows = Workflow.run_job wf spec t.Table.rows in
  let rows =
    if keys = [] && rows = [] then
      [ Array.of_list (List.map Aggregate.finish (init_states ())) ]
    else rows
  in
  let schema = keys @ List.map (fun (a : Relops.agg_spec) -> a.out) aggs in
  Table.make ~name ~schema rows

let distinct_project wf ~name ~cols t =
  let idx = List.map (Table.col_index t) cols in
  let spec : (Table.row, Term.t option list, unit, Table.row) Job.spec =
    {
      name;
      map = (fun row -> [ (List.map (fun i -> row.(i)) idx, ()) ]);
      combine = Some (fun _key _units -> [ () ]);
      reduce = (fun key _units -> [ Array.of_list key ]);
      input_size = Table.row_size_bytes;
      key_size = opt_key_size;
      value_size = (fun () -> 0);
      output_size = Table.row_size_bytes;
    }
  in
  let rows = Workflow.run_job wf spec t.Table.rows in
  Table.make ~name ~schema:cols rows
