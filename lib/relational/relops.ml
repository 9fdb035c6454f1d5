open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Aggregate = Rapida_sparql.Aggregate

type agg_spec = {
  func : Ast.agg_func;
  distinct : bool;
  col : string option;
  out : string;
}

let filter pred t =
  { t with Table.rows = List.filter (pred t) t.Table.rows }

let project t cols =
  let idx = List.map (Table.col_index t) cols in
  let rows =
    List.map (fun row -> Array.of_list (List.map (fun i -> row.(i)) idx)) t.Table.rows
  in
  Table.make ~name:t.Table.name ~schema:cols rows

let rename_cols t renames =
  let schema =
    List.map
      (fun c -> match List.assoc_opt c renames with Some c' -> c' | None -> c)
      t.Table.schema
  in
  { t with Table.schema = schema }

let shared_cols a b =
  List.filter (fun c -> Table.mem_col b c) a.Table.schema

type join = {
  schema : string list;
  arity : int;
  inputs : Table.t array;
  kinds : [ `Inner | `Left_outer ] array;
  keys : int array array;  (** per input: positions of the key columns *)
  checks : (int * int) array array;
      (** per input: (output position, its position) of each non-key
          column an earlier input introduced *)
  copies : (int * int) array array;
      (** per input: (its position, output position) of each column it
          introduces *)
}

let natural_join ~key inputs =
  let kinds = Array.of_list (List.map fst inputs) in
  let inputs = Array.of_list (List.map snd inputs) in
  (* The first input has nothing on its left to preserve. *)
  kinds.(0) <- `Inner;
  (* The output columns so far with their positions, last first. *)
  let cols = ref [] in
  let checks = Array.make (Array.length inputs) [||] in
  let copies = Array.make (Array.length inputs) [||] in
  Array.iteri
    (fun i (t : Table.t) ->
      let check = ref [] and copy = ref [] in
      List.iteri
        (fun p c ->
          match List.assoc_opt c !cols with
          | Some o -> if not (List.mem c key) then check := (o, p) :: !check
          | None ->
            copy := (p, List.length !cols) :: !copy;
            cols := (c, List.length !cols) :: !cols)
        t.schema;
      checks.(i) <- Array.of_list !check;
      copies.(i) <- Array.of_list !copy)
    inputs;
  {
    schema = List.rev_map fst !cols;
    arity = List.length !cols;
    inputs;
    kinds;
    keys =
      Array.map
        (fun t -> Array.of_list (List.map (Table.col_index t) key))
        inputs;
    checks;
    copies;
  }

let join_schema j = j.schema

(* The values at [idx]; [None] when any is NULL. *)
let key_at idx (row : Table.row) =
  let rec go acc k =
    if k < 0 then Some acc
    else match row.(idx.(k)) with Some v -> go (v :: acc) (k - 1) | None -> None
  in
  go [] (Array.length idx - 1)

let join_key j i row = key_at j.keys.(i) row

(* Does [r] agree with [row] on [checks] from the [k]-th on? NULL never
   equals anything. *)
let rec agrees checks row (r : Table.row) k =
  k = Array.length checks
  ||
  let o, p = checks.(k) in
  (match row.(o), r.(p) with Some x, Some y -> Term.equal x y | _ -> false)
  && agrees checks row r (k + 1)

(* [join_from j groups row i out] joins inputs [i..] onto [row], the
   output row being built: inputs [0..i-1]'s columns hold the rows chosen
   for them, NULL for a padded left-outer input. Each completed row is
   pushed onto [out]. [join_rows] tries input [i]'s rows [rs] in order;
   [matched] tells whether an earlier one matched. *)
let rec join_from j groups row i out =
  if i = Array.length groups then Array.copy row :: out
  else join_rows j groups row i false out groups.(i)

and join_rows j groups row i matched out rs =
  let copies = j.copies.(i) in
  match rs with
  | r :: rest when agrees j.checks.(i) row r 0 ->
    for k = 0 to Array.length copies - 1 do
      let p, o = copies.(k) in
      row.(o) <- r.(p)
    done;
    join_rows j groups row i true (join_from j groups row (i + 1) out) rest
  | _ :: rest -> join_rows j groups row i matched out rest
  | [] when (not matched) && j.kinds.(i) = `Left_outer ->
    Array.iter (fun (_, o) -> row.(o) <- None) copies;
    join_from j groups row (i + 1) out
  | [] -> out

let join_groups j groups =
  List.rev (join_from j groups (Array.make j.arity None) 0 [])

let join_prober j ~stream =
  if j.kinds.(stream) = `Left_outer then
    invalid_arg "Relops.join_prober: cannot stream a left-outer input";
  let indexes =
    Array.mapi
      (fun i (t : Table.t) ->
        let size = if i = stream then 1 else max 16 (Table.cardinality t) in
        let index = Hashtbl.create size in
        (* Added last row first, so each bucket lists its rows in order. *)
        if i <> stream then
          List.iter
            (fun row ->
              match join_key j i row with
              | Some key ->
                let existing =
                  Option.value ~default:[] (Hashtbl.find_opt index key)
                in
                Hashtbl.replace index key (row :: existing)
              | None -> ())
            (List.rev t.rows);
        index)
      j.inputs
  in
  fun row ->
    let groups =
      match join_key j stream row with
      | Some key ->
        Array.map
          (fun index -> Option.value ~default:[] (Hashtbl.find_opt index key))
          indexes
      | None -> Array.make (Array.length indexes) []
    in
    groups.(stream) <- [ row ];
    join_groups j groups

let hash_join ?(kind = `Inner) ~name a b =
  let j = natural_join ~key:(shared_cols a b) [ (`Inner, a); (kind, b) ] in
  Table.make ~name ~schema:j.schema
    (List.concat_map (join_prober j ~stream:0) a.Table.rows)

(* Group keys are option lists so NULLs group together (SQL semantics). *)
let group_by ~name ~keys ~aggs t =
  let key_idx = List.map (Table.col_index t) keys in
  let agg_idx =
    List.map (fun a -> Option.map (Table.col_index t) a.col) aggs
  in
  let groups = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = List.map (fun i -> row.(i)) key_idx in
      let states =
        match Hashtbl.find_opt groups key with
        | Some states -> states
        | None ->
          let states =
            List.map (fun a -> ref (Aggregate.init a.func ~distinct:a.distinct)) aggs
          in
          Hashtbl.add groups key states;
          order := key :: !order;
          states
      in
      List.iter2
        (fun state idx ->
          let v =
            match idx with
            | None -> Some (Term.int 1) (* count-star: every row counts *)
            | Some i -> row.(i)
          in
          state := Aggregate.add !state v)
        states agg_idx)
    t.Table.rows;
  let out_schema = keys @ List.map (fun a -> a.out) aggs in
  let rows =
    if keys = [] && Hashtbl.length groups = 0 then
      (* Grand total over an empty input still yields one row of empty
         aggregates (COUNT = 0), as in SQL. *)
      [ Array.of_list
          (List.map
             (fun a -> Aggregate.finish (Aggregate.init a.func ~distinct:a.distinct))
             aggs) ]
    else
      List.rev_map
        (fun key ->
          let states = Hashtbl.find groups key in
          Array.of_list
            (key @ List.map (fun s -> Aggregate.finish !s) states))
        !order
  in
  Table.make ~name ~schema:out_schema rows

let distinct t =
  let seen = Hashtbl.create 64 in
  let rows =
    List.filter
      (fun row ->
        let key = Array.to_list row in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      t.Table.rows
  in
  { t with Table.rows = rows }

(* A row as a binding of its columns; NULL cells stay unbound. *)
let binding_of_row t row =
  List.fold_left
    (fun (b, i) col ->
      let b =
        match row.(i) with
        | Some v -> Rapida_sparql.Binding.bind b col v
        | None -> b
      in
      (b, i + 1))
    (Rapida_sparql.Binding.empty, 0)
    t.Table.schema
  |> fst

let filter_exprs exprs t =
  match exprs with
  | [] -> t
  | exprs ->
    filter
      (fun t row ->
        let b = binding_of_row t row in
        List.for_all (Rapida_sparql.Binding.eval_filter b) exprs)
      t

(* Evaluate the outer SELECT's projection expressions over each row. A row
   becomes a binding; Svar items copy columns, Sexpr items evaluate
   arithmetic over them. *)
let project_exprs ~name items t =
  match items with
  | [] -> Table.rename t name
  | items ->
    let schema =
      List.map (function Ast.Svar v -> v | Ast.Sexpr (_, out) -> out) items
    in
    let rows =
      List.map
        (fun row ->
          let b = binding_of_row t row in
          Array.of_list
            (List.map
               (function
                 | Ast.Svar v -> Rapida_sparql.Binding.lookup b v
                 | Ast.Sexpr (e, _) -> Rapida_sparql.Binding.eval_expr b e)
               items))
        t.Table.rows
    in
    Table.make ~name ~schema rows

let row_compare (a : Table.row) (b : Table.row) =
  let cell_compare x y = Option.compare Term.compare x y in
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = cell_compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Canonical form for cross-engine result comparison: columns sorted by
   name, rows sorted, and decimal literals rounded to 9 significant
   digits — engines fold floating-point sums in different orders (partial
   aggregation trees vs sequential folds), so the last bits of a SUM / AVG
   legitimately differ across plans. *)
let round_cell = function
  | Some (Term.Literal { lex; datatype = Term.Ddecimal }) as cell -> (
    match float_of_string_opt lex with
    | Some f ->
      Some (Term.Literal { lex = Printf.sprintf "%.9g" f; datatype = Term.Ddecimal })
    | None -> cell)
  | cell -> cell

let canonicalize t =
  let cols = List.sort String.compare t.Table.schema in
  let t' = project t cols in
  let rows = List.map (Array.map round_cell) t'.Table.rows in
  { t' with Table.rows = List.sort row_compare rows }

let same_results a b =
  let ca = canonicalize a and cb = canonicalize b in
  ca.Table.schema = cb.Table.schema
  && List.length ca.Table.rows = List.length cb.Table.rows
  && List.for_all2 (fun x y -> row_compare x y = 0) ca.Table.rows cb.Table.rows

(* ORDER BY + LIMIT over a result table. Numeric-aware per-key comparison
   (NULLs first), with the full row as a deterministic tiebreaker so that
   LIMIT selects the same rows in every engine. *)
let order_limit ~order_by ~limit t =
  let rows =
    match order_by with
    | [] -> t.Table.rows
    | keys ->
      let value_compare =
        Option.compare (fun s u ->
            match Term.as_number s, Term.as_number u with
            | Some fs, Some fu -> Float.compare fs fu
            | _ -> Term.compare s u)
      in
      let key_compare a b =
        let cell_value row col = row.(Table.col_index t col) in
        let rec go = function
          | [] -> row_compare a b
          | key :: rest ->
            let col, flip =
              match key with
              | Rapida_sparql.Ast.Asc c -> (c, 1)
              | Rapida_sparql.Ast.Desc c -> (c, -1)
            in
            let c = flip * value_compare (cell_value a col) (cell_value b col) in
            if c <> 0 then c else go rest
        in
        go keys
      in
      List.stable_sort key_compare t.Table.rows
  in
  let rows =
    match limit with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  { t with Table.rows = rows }
