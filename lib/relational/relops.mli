(** In-memory relational operators over {!Table}.

    Joins are natural joins: columns are named after query variables, so
    the shared column names are exactly the join variables. These are the
    building blocks that the MapReduce physical operators
    ({!Mr_relops}) apply inside map / reduce functions. *)

open Rapida_rdf
module Ast = Rapida_sparql.Ast

(** Aggregate specification: function, DISTINCT flag, input column
    ([None] = count-star), output column name. *)
type agg_spec = {
  func : Ast.agg_func;
  distinct : bool;
  col : string option;
  out : string;
}

val filter : (Table.t -> Table.row -> bool) -> Table.t -> Table.t

(** [filter_exprs exprs t] keeps the rows satisfying every FILTER
    expression of [exprs], each row a binding of its columns (NULL cells
    unbound). *)
val filter_exprs : Ast.expr list -> Table.t -> Table.t

(** [project t cols] keeps [cols] in order.
    @raise Not_found on a missing column. *)
val project : Table.t -> string list -> Table.t

(** [rename_cols t renames] renames columns per the assoc list. *)
val rename_cols : Table.t -> (string * string) list -> Table.t

(** [shared_cols a b] is the natural-join columns, in [a]'s order. *)
val shared_cols : Table.t -> Table.t -> string list

(** An N-input same-key natural join with every key, comparison and
    output column position resolved once per operator: the one code that
    merges joined rows, run by the in-memory join and every MapReduce
    join ({!Mr_relops}).

    Inputs join left to right, each later one inner or left-outer on
    every column it shares with the rows so far; NULL equals nothing, and
    an unmatched left-outer input leaves its new columns NULL. The output
    schema is the first input's followed by each later input's new
    columns. Rows come in input order: the first input's outermost, each
    later input's matches in its row order. *)
type join

(** [natural_join ~key inputs] compiles the join of [inputs] (the first
    one's kind is not used). [key] names columns every input has; the
    join runs on groups of rows that agree on them, and checks every
    other shared column itself. *)
val natural_join :
  key:string list -> ([ `Inner | `Left_outer ] * Table.t) list -> join

val join_schema : join -> string list

(** [join_key j i row] is the key of a row of input [i]; [None] when a
    key cell is NULL (such a row matches nothing). *)
val join_key : join -> int -> Table.row -> Term.t list option

(** [join_groups j groups] joins one key's rows: [groups.(i)] holds
    input [i]'s rows with that key, in input order. The reduce-side
    form. *)
val join_groups : join -> Table.row list array -> Table.row list

(** [join_prober j ~stream] is the map-side form: it indexes every other
    input by key, once; the result joins one row of input [stream],
    giving the output rows it takes part in, in the join's order.
    Streaming the rows of input [stream] in order gives every output
    row, ordered by its input-[stream] row first (the join's own order
    when [stream = 0]).
    @raise Invalid_argument when input [stream] is left-outer. *)
val join_prober : join -> stream:int -> Table.row -> Table.row list

(** [hash_join ?kind ~name a b] is the natural join of [a] and [b] on
    their shared columns, streaming [a]. NULL keys do not match; with
    [`Left_outer], unmatched left rows survive NULL-padded. *)
val hash_join :
  ?kind:[ `Inner | `Left_outer ] -> name:string -> Table.t -> Table.t ->
  Table.t

(** [group_by ~name ~keys ~aggs t] groups by the key columns (NULLs group
    together) and computes the aggregates. [keys = []] is the grand total:
    exactly one output row. Output schema is [keys @ outs]. *)
val group_by :
  name:string -> keys:string list -> aggs:agg_spec list -> Table.t -> Table.t

(** [distinct t] removes duplicate rows. *)
val distinct : Table.t -> Table.t

(** [project_exprs ~name items t] evaluates an outer SELECT projection:
    [Svar] items copy columns, [Sexpr] items evaluate expressions over the
    row (columns become bindings; NULLs are unbound). [items = []] is the
    identity projection. *)
val project_exprs : name:string -> Ast.sel_item list -> Table.t -> Table.t

(** Total order on rows (NULLs first), used for canonical comparison. *)
val row_compare : Table.row -> Table.row -> int

(** [canonicalize t] sorts columns by name and rows by value — the
    canonical form for comparing results across engines. *)
val canonicalize : Table.t -> Table.t

(** [same_results a b] compares two result tables up to column and row
    order. *)
val same_results : Table.t -> Table.t -> bool

(** [order_limit ~order_by ~limit t] applies the outer SELECT's solution
    ordering (numeric-aware, NULLs first, full row as deterministic
    tiebreaker) and row limit. *)
val order_limit :
  order_by:Ast.order list -> limit:int option -> Table.t -> Table.t
