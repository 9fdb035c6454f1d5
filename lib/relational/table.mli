(** Relations: named tables of term-valued rows with nullable columns.

    This is the substrate for the Hive-style baselines: vertical-partition
    tables, join intermediates, and aggregate results all use this shape.
    [None] cells represent SQL NULL (produced by outer joins). *)

open Rapida_rdf

type row = Term.t option array

type t = { name : string; schema : string list; rows : row list }

(** [make ~name ~schema rows] builds a table. A column name is a query
    variable, so it appears at most once.
    @raise Invalid_argument on a repeated column name or a row whose
    arity is not the schema's. *)
val make : name:string -> schema:string list -> row list -> t

(** [col_index t name] is the position of column [name].
    @raise Not_found when absent. *)
val col_index : t -> string -> int

val mem_col : t -> string -> bool
val arity : t -> int
val cardinality : t -> int

(** [row_size_bytes row] estimates serialized row size. *)
val row_size_bytes : row -> int

(** [size_bytes t] estimates the serialized size of the whole relation. *)
val size_bytes : t -> int

(** [rename t name] relabels the table. *)
val rename : t -> string -> t

val pp : t Fmt.t
