open Rapida_rdf

type row = Term.t option array

type t = { name : string; schema : string list; rows : row list }

let make ~name ~schema rows =
  let rec check_unique = function
    | [] -> ()
    | c :: rest ->
      if List.mem c rest then
        invalid_arg (Printf.sprintf "Table.make %s: repeated column %s" name c);
      check_unique rest
  in
  check_unique schema;
  List.iter
    (fun row ->
      if Array.length row <> List.length schema then
        invalid_arg
          (Printf.sprintf "Table.make %s: row arity %d, schema arity %d" name
             (Array.length row) (List.length schema)))
    rows;
  { name; schema; rows }

let col_index t name =
  let rec go i = function
    | [] -> raise Not_found
    | c :: _ when String.equal c name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.schema

let mem_col t name = List.exists (String.equal name) t.schema
let arity t = List.length t.schema
let cardinality t = List.length t.rows

let row_size_bytes row =
  Array.fold_left
    (fun acc cell ->
      acc
      + match cell with Some t -> String.length (Term.lexical t) + 2 | None -> 1)
    4 row

let size_bytes t = List.fold_left (fun acc r -> acc + row_size_bytes r) 0 t.rows

let rename t name = { t with name }

let pp_cell ppf = function
  | Some t -> Term.pp ppf t
  | None -> Fmt.string ppf "NULL"

let pp ppf t =
  Fmt.pf ppf "@[<v 2>%s(%a): %d rows@ %a@]" t.name
    (Fmt.list ~sep:Fmt.comma Fmt.string)
    t.schema (cardinality t)
    (Fmt.list ~sep:Fmt.cut (fun ppf row ->
         Fmt.pf ppf "(%a)" (Fmt.array ~sep:Fmt.comma pp_cell) row))
    t.rows
