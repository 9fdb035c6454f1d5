(** Composite graph patterns (paper §3).

    Overlapping graph patterns GP1, GP2, … are rewritten into a single
    composite pattern GP' whose stars carry {e primary} requirements
    (shared by every pattern) and {e secondary} requirements (owned by a
    strict subset of the patterns). Evaluating GP' once replaces
    evaluating every GPi; per-pattern α conditions then select, from each
    match of GP', the patterns it satisfies.

    Note on α conditions: the paper's Table 2 lists mutually exclusive
    conditions that also {e forbid} other patterns' secondary properties
    (e.g. α1 = c≠∅ ∧ f=∅). Under SPARQL semantics a subject carrying an
    extra optional property still matches a pattern that does not mention
    it, so exclusive conditions under-count; we therefore derive
    requirement-only conditions (α_i = pattern i's own secondary
    requirements are present), which the reference-engine oracle in the
    test suite validates. The exclusive form remains available in
    {!Rapida_ntga.Ops.alpha} and is exercised by the operator tests. *)

open Rapida_rdf
module Ast = Rapida_sparql.Ast
module Star = Rapida_sparql.Star
module Analytical = Rapida_sparql.Analytical
module Ops = Rapida_ntga.Ops
module Joined = Rapida_ntga.Joined

(** One composite triple pattern: always a variable object column, with an
    optional constant-object constraint, owned by the patterns that
    require it. *)
type ctp = {
  prop : Term.t;
  obj_var : Ast.var;
  obj_const : Term.t option;
  owners : int list;  (** pattern ids (sq_id) requiring this triple *)
}

type star = {
  cs_id : int;
  subject_var : Ast.var;
  ctps : ctp list;
}

(** Requirement-only α condition: (composite star, requirement) pairs that
    must be present for the pattern to match. *)
type alpha = (int * Ops.prop_req) list

type pattern_info = {
  pat_id : int;
  star_of : (int * int) list;  (** original star id -> composite star id *)
  alpha : alpha;
  var_map : (Ast.var * Ast.var) list;  (** pattern var -> composite var *)
}

type t = {
  stars : star list;
  edges : Star.edge list;  (** join edges over composite star ids *)
  patterns : pattern_info list;
}

(** [build subqueries] checks pairwise overlap of every subquery against
    the first and constructs the composite pattern. [Error] carries the
    overlap report rendering when patterns do not overlap. *)
val build : Analytical.subquery list -> (t, string) result

(** [req_of ctp] is the NTGA property requirement of a composite triple. *)
val req_of : ctp -> Ops.prop_req

(** [prim_reqs star] / [sec_reqs star] split a composite star's
    requirements into primary (owned by all patterns) and secondary. *)
val prim_reqs : t -> star -> Ops.prop_req list

val sec_reqs : t -> star -> Ops.prop_req list

(** [alpha_holds alpha joined] tests a requirement-only α condition
    against a joined triplegroup. *)
val alpha_holds : alpha -> Joined.t -> bool

(** [map_var info v] is the composite variable for pattern variable [v]
    (identity when unmapped — pattern 0 uses composite names). *)
val map_var : pattern_info -> Ast.var -> Ast.var

(** [map_expr info e] rewrites a filter expression into composite
    variables. *)
val map_expr : pattern_info -> Ast.expr -> Ast.expr

(** [pattern_info t pat_id] is the bookkeeping of pattern [pat_id] (a
    subquery id). @raise Not_found when no pattern has that id. *)
val pattern_info : t -> int -> pattern_info

(** [pattern_columns t info] is the composite variables carrying pattern
    [info]'s bindings: mapped subject and object variables of the
    pattern's triples, distinct, in order. *)
val pattern_columns : t -> pattern_info -> Ast.var list

(** [order_edges ~star_order ~star_ids ~edges] orders join edges so each
    successive edge connects one new star to the already-joined prefix
    (the generic form used for both composite and original patterns).

    With [star_order = None] the heuristic greedy order is used — the
    exact pre-optimizer behavior. With [Some order] (an optimizer-chosen
    star visiting order, typically from [Rapida_planner]), the edge plan
    realizes that order: the first listed star seeds the prefix and each
    subsequent star joins through a connecting edge. An [order] that is
    not a permutation of [star_ids] or cannot be realized as a connected
    left-deep plan silently falls back to the heuristic — a stale or
    invalid hint degrades to the baseline plan, never to an error the
    heuristic would not also produce. *)
val order_edges :
  star_order:int list option ->
  star_ids:int list ->
  edges:Star.edge list ->
  (Star.edge list, string) result

(** [join_plan ?star_order t] orders the edges so that each successive
    edge joins one new star to the already-joined prefix; the first
    edge's left star seeds the prefix (or [star_order]'s head when
    given, with the same fallback semantics as {!order_edges}). Errors
    when the pattern is disconnected. *)
val join_plan : ?star_order:int list -> t -> (Star.edge list, string) result

(** One step of a left-deep join sequence. The first step joins two
    scanned stars: [joined] is the seed star's endpoint and [added] the
    other one. Every later step joins the star of [added] onto the
    result so far, through [joined], an endpoint on a star already
    joined. [prefix] lists every star joined once the step is done, in
    visit order. *)
type step = { joined : Star.endpoint; added : Star.endpoint; prefix : int list }

(** [walk plan] is the one translation of an edge plan ({!order_edges},
    {!join_plan}) into left-deep join steps, shared by all four engines
    and the planner: the first edge's pair, then one step per later
    edge that adds a star. An edge whose two stars are already joined
    closes a cycle of the join graph and adds no step; the equality it
    states is enforced anyway, by the natural join on the shared
    variable's column (Hive) or by binding extraction (NTGA).
    @raise Invalid_argument when an edge touches no joined star. *)
val walk : Star.edge list -> step list

(** [fold_walk plan ~first ~next] runs the left-deep join sequence of
    [plan]: [first] joins the seed pair, then [next i acc step] adds the
    [i]-th later step (numbered from 1) to the result so far.
    @raise Failure with the planning error when [plan] is [Error], or
    when it has no edge. *)
val fold_walk :
  (Star.edge list, string) result ->
  first:(step -> 'a) -> next:(int -> 'a -> step -> 'a) -> 'a

val pp : t Fmt.t
