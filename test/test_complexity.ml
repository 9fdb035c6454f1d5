(* Growth guards. A quadratic operator returns the right answer, so it
   passes every differential test; these tests measure how the work of
   one execution grows with the data instead. The measure is words
   allocated, which is deterministic for a fixed build and input, so a
   ratio bound cannot flake the way a timing bound can. *)

module Engine = Rapida_core.Engine
module Plan_util = Rapida_core.Plan_util
module Catalog = Rapida_queries.Catalog

(* Words allocated by [f ()]. Flushing the minor heap first makes
   [quick_stat]'s counters exact at both ends; words promoted to the
   major heap are counted in both minor and major words, so they are
   subtracted once. *)
let allocated_words f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let before = words () in
  f ();
  words () -. before

let bsbm_input products =
  lazy
    (Engine.input_of_graph
       Rapida_datagen.Bsbm.(generate (config ~products ())))

let small = bsbm_input 400
let large = bsbm_input 1600

(* Words allocated by one execution of [id]; preparing the storage is
   not measured. What the first execution on an input allocates varies
   by up to 15% with when the collector last ran, so a warm-up execution
   precedes the measured one, which then varies by under 1%. *)
let execute_words kind input id =
  let q = Catalog.parse (Catalog.find_exn id) in
  let session = Engine.prepare kind (Lazy.force input) in
  let execute () =
    match
      Engine.execute session (Plan_util.context Plan_util.default_options) q
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Engine.error_message e)
  in
  execute ();
  allocated_words execute

(* 4x the data may cost at most 6x the allocation. On the Hive engines
   G1's star joins run as broadcast map-joins; a map-join that rebuilt
   its broadcast index for every streamed row would put this ratio near
   15 there. *)
let max_ratio = 6.0

let near_linear kind id () =
  let lo = execute_words kind small id in
  let hi = execute_words kind large id in
  let ratio = hi /. lo in
  let report =
    Printf.sprintf
      "%s %s: %.2f Mw at 400 products, %.2f Mw at 1600 (ratio %.1f)"
      (Engine.kind_name kind) id (lo /. 1e6) (hi /. 1e6) ratio
  in
  print_endline report;
  if ratio > max_ratio then Alcotest.failf "%s > %.1f" report max_ratio

let suite =
  List.map
    (fun (kind, id) ->
      Alcotest.test_case
        (Printf.sprintf "%s allocation 1600/400 on %s" id
           (Engine.kind_name kind))
        `Quick (near_linear kind id))
    (List.map (fun kind -> (kind, "G1")) Engine.all_kinds
    (* MG1 adds joins between stars. On hive-naive every join is a
       map-join at 400 products; at 1600 most are reduce-side. *)
    @ Engine.[ (Hive_naive, "MG1"); (Hive_mqo, "MG1") ])
