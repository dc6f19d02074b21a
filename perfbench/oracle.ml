(** The read oracle: {!Db2rdf.Native_store}, an evaluator over an
    indexed {!Rdf.Graph} that shares no code with the DB2RDF pipeline
    (no colouring, no relational layout, no SQL).

    It joins a basic graph pattern's triples in the order written, so
    a BGP whose first triples share no variable (LQ2 starts with three
    unrelated type patterns) becomes a cross product that does not fit
    in memory. The oracle therefore evaluates an equivalent query:
    every BGP is reordered so each triple after the first shares a
    variable with those before it where it can, preferring triples
    with more bound positions. A BGP is a conjunction, so any order
    gives the same solutions. *)

module A = Sparql.Ast

let pos_vars (tp : A.triple_pat) =
  List.filter_map (function A.Var v -> Some v | A.Term _ -> None)
    [ tp.tp_s; tp.tp_p; tp.tp_o ]

let consts (tp : A.triple_pat) =
  List.length (List.filter (function A.Term _ -> true | A.Var _ -> false)
                 [ tp.tp_s; tp.tp_o ])

(** Greedy join order for one BGP. *)
let reorder_bgp (tps : A.triple_pat list) =
  let score bound tp =
    let vs = pos_vars tp in
    let bound_n = List.length (List.filter (fun v -> List.mem v bound) vs) in
    let connected = bound = [] || bound_n > 0 in
    (if connected then 100 else 0) + (10 * (consts tp + bound_n))
  in
  let rec go bound acc = function
    | [] -> List.rev acc
    | rest ->
      let best =
        List.fold_left
          (fun b tp -> match b with
             | Some b when score bound b >= score bound tp -> Some b
             | _ -> Some tp)
          None rest
        |> Option.get
      in
      let rest = List.filter (fun tp -> tp != best) rest in
      go (pos_vars best @ bound) (best :: acc) rest
  in
  go [] [] tps

let rec reorder_pattern = function
  | A.Bgp tps -> A.Bgp (reorder_bgp tps)
  | A.Group ps -> A.Group (List.map reorder_pattern ps)
  | A.Union ps -> A.Union (List.map reorder_pattern ps)
  | A.Optional p -> A.Optional (reorder_pattern p)
  | A.Filter _ as f -> f

(** The oracle's full answer to [q] over [graph]: [q] without LIMIT or
    OFFSET (see {!Check.unlimited}), with its BGPs reordered. *)
let answer graph (q : A.query) =
  let q = Check.unlimited q in
  Db2rdf.Native_store.query
    (Db2rdf.Native_store.of_graph graph)
    { q with where = reorder_pattern q.where }
