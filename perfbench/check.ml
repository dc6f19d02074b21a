(** Evidence of an answer, and the checks that hold it against the
    oracle's full answer.

    The timed loop keeps only evidence, taken after the operation's
    clock has stopped: an order-insensitive fingerprint of the rows, or
    the rows themselves for queries with LIMIT or ORDER BY, whose check
    needs more than the multiset (a LIMIT answer is one of many correct
    ones; an ordered answer must also be in order). *)

module A = Sparql.Ast

type fingerprint = {
  vars : string list;
  count : int;
  sum1 : int;  (** sum of one mix of every row hash *)
  sum2 : int;  (** sum of a second, independent mix *)
}

type evidence =
  | Digest of fingerprint
  | Rows of Sparql.Ref_eval.results

let mix h =
  let h = (h lxor (h lsr 29)) * 0x1f3e5d7c9b1a3f25 in
  let h = (h lxor (h lsr 32)) * 0x2c1b3c6d5e7f8a93 in
  h lxor (h lsr 29)

let cell_hash = function
  | None -> 0x5bd1e995
  | Some t -> Hashtbl.hash (t : Rdf.Term.t)

let row_hash row = List.fold_left (fun h c -> mix ((h * 31) + cell_hash c)) 17 row

let fingerprint (r : Sparql.Ref_eval.results) =
  let sum1 = ref 0 and sum2 = ref 0 and count = ref 0 in
  List.iter
    (fun row ->
      let h = row_hash row in
      sum1 := !sum1 + mix (h lxor 0x6a09e667);
      sum2 := !sum2 + mix (h lxor 0x3c6ef372);
      incr count)
    r.rows;
  { vars = r.vars; count = !count; sum1 = !sum1; sum2 = !sum2 }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(** The evidence the timed loop keeps for an answer to the query
    [text], judged from the text so the loop parses nothing. *)
let evidence text (r : Sparql.Ref_eval.results) =
  if contains text "LIMIT" || contains text "ORDER BY" then Rows r
  else Digest (fingerprint r)

(** The query the oracle evaluates for [q]: the same query without its
    LIMIT and OFFSET, so a LIMIT answer can be checked against every
    correct answer. *)
let unlimited (q : A.query) = { q with limit = None; offset = None }

(* Sort keys of each row, in answer order. Only plain-variable keys
   are supported, which is every ORDER BY the workloads send. *)
let sort_keys (q : A.query) (r : Sparql.Ref_eval.results) =
  let col v =
    let rec idx i = function
      | [] -> invalid_arg ("Check: ORDER BY key not projected: " ^ v)
      | x :: _ when x = v -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 r.vars
  in
  let cols =
    List.map
      (fun (c : A.order_cond) ->
        match c.ord_expr with
        | A.E_var v -> col v
        | _ -> invalid_arg "Check: ORDER BY on an expression")
      q.order_by
  in
  List.map (fun row -> List.map (List.nth row) cols) r.rows

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []
let rec drop n = function _ :: r when n > 0 -> drop (n - 1) r | l -> l

(* Multiset inclusion of [got]'s rows in [full]'s. *)
let subset (got : Sparql.Ref_eval.results) (full : Sparql.Ref_eval.results) =
  let avail = Hashtbl.create 64 in
  List.iter
    (fun row ->
      Hashtbl.replace avail row
        (1 + Option.value ~default:0 (Hashtbl.find_opt avail row)))
    full.rows;
  List.for_all
    (fun row ->
      match Hashtbl.find_opt avail row with
      | Some n when n > 0 -> Hashtbl.replace avail row (n - 1); true
      | _ -> false)
    got.rows

(** [check q ~full got] is [Ok ()] when [got] is evidence of a correct
    answer to [q], given [full], the oracle's answer to [unlimited q]
    (in ORDER BY order when [q] has one):
    - a fingerprint must match [full]'s: the same multiset of rows;
    - kept rows must number what LIMIT/OFFSET leave of [full], be a
      sub-multiset of it, and under ORDER BY carry exactly the sort
      keys [full] has at those positions (ties may break either way). *)
let check (q : A.query) ~(full : Sparql.Ref_eval.results) (got : evidence) =
  match got with
  | Digest fp ->
    let want = fingerprint full in
    if q.order_by <> [] || q.limit <> None then
      Error "an ordered or limited answer was kept as a fingerprint"
    else if fp.vars <> want.vars then Error "projected variables differ"
    else if fp.count <> want.count then
      Error (Printf.sprintf "%d rows, expected %d" fp.count want.count)
    else if fp.sum1 <> want.sum1 || fp.sum2 <> want.sum2 then
      Error "rows differ from the oracle's"
    else Ok ()
  | Rows r ->
    let offset = Option.value ~default:0 q.offset in
    let available = max 0 (List.length full.rows - offset) in
    let expected_n =
      match q.limit with Some l -> min l available | None -> available
    in
    let n = List.length r.rows in
    if r.vars <> full.vars then Error "projected variables differ"
    else if n <> expected_n then
      Error (Printf.sprintf "%d rows, expected %d" n expected_n)
    else if not (subset r full) then Error "a row is not in the full answer"
    else if q.order_by <> []
            && sort_keys q r <> take n (drop offset (sort_keys q full))
    then Error "sort keys differ from the full answer's at those positions"
    else Ok ()
