(* Checks of the benchmark's own machinery: that a wrong answer fails
   the check, that a p99 needs 1,000 samples, and that normalisation
   scales times the way Hostprobe documents. *)

open Perfbench

let iri s = Some (Rdf.Term.iri ("http://t.example/" ^ s))
let num n = Some (Rdf.Term.int_lit n)

let results vars rows = { Sparql.Ref_eval.vars; rows }

let full =
  results [ "x"; "n" ]
    [ [ iri "a"; num 3 ]; [ iri "b"; num 1 ]; [ iri "c"; num 2 ];
      [ iri "d"; num 2 ]; [ iri "e"; num 5 ] ]

let unordered = Sparql.Parser.parse "SELECT ?x ?n WHERE { ?x <http://t.example/p> ?n }"

let ordered =
  Sparql.Parser.parse
    "SELECT ?x ?n WHERE { ?x <http://t.example/p> ?n } ORDER BY ?n LIMIT 3"

let limited =
  Sparql.Parser.parse "SELECT ?x ?n WHERE { ?x <http://t.example/p> ?n } LIMIT 2"

let ok = function Ok () -> true | Error _ -> false
let digest r = Check.Digest (Check.fingerprint r)

let test_digest () =
  let shuffled = results full.vars (List.rev full.rows) in
  Alcotest.(check bool) "same rows in another order" true
    (ok (Check.check unordered ~full (digest shuffled)));
  Alcotest.(check bool) "dropped row" false
    (ok (Check.check unordered ~full (digest (results full.vars (List.tl full.rows)))));
  Alcotest.(check bool) "extra row" false
    (ok (Check.check unordered ~full
           (digest (results full.vars ([ iri "f"; num 9 ] :: full.rows)))));
  Alcotest.(check bool) "duplicated row" false
    (ok (Check.check unordered ~full
           (digest (results full.vars (List.hd full.rows :: List.tl (List.tl full.rows) @ [ List.hd full.rows ])))));
  Alcotest.(check bool) "changed value" false
    (ok (Check.check unordered ~full
           (digest (results full.vars ([ iri "a"; num 4 ] :: List.tl full.rows)))))

let test_order_by () =
  (* ORDER BY ?n LIMIT 3 over n = 1,2,2,3,5: keys 1,2,2; either row
     with n = 2 may come second or third. The oracle's full answer is
     in ORDER BY order. *)
  let full =
    results full.vars
      [ [ iri "b"; num 1 ]; [ iri "c"; num 2 ]; [ iri "d"; num 2 ];
        [ iri "a"; num 3 ]; [ iri "e"; num 5 ] ]
  in
  let good = results full.vars [ [ iri "b"; num 1 ]; [ iri "d"; num 2 ]; [ iri "c"; num 2 ] ] in
  Alcotest.(check bool) "right keys, ties either way" true
    (ok (Check.check ordered ~full (Check.Rows good)));
  let wrong_order = results full.vars [ [ iri "c"; num 2 ]; [ iri "b"; num 1 ]; [ iri "d"; num 2 ] ] in
  Alcotest.(check bool) "wrong ORDER BY order" false
    (ok (Check.check ordered ~full (Check.Rows wrong_order)));
  let wrong_rows = results full.vars [ [ iri "b"; num 1 ]; [ iri "c"; num 2 ]; [ iri "a"; num 3 ] ] in
  Alcotest.(check bool) "not the smallest keys" false
    (ok (Check.check ordered ~full (Check.Rows wrong_rows)));
  Alcotest.(check bool) "a row short" false
    (ok (Check.check ordered ~full (Check.Rows (results full.vars (List.tl good.rows)))))

let test_limit () =
  let two rows = Check.Rows (results full.vars rows) in
  Alcotest.(check bool) "any two rows" true
    (ok (Check.check limited ~full (two [ [ iri "e"; num 5 ]; [ iri "a"; num 3 ] ])));
  Alcotest.(check bool) "one row" false
    (ok (Check.check limited ~full (two [ [ iri "e"; num 5 ] ])));
  Alcotest.(check bool) "a row not in the answer" false
    (ok (Check.check limited ~full (two [ [ iri "e"; num 5 ]; [ iri "z"; num 0 ] ])));
  Alcotest.(check bool) "the same row twice" false
    (ok (Check.check limited ~full (two [ [ iri "e"; num 5 ]; [ iri "e"; num 5 ] ])))

let test_evidence_kind () =
  let r = results [ "x" ] [ [ iri "a" ] ] in
  Alcotest.(check bool) "LIMIT keeps rows" true
    (match Check.evidence "SELECT ?x WHERE { ?x ?p ?o } LIMIT 5" r with
     | Check.Rows _ -> true | Check.Digest _ -> false);
  Alcotest.(check bool) "plain query keeps a fingerprint" true
    (match Check.evidence "SELECT ?x WHERE { ?x ?p ?o }" r with
     | Check.Digest _ -> true | Check.Rows _ -> false)

let test_p99 () =
  let xs n = Array.init n float_of_int in
  Alcotest.(check (option (float 1e-9))) "999 samples: no p99" None (Stats.p99 (xs 999));
  Alcotest.(check (option (float 1e-9))) "1000 samples" (Some 989.01) (Stats.p99 (xs 1000));
  Alcotest.(check (float 1e-9)) "median of an even sample" 1.5 (Stats.median [| 2.0; 1.0; 3.0; 0.0 |]);
  Alcotest.(check (float 1e-9)) "geomean" 4.0 (Stats.geomean [| 2.0; 8.0 |])

let test_normalise () =
  let r = Hostprobe.reference_s in
  Alcotest.(check (float 1e-12)) "probe at reference: unchanged" 0.5
    (Hostprobe.normalise ~probe:r 0.5);
  Alcotest.(check (float 1e-12)) "probe twice as slow: half" 0.5
    (Hostprobe.normalise ~probe:(2.0 *. r) 1.0);
  Alcotest.(check (float 1e-12)) "probe twice as fast: double" 2.0
    (Hostprobe.normalise ~probe:(0.5 *. r) 1.0);
  Alcotest.(check (float 1e-12)) "bracket is the mean" 3.0
    (Hostprobe.bracket ~before:2.0 ~after:4.0)

let test_oracle_reorder () =
  (* LQ2's first three triples share no variable; the oracle's order
     must connect every triple to the ones before it. *)
  let q = Sparql.Parser.parse (List.assoc "LQ2" Workloads.Lubm.queries) in
  let rec bgps = function
    | Sparql.Ast.Bgp tps -> [ tps ]
    | Group ps | Union ps -> List.concat_map bgps ps
    | Optional p -> bgps p
    | Filter _ -> []
  in
  List.iter
    (fun tps ->
      let ordered = Oracle.reorder_bgp tps in
      Alcotest.(check int) "same triples" (List.length tps) (List.length ordered);
      ignore
        (List.fold_left
           (fun bound tp ->
             let vs = Oracle.pos_vars tp in
             if bound <> [] then
               Alcotest.(check bool) "connected" true (List.exists (fun v -> List.mem v bound) vs);
             vs @ bound)
           [] ordered))
    (bgps q.where)

let test_verify () =
  (* A whole stream through the checker: a wrong answer anywhere fails
     the run, and reads are held against the graph at their point of
     the write stream. *)
  let p = Rdf.Term.iri "http://t.example/p" in
  let t s o = Rdf.Triple.make (Rdf.Term.iri ("http://t.example/" ^ s)) p (Rdf.Term.lit o) in
  let triples = [ t "a" "1"; t "b" "2" ] in
  let text = "SELECT ?x ?v WHERE { ?x <http://t.example/p> ?v }" in
  let ops =
    [| Streams.Read { tmpl = "q"; text };
       Streams.Write { kind = Streams.Insert_data;
                       text = "INSERT DATA { <http://t.example/c> <http://t.example/p> \"3\" . }" };
       Streams.Read { tmpl = "q"; text } |]
  in
  let stream =
    { Streams.triples; warmup = [||]; rounds = [| ops |]; settle = [| true |] }
  in
  let answer ts =
    results [ "x"; "v" ]
      (List.map (fun (tr : Rdf.Triple.t) -> [ Some tr.s; Some tr.o ]) ts)
  in
  let before = answer triples and after = answer (t "c" "3" :: triples) in
  let final_dump =
    { Sparql.Ref_eval.vars = [ "s"; "p"; "o" ];
      rows = List.map (fun (tr : Rdf.Triple.t) -> [ Some tr.s; Some tr.p; Some tr.o ])
               (t "c" "3" :: triples) }
  in
  let outcome first second =
    { Runner.ops; round_of = [| 0; 0; 0 |]; raw = [| 0.; 0.; 0. |];
      factor = [| 1.; 1.; 1. |];
      evidence = [| Some (digest first); None; Some (digest second) |];
      failed = [| false; false; false |]; probes = [| 1.; 1. |];
      peak_heap_words = 0 }
  in
  Alcotest.(check int) "right answers" 0
    (Runner.verify stream (outcome before after) ~final_dump);
  Alcotest.(check int) "a read that missed the write before it" 1
    (Runner.verify stream (outcome before before) ~final_dump);
  Alcotest.(check int) "a store that lost a row" 1
    (Runner.verify stream (outcome before after)
       ~final_dump:{ final_dump with rows = List.tl final_dump.rows })

let () =
  Alcotest.run "perfbench"
    [ ( "check",
        [ Alcotest.test_case "fingerprint" `Quick test_digest;
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "limit" `Quick test_limit;
          Alcotest.test_case "evidence kind" `Quick test_evidence_kind ] );
      ( "stats",
        [ Alcotest.test_case "percentiles" `Quick test_p99;
          Alcotest.test_case "normalisation" `Quick test_normalise ] );
      ("oracle", [ Alcotest.test_case "LQ2 reordering" `Quick test_oracle_reorder ]);
      ("runner", [ Alcotest.test_case "stream verification" `Quick test_verify ]) ]
