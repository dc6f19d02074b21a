(** Drives a workload's stream through the engine and checks it.

    One process, one client, closed loop: each operation is sent when
    the previous one has returned. The untraced run drives the engine
    as a user does ({!Db2rdf.Engine.query_string},
    {!Db2rdf.Engine.update_string}, {!Db2rdf.Engine.snapshot}); the
    traced run chains the layers' public functions itself and times
    each. Both run the host probe between rounds (see {!Hostprobe}) and
    keep answers as {!Check.evidence}; the oracle runs after the last
    round. *)

module E = Db2rdf.Engine
module S = Streams

let time f =
  let t0 = Hostprobe.now () in
  let r = f () in
  (r, Hostprobe.now () -. t0)

(* Words allocated so far by this domain. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let live_words () = (Gc.stat ()).live_words

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

type setup = {
  setup_s : float;  (** median normalised build time *)
  setup_raw_s : float;  (** median raw build time *)
  bytes_per_triple : float;
}

(** Builds timed per run. One build cannot be split into rounds, so
    the median of [setup_builds] builds is reported, each bracketed by
    probes and started from a fully collected heap. *)
let setup_builds = 5

let build triples =
  let e, _, _ = E.create_colored ~options:E.default_options triples in
  e

(** Time the set-up. It runs after the timed loop: the OCaml runtime's
    heap growth depends on the collections forced here, and the loop's
    peak heap must not. The store the loop used was built first in the
    process, so these builds start from a grown heap, like every build
    but a process's first. *)
let setup triples =
  let n = List.length triples in
  let norm = Array.make setup_builds 0.0 and raw = Array.make setup_builds 0.0 in
  let bytes = Array.make setup_builds 0.0 in
  for i = 0 to setup_builds - 1 do
    Gc.full_major ();
    let before = live_words () in
    let p0 = Hostprobe.run () in
    let e, dt = time (fun () -> build triples) in
    let p1 = Hostprobe.run () in
    raw.(i) <- dt;
    norm.(i) <- Hostprobe.normalise ~probe:(Hostprobe.bracket ~before:p0 ~after:p1) dt;
    Gc.full_major ();
    bytes.(i) <- float_of_int (8 * (live_words () - before)) /. float_of_int n;
    (* Keep the store alive through the collection that measures it. *)
    ignore (Sys.opaque_identity e)
  done;
  { setup_s = Stats.median norm; setup_raw_s = Stats.median raw;
    bytes_per_triple = Stats.median bytes }

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ops : S.op array;  (** every timed operation, in stream order *)
  round_of : int array;  (** the round each operation ran in *)
  raw : float array;  (** seconds, as measured *)
  factor : float array;  (** the normalisation factor of its round *)
  evidence : Check.evidence option array;  (** reads and snapshot reads *)
  failed : bool array;
  probes : float array;  (** the probe times, one more than rounds *)
  peak_heap_words : int;
}

(** Run [stream.rounds] with [exec i op] sending the [i]-th operation
    ([-1] for the warm-up) and returning the answer of a read, if any;
    [exec] runs inside the timer, the evidence is taken outside it. *)
let timed_loop (stream : S.t) (exec : int -> S.op -> Sparql.Ref_eval.results option) =
  Array.iter (fun op -> try ignore (exec (-1) op) with _ -> ()) stream.warmup;
  let ops = Array.concat (Array.to_list stream.rounds) in
  let n = Array.length ops and nr = Array.length stream.rounds in
  let round_of = Array.make n 0 and raw = Array.make n 0.0 in
  let evidence = Array.make n None and failed = Array.make n false in
  let probes = Array.make (nr + 1) 0.0 in
  let k = ref 0 in
  if stream.settle.(0) then Gc.full_major ();
  probes.(0) <- Hostprobe.run ();
  Array.iteri
    (fun r round ->
      Array.iter
        (fun op ->
          let i = !k in
          incr k;
          round_of.(i) <- r;
          let t0 = Hostprobe.now () in
          (match exec i op with
           | answer ->
             raw.(i) <- Hostprobe.now () -. t0;
             (match op, answer with
              | (S.Read { text; _ } | S.Snap { text; _ }), Some a ->
                evidence.(i) <- Some (Check.evidence text a)
              | _ -> ())
           | exception ex ->
             raw.(i) <- Hostprobe.now () -. t0;
             prerr_endline ("operation failed: " ^ Printexc.to_string ex);
             failed.(i) <- true))
        round;
      if r + 1 < nr && stream.settle.(r + 1) then Gc.full_major ();
      probes.(r + 1) <- Hostprobe.run ())
    stream.rounds;
  let peak_heap_words = (Gc.quick_stat ()).top_heap_words in
  let factor =
    Array.map
      (fun r ->
        Hostprobe.factor
          ~probe:(Hostprobe.bracket ~before:probes.(r) ~after:probes.(r + 1)))
      round_of
  in
  { ops; round_of; raw; factor; evidence; failed; probes; peak_heap_words }

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

let dump_text = "SELECT ?s ?p ?o WHERE { ?s ?p ?o }"

(** Replay the stream into an {!Rdf.Graph} with the reference update
    semantics and hold every read's evidence against the oracle's
    answer at the same point of the stream (a snapshot read against the
    graph at its capture point), then the engine's final contents
    against the graph's. Returns the number of mismatches. *)
let verify (stream : S.t) (o : outcome) ~final_dump =
  let graph = Rdf.Graph.create () in
  List.iter (Rdf.Graph.add graph) stream.triples;
  let memo = Hashtbl.create 64 in
  let bad = ref 0 in
  let report what text msg =
    incr bad;
    if !bad <= 5 then Printf.eprintf "wrong answer (%s): %s\n  %s\n%!" what msg text
  in
  let check_read tmpl text ev =
    let q = Sparql.Parser.parse text in
    let full =
      match Hashtbl.find_opt memo text with
      | Some f -> f
      | None ->
        let f = Oracle.answer graph q in
        Hashtbl.replace memo text f;
        f
    in
    match Check.check q ~full ev with Ok () -> () | Error m -> report tmpl text m
  in
  Array.iteri
    (fun i op ->
      if not o.failed.(i) then
        match op, o.evidence.(i) with
        | (S.Read { tmpl; text } | S.Snap { tmpl; text }), Some ev -> check_read tmpl text ev
        | (S.Read { tmpl; text } | S.Snap { tmpl; text }), None ->
          report tmpl text "no answer kept"
        | S.Write { text; _ }, _ ->
          Sparql.Ref_eval.apply_update graph (Sparql.Parser.parse_update text);
          Hashtbl.reset memo)
    o.ops;
  check_read "final store contents" dump_text (Check.Digest (Check.fingerprint final_dump));
  !bad

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                    *)
(* ------------------------------------------------------------------ *)

let exec_untraced e _ = function
  | S.Read { text; _ } -> Some (E.query_string e text)
  | S.Write { text; _ } -> E.update_string e text; None
  | S.Snap { text; _ } -> Some (E.snapshot_query_string (E.snapshot e) text)

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  notes : (string * float) list;  (** raw figures printed beside *)
}

let ms x = 1000.0 *. x

let select (o : outcome) pred =
  let acc = ref [] in
  Array.iteri (fun i op -> if pred op && not o.failed.(i) then acc := i :: !acc) o.ops;
  Array.of_list (List.rev !acc)

let is_read = function S.Read _ -> true | _ -> false
let is_write = function S.Write _ -> true | _ -> false
let is_snap = function S.Snap _ -> true | _ -> false
let tmpl_of = function S.Read { tmpl; _ } | S.Snap { tmpl; _ } -> tmpl | S.Write { kind; _ } -> S.kind_name kind

let p99_exn what xs =
  match Stats.p99 xs with
  | Some v -> v
  | None ->
    failwith (Printf.sprintf "%s: %d samples, a p99 needs %d" what
                (Array.length xs) Stats.p99_min_samples)

(* Operations per second: the median over rounds of each round's
   count divided by its time, so a round slowed by a burst on the host
   moves the figure no more than any other round. *)
let rate (o : outcome) idx scale =
  let n = Hashtbl.create 64 and t = Hashtbl.create 64 in
  Array.iter
    (fun i ->
      let r = o.round_of.(i) in
      Hashtbl.replace n r (1 + Option.value ~default:0 (Hashtbl.find_opt n r));
      Hashtbl.replace t r (scale i +. Option.value ~default:0.0 (Hashtbl.find_opt t r)))
    idx;
  Stats.median
    (Array.of_seq
       (Seq.map (fun (r, c) -> float_of_int c /. Hashtbl.find t r) (Hashtbl.to_seq n)))

(* Rate and median latency of the operations [idx], normalised, with
   their raw counterparts. The p99 and the snapshot time are per-layer
   figures of the traced run (see README.md, "Tail latencies"); the raw
   p99 is printed beside the metrics. *)
let latency_metrics ~prefix ~rate_name ~rate_unit (o : outcome) idx =
  let norm_of i = o.raw.(i) *. o.factor.(i) and raw_of i = o.raw.(i) in
  let norm = Array.map norm_of idx and raw = Array.map raw_of idx in
  ( [ (rate_name, rate o idx norm_of, rate_unit);
      (prefix ^ "_p50_ms", ms (Stats.median norm), "ms") ],
    [ ("raw_" ^ prefix ^ "_p50_ms", ms (Stats.median raw));
      ("raw_" ^ prefix ^ "_p99_ms", ms (p99_exn prefix raw));
      ("raw_" ^ rate_name, rate o idx raw_of) ] )

(* Geometric mean over templates of each template's median latency. *)
let geomean_of_medians (o : outcome) idx scale =
  let by = Hashtbl.create 32 in
  Array.iter
    (fun i ->
      let k = tmpl_of o.ops.(i) in
      Hashtbl.replace by k (scale i :: Option.value ~default:[] (Hashtbl.find_opt by k)))
    idx;
  Stats.geomean
    (Array.of_seq (Seq.map (fun l -> Stats.median (Array.of_list l)) (Hashtbl.to_seq_values by)))

let phase name t0 =
  Printf.eprintf "%s: %.1f s, top heap %.0f MB\n%!" name (Hostprobe.now () -. t0)
    (float_of_int (8 * (Gc.quick_stat ()).top_heap_words) /. 1e6);
  Hostprobe.now ()

let untraced (stream : S.t) =
  let t = Hostprobe.now () in
  let e = build stream.triples in
  let o = timed_loop stream (exec_untraced e) in
  let t = phase "store and timed loop" t in
  let final_dump = E.query_string e dump_text in
  let bad = verify stream o ~final_dump in
  let t = phase "check" t in
  let st = setup stream.triples in
  ignore (phase "set-up builds" t);
  let reads = select o is_read and writes = select o is_write and snaps = select o is_snap in
  let q_m, q_raw = latency_metrics ~prefix:"query" ~rate_name:"queries_per_s" ~rate_unit:"queries/s" o reads in
  let u_m, u_raw = latency_metrics ~prefix:"update" ~rate_name:"updates_per_s" ~rate_unit:"stmts/s" o writes in
  let failed = Array.fold_left (fun n f -> if f then n + 1 else n) 0 o.failed in
  { correct = bad = 0; attempted = Array.length o.ops; failed;
    metrics =
      [ ("setup_s", st.setup_s, "s") ] @ q_m
      @ [ ("query_geomean_ms", ms (geomean_of_medians o reads (fun i -> o.raw.(i) *. o.factor.(i))), "ms") ]
      @ u_m
      @ [ ("store_bytes_per_triple", st.bytes_per_triple, "B/triple");
          ("peak_heap_mb", float_of_int (8 * o.peak_heap_words) /. 1e6, "MB") ];
    notes =
      [ ("raw_setup_s", st.setup_raw_s);
        ("probe_median_ms", ms (Stats.median o.probes));
        ("raw_query_geomean_ms", ms (geomean_of_medians o reads (fun i -> o.raw.(i))));
        ("raw_snapshot_ms", ms (Stats.median (Array.map (fun i -> o.raw.(i)) snaps)));
        ("query_mean_ms",
         ms (Array.fold_left (fun a i -> a +. (o.raw.(i) *. o.factor.(i))) 0.0 reads)
         /. float_of_int (Array.length reads)) ]
      @ q_raw @ u_raw }

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)
(* ------------------------------------------------------------------ *)

type stamp = int * int * int

type tstate = {
  e : E.t;
  cache : (Sparql.Ast.query * Relsql.Sql_ast.stmt * stamp) Relsql.Plan_cache.t;
      (** the statement cache of {!Db2rdf.Engine.query_string}, kept by
          the same rule: text key, catalog stamp validity *)
  mutable times : (int * string * float) list;  (** op, layer, raw seconds *)
  counts : (string, float) Hashtbl.t;
  mutable q_error_max : float;
  mutable after_snapshot : bool;
}

let count st k v =
  Hashtbl.replace st.counts k (v +. Option.value ~default:0.0 (Hashtbl.find_opt st.counts k))

let get st k = Option.value ~default:0.0 (Hashtbl.find_opt st.counts k)

(* Time and count the allocation of one call into a layer. *)
let layer st i name f =
  let a0 = allocated_words () in
  let t0 = Hostprobe.now () in
  let r = f () in
  let dt = Hostprobe.now () -. t0 in
  let a1 = allocated_words () in
  if i >= 0 then begin
    st.times <- (i, name, dt) :: st.times;
    count st ("alloc." ^ name) (a1 -. a0);
    count st ("calls." ^ name) 1.0
  end;
  r

let operators =
  [ "SeqScan"; "IndexLookup"; "IndexNLJoin"; "HashJoin"; "NLJoin"; "LateralValues" ]

let operator_class label =
  let stop = ref (String.length label) in
  String.iteri (fun j c -> if (c = ' ' || c = '(') && j < !stop then stop := j) label;
  let word = String.sub label 0 !stop in
  if List.mem word operators then word else "other"

let wrapper label =
  label = "statement" || label = "body"
  || (String.length label >= 4 && String.sub label 0 4 = "CTE ")

let traced_read st i text =
  let db = Db2rdf.Loader.database (E.loader st.e) in
  let now =
    (Relsql.Database.data_version db, Relsql.Database.enc_version db,
     Relsql.Database.delta_version db)
  in
  let q, stmt =
    match Relsql.Plan_cache.find st.cache text with
    | Some (q, stmt, stamp) when stamp = now -> (q, stmt)
    | found ->
      if found <> None then begin
        Relsql.Plan_cache.note_stale st.cache;
        if i >= 0 then count st "stale" 1.0
      end;
      let q = layer st i "parse" (fun () -> Sparql.Parser.parse text) in
      let stmt = layer st i "translate" (fun () -> E.translate st.e q) in
      if i >= 0 then count st "ctes" (float_of_int (List.length stmt.ctes));
      Relsql.Plan_cache.add st.cache text (q, stmt, now);
      (q, stmt)
  in
  let r, tree = layer st i "execute" (fun () -> Relsql.Executor.run_analyzed db stmt) in
  let res = layer st i "decode" (fun () -> Db2rdf.Results.decode (E.dictionary st.e) q r) in
  if i >= 0 then begin
    Relsql.Opstats.iter
      (fun (n : Relsql.Opstats.t) ->
        let cls = operator_class n.label in
        st.times <- (i, "exec_self." ^ cls, Relsql.Opstats.self_seconds n) :: st.times;
        if not (wrapper n.label) then begin
          count st "rows_in" (float_of_int n.rows_in);
          count st "index_probes" (float_of_int n.index_probes);
          count st "build_rows" (float_of_int n.build_rows)
        end;
        match Relsql.Opstats.q_error n with
        | Some qe -> st.q_error_max <- Float.max st.q_error_max qe
        | None -> ())
      tree;
    count st "rows" (float_of_int (List.length res.rows))
  end;
  res

let exec_traced st i = function
  | S.Read { text; _ } -> Some (traced_read st i text)
  | S.Write { kind; text } ->
    let t0 = Hostprobe.now () in
    let u = layer st i "parse_update" (fun () -> Sparql.Parser.parse_update text) in
    layer st i ("update." ^ S.kind_name kind) (fun () -> E.update st.e u);
    if st.after_snapshot && i >= 0 then begin
      st.times <- (i, "post_snapshot_write", Hostprobe.now () -. t0) :: st.times;
      st.after_snapshot <- false
    end;
    None
  | S.Snap { text; _ } ->
    let s = layer st i "snapshot_capture" (fun () -> E.snapshot st.e) in
    let r = layer st i "snapshot_first_query" (fun () -> E.snapshot_query_string s text) in
    st.after_snapshot <- true;
    Some r

let total_thaws e =
  List.fold_left
    (fun n (r : Relsql.Table.compression_report) -> n + r.r_thaws)
    0 (Relsql.Database.compression_reports (Db2rdf.Loader.database (E.loader e)))

(* The colouring and the bulk load of {!Db2rdf.Engine.create_colored},
   called one by one so each can be timed. *)
let traced_setup triples =
  let layout = Db2rdf.Layout.default in
  let p0 = Hostprobe.run () in
  let (direct_map, reverse_map), color_dt =
    time (fun () ->
        let sampled = Db2rdf.Coloring.sample_triples ~fraction:1.0 triples in
        let dg, rg = Db2rdf.Coloring.interference_graphs sampled in
        let dcol = Db2rdf.Coloring.color ~max_colors:layout.dph_cols dg in
        let rcol = Db2rdf.Coloring.color ~max_colors:layout.rph_cols rg in
        ( Db2rdf.Coloring.to_pred_map ~m:layout.dph_cols dcol,
          Db2rdf.Coloring.to_pred_map ~m:layout.rph_cols rcol ))
  in
  let e, load_dt =
    time (fun () ->
        let e = E.create ~direct_map ~reverse_map () in
        E.load e triples;
        e)
  in
  let p1 = Hostprobe.run () in
  let probe = Hostprobe.bracket ~before:p0 ~after:p1 in
  (e, Hostprobe.normalise ~probe color_dt, Hostprobe.normalise ~probe load_dt)

let traced (stream : S.t) =
  let e, color_s, load_s = traced_setup stream.triples in
  let st =
    { e; cache = Relsql.Plan_cache.create (); times = []; counts = Hashtbl.create 64;
      q_error_max = 1.0; after_snapshot = false }
  in
  let tables =
    List.map
      (fun name ->
        match
          List.find_opt
            (fun (r : Relsql.Table.compression_report) -> r.r_table = name)
            (Relsql.Database.compression_reports (Db2rdf.Loader.database (E.loader e)))
        with
        | Some r -> (name, float_of_int (if r.r_frozen then r.r_packed_bytes else r.r_boxed_bytes))
        | None -> (name, 0.0))
      [ "DPH"; "DS"; "RPH"; "RS"; "DICT" ]
  in
  let spills =
    let l = E.loader e in
    (Db2rdf.Loader.report l Db2rdf.Loader.Direct).spills
    + (Db2rdf.Loader.report l Db2rdf.Loader.Reverse).spills
  in
  let scan0 = E.scan_cache_stats e and thaws0 = total_thaws e in
  let stmt0 = ref None in
  let exec i op =
    if i = 0 && !stmt0 = None then stmt0 := Some (Relsql.Plan_cache.stats st.cache);
    exec_traced st i op
  in
  let o = timed_loop stream exec in
  let scan1 = E.scan_cache_stats e and thaws1 = total_thaws e in
  let stmt1 = Relsql.Plan_cache.stats st.cache in
  let final_dump = E.query_string e dump_text in
  let bad = verify stream o ~final_dump in
  let n_of pred = float_of_int (Array.length (select o pred)) in
  let n_sel = n_of is_read and n_writes = n_of is_write and n_snaps = n_of is_snap in
  let div a b = if b > 0.0 then a /. b else 0.0 in
  (* Normalised seconds per layer, summed and listed. *)
  let norm = Hashtbl.create 32 in
  List.iter
    (fun (i, name, dt) ->
      if not o.failed.(i) then
        Hashtbl.replace norm name
          ((dt *. o.factor.(i)) :: Option.value ~default:[] (Hashtbl.find_opt norm name)))
    st.times;
  let samples name = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt norm name)) in
  let sum name = Array.fold_left ( +. ) 0.0 (samples name) in
  let median name = let a = samples name in if a = [||] then 0.0 else Stats.median a in
  let kw name per = div (get st ("alloc." ^ name)) per /. 1000.0 in
  let ratio (a : Relsql.Plan_cache.stats) (b : Relsql.Plan_cache.stats) =
    let h = b.hits - a.hits and m = b.misses - a.misses in
    div (float_of_int h) (float_of_int (h + m))
  in
  let stmt0 = Option.value ~default:stmt1 !stmt0 in
  let kinds = [ S.Insert_data; S.Delete_data; S.Delete_where ] in
  let update_alloc =
    List.fold_left (fun a k -> a +. get st ("alloc.update." ^ S.kind_name k)) 0.0 kinds
  in
  let per_query name = ms (div (sum name) n_sel) in
  (* Per-operation latency as the sum of its layers' normalised times. *)
  let op_total names pred =
    let t = Hashtbl.create 256 in
    List.iter
      (fun (i, name, dt) ->
        if List.mem name names && not o.failed.(i) then
          Hashtbl.replace t i
            ((dt *. o.factor.(i)) +. Option.value ~default:0.0 (Hashtbl.find_opt t i)))
      st.times;
    Array.map (fun i -> Option.value ~default:0.0 (Hashtbl.find_opt t i)) (select o pred)
  in
  let read_total = op_total [ "parse"; "translate"; "execute"; "decode" ] is_read in
  let write_total =
    op_total ("parse_update" :: List.map (fun k -> "update." ^ S.kind_name k) kinds) is_write
  in
  let snap_total = op_total [ "snapshot_capture"; "snapshot_first_query" ] is_snap in
  let failed = Array.fold_left (fun n f -> if f then n + 1 else n) 0 o.failed in
  let traced_query_ms =
    ms (Array.fold_left ( +. ) 0.0 read_total) /. Float.max 1.0 n_sel
  in
  { correct = bad = 0; attempted = Array.length o.ops; failed;
    metrics =
      [ ("query_p99_ms", ms (p99_exn "query" read_total), "ms");
        ("update_p99_ms", ms (p99_exn "update" write_total), "ms");
        ("snapshot_ms", ms (Stats.median snap_total), "ms");
        ("parse_us", 1000.0 *. per_query "parse", "us");
        ("parse_update_us", 1e6 *. div (sum "parse_update") n_writes, "us");
        ("alloc_kw.parse", kw "parse" n_sel, "kwords");
        ("translate_us", 1000.0 *. per_query "translate", "us");
        ("alloc_kw.translate", kw "translate" n_sel, "kwords");
        ("sql_ctes", div (get st "ctes") (get st "calls.translate"), "count");
        ("stmt_cache_hit_ratio", ratio stmt0 stmt1, "ratio");
        ("stmt_cache_stale_per_query", div (get st "stale") n_sel, "ratio");
        ("execute_ms", per_query "execute", "ms");
        ("alloc_kw.execute", kw "execute" n_sel, "kwords");
        ("rows_examined_per_row", div (get st "rows_in") (get st "rows"), "ratio");
        ("index_probes_per_query", div (get st "index_probes") n_sel, "count");
        ("hash_build_rows_per_query", div (get st "build_rows") n_sel, "count");
        ("q_error_max", st.q_error_max, "ratio") ]
      @ List.map
          (fun c -> ("exec_self_ms." ^ c, per_query ("exec_self." ^ c), "ms"))
          (operators @ [ "other" ])
      @ [ ("scan_cache_hit_ratio", ratio scan0 scan1, "ratio");
          ("decode_ms", per_query "decode", "ms");
          ("alloc_kw.decode", kw "decode" n_sel, "kwords");
          ("rows_per_query", div (get st "rows") n_sel, "count") ]
      @ List.map
          (fun k ->
            let name = "update." ^ S.kind_name k in
            ("update_apply_ms." ^ S.kind_name k,
             ms (div (sum name) (get st ("calls." ^ name))), "ms"))
          kinds
      @ [ ("alloc_kw.update", div update_alloc n_writes /. 1000.0, "kwords");
          ("snapshot_capture_ms", ms (median "snapshot_capture"), "ms");
          ("snapshot_first_query_ms", ms (median "snapshot_first_query"), "ms");
          ("post_snapshot_write_ms", ms (median "post_snapshot_write"), "ms");
          ("thaws_per_snapshot", div (float_of_int (thaws1 - thaws0)) n_snaps, "count");
          ("color_s", color_s, "s");
          ("load_s", load_s, "s");
          ("spill_rows", float_of_int spills, "count") ]
      @ List.map (fun (t, b) -> ("table_bytes." ^ t, b, "B")) tables;
    notes =
      [ ("traced_query_mean_ms", traced_query_ms);
        ("probe_median_ms", ms (Stats.median o.probes)) ] }
