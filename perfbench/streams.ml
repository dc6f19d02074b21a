(** The three workloads: datasets and seeded operation streams.

    The datasets come from [lib/workloads] with their built-in seeds, so
    every run loads the same store; the run's seed picks only what the
    benchmark sends: query order, template constants, the write stream
    and which reads go to snapshots. A stream is a fixed number of
    rounds (a function of the run length, never of the host's speed),
    so every run with the same arguments does the same work and leaves
    the store in the same state. *)

type kind = Insert_data | Delete_data | Delete_where

let kind_name = function
  | Insert_data -> "insert_data"
  | Delete_data -> "delete_data"
  | Delete_where -> "delete_where"

type op =
  | Read of { tmpl : string; text : string }
      (** a SELECT; [tmpl] names its query or template *)
  | Write of { kind : kind; text : string }  (** an UPDATE statement *)
  | Snap of { tmpl : string; text : string }
      (** capture a snapshot, then answer [text] on it *)

type t = {
  triples : Rdf.Triple.t list;  (** the dataset the store is built from *)
  warmup : op array;  (** sent untimed and unchecked before the rounds *)
  rounds : op array array;
  settle : bool array;
      (** per round: collect the heap fully before it, outside the
          timers, so the round pays for its own allocation and not for
          the collection debt of a different kind of work before it *)
}

(* Settle the first round, every round whose mix of reads and writes
   differs from the round before (a phase change), and every round that
   opens with a snapshot. *)
let settle_points rounds =
  let mix r =
    (Array.exists (function Read _ -> true | _ -> false) r,
     Array.exists (function Write _ -> true | _ -> false) r)
  in
  Array.mapi
    (fun i r ->
      i = 0
      || (match r.(0) with Snap _ -> true | _ -> false)
      || mix r <> mix rounds.(i - 1))
    rounds

let names = [ "lubm-repeat"; "dbpedia-templates"; "lubm-write" ]

(** Triples per dataset: the size the paper-style query set runs at in
    a few milliseconds per query, and DBpedia's generator yields about
    500 predicates there. *)
let scale = 100_000

let term = Rdf.Term.to_string
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

(* The write generator draws deletions from the loaded data and from
   its own earlier insertions, so deletes hit rows that exist (a delete
   of a row already gone is a legal no-op). [fresh k] builds the
   triples of the k-th new entity. *)
type writer = {
  rng : Random.State.t;
  data : Rdf.Triple.t array;
  fresh : Random.State.t -> int -> Rdf.Triple.t list;
  mutable inserted : Rdf.Triple.t list;
  mutable next : int;
}

let triple_text (t : Rdf.Triple.t) =
  Printf.sprintf "%s %s %s ." (term t.s) (term t.p) (term t.o)

let any_triple w =
  if w.inserted <> [] && Random.State.bool w.rng then begin
    let l = List.length w.inserted in
    let t = List.nth w.inserted (Random.State.int w.rng l) in
    w.inserted <- List.filter (fun x -> x != t) w.inserted;
    t
  end
  else w.data.(Random.State.int w.rng (Array.length w.data))

(** One write of the given kind: INSERT DATA of a new entity, DELETE
    DATA of one or two existing triples, or DELETE WHERE of every
    object of one subject/predicate pair. *)
let write w kind =
  match kind with
  | Insert_data ->
    let ts = w.fresh w.rng w.next in
    w.next <- w.next + 1;
    w.inserted <- List.rev_append ts w.inserted;
    Write { kind; text = "INSERT DATA { " ^ String.concat " " (List.map triple_text ts) ^ " }" }
  | Delete_data ->
    let ts = List.init (1 + Random.State.int w.rng 2) (fun _ -> any_triple w) in
    Write { kind; text = "DELETE DATA { " ^ String.concat " " (List.map triple_text ts) ^ " }" }
  | Delete_where ->
    let t = any_triple w in
    Write { kind; text = Printf.sprintf "DELETE WHERE { %s %s ?o }" (term t.s) (term t.p) }

(** [writes w n] is [n] writes in a seeded order, 40% INSERT DATA, 40%
    DELETE DATA and 20% DELETE WHERE (rounded so the inserts are never
    more). The shares are exact in every group, so no seed sends more
    of the costly kind than another, and the median latency does not
    sit on the edge between two kinds' latencies. *)
let writes w n =
  let ins = 2 * n / 5 and dw = max 1 (n / 5) in
  let kinds =
    Array.init n (fun j ->
        if j < ins then Insert_data else if j < ins + dw then Delete_where else Delete_data)
  in
  Array.map (write w) (shuffle w.rng kinds)

let writer rng triples fresh =
  { rng; data = Array.of_list triples; fresh; inserted = []; next = 0 }

(* ------------------------------------------------------------------ *)
(* LUBM                                                                *)
(* ------------------------------------------------------------------ *)

let lubm_queries = Workloads.Lubm.queries

(* Constant-anchored LQ reads: the ones a write stream interleaves with
   (the scans and triangles would swamp the writes). *)
let lubm_selective = [ "LQ1"; "LQ3"; "LQ4"; "LQ5"; "LQ7"; "LQ10"; "LQ13" ]

let lubm_read rng names =
  let name = List.nth names (Random.State.int rng (List.length names)) in
  Read { tmpl = name; text = List.assoc name lubm_queries }

(* A snapshot followed by a selective LQ read on it. *)
let lubm_snap rng =
  let name = List.nth lubm_selective (Random.State.int rng (List.length lubm_selective)) in
  Snap { tmpl = name; text = List.assoc name lubm_queries }

(* A visiting graduate student of a department that exists in every
   generated university (three departments, four graduate courses and
   six faculty at least), half of them in University0/Department0,
   which the selective LQ reads are anchored at. *)
let lubm_fresh rng k =
  let u = Workloads.Lubm.u in
  let iri = Rdf.Term.iri in
  let univ = if Random.State.bool rng then 0 else Random.State.int rng 20 in
  let dept = if univ = 0 && Random.State.bool rng then 0 else Random.State.int rng 3 in
  let base = Printf.sprintf "%sUniversity%d/Department%d" Workloads.Lubm.ns univ dept in
  let s = iri (Printf.sprintf "%s/Visitor%d" base k) in
  let mk p o = Rdf.Triple.make s (iri (u p)) o in
  [ mk "type" (iri (u "GraduateStudent"));
    mk "memberOf" (iri base);
    mk "name" (Rdf.Term.lit (Printf.sprintf "Visitor%d" k));
    mk "takesCourse"
      (iri (Printf.sprintf "%s/GraduateCourse%d" base (Random.State.int rng 4)));
    mk "advisor" (iri (Printf.sprintf "%s/Person%d" base (Random.State.int rng 6))) ]

(* ------------------------------------------------------------------ *)
(* DBpedia templates                                                   *)
(* ------------------------------------------------------------------ *)

(* The DBpedia generator's vocabulary (see lib/workloads/dbpedia.ml). *)
module D = struct
  let ns = Workloads.Dbpedia.ns
  let prop i = Printf.sprintf "%sproperty/p%d" ns i
  let core_prop name = ns ^ "ontology/" ^ name
  let generate = Workloads.Dbpedia.generate
  let queries = Workloads.Dbpedia.queries
end

let dbp_types = 40

(** DQ1-DQ20 as templates: the shapes of [Workloads.Dbpedia.queries]
    with their constants (entity, type, FILTER bounds, LIMIT) drawn
    from the seed. *)
let dbpedia_template rng ~entities name =
  let e () = Printf.sprintf "<%sresource/E%d>" D.ns (Random.State.int rng entities) in
  let ty () = Printf.sprintf "<%sontology/Type%d>" D.ns (Random.State.int rng dbp_types) in
  let p n = Printf.sprintf "<%s>" (D.core_prop n) in
  let t = p "type" and label = p "label" and abstract = p "abstract"
  and related = p "related" and birth = p "birthPlace" and loc = p "location"
  and popn = p "populationTotal" in
  let int n = Random.State.int rng n in
  match name with
  | "DQ1" -> Printf.sprintf "SELECT ?p ?o WHERE { %s ?p ?o }" (e ())
  | "DQ2" -> Printf.sprintf "SELECT ?x WHERE { ?x %s %s }" t (ty ())
  | "DQ3" -> Printf.sprintf "SELECT ?x ?l WHERE { ?x %s %s . ?x %s ?l }" t (ty ()) label
  | "DQ4" ->
    Printf.sprintf
      "SELECT ?x ?a WHERE { ?x %s %s . ?x %s ?a . ?x %s ?n FILTER (?n > %d) }"
      t (ty ()) abstract popn (int 1_000_000)
  | "DQ5" -> Printf.sprintf "SELECT ?x WHERE { ?x %s %s }" related (e ())
  | "DQ6" -> Printf.sprintf "SELECT ?x ?y WHERE { ?x %s ?y . ?y %s %s }" related t (ty ())
  | "DQ7" ->
    Printf.sprintf
      "SELECT ?x ?l WHERE { { ?x %s %s } UNION { ?x %s %s } . ?x %s ?l }"
      t (ty ()) t (ty ()) label
  | "DQ8" ->
    Printf.sprintf "SELECT ?x ?b WHERE { ?x %s %s OPTIONAL { ?x %s ?b } }" t (ty ()) birth
  | "DQ9" ->
    Printf.sprintf "SELECT ?x WHERE { ?x %s ?l FILTER REGEX(?l, \"Entity %d\") }"
      label (int entities)
  | "DQ10" -> Printf.sprintf "SELECT ?s ?p WHERE { ?s ?p %s }" (e ())
  | "DQ11" ->
    Printf.sprintf "SELECT ?x ?y ?z WHERE { ?x %s ?y . ?y %s ?z . ?z %s %s }"
      related related t (ty ())
  | "DQ12" ->
    let lo = int 1_000_000 in
    Printf.sprintf
      "SELECT ?x ?n WHERE { ?x %s ?n FILTER (?n >= %d) FILTER (?n <= %d) }"
      popn lo (lo + int 200_000)
  | "DQ13" ->
    Printf.sprintf
      "SELECT ?x ?l ?a WHERE { ?x %s %s . ?x %s ?l OPTIONAL { ?x %s ?a } } LIMIT %d"
      t (ty ()) label abstract (10 + int 90)
  | "DQ14" ->
    Printf.sprintf "SELECT DISTINCT ?ty WHERE { ?x %s %s . ?x %s ?ty }" related (e ()) t
  | "DQ15" -> Printf.sprintf "SELECT ?x WHERE { ?x %s ?b . ?b %s %s }" birth t (ty ())
  | "DQ16" ->
    Printf.sprintf "SELECT ?x ?y WHERE { ?x %s ?y . ?x %s %s . ?y %s %s }"
      related t (ty ()) t (ty ())
  | "DQ17" ->
    Printf.sprintf "SELECT ?x ?l WHERE { { ?x %s ?l } UNION { ?x %s ?l } }" label abstract
  | "DQ18" ->
    Printf.sprintf "SELECT ?x WHERE { ?x %s %s . ?x %s ?y . ?y %s ?z . ?z %s %s }"
      t (ty ()) loc related t (ty ())
  | "DQ19" ->
    Printf.sprintf
      "SELECT ?x ?n WHERE { ?x %s %s . ?x %s ?n } ORDER BY ?n LIMIT %d"
      t (ty ()) popn (5 + int 45)
  | "DQ20" -> Printf.sprintf "SELECT ?p ?o WHERE { { %s ?p ?o } UNION { %s ?p ?o } }" (e ()) (e ())
  | _ -> invalid_arg name

let dbpedia_names = List.map fst D.queries

(* A new encyclopedic entity: a type, a label, a link and a few rare
   infobox predicates, which land in hash-composed columns and spill
   rows like the loaded data. *)
let dbpedia_fresh ~entities ~n_props rng k =
  let s = Rdf.Term.iri (Printf.sprintf "%sresource/New%d" D.ns k) in
  let core n = Rdf.Term.iri (D.core_prop n) in
  [ Rdf.Triple.make s (core "type")
      (Rdf.Term.iri (Printf.sprintf "%sontology/Type%d" D.ns (Random.State.int rng dbp_types)));
    Rdf.Triple.make s (core "label") (Rdf.Term.lit (Printf.sprintf "New %d" k));
    Rdf.Triple.make s (core "related")
      (Rdf.Term.iri (Printf.sprintf "%sresource/E%d" D.ns (Random.State.int rng entities))) ]
  @ List.init (Random.State.int rng 5) (fun _ ->
        Rdf.Triple.make s
          (Rdf.Term.iri (D.prop (Random.State.int rng n_props)))
          (Rdf.Term.lit (Printf.sprintf "v%d" (Random.State.int rng 1000))))

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

(* After the first snapshot every write costs milliseconds instead of
   tens of microseconds (the tables stay frozen and each delta write
   walks their decode dictionaries), and that cost swings twofold with
   the host's load, beyond any bound the benchmark could hold. So every
   workload takes its snapshots after its writes, and closes with
   [post_snapshot_writes] writes that show the cost: few enough (under
   half a percent of the writes) that the update p99 stays among the
   ordinary writes, and the per-layer post_snapshot_write_ms reports
   them. *)
let snapshots = 15
let post_snapshot_writes = 3

let closing w ~snap_read =
  Array.append
    (Array.init snapshots (fun _ -> [| snap_read () |]))
    [| writes w post_snapshot_writes |]

(* The write tail of the read-only workloads: every run reports every
   end-to-end metric, so lubm-repeat and dbpedia-templates close with
   writes and snapshots on their own store. The tail runs after all
   their reads, so it cannot move their read metrics. *)
let tail_rounds = 100
let tail_writes = 20

let tail w ~snap_read =
  Array.append
    (Array.init tail_rounds (fun _ -> writes w tail_writes))
    (closing w ~snap_read)

let rounds_for ~seconds ~per_second ~min_rounds =
  max min_rounds (int_of_float (Float.ceil (seconds *. per_second)))

let make ~name ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  match name with
  | "lubm-repeat" ->
    let triples = Workloads.Lubm.generate ~scale in
    (* A round sends the 12 queries and LQ1 a second time. With an even
       number of equally frequent queries the median latency would sit
       on the edge between the sixth and seventh fastest query and jump
       between the extremes of their spreads; one cheap query sent twice
       puts it inside the middle query's samples. *)
    let round () =
      Array.map (fun (tmpl, text) -> Read { tmpl; text })
        (shuffle rng
           (Array.of_list (("LQ1", List.assoc "LQ1" lubm_queries) :: lubm_queries)))
    in
    (* 78 rounds = 1014 SELECTs, more than a p99 is reported for. *)
    let reads = Array.init (rounds_for ~seconds ~per_second:8.0 ~min_rounds:78) (fun _ -> round ()) in
    let w = writer rng triples lubm_fresh in
    let snap_read () = lubm_snap rng in
    let rounds = Array.append reads (tail w ~snap_read) in
    { triples; warmup = round (); rounds; settle = settle_points rounds }
  | "dbpedia-templates" ->
    let triples = D.generate ~scale in
    let type_p = Rdf.Term.iri (D.core_prop "type") in
    let entities =
      List.fold_left (fun n (t : Rdf.Triple.t) -> if t.p = type_p then n + 1 else n) 0 triples
    in
    let n_props = max 60 (scale / 200) in
    let round () =
      Array.map
        (fun tmpl -> Read { tmpl; text = dbpedia_template rng ~entities tmpl })
        (shuffle rng (Array.of_list dbpedia_names))
    in
    let reads = Array.init (rounds_for ~seconds ~per_second:6.0 ~min_rounds:50) (fun _ -> round ()) in
    let w = writer rng triples (dbpedia_fresh ~entities ~n_props) in
    let snap_read () = Snap { tmpl = "DQ1"; text = dbpedia_template rng ~entities "DQ1" } in
    let rounds = Array.append reads (tail w ~snap_read) in
    { triples; warmup = round (); rounds; settle = settle_points rounds }
  | "lubm-write" ->
    let triples = Workloads.Lubm.generate ~scale in
    let w = writer rng triples lubm_fresh in
    (* A round: the seven selective reads once each and seven writes,
       interleaved in a seeded order (an odd number of equally frequent
       reads keeps the median latency inside one query's samples). *)
    let round () =
      let reads =
        Array.map
          (fun tmpl -> Read { tmpl; text = List.assoc tmpl lubm_queries })
          (Array.of_list lubm_selective)
      in
      let ws = writes w (Array.length reads) in
      let reads = shuffle rng reads in
      (* Interleave in a seeded order that keeps the writes in the order
         they were generated. *)
      let r = ref 0 and wi = ref 0 in
      Array.map
        (fun is_read ->
          if is_read then (incr r; reads.(!r - 1)) else (incr wi; ws.(!wi - 1)))
        (shuffle rng (Array.init (2 * Array.length reads) (fun j -> j mod 2 = 0)))
    in
    let n = rounds_for ~seconds ~per_second:15.0 ~min_rounds:143 in
    let snap_read () = lubm_snap rng in
    let rounds = Array.append (Array.init n (fun _ -> round ())) (closing w ~snap_read) in
    { triples;
      warmup = Array.init 12 (fun _ -> lubm_read rng lubm_selective);
      rounds; settle = settle_points rounds }
  | _ -> invalid_arg ("unknown workload " ^ name)
