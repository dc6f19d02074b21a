(** Host-speed probe and time normalisation.

    Other tenants of a shared host slow a process down by a factor that
    drifts within seconds, so raw times of the same work spread far
    wider than any change worth measuring. The probe is a fixed piece of
    work that runs none of the engine's code: allocation-free lookups of
    pseudo-random keys in a private chained hash table of about 40 MiB,
    which stall on dependent reads through the shared cache the way the
    engine's dictionary lookups, index probes and operators do. It runs next to every timed round,
    and the round's times are scaled by [reference_s / probe], so a
    round that ran while the host was slow is scaled down by the
    slowdown the probe saw at the same moment.

    Across ten back-to-back processes doing identical work on the
    reference host, the medians of a hash-table probe of this kind
    (string keys in a stdlib [Hashtbl]) followed the engine's round
    times with a correlation of 0.9, against 0.7 for dependent reads
    over a 16 MiB int array, and scaling by it halved the spread of the
    runs' read times (0.23 to 0.12 between quartiles). Such a probe sees
    the host's slowdowns but not always their full size; scaling by a
    power of the ratio fitted one set of runs and overshot the next. The
    table here holds int keys outside the OCaml heap, so the collector
    never marks it. See README.md for the measurements. *)

(** Monotonic wall clock, in seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The probe's memory lives outside the OCaml heap (Bigarrays), so the
   collector never marks or moves it and the engine's collections cost
   what they would without the benchmark around them. *)
module B = Bigarray.Array1

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) B.t

let ints n : ints = B.create Bigarray.int Bigarray.c_layout n

(* A chained hash table of [keys_n] int keys over [buckets] buckets,
   about 40 MiB in all: a lookup reads a key, a bucket head and a chain
   of nodes, each a dependent access to a scattered cache line, like a
   lookup in the engine's hash tables. *)
let keys_n = 1 lsl 21
let buckets = 1 lsl 20
let lookups = 12_000

let hash k = (k * 0x9E3779B97F4A7C1) lsr 17 land (buckets - 1)

let table =
  lazy
    (let key = ints keys_n and next = ints keys_n and head = ints buckets in
     B.fill head (-1);
     let x = ref 0x2545F491 in
     for i = 0 to keys_n - 1 do
       x := !x lxor ((!x lsl 13) land max_int);
       x := !x lxor (!x lsr 7);
       x := !x lxor ((!x lsl 17) land max_int);
       let b = hash !x in
       B.unsafe_set key i !x;
       B.unsafe_set next i (B.unsafe_get head b);
       B.unsafe_set head b i
     done;
     (key, next, head))

let sink = ref 0

(* What the cache holds when the probe starts depends on the round
   before it: a round of cheap writes leaves the probe's table cached, a
   round of scans evicts it, and a probe read 35% faster after write
   rounds than after read rounds of the same run. A sequential pass over
   a private buffer of 64 MiB, untimed, puts the cache in the same state
   before every probe whatever ran before it. *)
let scrub_words = 1 lsl 23

let scrub =
  lazy
    (let a = ints scrub_words in
     B.fill a 1;
     a)

let flush () =
  let a = Lazy.force scrub in
  let acc = ref 0 in
  for i = 0 to scrub_words - 1 do
    acc := !acc + B.unsafe_get a i
  done;
  sink := !acc

(** One probe: the seconds [lookups] lookups of pseudo-random keys
    take, after {!flush}. The key sequence is the same in every
    probe. *)
let run () =
  let key, next, head = Lazy.force table in
  flush ();
  let t0 = now () in
  let acc = ref 0 and x = ref 12345 in
  for _ = 1 to lookups do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = B.unsafe_get key (!x land (keys_n - 1)) in
    let i = ref (B.unsafe_get head (hash k)) in
    while B.unsafe_get key !i <> k do
      i := B.unsafe_get next !i
    done;
    acc := !acc + !i
  done;
  let t1 = now () in
  sink := !acc;
  t1 -. t0

(** Probe time on this benchmark's reference host: about the median
    probe on a 2-vCPU Xeon VM (2 MiB L2 per core, 105 MiB shared L3).
    Normalised times read as "seconds on that host at the moment its
    probe takes [reference_s]". *)
let reference_s = 2.4e-3

(** Scale factor for work measured while the probe took [probe]. *)
let factor ~probe = reference_s /. probe

(** [normalise ~probe raw] is [raw] as it would read on the reference
    host. *)
let normalise ~probe raw = raw *. factor ~probe

(** The probe estimate for a round bracketed by probes [before] and
    [after]: their mean, so drift during the round is split evenly. *)
let bracket ~before ~after = 0.5 *. (before +. after)
