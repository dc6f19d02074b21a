(** Order statistics over samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** Linear-interpolation quantile ([q] in [0, 1]) of a non-empty
    sample. *)
let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let w = pos -. float_of_int lo in
  (a.(lo) *. (1.0 -. w)) +. (a.(hi) *. w)

let median xs = quantile 0.5 xs

(** Fewest samples a p99 is reported for: ten samples beyond the
    percentile, so it describes a tail and not one outlier. *)
let p99_min_samples = 1000

let p99 xs =
  if Array.length xs < p99_min_samples then None else Some (quantile 0.99 xs)

(** Geometric mean of positive values. *)
let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.geomean: empty sample";
  exp (Array.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int n)
