(** Order statistics over samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** Nearest-rank percentile of an already sorted array, [p] in (0, 1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(** Samples strictly above the [p] nearest-rank position. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let pct part whole = if whole = 0.0 then 0.0 else 100.0 *. part /. whole
