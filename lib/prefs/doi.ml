type compose = Product | Min_compose
type combine = Noisy_or | Max_combine

exception Invalid_doi of float

(* Written so that NaN, for which every comparison is false, fails. *)
let check d = if not (d >= 0. && d <= 1.) then raise (Invalid_doi d) else d

let compose_incr ?(f = Product) acc d =
  match f with Product -> acc *. d | Min_compose -> min acc d

let compose ?(f = Product) dois =
  List.fold_left (compose_incr ~f) 1. (List.map check dois)

let combine_incr ?(r = Noisy_or) acc d =
  match r with
  | Noisy_or -> 1. -. ((1. -. acc) *. (1. -. d))
  | Max_combine -> max acc d

let combine ?(r = Noisy_or) dois =
  List.fold_left (combine_incr ~r) 0. (List.map check dois)

let combine_retract ?(r = Noisy_or) acc d =
  match r with
  | Noisy_or ->
      (* 1 - (1 - acc') (1 - d) = acc  inverts by division while d < 1;
         the clamp absorbs rounding of the division so the result stays
         a valid doi. *)
      let rest = 1. -. d in
      if rest <= 0. then None
      else Some (Float.min 1. (Float.max 0. (1. -. ((1. -. acc) /. rest))))
  | Max_combine ->
      (* Removing a non-maximal element leaves the max unchanged; when
         the retracted doi reaches the max, the second-largest is not
         recoverable from the accumulator alone. *)
      if d < acc then Some acc else None
