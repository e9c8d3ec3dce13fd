exception Invalid_doi of float

(* Written so that NaN, for which every comparison is false, fails. *)
let check d = if not (d >= 0. && d <= 1.) then raise (Invalid_doi d) else d
let compose dois = List.fold_left (fun acc d -> acc *. d) 1. (List.map check dois)
let combine_incr acc d = 1. -. ((1. -. acc) *. (1. -. d))
let combine dois = List.fold_left combine_incr 0. (List.map check dois)

(* 1 - (1 - acc') (1 - d) = acc  inverts by division while d < 1; the
   clamp absorbs rounding of the division so the result stays a valid
   doi. *)
let combine_retract acc d =
  let rest = 1. -. d in
  if rest <= 0. then None
  else Some (Float.min 1. (Float.max 0. (1. -. ((1. -. acc) /. rest))))
