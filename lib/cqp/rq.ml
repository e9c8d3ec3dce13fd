type 'a t = {
  mutable front : 'a list;
  mutable back : 'a list;  (** reversed *)
  mutable size : int;
  words : 'a -> int;
  stats : Instrument.t;
}

let create ~words stats = { front = []; back = []; size = 0; words; stats }
let length t = t.size

let push_head t s =
  t.front <- s :: t.front;
  t.size <- t.size + 1;
  Instrument.hold_words t.stats (t.words s)

let push_tail t s =
  t.back <- s :: t.back;
  t.size <- t.size + 1;
  Instrument.hold_words t.stats (t.words s)

let pop t =
  (match t.front with
  | [] ->
      t.front <- List.rev t.back;
      t.back <- []
  | _ -> ());
  match t.front with
  | [] -> None
  | s :: rest ->
      t.front <- rest;
      t.size <- t.size - 1;
      Instrument.release_words t.stats (t.words s);
      Some s

let rec drain ~budget t f =
  if not (Cqp_resilience.Budget.poll budget) then
    match pop t with
    | None -> ()
    | Some s ->
        f s;
        drain ~budget t f
