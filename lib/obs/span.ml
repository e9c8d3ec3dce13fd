type t = {
  id : int;
  parent : int;
  depth : int;
  name : string;
  phase : Phase.t option;
  tid : int;  (* recording domain: Chrome-trace thread id *)
  start_us : float;
  mutable dur_us : float;
  mutable attrs : Attr.t list;
}

let is_root t = t.parent < 0
let closed t = t.dur_us >= 0.
