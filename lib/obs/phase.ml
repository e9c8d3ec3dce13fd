type t = Queue_wait | Cache_lookup | Solve | Degrade | Exec | Render

let all = [ Queue_wait; Cache_lookup; Solve; Degrade; Exec; Render ]
let count = List.length all

let index = function
  | Queue_wait -> 0
  | Cache_lookup -> 1
  | Solve -> 2
  | Degrade -> 3
  | Exec -> 4
  | Render -> 5

let name = function
  | Queue_wait -> "queue_wait"
  | Cache_lookup -> "cache_lookup"
  | Solve -> "solve"
  | Degrade -> "degrade"
  | Exec -> "exec"
  | Render -> "render"
