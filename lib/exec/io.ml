type t = { mutable block_reads : int }

let default_block_ms = 1.0
let create () = { block_reads = 0 }
let reset t = t.block_reads <- 0
let charge_blocks t n = t.block_reads <- t.block_reads + n

(* Only physical scans feed the metrics registry; [charge_blocks] is
   also used to transfer counts between counters (e.g. a sub-query's
   reads into an outer counter) and publishing there would double
   count. *)
let charge_scan t rel =
  let blocks = Cqp_relal.Relation.blocks rel in
  charge_blocks t blocks;
  if Cqp_obs.Metrics.is_enabled () then begin
    Cqp_obs.Metrics.add "engine.block_reads" blocks;
    Cqp_obs.Metrics.incr "engine.scans"
  end
let block_reads t = t.block_reads

let cost_ms t = float_of_int t.block_reads *. default_block_ms

let pp ppf t = Format.fprintf ppf "%d block reads" t.block_reads
