(* The per-layer metrics of a --trace 1 run.  Every workload reports
   every name; a layer the workload does not reach reads 0, which is
   itself the expected value on the workloads where that layer should
   not move. *)

(* The three classes are reported apart: deterministic counters are a
   pure function of the inputs; process-history counters (cache hits,
   batching) depend on what ran before and on timing; measured values
   are wall-clock times and runtime (GC) counters. *)
type klass = Deterministic | History | Measured

let klass_label = function
  | Deterministic -> "deterministic"
  | History -> "process-history"
  | Measured -> "measured"

let names =
  [
    ("core.compile_s", "s", Measured);
    ("core.emit_s", "s", Measured);
    ("hls.synthesis_s", "s", Measured);
    ("analysis.lint_s", "s", Measured);
    ("analysis.static_bounds_s", "s", Measured);
    ("floorplan.l1_s", "s", Measured);
    ("floorplan.l2_s", "s", Measured);
    ("floorplan.l2_slowest_fpga_s", "s", Measured);
    ("floorplan.hbm_s", "s", Measured);
    ("pipeline.pipelining_s", "s", Measured);
    ("freq.model_s", "s", Measured);
    ("floorplan.subproblems", "count", Deterministic);
    ("floorplan.races_exact", "count", Deterministic);
    ("floorplan.races_anneal", "count", Deterministic);
    ("floorplan.refinement_moves", "count", Deterministic);
    ("ilp.lp_solves", "count", Deterministic);
    ("ilp.lp_pivots", "count", Deterministic);
    ("ilp.bb_nodes", "count", Deterministic);
    ("ilp.certified_ratio", "ratio", Deterministic);
    ("floorplan.solution_cache_hit_ratio", "ratio", History);
    ("floorplan.frag_hit_ratio", "ratio", History);
    ("floorplan.groups_resolved", "count", History);
    ("sim.simulate_s", "s", Measured);
    ("sim.events", "count", Deterministic);
    ("sim.events_per_s", "1/s", Measured);
    ("sim.points_simulated", "count", Deterministic);
    ("sim.static_pruned_ratio", "ratio", Deterministic);
    ("sim.cache_hit_ratio", "ratio", History);
    ("service.parse_s", "s", Measured);
    ("service.schedule_s", "s", Measured);
    ("service.batch_size", "count", History);
    ("service.hit_ratio", "ratio", History);
    ("service.coalesced_ratio", "ratio", History);
    ("service.rejected", "count", History);
    ("service.queue_depth_peak", "count", History);
    ("service.generator_lag_s", "s", Measured);
    ("farm.run_s", "s", Measured);
    ("farm.attempts", "count", Deterministic);
    ("farm.reused_ratio", "ratio", Deterministic);
    ("farm.replacements", "count", Deterministic);
    ("runtime.allocated_mb", "MB", Measured);
    ("runtime.major_collections", "count", Measured);
    ("quality.design_latency_s_geomean", "s", Deterministic);
    ("quality.design_freq_mhz_geomean", "MHz", Deterministic);
    ("quality.cut_traffic_mb_total", "MB", Deterministic);
    ("trace.coverage_ratio", "ratio", Measured);
    ("trace.overhead_s", "s", Measured);
  ]

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64

let set (t : t) name v =
  if not (List.exists (fun (n, _, _) -> n = name) names) then
    invalid_arg ("Layers.set: unknown metric " ^ name);
  Hashtbl.replace t name v

let add (t : t) name v = set t name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t name))

(* Wall-clock self time of every span of the given name. *)
let set_span t metric span = set t metric (Common.Span.self_sum span)

(* Fill the runtime.* metrics from the GC counters of the top-level
   spans, print every metric by class to stderr and return them in
   declaration order. *)
let metrics (t : t) =
  let top = Common.Span.top_level () in
  set t "runtime.allocated_mb"
    (Common.sum (List.map (fun s -> s.Common.Span.alloc_b) top) /. 1e6);
  set t "runtime.major_collections"
    (float_of_int (List.fold_left (fun a s -> a + s.Common.Span.majors) 0 top));
  let value name = Option.value ~default:0.0 (Hashtbl.find_opt t name) in
  List.iter
    (fun k ->
      Common.log "-- %s" (klass_label k);
      List.iter
        (fun (name, unit_, k') -> if k' = k then Common.log "   %-36s %16.6g %s" name (value name) unit_)
        names)
    [ Deterministic; History; Measured ];
  List.map (fun (name, unit_, _) -> Common.metric name unit_ (value name)) names
