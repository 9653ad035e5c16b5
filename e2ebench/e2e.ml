(* End-to-end benchmark of the TAPA-CS flow.

     sh e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   run.sh builds the library, the CLI and this program from source and
   runs it from the repository root.  Workloads (each file says why it
   exists): compile_cold, serve_open, farm_churn, sim_sweep.

   The last stdout line is one JSON object {"correct", "attempted",
   "failed", "metrics"}; any failed output check sets correct = false
   and the exit code to 1.  With --trace 0 every workload reports the
   same end-to-end metrics, each meaning the workload's own operation:

     metric       compile_cold        serve_open              farm_churn          sim_sweep
     setup_s      draw the inputs     start + warm server     build farm, inputs  compile designs
     peak_rss_mb  this process        the server process      this process        this process
     ops_per_s    compiles_per_s      serve_sustained_rps     farm events / s     sweep_points_per_s
     op_time_s    compile time (1)    lone cache-miss time(1) replay time (1)     sweep time (1)
     quality      freq / board max    freq / board max of     farm_availability   share of points
                  (geomean)           the served base keys                        meeting the SLO

   (1) Common.typical_time: each item's, miss class's, scenario's or
   sweep's fast-quartile time, combined geometrically.  The throughputs
   of compile_cold, farm_churn and sim_sweep (Common.mix_rate) divide
   the work of one pass over their inputs by the sum of the same
   per-input times.

   Set-up is timed several times (by compile_cold and farm_churn also
   between operations, through the whole run) and its median reported.  The rest of
   each workload's figures go to stderr: per-item rows and their
   geomean, design latency and cut traffic, the rate ladder with
   serve_p50_s and serve_p99_s, generator lag, skipped items.

   With --trace 1 a separate traced run records spans around the
   benchmark's own calls into each layer's public functions, writes them
   as Chrome trace-event JSON (open in https://ui.perfetto.dev) to
   e2ebench/_out/trace-WORKLOAD-seedN.json, prints a per-span self-time
   table and the per-layer metrics by class (deterministic,
   process-history, measured) to stderr, and reports the per-layer
   metrics of layers.ml.  Times come from a monotonic wall clock, never
   from the compiler's own CPU-time fields. *)

open Common

let usage () =
  prerr_endline "usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let seed = !seed and seconds = !seconds in
  let untraced run =
    let summary, attempted, failed = run ~seed ~seconds in
    (end_to_end summary, attempted, failed)
  in
  let traced run =
    Span.enabled := true;
    let layers = Layers.create () in
    let attempted, failed = run ~seed ~seconds layers in
    let metrics = Layers.metrics layers in
    (try Sys.mkdir "e2ebench/_out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "e2ebench/_out/trace-%s-seed%d.json" !workload seed in
    Span.write_chrome path;
    log "wrote %s" path;
    Span.print_table ();
    (metrics, attempted, failed)
  in
  let metrics, attempted, failed =
    match (!workload, !trace) with
    | "compile_cold", 0 -> untraced Compile_cold.run
    | "compile_cold", 1 -> traced Compile_cold.trace
    | "serve_open", 0 -> untraced Serve_open.run
    | "serve_open", 1 -> traced Serve_open.trace
    | "farm_churn", 0 -> untraced Farm_churn.run
    | "farm_churn", 1 -> traced Farm_churn.trace
    | "sim_sweep", 0 -> untraced Sim_sweep.run
    | "sim_sweep", 1 -> traced Sim_sweep.trace
    | _ -> usage ()
  in
  let metrics =
    List.map
      (fun m ->
        if Float.is_finite m.value then m
        else begin
          fail "metric %s is not finite" m.name;
          { m with value = 0.0 }
        end)
      metrics
  in
  List.iter (fun f -> log "CHECK FAILED: %s" f) (List.rev !failures);
  let correct = !failures = [] in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
