(* sim_sweep: a seeded design-space sweep through Flow.simulate_many
   with a fixed latency SLO.

   Why: Design_sim / Engine, Static_perf and SLO pruning do almost all
   the work here and the ILP does none (set-up compiles the designs).
   Each point is (design, chunk granularity, loss rate, fault plan); the
   fault plans are "none" and a mid-run FIFO stall, which is outside the
   static model and always simulates.

   The workload's answer is the set of points that meet the SLO, not the
   row shape: a point answered without simulating stays a correct
   answer as long as a static bound certifies it.

   A run cycles through four seeded sweeps, each from cold simulation
   caches, while time remains; the answer share is taken over the four.
   Sweeps run on one domain (jobs=1), which is steadier on a small shared
   host; the rows are identical for every jobs value. *)

open Tapa_cs
open Common
module Design_sim = Tapa_cs_sim.Design_sim
module Sim_sweep = Tapa_cs_sim.Sim_sweep
module Static_perf = Tapa_cs_analysis.Static_perf
module Fault = Tapa_cs_network.Fault
module Service = Tapa_cs_service.Service

let slo_s = 0.1
let chunk_counts = [ 16; 32; 64; 128 ]
let sweeps = 4

(* Four 4-FPGA designs.  Stencil iters and the cnn grid are fixed, so
   the task graphs (and the simulation work) are the same for every
   seed; the seed draws the pagerank dataset and knn N/D from the
   paper's ranges.  The SLO sits between the two groups of latencies
   (stencil and cnn above, pagerank and knn below). *)
let designs seed =
  let rng = Rng.create seed in
  let cluster = Tapa_cs_device.Cluster.make ~board:Tapa_cs_device.Board.u55c 4 in
  let iters = 512 in
  let dataset = Rng.pick rng Tapa_cs_apps.Dataset.[| web_berkstan; soc_slashdot0811; web_google; web_notredame |] in
  let n = Rng.pick rng [| 1_000_000; 2_000_000; 4_000_000; 8_000_000 |] in
  let d = Rng.pick rng [| 4; 16; 64; 128 |] in
  let cols = 8 in
  let options = { Compiler.default_options with Compiler.jobs = 1 } in
  List.map
    (fun (label, g) ->
      match Span.with_ "core.compile" (fun () -> Flow.tapa_cs ~options ~cluster g) with
      | Ok des -> { des with Flow.label }
      | Error e -> failwith (Printf.sprintf "sim_sweep set-up: %s does not compile: %s" label e))
    [
      (Printf.sprintf "stencil-i%d" iters, Compile_cold.stencil ~iters 4);
      ("pagerank-" ^ dataset.Tapa_cs_apps.Dataset.name, Compile_cold.pagerank ~dataset 4);
      (Printf.sprintf "knn-n%dM-d%d" (n / 1_000_000) d, Compile_cold.knn ~n ~d 4);
      (Printf.sprintf "cnn-c%d" cols, Compile_cold.cnn ~cols 4);
    ]

type point = { label : string; design : Flow.design; chunks : int; plan : Fault.plan; stalled : bool }

(* One sweep: every design x chunk count x three loss rates x two fault
   plans, with the loss rates and the stall drawn from [rng]. *)
let sweep_points rng designs =
  let low = 1e-4 +. Rng.float rng 9e-4 in
  let high = 1e-3 +. Rng.float rng 9e-3 in
  let losses = [ 0.0; low; high ] in
  List.concat_map
    (fun (d : Flow.design) ->
      let fifos = Tapa_cs_graph.Taskgraph.num_fifos d.Flow.graph in
      List.concat_map
        (fun chunks ->
          List.concat_map
            (fun loss ->
              let lower = (Flow.static_bounds ~chunks d).Static_perf.latency_lower_s in
              let fifo = Rng.int rng fifos in
              let start = Rng.float rng (0.5 *. lower) in
              let stall = (fifo, start, (0.1 +. Rng.float rng 0.2) *. lower) in
              List.map
                (fun stalled ->
                  let plan =
                    Fault.make ~seed:(Rng.int rng 1000) ~loss_rate:loss
                      ~fifo_stalls:(if stalled then [ stall ] else [])
                      ()
                  in
                  let label =
                    Printf.sprintf "%s/c%d/loss%.5f/%s" d.Flow.label chunks loss (if stalled then "stall" else "clean")
                  in
                  { label; design = { d with Flow.label = label }; chunks; plan; stalled })
                [ false; true ])
            losses)
        chunk_counts)
    designs

(* Flow.simulate_many takes one chunk count per call. *)
let run_sweep points =
  List.concat_map
    (fun chunks ->
      let ps = List.filter (fun p -> p.chunks = chunks) points in
      let plan_of = Hashtbl.create 64 in
      List.iter (fun p -> Hashtbl.replace plan_of p.label p.plan) ps;
      Span.with_ "sim.simulate" (fun () ->
          Flow.simulate_many ~jobs:1 ~chunks
            ~faults:(fun d -> Hashtbl.find plan_of d.Flow.label)
            ~slo_latency_s:slo_s
            (List.map (fun p -> p.design) ps)))
    chunk_counts

let latency_of = function
  | Design_sim.Completed r | Design_sim.Degraded { result = r; _ } -> Some r
  | Design_sim.Failed _ -> None

let bounds p =
  Span.with_ "analysis.static_bounds" (fun () ->
      Flow.static_bounds ~chunks:p.chunks ~loss_rate:p.plan.Fault.loss_rate p.design)

(* A point left out of the rows needs a static certificate: its lower
   bound misses the SLO (or its upper bound meets it). *)
let unjustified_skip p ~lower ~upper =
  if p.stalled then Some (p.label ^ ": a stalled point (outside the static model) was not simulated")
  else if lower > slo_s || upper <= slo_s then None
  else Some (Printf.sprintf "%s: skipped with static interval [%.9g, %.9g] around the SLO %.9g" p.label lower upper slo_s)

(* Returns the number of points in the SLO-meeting answer and the
   number of failed simulations. *)
let check_sweep points rows =
  let by_label = Hashtbl.create 128 in
  List.iter
    (fun (label, o) ->
      if Hashtbl.mem by_label label then fail "sim_sweep: duplicate row %s" label;
      Hashtbl.replace by_label label o)
    rows;
  List.fold_left
    (fun (meets, failed) p ->
      let sb = bounds p in
      let lower = sb.Static_perf.latency_lower_s and upper = sb.Static_perf.latency_upper_s in
      match Hashtbl.find_opt by_label p.label with
      | None ->
        Option.iter (fail "sim_sweep: %s") (unjustified_skip p ~lower ~upper);
        ((if upper <= slo_s then meets + 1 else meets), failed)
      | Some o -> (
        match latency_of o with
        | None -> (meets, failed + 1)
        | Some r ->
          let lat = r.Design_sim.latency_s in
          if not p.stalled then
            Option.iter (fail "sim_sweep: %s: %s" p.label) (Compile_cold.outside_interval ~lower ~upper lat);
          ((if lat <= slo_s then meets + 1 else meets), failed)))
    (0, 0) points

let setup seed =
  Service.reset_process_caches ();
  let ds = designs seed in
  Array.init sweeps (fun i -> sweep_points (Rng.derive seed (20 + i)) ds)

let run ~seed ~seconds =
  let sweeps_pts, setup_times = setups (fun () -> setup seed) in
  let times = ref [] and per_sweep = Array.make sweeps [] in
  let points = ref 0 and meets = ref 0 and total = ref 0 and failed = ref 0 in
  let t_start = now () in
  let j = ref 0 in
  while !j < sweeps || now () -. t_start +. median !times <= float_of_int seconds do
    let pts = sweeps_pts.(!j mod sweeps) in
    Service.reset_process_caches ();
    let rows, dt = timed (fun () -> run_sweep pts) in
    times := dt :: !times;
    per_sweep.(!j mod sweeps) <- dt :: per_sweep.(!j mod sweeps);
    points := !points + List.length pts;
    let m, f = check_sweep pts rows in
    failed := !failed + f;
    if !j < sweeps then begin
      meets := !meets + m;
      total := !total + List.length pts
    end;
    incr j
  done;
  (* Self-test: a latency outside its interval, and a point skipped while
     its interval straddles the SLO. *)
  (match List.find_opt (fun p -> not p.stalled) sweeps_pts.(0) with
   | Some p ->
     let sb = bounds p in
     self_test ~what:"sweep latency outside its static interval"
       (Compile_cold.outside_interval ~lower:sb.Static_perf.latency_lower_s ~upper:sb.Static_perf.latency_upper_s)
       (sb.Static_perf.latency_lower_s *. 0.5);
     self_test ~what:"pruned point whose lower bound meets the SLO"
       (fun lower -> unjustified_skip p ~lower ~upper:(slo_s *. 2.0))
       (slo_s *. 0.5)
   | None -> ());
  let n = List.length !times in
  let per_sweep = Array.to_list per_sweep in
  let points_per_s =
    mix_rate ~work:(float_of_int (Array.fold_left (fun a pts -> a + List.length pts) 0 sweeps_pts)) per_sweep
  in
  log "sim_sweep: %d sweeps of %d points, sweep_points_per_s %.2f 1/s, sweep_s p50 %.4f s; %d of %d points meet the %.3f s SLO"
    n (List.length sweeps_pts.(0)) points_per_s (median !times) !meets !total slo_s;
  ( {
      setup_s = median setup_times;
      rss_mb = peak_rss_mb ();
      ops_per_s = points_per_s;
      op_time_s = typical_time per_sweep;
      quality = ratio (float_of_int !meets) (float_of_int !total);
    },
    !points,
    !failed )

let trace ~seed ~seconds:_ layers =
  let sweeps_pts = setup seed in
  let simulated = ref 0 and events = ref 0 and pruned = ref 0 and points = ref 0 and failed = ref 0 in
  let hits = ref 0 and lookups = ref 0 in
  Array.iter
    (fun pts ->
      Service.reset_process_caches ();
      Sim_sweep.reset_static_pruned ();
      let rows = run_sweep pts in
      let h, m = Design_sim.cache_stats () in
      hits := !hits + h;
      lookups := !lookups + h + m;
      pruned := !pruned + Sim_sweep.static_pruned ();
      points := !points + List.length pts;
      simulated := !simulated + List.length rows;
      List.iter
        (fun (_, o) -> Option.iter (fun r -> events := !events + r.Design_sim.events) (latency_of o))
        rows;
      failed := !failed + snd (check_sweep pts rows))
    sweeps_pts;
  Layers.set_span layers "core.compile_s" "core.compile";
  Layers.set_span layers "sim.simulate_s" "sim.simulate";
  Layers.set_span layers "analysis.static_bounds_s" "analysis.static_bounds";
  Layers.set layers "sim.events" (float_of_int !events);
  Layers.set layers "sim.events_per_s" (ratio (float_of_int !events) (Span.self_sum "sim.simulate"));
  Layers.set layers "sim.points_simulated" (float_of_int !simulated);
  Layers.set layers "sim.static_pruned_ratio" (ratio (float_of_int !pruned) (float_of_int !points));
  Layers.set layers "sim.cache_hit_ratio" (ratio (float_of_int !hits) (float_of_int !lookups));
  (!points, !failed)
