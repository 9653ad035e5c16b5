(* compile_cold: a closed loop with one caller, compiling a seeded draw
   of the paper's apps x {1, 2, 4, 8} FPGAs from cold caches.

   Why: this is where the L1 (inter-FPGA) and L2 (intra-FPGA) ILP
   floorplanning does nearly all the work and no cache helps.

   Every pass compiles the whole grid plus two designs on a cluster with
   one dead FPGA (so Inter_fpga.run_degraded runs).  The seed permutes
   the paper's parameter values over the FPGA counts (pagerank Table 5
   datasets, knn N/D from Table 6), picks stencil iters within the PE
   scaling regime fixed per FPGA count, picks the dead FPGA and orders
   each pass.  The task-graph shapes, and so the floorplanning work, are
   the same for every seed; that keeps suite totals comparable across
   seeds.

   Compiles run on one domain (jobs=1): on a small shared host a second
   domain makes every minor GC wait for a possibly descheduled core,
   which adds more noise than the parallel tail saves.  One sampled item
   is also compiled at jobs=nproc to check byte identity. *)

open Tapa_cs
open Tapa_cs_device
open Tapa_cs_floorplan
open Common
module Apps = Tapa_cs_apps
module Service = Tapa_cs_service.Service
module Static_perf = Tapa_cs_analysis.Static_perf
module Fault = Tapa_cs_network.Fault
module Taskgraph = Tapa_cs_graph.Taskgraph

type item = { label : string; cluster : Cluster.t; dead : int list; graph : Taskgraph.t }

let stencil ~iters fpgas =
  (Apps.Stencil.generate (Apps.Stencil.make_config ~iterations:iters ~fpgas ())).Apps.App.graph

let pagerank ~(dataset : Apps.Dataset.spec) fpgas =
  (Apps.Pagerank.generate (Apps.Pagerank.make_config ~dataset ~fpgas ())).Apps.App.graph

let knn ~n ~d fpgas =
  (Apps.Knn.generate (Apps.Knn.make_config ~n_points:n ~dims:d ~fpgas ())).Apps.App.graph

let cnn ~cols fpgas = (Apps.Cnn.generate (Apps.Cnn.make_config ~cols ~fpgas ())).Apps.App.graph

let fpga_counts = [| 1; 2; 4; 8 |]

(* The draw, fixed for the whole run. *)
let draw seed =
  let rng = Rng.create seed in
  let perm a =
    let a = Array.copy a in
    Rng.shuffle rng a;
    a
  in
  (* Stencil iterations pick the PE scaling regime (memory-bound 64/128,
     compute-bound 256/512) and cnn columns the grid size, so both stay
     fixed per FPGA count; the seed picks within a regime. *)
  let iters = Array.map (fun pair -> Rng.pick rng pair) [| [| 64; 128 |]; [| 256; 512 |]; [| 64; 128 |]; [| 256; 512 |] |] in
  let datasets =
    perm Apps.Dataset.[| web_berkstan; soc_slashdot0811; web_google; web_notredame |]
  in
  let ns = perm [| 1_000_000; 2_000_000; 4_000_000; 8_000_000 |] in
  let ds = perm [| 4; 16; 64; 128 |] in
  (* 13x12 and wider grids exceed one U55C, as in the paper (§5.5). *)
  let cols = [| 8; 16; 12; 4 |] in
  let item ?(dead = []) ?cluster_size label fpgas graph =
    let size = Option.value ~default:fpgas cluster_size in
    { label; cluster = Cluster.make ~board:Board.u55c size; dead; graph }
  in
  let grid =
    List.concat_map
      (fun i ->
        let f = fpga_counts.(i) in
        [
          item (Printf.sprintf "stencil/%d iters=%d" f iters.(i)) f (stencil ~iters:iters.(i) f);
          item
            (Printf.sprintf "pagerank/%d %s" f datasets.(i).Apps.Dataset.name)
            f
            (pagerank ~dataset:datasets.(i) f);
          item
            (Printf.sprintf "knn/%d N=%dM D=%d" f (ns.(i) / 1_000_000) ds.(i))
            f
            (knn ~n:ns.(i) ~d:ds.(i) f);
          item (Printf.sprintf "cnn/%d cols=%d" f cols.(i)) f (cnn ~cols:cols.(i) f);
        ])
      [ 0; 1; 2; 3 ]
  in
  let dead5 = Rng.int rng 5 in
  let dead3 = Rng.int rng 3 in
  let degraded =
    [
      item ~dead:[ dead5 ] ~cluster_size:5
        (Printf.sprintf "stencil/4 iters=64 on 5, fpga %d dead" dead5)
        4 (stencil ~iters:64 4);
      item ~dead:[ dead3 ] ~cluster_size:3
        (Printf.sprintf "pagerank/2 cit-Patents on 3, fpga %d dead" dead3)
        2
        (pagerank ~dataset:Apps.Dataset.cit_patents 2);
    ]
  in
  Array.of_list (grid @ degraded)

let options ?(jobs = 1) it =
  {
    Compiler.default_options with
    Compiler.jobs;
    fault_plan = (if it.dead = [] then None else Some (Fault.make ~failed_devices:it.dead ()));
  }

let emit (c : Compiler.t) =
  let k = Cluster.size c.Compiler.cluster in
  ( List.init k (fun fpga -> Emit.floorplan_tcl c ~fpga),
    List.init k (fun fpga -> Emit.connectivity_cfg c ~fpga),
    Emit.design_report_json c )

let compiled (d : Flow.design) =
  match d.Flow.compiled with Some c -> c | None -> failwith "TAPA-CS flow without a compile record"

(* ------------------------------------------------------------------ *)
(* Output checks: properties every correct compiler must satisfy,     *)
(* computed here from public record fields.                           *)
(* ------------------------------------------------------------------ *)

let misplaced_task it (assignment : int array) =
  let k = Cluster.size it.cluster in
  let bad = ref None in
  Array.iteri
    (fun tid f ->
      if !bad = None && (f < 0 || f >= k || List.mem f it.dead) then
        bad := Some (Printf.sprintf "task %d sits on FPGA %d (cluster of %d, dead %s)" tid f k
                       (String.concat "," (List.map string_of_int it.dead))))
    assignment;
  !bad

let over_capacity it (c : Compiler.t) =
  let inter = c.Compiler.inter in
  let k = Cluster.size it.cluster in
  let used = Array.make k Resource.zero in
  Array.iteri
    (fun tid f ->
      used.(f) <-
        Resource.add used.(f)
          (Tapa_cs_hls.Synthesis.profile_of c.Compiler.synthesis tid).Tapa_cs_hls.Synthesis.resources)
    inter.Inter_fpga.assignment;
  let bad = ref None in
  Array.iteri
    (fun f u ->
      let budget =
        Resource.scale (inter.Inter_fpga.threshold_used +. 1e-9) (Cluster.board it.cluster f).Board.total
      in
      if !bad = None && not (Resource.fits u ~within:budget) then
        bad := Some (Printf.sprintf "FPGA %d uses %s over %.2f x capacity" f (Resource.to_string u)
                       inter.Inter_fpga.threshold_used))
    used;
  !bad

let outside_interval ~lower ~upper lat =
  if lat >= lower && lat <= upper then None
  else Some (Printf.sprintf "simulated latency %.9g s outside static interval [%.9g, %.9g]" lat lower upper)

type outcome = {
  item : item;
  latency_s : float;
  freq_mhz : float;
  max_freq_mhz : float;
  traffic_mb : float;
  degraded : bool;
}

(* [latency_s] is the design's simulated latency. *)
let check_item it (d : Flow.design) ~latency_s =
  let c = compiled d in
  Option.iter (fail "%s: %s" it.label) (misplaced_task it c.Compiler.inter.Inter_fpga.assignment);
  Option.iter (fail "%s: %s" it.label) (over_capacity it c);
  (match Emit.verify_roundtrip c with
   | [] -> ()
   | ds -> fail "%s: emitted artifacts do not verify (%d diagnostics)" it.label (List.length ds));
  let sb = Flow.static_bounds d in
  Option.iter (fail "%s: %s" it.label)
    (outside_interval ~lower:sb.Static_perf.latency_lower_s ~upper:sb.Static_perf.latency_upper_s latency_s)

(* Deterministic fields of a compile, for the jobs=1 vs jobs=N check. *)
let fingerprint (d : Flow.design) =
  let c = compiled d in
  let tcl, cfg, _report = emit c in
  let st = Compiler.solver_stats c in
  String.concat "\n"
    ([
       String.concat "," (Array.to_list (Array.map string_of_int c.Compiler.inter.Inter_fpga.assignment));
       Printf.sprintf "%h %h %h" c.Compiler.freq_mhz c.Compiler.inter.Inter_fpga.traffic_bytes
         c.Compiler.inter.Inter_fpga.cost;
       Printf.sprintf "%h %h" c.Compiler.static.Static_perf.latency_lower_s
         c.Compiler.static.Static_perf.latency_upper_s;
       Printf.sprintf "%d %d %d %d %d" st.Compiler.lp_solves st.Compiler.lp_pivots st.Compiler.bb_nodes
         st.Compiler.refinement_moves st.Compiler.subproblems;
     ]
    @ tcl @ cfg)

let compile_one ?pool ~jobs it =
  match Flow.tapa_cs ~options:(options ~jobs it) ?pool ~cluster:it.cluster it.graph with
  | Ok d -> Some d
  | Error e ->
    fail "%s: compile failed: %s" it.label e;
    None

(* ------------------------------------------------------------------ *)
(* Untraced run                                                        *)
(* ------------------------------------------------------------------ *)

let run ~seed ~seconds =
  let items, setup_times = setups (fun () -> draw seed) in
  let setup_times = ref setup_times in
  let order_rng = Rng.derive seed 1 in
  let times = ref [] and attempted = ref 0 and failed = ref 0 in
  let per_item : (string, float list) Hashtbl.t = Hashtbl.create 32 in
  let first_pass : outcome list ref = ref [] in
  let first_design = ref None in
  let t_start = now () in
  let pass = ref 0 in
  let last_pass_s = ref 0.0 in
  while !pass = 0 || now () -. t_start +. !last_pass_s <= float_of_int seconds do
    let p0 = now () in
    let order = Array.init (Array.length items) Fun.id in
    Rng.shuffle order_rng order;
    Array.iter
      (fun i ->
        let it = items.(i) in
        setup_times := snd (timed (fun () -> draw seed)) :: !setup_times;
        Service.reset_process_caches ();
        incr attempted;
        let r, dt =
          timed (fun () ->
              match compile_one ~jobs:1 it with
              | Some d -> Some (d, emit (compiled d))
              | None -> None)
        in
        match r with
        | None -> incr failed
        | Some (d, _) ->
          times := dt :: !times;
          Hashtbl.replace per_item it.label (dt :: Option.value ~default:[] (Hashtbl.find_opt per_item it.label));
          let lat = (Flow.simulate d).Tapa_cs_sim.Design_sim.latency_s in
          check_item it d ~latency_s:lat;
          if !pass = 0 then begin
            if !first_design = None then first_design := Some (it, d);
            let c = compiled d in
            first_pass :=
              {
                item = it;
                latency_s = lat;
                freq_mhz = d.Flow.freq_mhz;
                max_freq_mhz = (Cluster.board it.cluster 0).Board.max_freq_mhz;
                traffic_mb = c.Compiler.inter.Inter_fpga.traffic_bytes /. 1e6;
                degraded = c.Compiler.degraded;
              }
              :: !first_pass
          end)
      order;
    last_pass_s := now () -. p0;
    incr pass
  done;
  (* jobs=1 vs jobs=N byte identity on one sampled item. *)
  let sample = items.(Rng.int (Rng.derive seed 2) (Array.length items)) in
  let jobs = nproc () in
  if jobs > 1 then begin
    let pool = Tapa_cs_util.Pool.create ~domains:(jobs - 1) () in
    Fun.protect ~finally:(fun () -> Tapa_cs_util.Pool.shutdown pool) @@ fun () ->
    Service.reset_process_caches ();
    let a = compile_one ~jobs:1 sample in
    Service.reset_process_caches ();
    let b = compile_one ~pool ~jobs sample in
    match (a, b) with
    | Some a, Some b ->
      check (fingerprint a = fingerprint b) "%s: jobs=1 and jobs=%d compiles differ" sample.label jobs;
      log "jobs=1 vs jobs=%d identity on %s: ok" jobs sample.label
    | _ -> ()
  end
  else log "jobs=1 vs jobs=N identity: skipped (nproc=1)";
  if jobs < 4 then log "jobs=4 identity: skipped (nproc=%d < 4)" jobs;
  (* Self-test: plant a moved task and a latency outside its interval. *)
  (match !first_design with
   | Some (it, d) ->
     let c = compiled d in
     let moved = Array.copy c.Compiler.inter.Inter_fpga.assignment in
     moved.(0) <- (match it.dead with f :: _ -> f | [] -> Cluster.size it.cluster);
     self_test ~what:"task moved off the alive FPGAs" (misplaced_task it) moved;
     let sb = Flow.static_bounds d in
     self_test ~what:"latency outside its static interval"
       (outside_interval ~lower:sb.Static_perf.latency_lower_s ~upper:sb.Static_perf.latency_upper_s)
       (sb.Static_perf.latency_upper_s *. 1.5 +. 1e-6)
   | None -> ());
  let rows = List.rev !first_pass in
  log "%-44s %10s %9s %12s %11s %s" "item" "compile_s" "freq_MHz" "latency_s" "traffic_MB" "";
  List.iter
    (fun o ->
      log "%-44s %10.4f %9.1f %12.6g %11.3f %s" o.item.label
        (median (Hashtbl.find per_item o.item.label))
        o.freq_mhz o.latency_s o.traffic_mb
        (if o.degraded then "degraded" else ""))
    (List.sort (fun a b -> compare a.item.label b.item.label) rows);
  let lat_g = geomean (List.map (fun o -> o.latency_s) rows) in
  let freq_g = geomean (List.map (fun o -> o.freq_mhz) rows) in
  let traffic = sum (List.map (fun o -> o.traffic_mb) rows) in
  log "%-44s %10.4f %9.1f %12.6g %11.3f" "geomean (traffic: total)"
    (geomean (List.map (fun o -> median (Hashtbl.find per_item o.item.label)) rows))
    freq_g lat_g traffic;
  let n = List.length !times in
  let per_item_times = Hashtbl.fold (fun _ ts acc -> ts :: acc) per_item [] in
  let compiles_per_s = mix_rate ~work:(float_of_int (Hashtbl.length per_item)) per_item_times in
  log "compile_cold: %d compiles in %d passes, compiles_per_s %.4f 1/s, compile_s_p50 %.4f s, p99 %.4f s (n=%d)"
    n !pass compiles_per_s (median !times) (percentile 99.0 !times) n;
  log "quality: design_latency_s_geomean %.6g, design_freq_mhz_geomean %.2f, cut_traffic_mb_total %.3f"
    lat_g freq_g traffic;
  let summary =
    {
      setup_s = median !setup_times;
      rss_mb = peak_rss_mb ();
      ops_per_s = compiles_per_s;
      op_time_s = typical_time per_item_times;
      quality = geomean (List.map (fun o -> o.freq_mhz /. o.max_freq_mhz) rows);
    }
  in
  (summary, !attempted, !failed)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Replay one compile stage by stage through the same public calls
   Compiler.compile makes, each under its own span.  Sequential
   (jobs=1), so the spans can be compared with a jobs=1 compile. *)
let replay_stages it (d : Flow.design) =
  let options = options it in
  let threshold = options.Compiler.threshold in
  let graph = it.graph and cluster = it.cluster in
  let synthesis =
    Span.with_ "hls.synthesis" (fun () ->
        Tapa_cs_hls.Synthesis.run ~board:(Cluster.board cluster 0) graph)
  in
  ignore
    (Span.with_ "analysis.lint" (fun () ->
         Tapa_cs_analysis.Lint.precheck ~threshold ~cluster ~synthesis graph));
  let inter =
    Span.with_ "floorplan.l1" (fun () ->
        if it.dead = [] then
          Inter_fpga.run ~threshold ~seed:options.Compiler.seed ~cluster ~synthesis graph
        else
          Inter_fpga.run_degraded ~threshold ~seed:options.Compiler.seed ~failed_devices:it.dead ~cluster
            ~synthesis graph)
  in
  match inter with
  | Error _ -> fail "%s: replayed L1 floorplan failed" it.label; 0.0
  | Ok inter ->
    let intra_threshold = Float.max threshold inter.Inter_fpga.threshold_used in
    let cut_width = Array.make (Taskgraph.num_tasks graph) 0.0 in
    List.iter
      (fun (f : Tapa_cs_graph.Fifo.t) ->
        let w = float_of_int f.Tapa_cs_graph.Fifo.width_bits in
        cut_width.(f.src) <- cut_width.(f.src) +. w;
        cut_width.(f.dst) <- cut_width.(f.dst) +. w)
      inter.Inter_fpga.cut_fifos;
    let slowest = ref 0.0 in
    for fpga = 0 to Cluster.size cluster - 1 do
      let board = Cluster.board cluster fpga in
      let tasks =
        List.filter (fun t -> inter.Inter_fpga.assignment.(t) = fpga)
          (List.init (Taskgraph.num_tasks graph) Fun.id)
      in
      let placed, l2_s =
        timed (fun () ->
            Span.with_ "floorplan.l2" (fun () ->
                Intra_fpga.run ~threshold:intra_threshold ~seed:options.Compiler.seed ~board ~synthesis ~graph
                  ~tasks ~io_pull:(fun t -> cut_width.(t)) ()))
      in
      slowest := Float.max !slowest l2_s;
      match placed with
      | Error _ -> fail "%s: replayed L2 floorplan of FPGA %d failed" it.label fpga
      | Ok p ->
        let slot_of = p.Intra_fpga.slot_of in
        ignore
          (Span.with_ "floorplan.hbm" (fun () -> Hbm_binding.run ~explore:true ~board ~graph ~slot_of ()));
        ignore
          (Span.with_ "pipeline.pipelining" (fun () ->
               Tapa_cs_pipeline.Pipelining.run ~graph ~crossings:p.Intra_fpga.crossings));
        ignore
          (Span.with_ "freq.model" (fun () ->
               Tapa_cs_freq.Freq_model.of_placement ~board ~synthesis ~graph ~slot_of ~pipelined:true
                 ()))
    done;
    ignore
      (Span.with_ "analysis.static_bounds" (fun () -> Static_perf.analyze (Flow.sim_config d)));
    !slowest

let trace ~seed ~seconds:_ layers =
  let items = draw seed in
  let order = Array.init (Array.length items) Fun.id in
  Rng.shuffle (Rng.derive seed 1) order;
  let stages =
    [ "hls.synthesis"; "analysis.lint"; "floorplan.l1"; "floorplan.l2"; "floorplan.hbm";
      "pipeline.pipelining"; "freq.model"; "analysis.static_bounds" ]
  in
  let stage_total () = sum (List.map Span.total stages) in
  let certified = ref 0 and solves = ref 0 in
  let fp_hits = ref 0 and fp_lookups = ref 0 and frag_hits = ref 0 and frag_lookups = ref 0 in
  let groups = ref 0 and slowest = ref 0.0 in
  let compile_s = ref 0.0 and covered_s = ref 0.0 in
  let lats = ref [] and freqs = ref [] and traffic = ref 0.0 in
  let untraced = ref 0.0 and traced = ref 0.0 and failed = ref 0 in
  log "%-44s %10s %10s %9s" "item" "compile_s" "stages_s" "coverage";
  Array.iteri
    (fun k i ->
      let it = items.(i) in
      (* The first items also run untraced, for the tracing overhead. *)
      if k < 4 then begin
        Service.reset_process_caches ();
        let _, dt = timed (fun () -> compile_one ~jobs:1 it) in
        untraced := !untraced +. dt
      end;
      Service.reset_process_caches ();
      let d, dt = timed (fun () -> Span.with_ "core.compile" (fun () -> compile_one ~jobs:1 it)) in
      if k < 4 then traced := !traced +. dt;
      let fh, fm = Partition.cache_stats () in
      let fs = Compiler.fragment_stats () in
      fp_hits := !fp_hits + fh;
      fp_lookups := !fp_lookups + fh + fm;
      frag_hits := !frag_hits + fs.Compiler.frag_hits;
      frag_lookups := !frag_lookups + fs.Compiler.frag_hits + fs.Compiler.frag_misses;
      groups := !groups + fs.Compiler.groups_resolved;
      match d with
      | None -> incr failed
      | Some d ->
        let c = compiled d in
        ignore (Span.with_ "core.emit" (fun () -> emit c));
        let st = Compiler.solver_stats c in
        Layers.add layers "floorplan.subproblems" (float_of_int st.Compiler.subproblems);
        Layers.add layers "floorplan.races_exact" (float_of_int st.Compiler.races_exact);
        Layers.add layers "floorplan.races_anneal" (float_of_int st.Compiler.races_anneal);
        Layers.add layers "floorplan.refinement_moves" (float_of_int st.Compiler.refinement_moves);
        Layers.add layers "ilp.lp_solves" (float_of_int st.Compiler.lp_solves);
        Layers.add layers "ilp.lp_pivots" (float_of_int st.Compiler.lp_pivots);
        Layers.add layers "ilp.bb_nodes" (float_of_int st.Compiler.bb_nodes);
        certified := !certified + st.Compiler.lp_certified;
        solves := !solves + st.Compiler.lp_solves;
        let sim = Span.with_ "sim.simulate" (fun () -> Flow.simulate d) in
        check_item it d ~latency_s:sim.Tapa_cs_sim.Design_sim.latency_s;
        lats := sim.Tapa_cs_sim.Design_sim.latency_s :: !lats;
        freqs := d.Flow.freq_mhz :: !freqs;
        traffic := !traffic +. (c.Compiler.inter.Inter_fpga.traffic_bytes /. 1e6);
        Layers.add layers "sim.events" (float_of_int sim.Tapa_cs_sim.Design_sim.events);
        Layers.add layers "sim.points_simulated" 1.0;
        Service.reset_process_caches ();
        let before = stage_total () in
        slowest := !slowest +. replay_stages it d;
        let stages_s = stage_total () -. before in
        compile_s := !compile_s +. dt;
        covered_s := !covered_s +. stages_s;
        log "%-44s %10.4f %10.4f %8.1f%%" it.label dt stages_s (100.0 *. ratio stages_s dt))
    order;
  log "stage spans cover %.1f%% of Compiler.compile wall time (jobs=1)" (100.0 *. ratio !covered_s !compile_s);
  List.iter
    (fun (m, s) -> Layers.set_span layers m s)
    [ ("core.compile_s", "core.compile"); ("core.emit_s", "core.emit");
      ("hls.synthesis_s", "hls.synthesis"); ("analysis.lint_s", "analysis.lint");
      ("analysis.static_bounds_s", "analysis.static_bounds"); ("floorplan.l1_s", "floorplan.l1");
      ("floorplan.l2_s", "floorplan.l2"); ("floorplan.hbm_s", "floorplan.hbm");
      ("pipeline.pipelining_s", "pipeline.pipelining"); ("freq.model_s", "freq.model");
      ("sim.simulate_s", "sim.simulate") ];
  Layers.set layers "floorplan.l2_slowest_fpga_s" !slowest;
  Layers.set layers "ilp.certified_ratio" (ratio (float_of_int !certified) (float_of_int !solves));
  Layers.set layers "floorplan.solution_cache_hit_ratio" (ratio (float_of_int !fp_hits) (float_of_int !fp_lookups));
  Layers.set layers "floorplan.frag_hit_ratio" (ratio (float_of_int !frag_hits) (float_of_int !frag_lookups));
  Layers.set layers "floorplan.groups_resolved" (float_of_int !groups);
  let sim_s = Span.self_sum "sim.simulate" in
  Layers.set layers "sim.events_per_s"
    (ratio (Option.value ~default:0.0 (Hashtbl.find_opt layers "sim.events")) sim_s);
  Layers.set layers "quality.design_latency_s_geomean" (geomean !lats);
  Layers.set layers "quality.design_freq_mhz_geomean" (geomean !freqs);
  Layers.set layers "quality.cut_traffic_mb_total" !traffic;
  Layers.set layers "trace.coverage_ratio" (ratio !covered_s !compile_s);
  Layers.set layers "trace.overhead_s" (!traced -. !untraced);
  (Array.length items, !failed)
