(* farm_churn: replay Farm.run on the 100-board heterogeneous farm
   (U55C / U250 / Stratix-10, four boards per server node) under a
   seeded fault timeline.

   Why: this is the farm controller's admission and re-placement path.
   Each scenario holds the seeded Tenant.workload mix plus one large
   8-board knn tenant built with Tenant.make; the large tenant spans two
   server nodes, which is what sends placement through the grouped
   floorplan path and makes the fragment cache and dirty-set re-solve do
   real work (the stock 1-3-board mix never reaches them).  The timeline
   has device down/up, link down/up and a loss episode.

   A run replays whole cycles of the four scenarios while time remains;
   availability is taken over the first cycle, so it does not depend on
   how many cycles fit. *)

open Tapa_cs_device
open Tapa_cs_farm
open Common
module Fault = Tapa_cs_network.Fault

let boards = 100
let horizon_s = 300.0

type scenario = {
  tenants : Tenant.t list;
  events : (float * Fault.fleet_event) list;
  timeline : Fault.timeline;
  config : Farm.config;
}

(* Scenario structures: (structure seed, slot).  The farm's cost is a
   chaotic function of the discrete structure (which designs arrive in
   which order, which boards fail under whom), so the structure comes
   from these fixed draws, chosen for a few seconds of work each with
   fragment-cache hits, and the run seed perturbs only continuous
   inputs: every time of the scenario is scaled by one factor (which
   keeps the order of arrivals and faults), the loss rate and the large
   tenant's N vary.  The seed thus moves availability and timings
   without turning a scenario into a different one. *)
let structures = [| (2, 1); (3, 2); (3, 3); (4, 3) |]

let scenarios = Array.length structures

let scenario seed i =
  let structure_seed, slot = structures.(i) in
  let rng = Rng.derive structure_seed (10 + slot) in
  let vary = Rng.derive seed (10 + i) in
  let scale = 0.9 +. Rng.float vary 0.2 in
  let stock =
    Tenant.workload ~seed:(1 + Rng.int rng 1_000_000) ~tenants:3 ~mean_gap_s:10.0 ()
    |> List.map (fun (t : Tenant.t) ->
           Tenant.make ~id:t.Tenant.id ~name:t.Tenant.name ~slo:t.Tenant.slo
             ~arrival_s:(t.Tenant.arrival_s *. scale) t.Tenant.graph)
  in
  let big_at = 5.0 +. Rng.float rng 20.0 in
  let n = Rng.pick vary [| 1_000_000; 2_000_000; 4_000_000; 8_000_000 |] in
  let big =
    Tenant.make ~id:(List.length stock) ~name:"knn-f8" ~slo:Tenant.Best_effort ~arrival_s:(big_at *. scale)
      (Compile_cold.knn ~n ~d:16 8)
  in
  (* The first fault and the link fault land on the low boards, where
     the early tenants (the large one included) are placed, so they
     force re-placements; the second fault can land anywhere. *)
  let d1 = Rng.int rng 12 in
  let d2 = Rng.int rng boards in
  let l = Rng.int rng 12 in
  let loss = 0.005 +. Rng.float vary 0.02 in
  let windows = [ (30.0, 60.0); (60.0, 90.0); (90.0, 120.0); (120.0, 150.0); (150.0, 180.0); (180.0, 210.0); (210.0, 240.0); (250.0, 280.0) ] in
  let times = List.map (fun (lo, hi) -> (lo +. Rng.float rng (hi -. lo)) *. scale) windows in
  let kinds =
    [
      Fault.Device_down d1;
      Fault.Link_down (l, l + 1);
      Fault.Device_up d1;
      Fault.Loss_rate loss;
      Fault.Link_up (l, l + 1);
      Fault.Loss_rate 0.0;
      Fault.Device_down d2;
      Fault.Device_up d2;
    ]
  in
  let events = List.combine times kinds in
  let farm_seed = 1 + Rng.int rng 1000 in
  {
    tenants = stock @ [ big ];
    events;
    timeline = Fault.timeline events;
    config = { Farm.default_config with Farm.seed = farm_seed; horizon_s };
  }

let cluster () =
  Cluster.heterogeneous ~boards_per_node:4 [ Board.u55c; Board.u250; Board.stratix10 ] boards

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let accounting_error (st : Farm.stats) =
  List.find_map
    (fun (r : Farm.tenant_report) ->
      let life = st.Farm.horizon_s -. r.Farm.tenant.Tenant.arrival_s in
      let total = r.Farm.healthy_s +. r.Farm.degraded_s +. r.Farm.down_s in
      if Float.abs (total -. life) <= 1e-6 *. Float.max 1.0 life then None
      else
        Some
          (Printf.sprintf "tenant %s accounts %.9f s of a %.9f s lifetime" r.Farm.tenant.Tenant.name total life))
    st.Farm.tenants

(* Devices alive at the horizon, from the timeline this benchmark wrote. *)
let alive_at_horizon events =
  let alive = Array.make boards true in
  List.iter
    (fun (_, e) ->
      match e with
      | Fault.Device_down d -> alive.(d) <- false
      | Fault.Device_up d -> alive.(d) <- true
      | _ -> ())
    (List.stable_sort (fun (a, _) (b, _) -> compare a b) events);
  alive

let check_stats sc (st : Farm.stats) =
  Option.iter (fail "farm: %s") (accounting_error st);
  let alive = alive_at_horizon sc.events in
  let owner = Hashtbl.create 64 in
  List.iter
    (fun (r : Farm.tenant_report) ->
      let name = r.Farm.tenant.Tenant.name in
      if r.Farm.tenant.Tenant.slo = Tenant.Strict && r.Farm.final_health = Farm.Degraded then
        fail "farm: strict tenant %s ended silently degraded" name;
      List.iter
        (fun d ->
          if d < 0 || d >= boards || not alive.(d) then fail "farm: tenant %s owns dead board %d" name d;
          (match Hashtbl.find_opt owner d with
           | Some other -> fail "farm: board %d owned by both %s and %s" d other name
           | None -> ());
          Hashtbl.replace owner d name)
        r.Farm.devices)
    st.Farm.tenants

let availability stats =
  let healthy = sum (List.concat_map (fun st -> List.map (fun r -> r.Farm.healthy_s) st.Farm.tenants) stats) in
  ratio healthy (sum (List.map Farm.total_tenant_s stats))

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

let setup seed = (cluster (), Array.init scenarios (scenario seed))

(* Without a domain pool: the stats are identical with one, and on a
   small shared host the single-domain replay is faster and steadier. *)
let replay c sc =
  Span.with_ "farm.run" (fun () -> Farm.run ~config:sc.config ~cluster:c ~timeline:sc.timeline sc.tenants)

let run ~seed ~seconds =
  let (c, scs), setup_times = setups (fun () -> setup seed) in
  let setup_times = ref setup_times in
  let times = ref [] and per_scenario = Array.make scenarios [] and first = ref [] in
  let t_start = now () and cycle_s = ref 0.0 and cycles = ref 0 in
  while !cycles = 0 || now () -. t_start +. !cycle_s <= float_of_int seconds do
    let c0 = now () in
    Array.iteri
      (fun i sc ->
        for _ = 1 to 5 do
          setup_times := snd (timed (fun () -> setup seed)) :: !setup_times
        done;
        let st, dt = timed (fun () -> replay c sc) in
        check_stats sc st;
        times := dt :: !times;
        per_scenario.(i) <- dt :: per_scenario.(i);
        if !cycles = 0 then first := st :: !first)
      scs;
    cycle_s := now () -. c0;
    incr cycles
  done;
  let stats = List.rev !first in
  (match stats with
   | st :: _ ->
     let broken =
       {
         st with
         Farm.tenants =
           List.mapi
             (fun i r -> if i = 0 then { r with Farm.healthy_s = r.Farm.healthy_s +. 1.0 } else r)
             st.Farm.tenants;
       }
     in
     self_test ~what:"broken accounting sum" accounting_error broken
   | [] -> ());
  log "%9s %8s %8s %9s %9s %10s %7s" "scenario" "tenants" "events" "replay_s" "avail" "frag_hits" "reused";
  List.iteri
    (fun i st ->
      let ts = per_scenario.(i) in
      log "%9d %8d %8d %9.3f %9.4f %10d %7d" i (List.length scs.(i).tenants) (List.length scs.(i).events)
        (median ts) (availability [ st ]) st.Farm.frag_hits st.Farm.reused)
    stats;
  let n = List.length !times in
  log "farm_churn: %d replays, farm_replay_s p50 %.3f s (max %.3f s), farm_availability %.6f" n
    (median !times) (percentile 99.0 !times) (availability stats);
  ( {
      setup_s = median !setup_times;
      rss_mb = peak_rss_mb ();
      ops_per_s =
        mix_rate
          ~work:(float_of_int (Array.fold_left (fun a sc -> a + List.length sc.tenants + List.length sc.events) 0 scs))
          (Array.to_list per_scenario);
      op_time_s = typical_time (Array.to_list per_scenario);
      quality = availability stats;
    },
    n,
    0 )

let trace ~seed ~seconds:_ layers =
  let c, scs = setup seed in
  let fp_hits = ref 0 and fp_lookups = ref 0 in
  let stats =
    Array.to_list
      (Array.map
         (fun sc ->
           let st = replay c sc in
           let h, m = Tapa_cs_floorplan.Partition.cache_stats () in
           fp_hits := !fp_hits + h;
           fp_lookups := !fp_lookups + h + m;
           check_stats sc st;
           st)
         scs)
  in
  let tot f = float_of_int (List.fold_left (fun a st -> a + f st) 0 stats) in
  let attempts = tot (fun st -> List.fold_left (fun a r -> a + r.Farm.attempts) 0 st.Farm.tenants) in
  Layers.set_span layers "farm.run_s" "farm.run";
  Layers.set layers "farm.attempts" attempts;
  Layers.set layers "farm.reused_ratio" (ratio (tot (fun st -> st.Farm.reused)) (tot (fun st -> st.Farm.reused) +. attempts));
  Layers.set layers "farm.replacements"
    (tot (fun st -> List.fold_left (fun a r -> a + r.Farm.replacements) 0 st.Farm.tenants));
  let hits = tot (fun st -> st.Farm.frag_hits) and misses = tot (fun st -> st.Farm.frag_misses) in
  Layers.set layers "floorplan.frag_hit_ratio" (ratio hits (hits +. misses));
  Layers.set layers "floorplan.groups_resolved" (tot (fun st -> st.Farm.groups_resolved));
  Layers.set layers "floorplan.solution_cache_hit_ratio" (ratio (float_of_int !fp_hits) (float_of_int !fp_lookups));
  (List.length stats, 0)
