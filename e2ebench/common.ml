(* Shared plumbing of the end-to-end benchmark: the monotonic clock, the
   benchmark's own seeded generator, summary statistics, the span
   recorder behind --trace 1, and the result line. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

(* Monotonic wall clock (CLOCK_MONOTONIC via bechamel), in seconds.
   Never process CPU time: the compiler's own runtime fields are CPU
   time that a cache hit replays, so nothing here reads them. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

(* splitmix64, owned by the benchmark so that its inputs do not move
   when the library's own generator changes. *)
module Rng = struct
  type t = { mutable s : int64 }

  let create seed = { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) 0x2545F4914F6CDD1DL) }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let int t bound = Int64.(to_int (unsigned_rem (next t) (of_int bound)))
  let float t x = Int64.(to_float (shift_right_logical (next t) 11)) /. 9007199254740992.0 *. x
  let pick t a = a.(int t (Array.length a))

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done

  (* An independent stream for sub-scenario [i] of this seed. *)
  let derive seed i = create ((seed * 1_000_003) + i)
end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank percentile. *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* Median with the even-count midpoint. *)
let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum l = List.fold_left ( +. ) 0.0 l

let geomean l =
  match l with
  | [] -> nan
  | _ -> exp (sum (List.map log l) /. float_of_int (List.length l))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Lower quartile, interpolated between the nearest ranks. *)
let lower_quartile l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = 0.25 *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

(* Typical time of one operation over a run that repeats the same
   inputs: the lower quartile of each input's timings, combined
   geometrically.  The host's speed drifts by about +-20% over seconds
   as other tenants load the shared machine, which only ever adds time;
   the fast quartile tracks the program's own cost and moves less from
   run to run than the median.  Per input, because a statistic of the
   pooled times sits in a gap between the clusters of cheap and costly
   inputs and jumps across it. *)
let typical_time (per_input : float list list) = geomean (List.map lower_quartile per_input)

(* Throughput over a mix of inputs, each repeated: the work of one pass
   over the mix divided by the sum of the inputs' fast-quartile times. *)
let mix_rate ~work (per_input : float list list) = work /. sum (List.map lower_quartile per_input)

(* ------------------------------------------------------------------ *)
(* Process facts                                                       *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
        else scan ()
    in
    scan ()

let nproc () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* Every failed check is recorded with its reason; the run then reports
   correct = false and exits non-zero. *)
let failures : string list ref = ref []

let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let check cond fmt = Printf.ksprintf (fun s -> if not cond then failures := s :: !failures) fmt

(* Self-test: [planted] is a deliberately wrong output; the check [f]
   must reject it (return [Some reason]). *)
let self_test ~what f planted =
  match f planted with
  | Some _ -> Printf.eprintf "self-test: %s rejected as expected\n%!" what
  | None -> fail "self-test: the check let a planted %s through" what

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Spans (--trace 1)                                                   *)
(* ------------------------------------------------------------------ *)

(* Spans are recorded only around the benchmark's own calls into the
   library's public entry points, on the calling domain, and kept in
   memory until the run ends.  Each span also carries the GC counters
   of its interval. *)
module Span = struct
  type t = {
    id : int;
    name : string;
    parent : int;  (* -1 at top level *)
    start_s : float;
    mutable stop_s : float;
    mutable child_s : float;
    mutable alloc_b : float;
    mutable majors : int;
  }

  let enabled = ref false
  let spans : t list ref = ref []
  let stack : t list ref = ref []
  let next_id = ref 0

  let with_ name f =
    if not !enabled then f ()
    else begin
      let parent = match !stack with p :: _ -> p.id | [] -> -1 in
      let s =
        { id = !next_id; name; parent; start_s = now (); stop_s = 0.0; child_s = 0.0;
          alloc_b = 0.0; majors = 0 }
      in
      incr next_id;
      stack := s :: !stack;
      let a0 = Gc.allocated_bytes () and m0 = (Gc.quick_stat ()).Gc.major_collections in
      let finish () =
        s.stop_s <- now ();
        s.alloc_b <- Gc.allocated_bytes () -. a0;
        s.majors <- (Gc.quick_stat ()).Gc.major_collections - m0;
        stack := List.tl !stack;
        (match !stack with p :: _ -> p.child_s <- p.child_s +. (s.stop_s -. s.start_s) | [] -> ());
        spans := s :: !spans
      in
      Fun.protect ~finally:finish f
    end

  let duration s = s.stop_s -. s.start_s
  let self_time s = duration s -. s.child_s
  let named name = List.filter (fun s -> s.name = name) !spans
  let self_sum name = sum (List.map self_time (named name))
  let total name = sum (List.map duration (named name))

  (* Chrome trace-event JSON ("X" complete events, microseconds), which
     Perfetto and chrome://tracing open directly.  The parent span id is
     kept in [args]. *)
  let write_chrome path =
    let all = List.rev !spans in
    let t0 = List.fold_left (fun acc s -> Float.min acc s.start_s) infinity all in
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    output_string oc "{\"traceEvents\":[\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"alloc_mb\":%.3f,\"major_gcs\":%d}}"
          (if i = 0 then "" else ",\n")
          s.name
          (match String.index_opt s.name '.' with Some k -> String.sub s.name 0 k | None -> s.name)
          ((s.start_s -. t0) *. 1e6)
          (duration s *. 1e6) s.id s.parent (s.alloc_b /. 1e6) s.majors)
      all;
    output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

  (* Per-name table of self time and counts, to stderr. *)
  let print_table () =
    let names = List.sort_uniq compare (List.map (fun s -> s.name) !spans) in
    log "%-34s %8s %12s %12s" "span" "count" "self_s" "total_s";
    List.iter
      (fun n ->
        log "%-34s %8d %12.6f %12.6f" n (List.length (named n)) (self_sum n) (total n))
      names

  let top_level () = List.filter (fun s -> s.parent = -1) !spans
end

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " ms)

(* The values every workload reports with --trace 0 (see BENCHMARK.json). *)
type summary = { setup_s : float; rss_mb : float; ops_per_s : float; op_time_s : float; quality : float }

let end_to_end s =
  [
    metric "setup_s" "s" s.setup_s;
    metric "peak_rss_mb" "MB" s.rss_mb;
    metric "ops_per_s" "1/s" s.ops_per_s;
    metric "op_time_s" "s" s.op_time_s;
    metric "quality" "ratio" s.quality;
  ]

(* Timed set-ups: at least three, and up to seven while they take under
   a second in all; returns the state of the last one and the timings,
   whose median is setup_s.  Workloads whose set-up takes milliseconds
   time more set-ups between their operations: the host's speed shifts
   by up to 1.6x for seconds at a time, and set-ups timed back to back
   at the start all land in one such stretch. *)
let setups ?(teardown = fun _ -> ()) f =
  let times = ref [] in
  let rec go i =
    let st, dt = timed f in
    times := dt :: !times;
    if i < 3 || (i < 7 && sum !times < 1.0) then begin
      teardown st;
      go (i + 1)
    end
    else st
  in
  let st = go 1 in
  (st, !times)
