(* serve_open: an open loop of seeded arrivals against the compile
   service, driven through its Unix-socket transport exactly as the
   `serve` CLI exposes it (a child process), timed from each request's
   due time.

   Why: here the response cache, coalescing, admission and the floorplan
   solution cache do most of the work and the ILP does little.  The
   stream is a Zipf-like popularity over compile and simulate keys (apps
   x {1, 2, 4, 8} FPGAs, both admission classes), plus near-duplicate
   keys (knn N changes: a response-cache miss that hits the floorplan
   solution cache; each sent twice back to back so the copies can
   coalesce) and seed changes (a true cold compile).  Set-up starts the
   server and warms it with every base key.  A fixed ladder of arrival
   rates, the last one far above capacity, shows queueing, shedding
   (TCS701) and the highest sustainable rate (answers within the limit
   per second on the highest rung whose p99 meets the limit with nothing
   shed); after each rung, fresh cache misses are timed one at a time.  The
   gated latency is that lone cache-miss time, not the stream's p50/p99
   (on stderr): on a small shared host the latency of a hit (a process
   wake-up) jumps several-fold from run to run, and miss latencies under
   load swing with queueing.

   Load comes from this one process: two connections (one per admission
   class), no extra threads or domains.  The server runs one worker
   (--jobs 1), so on a two-core host the load generator keeps a core. *)

open Common
module Request = Tapa_cs_service.Request
module Service = Tapa_cs_service.Service
module Tenant = Tapa_cs_farm.Tenant

let cli = "_build/default/bin/tapa_cs_cli.exe"

(* Per-request latency limit at p99 for a rung to count as sustained. *)
let limit_s = 0.25

(* (rate in requests/s, share of --seconds); the nominal rung is the one
   whose latency is reported, the last one is far above capacity and
   gives the saturation throughput. *)
let nominal_rps = 200.0

(* Cache misses timed one at a time after each rung: this many
   near-duplicate and cold pairs. *)
let miss_probes = 12
let ladder = [ (100.0, 0.05); (nominal_rps, 0.45); (400.0, 0.08); (800.0, 0.08); (6400.0, 0.04) ]

(* Near-duplicates are knn keys of this fixed family with N changed;
   set-up compiles the family once, so each one hits the floorplan
   solution cache whatever the seed. *)
let near_dup_n = 1_000_000
let near_dup_d = 16

let near_dup_bases =
  List.map
    (fun fpgas -> Request.make ~kind:Request.Compile ~app:"knn" ~fpgas ~n:near_dup_n ~d:near_dup_d ())
    [ 1; 2; 4; 8 ]

(* Shares of the stream that miss the response cache. *)
let near_dup_share = 0.02
let cold_share = 0.02

(* ------------------------------------------------------------------ *)
(* The request universe                                                *)
(* ------------------------------------------------------------------ *)

let base_keys seed =
  let rng = Rng.create seed in
  let perm a =
    let a = Array.copy a in
    Rng.shuffle rng a;
    a
  in
  let iters = perm [| 64; 128; 256; 512 |] in
  let datasets = perm [| "web-BerkStan"; "soc-Slashdot0811"; "web-Google"; "web-NotreDame" |] in
  let ns = perm [| 1_000_000; 2_000_000; 4_000_000; 8_000_000 |] in
  let ds = perm [| 4; 16; 64; 128 |] in
  let rec cols () =
    let c = perm [| 4; 8; 12; 16 |] in
    if c.(0) <= 8 then c else cols ()
  in
  let cols = cols () in
  let keys =
    List.concat_map
      (fun i ->
        let fpgas = Compile_cold.fpga_counts.(i) in
        List.concat_map
          (fun kind ->
            [
              Request.make ~kind ~app:"stencil" ~fpgas ~iters:iters.(i) ();
              Request.make ~kind ~app:"pagerank" ~fpgas ~dataset:datasets.(i) ();
              Request.make ~kind ~app:"knn" ~fpgas ~n:ns.(i) ~d:ds.(i) ();
              Request.make ~kind ~app:"cnn" ~fpgas ~cols:cols.(i) ();
            ])
          [ Request.Compile; Request.Simulate ])
      [ 0; 1; 2; 3 ]
  in
  let keys = Array.of_list keys in
  (* Popularity rank: a seeded permutation under 1/rank weights. *)
  Rng.shuffle rng keys;
  keys

type req = {
  id : int;
  due : float;  (* offset from the rung start *)
  rung : int;
  cls : string;  (* "hit", or the miss class: near-duplicate or cold design *)
  line : string;
  conn : int;  (* 0: strict, 1: best-effort *)
  mutable sent : float;
  mutable got : float;
  mutable response : string;
  mutable responses : int;
}

(* Seed changes hit small designs whose parameters do not depend on the
   draw, so the cost of a cold miss (20-30 ms here) is the same for every
   seed. *)
let cold =
  [|
    Request.make ~kind:Request.Compile ~app:"stencil" ~fpgas:1 ~iters:64 ();
    Request.make ~kind:Request.Compile ~app:"stencil" ~fpgas:2 ~iters:64 ();
    Request.make ~kind:Request.Compile ~app:"pagerank" ~fpgas:1 ~dataset:"web-Google" ();
  |]

(* One rung of the ladder: Poisson arrivals at [rate] for [duration].
   The miss classes take exact shares of the arrivals, spread evenly
   over their variants and placed at seeded positions, so every rung
   (and every seed) carries the same miss work. *)
let rung_requests ~rng ~keys ~next_id ~unique ~rung ~rate ~duration =
  let n = Array.length keys in
  let weights = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let zipf () =
    let x = Rng.float rng total in
    let rec go i acc = if i >= n - 1 || acc +. weights.(i) > x then i else go (i + 1) (acc +. weights.(i)) in
    keys.(go 0 0.0)
  in
  let rec arrivals t acc =
    let t = t -. (Float.log (1.0 -. Rng.float rng 1.0) /. rate) in
    if t >= duration then List.rev acc else arrivals t (t :: acc)
  in
  let times = Array.of_list (arrivals 0.0 []) in
  let m = Array.length times in
  let share x = int_of_float (Float.round (x *. float_of_int m)) in
  let near = share near_dup_share and colds = share cold_share in
  let classes =
    Array.init m (fun i ->
        if i < near then `Near Compile_cold.fpga_counts.(i mod 4)
        else if i < near + colds then `Cold ((i - near) mod Array.length cold)
        else `Hit)
  in
  Rng.shuffle rng classes;
  let out = ref [] in
  let add ~due ~conn ~cls (r : Request.t) =
    let id = !next_id in
    incr next_id;
    let klass = if conn = 0 then Tenant.Strict else Tenant.Best_effort in
    out :=
      { id; due; rung; cls; line = Request.to_line { r with Request.id; klass }; conn; sent = nan; got = nan;
        response = ""; responses = 0 }
      :: !out
  in
  Array.iteri
    (fun i due ->
      let conn = if Rng.int rng 3 = 0 then 0 else 1 in
      match classes.(i) with
      | `Near fpgas ->
        incr unique;
        let r =
          Request.make ~kind:Request.Compile ~app:"knn" ~fpgas ~n:(near_dup_n + (1000 * !unique)) ~d:near_dup_d ()
        in
        let cls = Printf.sprintf "near-f%d" fpgas in
        add ~due ~conn:0 ~cls r;
        add ~due ~conn:1 ~cls r
      | `Cold k ->
        incr unique;
        add ~due ~conn ~cls:(Printf.sprintf "cold-%d" k) { cold.(k) with Request.seed = 1000 + !unique }
      | `Hit -> add ~due ~conn ~cls:"hit" (zipf ()))
    times;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Client: non-blocking, select-driven, two connections                *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; out : string Queue.t; mutable off : int; inbuf : Buffer.t }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.set_nonblock fd;
      { fd; out = Queue.create (); off = 0; inbuf = Buffer.create 65536 }
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.02;
      go (tries - 1)
  in
  go 500

(* Write queued lines until the socket would block. *)
let rec flush c =
  match Queue.peek_opt c.out with
  | None -> ()
  | Some line -> (
    let len = String.length line - c.off in
    match Unix.write_substring c.fd line c.off len with
    | n when n = len ->
      ignore (Queue.pop c.out);
      c.off <- 0;
      flush c
    | n -> c.off <- c.off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())

let send c line = Queue.push (line ^ "\n") c.out

let chunk = Bytes.create 65536

(* Read what is available; return complete lines. *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "server closed the connection"
  | n ->
    Buffer.add_subbytes c.inbuf chunk 0 n;
    let s = Buffer.contents c.inbuf in
    let lines = String.split_on_char '\n' s in
    let rec split = function
      | [] -> ([], "")
      | [ last ] -> ([], last)
      | l :: rest ->
        let ls, tail = split rest in
        (l :: ls, tail)
    in
    let ls, tail = split lines in
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf tail;
    ls
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> []

(* Index just past the first occurrence of [sub] in [line]. *)
let find_after line sub =
  let ls = String.length sub and n = String.length line in
  let rec matches i k = k = ls || (line.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + ls > n then None else if matches i 0 then Some (i + ls) else go (i + 1) in
  go 0

let contains line sub = find_after line sub <> None

(* The number after ["key":] in a flat response line. *)
let number_field of_string line key =
  Option.bind (find_after line ("\"" ^ key ^ "\":")) (fun i ->
      let n = String.length line in
      let j = ref i in
      while !j < n && (match line.[!j] with '0' .. '9' | '-' | '.' | 'e' | '+' -> true | _ -> false) do
        incr j
      done;
      of_string (String.sub line i (!j - i)))

let int_field = number_field int_of_string_opt
let float_field = number_field float_of_string_opt

let is_rejected line = contains line "\"status\":\"rejected\""
let served kind r = contains r.response (Printf.sprintf "\"served\":\"%s\"" kind)
let is_ok line = contains line "\"status\":\"ok\""

let spin_s = 0.0003

(* Send [reqs] on schedule (due offsets from [t0]) and collect every
   response; returns when all answered or [deadline] passes.  With
   [window], at most that many requests are outstanding (a closed
   loop).  A line without an id is the answer to [untagged]. *)
let drive ?untagged ?(window = max_int) conns ~t0 ~deadline (reqs : req array) =
  let by_id = Hashtbl.create (Array.length reqs) in
  Array.iter (fun r -> Hashtbl.replace by_id r.id r) reqs;
  let next = ref 0 and outstanding = ref 0 in
  let n = Array.length reqs in
  let finished () = !next >= n && !outstanding = 0 in
  while (not (finished ())) && now () < deadline do
    let t = now () in
    while !next < n && t0 +. reqs.(!next).due <= t && !outstanding < window do
      let r = reqs.(!next) in
      r.sent <- t;
      send conns.(r.conn) r.line;
      incr outstanding;
      incr next
    done;
    Array.iter flush conns;
    (* Sleep in select until just before the next due time, then poll:
       the last stretch is spun so requests leave on time. *)
    let timeout =
      if !next < n && !outstanding < window then Float.max 0.0 (t0 +. reqs.(!next).due -. now () -. spin_s)
      else 0.05
    in
    let wfds = Array.to_list conns |> List.filter (fun c -> not (Queue.is_empty c.out)) |> List.map (fun c -> c.fd) in
    let rfds = Array.to_list (Array.map (fun c -> c.fd) conns) in
    let readable, _, _ =
      try Unix.select rfds wfds [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let got = now () in
    Array.iter
      (fun c ->
        if List.mem c.fd readable then
          List.iter
            (fun line ->
              let r =
                match int_field line "id" with
                | Some id -> Hashtbl.find_opt by_id id
                | None -> untagged
              in
              match r with
              | Some r ->
                if r.responses = 0 then begin
                  r.got <- got;
                  r.response <- line;
                  decr outstanding
                end;
                r.responses <- r.responses + 1
              | None -> fail "serve: response with an unknown id: %s" line)
            (read_lines c))
      conns
  done

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; socket : string; conns : conn array; mutable requests : int }


let out_dir = "e2ebench/_out"

let start_server ~keys =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let socket = Printf.sprintf "%s/serve-%d.sock" out_dir (Unix.getpid ()) in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  if not (Sys.file_exists cli) then failwith (cli ^ " is not built");
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; socket; "--jobs"; "1"; "--max-depth"; "16";
         "--best-effort-depth"; "8" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let conns = [| connect socket; connect socket |] in
  let s = { pid; socket; conns; requests = 0 } in
  (* Warm prefix: every base key once, in bursts small enough for the
     admission bound. *)
  let warm =
    Array.mapi
      (fun i (k : Request.t) ->
        { id = 1_000_000 + i; due = 0.0; rung = -1; cls = "warm"; line = Request.to_line { k with Request.id = 1_000_000 + i };
          conn = 0; sent = nan; got = nan; response = ""; responses = 0 })
      (Array.append keys (Array.of_list near_dup_bases))
  in
  let burst = 8 in
  for b = 0 to (Array.length warm - 1) / burst do
    let part = Array.sub warm (b * burst) (min burst (Array.length warm - (b * burst))) in
    drive conns ~t0:(now ()) ~deadline:(now () +. 60.0) part
  done;
  s.requests <- Array.length warm;
  Array.iter
    (fun r -> if not (is_ok r.response) then fail "serve: warm-up request failed: %s" r.response)
    warm;
  (s, warm)

let stop_server s =
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] s.pid);
  try Unix.unlink s.socket with Unix.Unix_error _ -> ()

let metrics_of s =
  let line = Request.to_line (Request.make ~id:2_000_000 ~kind:Request.Metrics ~app:"stencil" ()) in
  let r =
    { id = 2_000_000; due = 0.0; rung = -1; cls = "metrics"; line; conn = 0; sent = nan; got = nan; response = "";
      responses = 0 }
  in
  (* The metrics reply carries no id. *)
  drive ~untagged:r s.conns ~t0:(now ()) ~deadline:(now () +. 10.0) [| r |];
  r.response

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* The reply of a response line without its ["served"] provenance. *)
let reply_part line =
  match find_after line ",\"served\":" with
  | Some i -> String.sub line 0 (i - String.length ",\"served\":")
  | None -> line

let reply_mismatch ~expected line =
  if reply_part line = reply_part expected then None
  else Some (Printf.sprintf "served %s but direct compute gives %s" line expected)

let books_open metrics =
  let f k = Option.value ~default:(-1) (int_field metrics k) in
  let received = f "received" and completed = f "completed" in
  let rejected = f "rejected_strict" + f "shed_best_effort" in
  if received >= 0 && received = completed + rejected then None
  else Some (Printf.sprintf "received %d <> completed %d + rejected %d" received completed rejected)

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

type rung_result = {
  rate : float;
  n : int;
  ok : int;
  shed : int;
  p50 : float;
  p99 : float;
  drain_s : float;
  goodput : float;  (* answers within the limit per second *)
  throughput : float;  (* answers other than rejections per second *)
  lag_p99 : float;
  lag_max : float;
}

(* Achieved clock over the U55C's, geomean over the base keys. *)
let quality warm =
  geomean
    (List.filteri (fun i _ -> i < Array.length warm - List.length near_dup_bases) (Array.to_list warm)
     |> List.map (fun r -> Option.value ~default:nan (float_field r.response "freq_mhz") /. 300.0))

let run ~seed ~seconds =
  let keys = base_keys seed in
  let (server, warm), setup_times = setups (fun () -> start_server ~keys) ~teardown:(fun (s, _) -> stop_server s) in
  Fun.protect ~finally:(fun () -> stop_server server) @@ fun () ->
  let rng = Rng.derive seed 1 in
  let next_id = ref 0 and unique = ref 0 in
  let rungs =
    List.mapi
      (fun i (rate, share) ->
        (rate, Array.of_list (rung_requests ~rng ~keys ~next_id ~unique ~rung:i ~rate ~duration:(share *. float_of_int seconds))))
      ladder
  in
  (* Miss latency: fresh near-duplicate and cold keys sent one at a
     time, so each is the service time of one cache miss without any
     queueing behind other work.  A block of them follows every rung, so
     that the probes sample the whole run rather than one moment of it. *)
  let miss_block () =
    let reqs =
      Array.of_list
        (List.concat_map
           (fun k ->
             incr unique;
             let near_f = Compile_cold.fpga_counts.(k mod 4) in
             let near =
               Request.make ~kind:Request.Compile ~app:"knn" ~fpgas:near_f ~n:(near_dup_n + (1000 * !unique))
                 ~d:near_dup_d ()
             in
             let c = k mod Array.length cold in
             let id = !next_id in
             next_id := id + 2;
             [
               { id; due = 0.0; rung = -1; cls = Printf.sprintf "near-f%d" near_f;
                 line = Request.to_line { near with Request.id }; conn = 0; sent = nan; got = nan; response = "";
                 responses = 0 };
               { id = id + 1; due = 0.0; rung = -1; cls = Printf.sprintf "cold-%d" c;
                 line = Request.to_line { cold.(c) with Request.id = id + 1; seed = 1000 + !unique }; conn = 0;
                 sent = nan; got = nan; response = ""; responses = 0 };
             ])
           (List.init miss_probes Fun.id))
    in
    let m0 = now () in
    drive ~window:1 server.conns ~t0:m0 ~deadline:(m0 +. 60.0) reqs;
    server.requests <- server.requests + Array.length reqs;
    reqs
  in
  let miss_blocks = ref [] in
  let results =
    List.map
      (fun (rate, reqs) ->
        let t0 = now () +. 0.01 in
        drive server.conns ~t0 ~deadline:(t0 +. 60.0) reqs;
        server.requests <- server.requests + Array.length reqs;
        let last_due = Array.fold_left (fun a r -> Float.max a (t0 +. r.due)) t0 reqs in
        let last_got = Array.fold_left (fun a r -> if Float.is_nan r.got then a else Float.max a r.got) t0 reqs in
        let lat r =
          if Float.is_nan r.got then infinity
          else
            let l = r.got -. (t0 +. r.due) in
            if is_ok r.response then l else l +. limit_s
        in
        let lats = Array.to_list (Array.map lat reqs) in
        let ok = Array.fold_left (fun a r -> if is_ok r.response then a + 1 else a) 0 reqs in
        let shed = Array.fold_left (fun a r -> if is_rejected r.response then a + 1 else a) 0 reqs in
        let lags = Array.to_list (Array.map (fun r -> r.sent -. (t0 +. r.due)) reqs) in
        let within = List.length (List.filter (fun l -> l <= limit_s) lats) in
        miss_blocks := miss_block () :: !miss_blocks;
        ( reqs,
          {
            rate;
            n = Array.length reqs;
            ok;
            shed;
            p50 = percentile 50.0 lats;
            p99 = percentile 99.0 lats;
            drain_s = last_got -. last_due;
            goodput = float_of_int within /. (last_got -. t0);
            throughput = float_of_int ok /. (last_got -. t0);
            lag_p99 = percentile 99.0 lags;
            lag_max = List.fold_left Float.max 0.0 lags;
          } ))
      rungs
  in
  let miss_reqs = Array.concat !miss_blocks in
  let miss_time =
    let by_cls = Hashtbl.create 8 in
    Array.iter
      (fun r ->
        if is_ok r.response then
          Hashtbl.replace by_cls r.cls ((r.got -. r.sent) :: Option.value ~default:[] (Hashtbl.find_opt by_cls r.cls)))
      miss_reqs;
    let classes = List.sort compare (Hashtbl.fold (fun k l acc -> (k, l) :: acc) by_cls []) in
    List.iter
      (fun (k, l) ->
        log "miss %-8s n=%3d fast-quartile %.6f s, median %.6f s, samples %s" k (List.length l) (lower_quartile l) (median l)
          (String.concat " " (List.rev_map (Printf.sprintf "%.4f") l)))
      classes;
    typical_time (List.map snd classes)
  in
  let rss = peak_rss_mb ~pid:(string_of_int server.pid) () in
  let metrics = metrics_of server in
  let all =
    List.concat_map (fun (reqs, _) -> Array.to_list reqs) results @ Array.to_list miss_reqs
  in
  (* Every request gets exactly one response. *)
  List.iter
    (fun r -> if r.responses <> 1 then fail "serve: request %d got %d responses" r.id r.responses)
    all;
  (* The books close, and agree with what this client saw. *)
  Option.iter (fail "serve: %s") (books_open metrics);
  let received = Option.value ~default:(-1) (int_field metrics "received") in
  check (received = server.requests) "serve: server received %d requests, client sent %d" received server.requests;
  let shed_seen = List.length (List.filter (fun r -> is_rejected r.response) all) in
  let shed_books =
    Option.value ~default:0 (int_field metrics "rejected_strict")
    + Option.value ~default:0 (int_field metrics "shed_best_effort")
  in
  check (shed_seen = shed_books) "serve: client saw %d rejections, server books %d" shed_seen shed_books;
  (* Cached and coalesced answers equal a direct compute of the same request. *)
  let local = Service.create () in
  let sample_rng = Rng.derive seed 2 in
  let sample kind =
    let c = Array.of_list (List.filter (served kind) all) in
    if Array.length c = 0 then None else Some (Rng.pick sample_rng c)
  in
  let compared = ref [] in
  List.iter
    (fun kind ->
      match sample kind with
      | None -> log "serve: no %s answer to compare" kind
      | Some r -> (
        match Request.of_line r.line with
        | Error e -> fail "serve: own request line does not parse: %s" e
        | Ok q ->
          let expected = Service.response_json ~id:q.Request.id (Service.Hit (Service.compute local q)) in
          Option.iter (fail "serve: %s") (reply_mismatch ~expected r.response);
          compared := (kind, expected, r.response) :: !compared))
    [ "cache"; "coalesced"; "computed" ];
  (* Self-test: a coalesced reply with its numbers altered, and books
     that lose a request. *)
  (match List.filter (fun (k, _, _) -> k = "coalesced") !compared @ !compared with
   | (_, expected, line) :: _ ->
     let tampered = String.map (fun c -> if c = '.' then ',' else c) line in
     self_test ~what:"mismatched coalesced reply" (reply_mismatch ~expected) tampered
   | [] -> ());
  self_test ~what:"accounting that loses a request" books_open
    "{\"received\":10,\"completed\":8,\"rejected_strict\":1,\"shed_best_effort\":0}";
  (* Report. *)
  log "%8s %6s %6s %5s %10s %10s %9s %10s %10s %10s %10s" "rate" "n" "ok" "shed" "p50_s" "p99_s" "drain_s" "goodput" "throughput" "lag_p99_s" "lag_max_s";
  let rows = List.map snd results in
  List.iter
    (fun r ->
      log "%8.0f %6d %6d %5d %10.6f %10.6f %9.4f %10.1f %10.1f %10.6f %10.6f%s" r.rate r.n r.ok r.shed r.p50 r.p99 r.drain_s
        r.goodput r.throughput r.lag_p99 r.lag_max
        (if r.lag_p99 > 0.005 then "  (generator fell behind)" else ""))
    rows;
  (* Sustained: p99 within the limit, nothing shed, and the backlog
     drains within the limit once arrivals stop. *)
  let sustains r = r.p99 <= limit_s && r.shed = 0 && r.drain_s <= limit_s in
  let sustained = List.fold_left (fun acc r -> if sustains r then Some r else acc) None rows in
  let nominal = List.find (fun r -> r.rate = nominal_rps) rows in
  let saturated = List.nth rows (List.length rows - 1) in
  log "serve_open: serve_p50_s %.6f s, serve_p99_s %.6f s at %.0f rps (n=%d); lone cache-miss time %.6f s; serve_sustained_rps %.1f 1/s (limit %.3f s at p99, no shedding); saturation throughput %.1f 1/s at %.0f rps offered"
    nominal.p50 nominal.p99 nominal_rps nominal.n miss_time
    (match sustained with Some r -> r.goodput | None -> 0.0)
    limit_s saturated.throughput saturated.rate;
  log "server metrics: %s" metrics;
  (* Shedding above the nominal rate is admission control working; up
     to it, any rejection is a failed operation. *)
  let failed =
    List.length
      (List.filter
         (fun r ->
           (not (is_ok r.response))
           && not (is_rejected r.response && r.rung >= 0 && (List.nth rows r.rung).rate > nominal_rps))
         all)
  in
  ( {
      setup_s = median setup_times;
      rss_mb = rss;
      ops_per_s = (match sustained with Some r -> r.goodput | None -> 0.0);
      op_time_s = miss_time;
      quality = quality warm;
    },
    List.length all,
    failed )

(* ------------------------------------------------------------------ *)
(* Traced run: the same arrival schedule, replayed in-process          *)
(* ------------------------------------------------------------------ *)

(* Replay [reqs] on their schedule through Request.of_line and
   Service.schedule, batching whatever is due, as the transport does.
   Returns (busy seconds, lags, latencies, batch sizes). *)
let replay svc reqs =
  let n = Array.length reqs in
  let t0 = now () +. 0.01 in
  let i = ref 0 and busy = ref 0.0 and lags = ref [] and lats = ref [] and batches = ref [] in
  while !i < n do
    let wait = t0 +. reqs.(!i).due -. now () in
    if wait > 0.0 then Unix.sleepf wait
    else begin
      let b0 = now () in
      let batch = ref [] in
      while !i < n && t0 +. reqs.(!i).due <= now () do
        let r = reqs.(!i) in
        lags := (now () -. (t0 +. r.due)) :: !lags;
        (match Span.with_ "service.parse" (fun () -> Request.of_line r.line) with
         | Ok q -> batch := (r, q) :: !batch
         | Error e -> fail "serve replay: request line does not parse: %s" e);
        incr i
      done;
      let batch = Array.of_list (List.rev !batch) in
      let verdicts =
        Span.with_ "service.schedule" (fun () -> Service.schedule svc (Array.map snd batch))
      in
      let t = now () in
      Array.iteri
        (fun k v ->
          let r = fst batch.(k) in
          r.response <- Service.response_json ~id:r.id v;
          lats := (t -. (t0 +. r.due)) :: !lats)
        verdicts;
      batches := float_of_int (Array.length batch) :: !batches;
      busy := !busy +. (t -. b0)
    end
  done;
  (!busy, !lags, !lats, !batches)

let fresh_service ~keys pool =
  Service.reset_process_caches ();
  let svc =
    Service.create ?pool ~config:{ Service.max_depth = 16; best_effort_depth = 8; cache_entries = 8192 } ()
  in
  let parsed = Array.append keys (Array.of_list near_dup_bases) in
  let burst = 8 in
  for b = 0 to (Array.length parsed - 1) / burst do
    ignore (Service.schedule svc (Array.sub parsed (b * burst) (min burst (Array.length parsed - (b * burst)))))
  done;
  Service.reset_counters svc;
  svc

let trace ~seed ~seconds layers =
  let keys = base_keys seed in
  let pool = if nproc () > 1 then Some (Tapa_cs_util.Pool.create ~domains:(nproc () - 1) ()) else None in
  Fun.protect ~finally:(fun () -> Option.iter Tapa_cs_util.Pool.shutdown pool) @@ fun () ->
  let rng = Rng.derive seed 1 in
  let next_id = ref 0 and unique = ref 0 in
  let rungs =
    List.mapi
      (fun i (rate, share) ->
        (rate, Array.of_list (rung_requests ~rng ~keys ~next_id ~unique ~rung:i ~rate ~duration:(share *. float_of_int seconds))))
      ladder
  in
  let nominal = List.assoc nominal_rps rungs in
  (* Untraced, then traced, each on a freshly warmed service. *)
  Span.enabled := false;
  let busy_untraced, _, _, _ = replay (fresh_service ~keys pool) (Array.map (fun r -> { r with response = "" }) nominal) in
  Span.enabled := true;
  let svc = fresh_service ~keys pool in
  let busy_traced, lags, lats, batches = replay svc nominal in
  let c = Service.counters svc in
  let recv = float_of_int c.Service.received in
  Layers.set_span layers "service.parse_s" "service.parse";
  Layers.set_span layers "service.schedule_s" "service.schedule";
  Layers.set layers "service.batch_size" (Common.sum batches /. float_of_int (List.length batches));
  Layers.set layers "service.hit_ratio" (ratio (float_of_int c.Service.hits) recv);
  Layers.set layers "service.coalesced_ratio" (ratio (float_of_int c.Service.coalesced) recv);
  Layers.set layers "service.rejected" (float_of_int (c.Service.rejected_strict + c.Service.shed_best_effort));
  Layers.set layers "service.queue_depth_peak" (float_of_int c.Service.queue_depth_peak);
  Layers.set layers "service.generator_lag_s" (percentile 99.0 lags);
  let fh, fm = Tapa_cs_floorplan.Partition.cache_stats () in
  Layers.set layers "floorplan.solution_cache_hit_ratio" (ratio (float_of_int fh) (float_of_int (fh + fm)));
  let fs = Tapa_cs.Compiler.fragment_stats () in
  Layers.set layers "floorplan.frag_hit_ratio"
    (ratio (float_of_int fs.Tapa_cs.Compiler.frag_hits)
       (float_of_int (fs.Tapa_cs.Compiler.frag_hits + fs.Tapa_cs.Compiler.frag_misses)));
  Layers.set layers "floorplan.groups_resolved" (float_of_int fs.Tapa_cs.Compiler.groups_resolved);
  let sh, sm = Tapa_cs_sim.Design_sim.cache_stats () in
  Layers.set layers "sim.cache_hit_ratio" (ratio (float_of_int sh) (float_of_int (sh + sm)));
  Layers.set layers "trace.overhead_s" (busy_traced -. busy_untraced);
  log "serve replay at %.0f rps: %d requests, p50 %.6f s, p99 %.6f s, busy %.3f s traced vs %.3f s untraced"
    nominal_rps (Array.length nominal) (percentile 50.0 lats) (percentile 99.0 lats) busy_traced busy_untraced;
  (* The replayed answers obey the same books. *)
  check (c.Service.received = c.Service.completed + c.Service.rejected_strict + c.Service.shed_best_effort)
    "serve replay: books do not close";
  (Array.length nominal, Array.fold_left (fun a r -> if is_ok r.response then a else a + 1) 0 nominal)
