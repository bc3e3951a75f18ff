(* Two-clock TPC-C benchmark program.

   One invocation builds the paper's headline deployment (4 PNs x 8
   terminals, 7 SNs, 1 commit manager, RF3, InfiniBand), bulk-loads TPC-C,
   warms up, measures one window of virtual time and then checks the
   database's consistency.  It prints one JSON object on stdout:

     {"workload": .., "seed": .., "checks_failed": .., "attempted": ..,
      "sim": {..}, "e2e": {..}, "layer": {..}}

   "e2e" holds the end-to-end metrics on both clocks (simulated and host),
   "layer" the per-layer metrics (only with --trace 1), and "sim" the raw
   simulated counters the determinism self-test compares.

   Everything is measured from outside the program: a wrapper around
   [Tell_engine.execute], timers around [Loader.load], a window fiber that
   snapshots public counters when the measured window opens and closes,
   and (traced runs only) a storage-node queue sampler.  None of it feeds
   back into the simulation, so a traced run's simulated metrics equal
   the untraced run's bit for bit.

     tellperf.exe --workload tpcc-write --seed 42 --trace 0
     tellperf.exe --workload tpcc-read --seed 7 --trace 1 --trace-out t.json *)

module Sim = Tell_sim
module Kv = Tell_kv
module Tpcc = Tell_tpcc
module H = Sim.Stats.Histogram
open Tell_core
open Tell_harness

(* --- workloads -------------------------------------------------------------------- *)

(* The shared deployment: the paper's headline cluster.  Seeds are derived
   as in [Scenarios.run_tell_detailed] (kv = seed, loader = seed + 1,
   driver = seed + 2), so tpcc-write at seed 42 is the BENCH_commit.json
   run. *)
let headline = { Scenarios.default_tell with n_pns = 4; rf = 3 }

let workloads =
  [
    ("tpcc-write", headline);
    ( "tpcc-read",
      {
        headline with
        mix = Tpcc.Spec.read_intensive_mix;
        warmup_ns = 50_000_000;
        measure_ns = 150_000_000;
      } );
    ( "tpcc-hot-sbvs",
      {
        headline with
        warehouses = 8;
        buffer = Buffer_pool.Shared_vs_buffer { capacity = 100_000; unit_size = 1000 };
        warmup_ns = 50_000_000;
        measure_ns = 300_000_000;
      } );
  ]

(* --- host clocks -------------------------------------------------------------------- *)

let wall () = Unix.gettimeofday ()
let cpu () = Sys.time ()

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* --- trace storage ---------------------------------------------------------------- *)

(* Benchmark-level spans: host start/end and OCaml words allocated. *)
type phase_span = { p_name : string; p_wall0 : float; p_wall1 : float; p_words : float }

let phase_spans = ref []

let timed name f =
  let w0 = wall () and a0 = words () in
  let v = f () in
  let w1 = wall () in
  phase_spans := { p_name = name; p_wall0 = w0; p_wall1 = w1; p_words = words () -. a0 } :: !phase_spans;
  (v, w1 -. w0)

(* Transaction spans, six ints each: type, PN, virtual start, virtual end,
   outcome (0 committed, 1 aborted, 2 user abort), in-window flag. *)
module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1
end

(* Nearest-rank percentile of exact samples (the driver's histogram has
   ~3 % buckets, too coarse to compare seeds by). *)
let percentile (v : Ivec.t) p =
  if v.n = 0 then 0
  else begin
    let a = Array.sub v.a 0 v.n in
    Array.sort compare a;
    a.(max 0 (int_of_float (Float.ceil (p /. 100.0 *. fi v.n)) - 1))
  end

let txn_types = [| "new_order"; "payment"; "order_status"; "delivery"; "stock_level" |]

let type_index = function
  | Tpcc.Spec.New_order _ -> 0
  | Tpcc.Spec.Payment _ -> 1
  | Tpcc.Spec.Order_status _ -> 2
  | Tpcc.Spec.Delivery _ -> 3
  | Tpcc.Spec.Stock_level _ -> 4

(* --- the ENGINE wrapper ------------------------------------------------------------- *)

type recorder = {
  engine : Sim.Engine.t;
  tracing : bool;
  mutable win_lo : int;
  mutable win_hi : int;
  latency : Ivec.t;  (** virtual ns of each committed transaction in the window *)
  type_latency : Ivec.t array;  (** the same, per type (traced runs) *)
  type_commits : int array;
  type_aborts : int array;
  txn_spans : Ivec.t;
}

module Wrapped = struct
  type t = { inner : Tpcc.Tell_engine.t; rc : recorder; n_pns : int }
  type conn = { c : Tpcc.Tell_engine.conn; crc : recorder; pn : int }

  let name _ = "tell"

  let connect t ~terminal_id =
    { c = Tpcc.Tell_engine.connect t.inner ~terminal_id; crc = t.rc; pn = terminal_id mod t.n_pns }

  let execute conn input =
    let rc = conn.crc in
    let t0 = Sim.Engine.now rc.engine in
    let outcome = Tpcc.Tell_engine.execute conn.c input in
    let t1 = Sim.Engine.now rc.engine in
    (* The driver's window rule: started and finished inside it. *)
    let in_window = t0 >= rc.win_lo && t1 <= rc.win_hi in
    if outcome = Tpcc.Engine_intf.Committed && in_window then Ivec.push rc.latency (t1 - t0);
    if rc.tracing then begin
      let ty = type_index input in
      (match outcome with
      | Tpcc.Engine_intf.Committed when in_window ->
          rc.type_commits.(ty) <- rc.type_commits.(ty) + 1;
          Ivec.push rc.type_latency.(ty) (t1 - t0)
      | Tpcc.Engine_intf.Aborted _ when in_window -> rc.type_aborts.(ty) <- rc.type_aborts.(ty) + 1
      | _ -> ());
      let v = rc.txn_spans in
      Ivec.push v ty;
      Ivec.push v conn.pn;
      Ivec.push v t0;
      Ivec.push v t1;
      Ivec.push v
        (match outcome with
        | Tpcc.Engine_intf.Committed -> 0
        | Tpcc.Engine_intf.Aborted _ -> 1
        | Tpcc.Engine_intf.User_abort -> 2);
      Ivec.push v (if in_window then 1 else 0)
    end;
    outcome
end

(* --- deployment ---------------------------------------------------------------------- *)

type deployment = {
  engine : Sim.Engine.t;
  db : Database.t;
  pns : Pn.t list;
  scale : Tpcc.Spec.scale;
  tell : Tpcc.Tell_engine.t;
  rows : int;
  load_s : float;
}

(* Mirrors [Scenarios.run_tell_detailed] step for step up to the driver. *)
let deploy (c : Scenarios.tell_config) =
  let engine = Sim.Engine.create () in
  let kv_config =
    {
      Kv.Cluster.default_config with
      n_storage_nodes = c.n_sns;
      replication_factor = c.rf;
      sn_cores = c.sn_cores;
      sn_capacity_bytes = c.sn_capacity_bytes;
      net_profile = c.net;
      seed = c.seed;
    }
  in
  let db =
    Database.create engine ~kv_config ~n_commit_managers:c.n_cms
      ~index_flush_interval_ns:c.index_flush_interval_ns
      ~index_flush_threshold_bytes:c.index_flush_threshold_bytes ()
  in
  let pns =
    List.init c.n_pns (fun _ ->
        Database.add_pn db ~cores:c.pn_cores ~buffer:c.buffer
          ~notify_flush_window_ns:c.notify_flush_window_ns ~begin_window_ns:c.begin_window_ns ())
  in
  let scale = Scenarios.scale_of c in
  let rows, load_s =
    timed "load" (fun () -> Tpcc.Loader.load (Database.cluster db) ~scale ~seed:(c.seed + 1))
  in
  let tell = Tpcc.Tell_engine.create db ~pns ~scale in
  { engine; db; pns; scale; tell; rows; load_s }

(* --- counter snapshots ---------------------------------------------------------------- *)

type snap = {
  s_wall : float;
  s_cpu : float;
  s_words : float;
  s_major : int;
  s_vnow : int;
  s_pn_requests : int;
  s_pn_ops : int;
  s_fl_requests : int;
  s_begins : int;
  s_begin_rpcs : int;
  s_bounces : int;
  s_hits : int;
  s_misses : int;
  s_extra : int;
  s_flushes : int;
  s_redelivered : int;
  s_fl_sweeps : int;
  s_fl_stripes : int;
  s_fl_messages : int;
  s_fl_errors : int;
  s_busy : int array;
  s_bytes_sent : int;
  s_dropped : int;
  s_stored : int;
  s_phase_ops : int list;
}

let sum_pns pns f = List.fold_left (fun a pn -> a + f pn) 0 pns

let snapshot d =
  let cluster = Database.cluster d.db in
  let flusher = Database.index_flusher d.db in
  let fst_ = Index_flusher.stats flusher in
  let net = Kv.Cluster.net cluster in
  let phase_ops =
    let merged = Sim.Stats.Breakdown.create Pn.commit_phases in
    List.iter (fun pn -> Sim.Stats.Breakdown.merge_into ~src:(Pn.commit_stats pn) ~dst:merged) d.pns;
    List.map (fun (_, _, ops) -> ops) (Sim.Stats.Breakdown.phases merged)
  in
  {
    s_wall = wall ();
    s_cpu = cpu ();
    s_words = words ();
    s_major = (Gc.quick_stat ()).major_collections;
    s_vnow = Sim.Engine.now d.engine;
    s_pn_requests = sum_pns d.pns (fun pn -> Kv.Client.requests_sent (Pn.kv pn));
    s_pn_ops = sum_pns d.pns (fun pn -> Kv.Client.ops_sent (Pn.kv pn));
    s_fl_requests = Kv.Client.requests_sent (Index_flusher.kv flusher);
    s_begins = sum_pns d.pns (fun pn -> fst (Pn.begin_stats pn));
    s_begin_rpcs = sum_pns d.pns (fun pn -> snd (Pn.begin_stats pn));
    s_bounces = sum_pns d.pns (fun pn -> Kv.Client.stale_master_bounces (Pn.kv pn));
    s_hits = sum_pns d.pns (fun pn -> Buffer_pool.hits (Pn.pool pn));
    s_misses = sum_pns d.pns (fun pn -> Buffer_pool.misses (Pn.pool pn));
    s_extra = sum_pns d.pns (fun pn -> Buffer_pool.extra_requests (Pn.pool pn));
    s_flushes = sum_pns d.pns (fun pn -> Notifier.flushed (Pn.notifier pn));
    s_redelivered = sum_pns d.pns (fun pn -> Notifier.redelivered (Pn.notifier pn));
    s_fl_sweeps = fst_.sweeps;
    s_fl_stripes = fst_.stripes_flushed;
    s_fl_messages = fst_.messages_applied;
    s_fl_errors = fst_.errors;
    s_busy = Array.map (fun sn -> Sim.Resource.busy_time (Kv.Storage_node.cpu sn)) (Kv.Cluster.nodes cluster);
    s_bytes_sent = Sim.Net.bytes_sent net;
    s_dropped = Sim.Net.messages_dropped net;
    s_stored = Kv.Cluster.total_bytes_stored cluster;
    s_phase_ops = phase_ops;
  }

(* --- one run --------------------------------------------------------------------------- *)

type run = {
  report : Tpcc.Driver.report;
  d : deployment;
  rc : recorder;
  w_open : snap;
  w_close : snap;
  phases : (string * H.t * int) list;  (** merged PN phase histograms, window only *)
  sn_queue : float * int;  (** sampled mean / max SN CPU queue length (traced runs) *)
  setup_s : float;
  warmup_s : float;
  setup_words : float;
  loaded_words : int;  (** live heap after the bulk load (full major collection) *)
  end_words : int;  (** live heap at the end of a traced run (full major collection) *)
  violations : string list;
  check_failures : int;
}

(* The TPC-C consistency conditions of [Tpcc.Consistency.check_all], on
   every [check_stride]-th warehouse starting at a seed-chosen offset, in
   one read-only transaction: the full check costs about 10 host seconds
   at 32 warehouses, and across eight seeds every warehouse gets checked. *)
let check_stride = 8

let consistency_check pn ~(scale : Tpcc.Spec.scale) ~seed =
  let module C = Tpcc.Consistency in
  let stride = if scale.warehouses <= 8 then 1 else check_stride in
  Database.with_txn pn (fun txn ->
      let violations = ref [] in
      for w_id = 1 to scale.warehouses do
        if (w_id - 1) mod stride = seed mod stride then begin
          violations := C.check_ytd txn ~scale ~w_id @ !violations;
          for d_id = 1 to scale.districts_per_wh do
            violations := C.check_order_ids txn ~w_id ~d_id @ !violations;
            violations := C.check_order_lines txn ~w_id ~d_id ~sample:37 @ !violations
          done
        end
      done;
      !violations)

let run_workload (c : Scenarios.tell_config) ~tracing =
  let t_setup = wall () in
  let w_setup = words () in
  let d, _ = timed "create+load" (fun () -> deploy c) in
  (* The loaded database's footprint.  Every seed loads the same rows, so
     unlike the heap's high-water mark (GC pacing) or its end-of-run size
     (hash tables doubling at seed-dependent moments) it repeats within a
     fraction of a percent; its collection time is not set-up time. *)
  let loaded_words, gc_s =
    timed "full-major" (fun () ->
        Gc.full_major ();
        (Gc.quick_stat ()).live_words)
  in
  let t_deployed = wall () and w_deployed = words () in
  let rc =
    {
      engine = d.engine;
      tracing;
      win_lo = max_int;
      win_hi = max_int;
      latency = Ivec.create ();
      type_latency = Array.init 5 (fun _ -> Ivec.create ());
      type_commits = Array.make 5 0;
      type_aborts = Array.make 5 0;
      txn_spans = Ivec.create ();
    }
  in
  let w_open = ref None and w_close = ref None in
  let phases = ref [] in
  (* The window fiber: spawned before the driver's fibers, it wakes at the
     instant the driver's controller opens the window (virtual time starts
     at 0: the loader takes none). *)
  Sim.Engine.spawn d.engine (fun () ->
      Sim.Engine.sleep d.engine c.warmup_ns;
      rc.win_lo <- Sim.Engine.now d.engine;
      rc.win_hi <- rc.win_lo + c.measure_ns;
      List.iter
        (fun pn ->
          List.iter (fun (_, h, _) -> H.reset h) (Sim.Stats.Breakdown.phases (Pn.commit_stats pn)))
        d.pns;
      w_open := Some (snapshot d);
      Sim.Engine.sleep d.engine c.measure_ns;
      let merged = Sim.Stats.Breakdown.create Pn.commit_phases in
      List.iter (fun pn -> Sim.Stats.Breakdown.merge_into ~src:(Pn.commit_stats pn) ~dst:merged) d.pns;
      phases := Sim.Stats.Breakdown.phases merged;
      w_close := Some (snapshot d));
  (* Traced runs: sample every SN's CPU queue every 100 virtual us. *)
  let q_sum = ref 0 and q_n = ref 0 and q_max = ref 0 in
  if tracing then
    Sim.Engine.spawn d.engine (fun () ->
        Sim.Engine.sleep d.engine c.warmup_ns;
        let stop = Sim.Engine.now d.engine + c.measure_ns in
        let nodes = Kv.Cluster.nodes (Database.cluster d.db) in
        while Sim.Engine.now d.engine < stop do
          Array.iter
            (fun sn ->
              let q = Sim.Resource.queue_length (Kv.Storage_node.cpu sn) in
              q_sum := !q_sum + q;
              incr q_n;
              q_max := max !q_max q)
            nodes;
          Sim.Engine.sleep d.engine 100_000
        done);
  let config =
    {
      Tpcc.Driver.terminals = c.n_pns * c.threads_per_pn;
      warmup_ns = c.warmup_ns;
      measure_ns = c.measure_ns;
      seed = c.seed + 2;
    }
  in
  let wrapped = { Wrapped.inner = d.tell; rc; n_pns = c.n_pns } in
  let report, _ =
    timed "warmup+measure" (fun () ->
        Tpcc.Driver.run
          (module Wrapped : Tpcc.Engine_intf.ENGINE with type t = Wrapped.t and type conn = Wrapped.conn)
          wrapped ~engine:d.engine ~scale:d.scale ~mix:c.mix ~config ())
  in
  let w_open = Option.get !w_open and w_close = Option.get !w_close in
  let end_words =
    if tracing then begin
      Gc.full_major ();
      (Gc.quick_stat ()).live_words
    end
    else 0
  in
  phase_spans :=
    { p_name = "warmup"; p_wall0 = t_deployed; p_wall1 = w_open.s_wall; p_words = w_open.s_words -. w_deployed }
    :: { p_name = "measure"; p_wall0 = w_open.s_wall; p_wall1 = w_close.s_wall; p_words = w_close.s_words -. w_open.s_words }
    :: !phase_spans;
  (* Output check: quiesce the notifiers and the index flusher, then run
     the TPC-C consistency conditions through one PN. *)
  let (violations, drained, finished), _ =
    timed "output-check" (fun () ->
        let violations = ref [] and drained = ref true and finished = ref false in
        Sim.Engine.spawn d.engine (fun () ->
            List.iter (fun pn -> Notifier.drain (Pn.notifier pn)) d.pns;
            drained := Index_flusher.drain (Database.index_flusher d.db);
            violations := consistency_check (List.hd d.pns) ~scale:d.scale ~seed:c.seed;
            finished := true);
        let limit = Sim.Engine.now d.engine + 10_000_000_000 in
        while (not !finished) && Sim.Engine.now d.engine < limit do
          Sim.Engine.run d.engine ~until:(Sim.Engine.now d.engine + 10_000_000) ()
        done;
        (!violations, !drained, !finished))
  in
  let fl = Index_flusher.stats (Database.index_flusher d.db) in
  let dropped = Sim.Net.messages_dropped (Kv.Cluster.net (Database.cluster d.db)) in
  let check_failures =
    List.length violations
    + (if drained then 0 else 1)
    + (if finished then 0 else 1)
    + (if fl.errors > 0 then 1 else 0)
    + if dropped > 0 then 1 else 0
  in
  let violations =
    violations
    @ (if drained then [] else [ "index flusher drain gave up with messages pending" ])
    @ (if finished then [] else [ "output check did not finish within 10 virtual s" ])
    @ (if fl.errors > 0 then [ Printf.sprintf "index flusher swallowed %d errors" fl.errors ] else [])
    @ if dropped > 0 then [ Printf.sprintf "network dropped %d messages" dropped ] else []
  in
  {
    report;
    d;
    rc;
    w_open;
    w_close;
    phases = !phases;
    sn_queue = (ratio (fi !q_sum) (fi !q_n), !q_max);
    setup_s = w_open.s_wall -. t_setup -. gc_s;
    warmup_s = w_open.s_wall -. t_deployed;
    setup_words = w_open.s_words -. w_setup;
    loaded_words;
    end_words;
    violations;
    check_failures;
  }

(* --- metrics ------------------------------------------------------------------------------ *)

let sim_metrics (r : run) =
  let rep = r.report in
  [
    ("tpmc", Tpcc.Driver.tpmc rep);
    ("tps", Tpcc.Driver.tps rep);
    ("abort_pct", Tpcc.Driver.abort_rate rep);
    ("txn_p50_ms", fi (percentile r.rc.latency 50.0) /. 1e6);
    ("txn_p99_ms", fi (percentile r.rc.latency 99.0) /. 1e6);
    ("committed", fi rep.committed);
    ("aborted", fi rep.aborted);
    ("user_aborts", fi rep.user_aborts);
    ("new_order_commits", fi rep.new_order_commits);
    ("window_pn_requests", fi (r.w_close.s_pn_requests - r.w_open.s_pn_requests));
    ("window_flusher_requests", fi (r.w_close.s_fl_requests - r.w_open.s_fl_requests));
    ("window_bytes_sent", fi (r.w_close.s_bytes_sent - r.w_open.s_bytes_sent));
  ]

let mb words = fi words *. fi (Sys.word_size / 8) /. 1e6

let e2e_metrics (r : run) =
  let committed = fi r.report.committed in
  let sim = sim_metrics r in
  let g k = List.assoc k sim in
  [
    ("tpmc", g "tpmc", "1/min");
    ("tps", g "tps", "1/s");
    ("txn_p50_ms", g "txn_p50_ms", "ms");
    ("txn_p99_ms", g "txn_p99_ms", "ms");
    ("commit_pct", 100.0 -. g "abort_pct", "%");
    ("setup_s", r.setup_s, "s");
    ("alloc_words_per_txn", ratio (r.w_close.s_words -. r.w_open.s_words) committed, "words");
    ("live_heap_mb", mb r.loaded_words, "MB");
  ]

let layer_metrics (r : run) =
  let o = r.w_open and c = r.w_close in
  let committed = fi r.report.committed in
  let window_s = fi (c.s_vnow - o.s_vnow) /. 1e9 in
  let rc = r.rc in
  let tpcc =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i ty ->
              let v = rc.type_latency.(i) in
              [
                ("tpcc." ^ ty ^ ".p50_us", fi (percentile v 50.0) /. 1e3, "us");
                ("tpcc." ^ ty ^ ".p99_us", fi (percentile v 99.0) /. 1e3, "us");
                ("tpcc." ^ ty ^ ".commits", fi rc.type_commits.(i), "count");
              ]
              @
              if i <= 1 then
                [
                  ( "tpcc." ^ ty ^ ".abort_pct",
                    100.0 *. ratio (fi rc.type_aborts.(i)) (fi (rc.type_aborts.(i) + rc.type_commits.(i))),
                    "%" );
                ]
              else [])
            txn_types))
  in
  let pn_phases =
    List.concat
      (List.map2
         (fun (name, h, _) (o_ops, c_ops) ->
           [
             ("pn." ^ name ^ ".mean_us", H.mean h /. 1e3, "us");
             ("pn." ^ name ^ ".p99_us", fi (H.percentile h 99.0) /. 1e3, "us");
             ("pn." ^ name ^ ".ops", fi (c_ops - o_ops), "count");
           ])
         r.phases
         (List.combine o.s_phase_ops c.s_phase_ops))
  in
  let pn_req = fi (c.s_pn_requests - o.s_pn_requests) in
  let fl_req = fi (c.s_fl_requests - o.s_fl_requests) in
  let nodes = Kv.Cluster.nodes (Database.cluster r.d.db) in
  let n_sn = Array.length nodes in
  let util i =
    let servers = Sim.Resource.servers (Kv.Storage_node.cpu nodes.(i)) in
    100.0 *. fi (c.s_busy.(i) - o.s_busy.(i)) /. (window_s *. 1e9 *. fi servers)
  in
  let utils = List.init n_sn util in
  let hits = fi (c.s_hits - o.s_hits) and misses = fi (c.s_misses - o.s_misses) in
  let host_window_s = c.s_wall -. o.s_wall in
  let mean_q, max_q = r.sn_queue in
  tpcc
  @ [
      ("tpcc.load_s", r.d.load_s, "s");
      ("tpcc.rows_loaded", fi r.d.rows, "count");
      ("abort_pct", Tpcc.Driver.abort_rate r.report, "%");
      ("checks_failed", fi r.check_failures, "count");
    ]
  @ pn_phases
  @ [
      ( "pn.begins_per_rpc",
        ratio (fi (c.s_begins - o.s_begins)) (fi (c.s_begin_rpcs - o.s_begin_rpcs)),
        "ratio" );
      ("buffer.hit_pct", 100.0 *. ratio hits (hits +. misses), "%");
      ("buffer.extra_requests_per_txn", ratio (fi (c.s_extra - o.s_extra)) committed, "count");
      ("notifier.flushes_per_txn", ratio (fi (c.s_flushes - o.s_flushes)) committed, "count");
      ("notifier.redelivered", fi (c.s_redelivered - o.s_redelivered), "count");
      ("flusher.messages_applied", fi (c.s_fl_messages - o.s_fl_messages), "count");
      ("flusher.stripes_flushed", fi (c.s_fl_stripes - o.s_fl_stripes), "count");
      ("flusher.sweeps", fi (c.s_fl_sweeps - o.s_fl_sweeps), "count");
      ("flusher.errors", fi (c.s_fl_errors - o.s_fl_errors), "count");
      ("kv.requests", pn_req, "count");
      ("kv.ops", fi (c.s_pn_ops - o.s_pn_ops), "count");
      ("kv.batching_ratio", ratio (fi (c.s_pn_ops - o.s_pn_ops)) pn_req, "ratio");
      ("kv.requests_per_new_order", ratio pn_req (fi r.report.new_order_commits), "count");
      ("kv.flusher_requests", fl_req, "count");
      ("kv.flusher_request_pct", 100.0 *. ratio fl_req (pn_req +. fl_req), "%");
      ("kv.stale_master_bounces", fi (c.s_bounces - o.s_bounces), "count");
      ("sn.cpu_util_pct", List.fold_left ( +. ) 0.0 utils /. fi n_sn, "%");
      ("sn.cpu_util_max_pct", List.fold_left max 0.0 utils, "%");
      ("sn.queue_len_mean", mean_q, "count");
      ("sn.queue_len_max", fi max_q, "count");
      ("kv.stored_mb_growth", fi (c.s_stored - o.s_stored) /. 1e6, "MB");
      ("net.bytes_per_txn", ratio (fi (c.s_bytes_sent - o.s_bytes_sent)) committed, "B");
      ("net.messages_dropped", fi (c.s_dropped - o.s_dropped), "count");
      ("host.warmup_s", r.warmup_s, "s");
      ("host.measure_s", host_window_s, "s");
      ("host.cpu_us_per_txn", 1e6 *. ratio (c.s_cpu -. o.s_cpu) committed, "us");
      ("host.setup_alloc_mwords", r.setup_words /. 1e6, "Mwords");
      ("host.peak_heap_mb", mb (Gc.quick_stat ()).top_heap_words, "MB");
      ("host.end_live_heap_mb", mb r.end_words, "MB");
      ("host.major_gcs", fi (c.s_major - o.s_major), "count");
      ("host.sim_ms_per_host_s", ratio (window_s *. 1e3) host_window_s, "ms/s");
    ]

(* --- host micro-timings ------------------------------------------------------------------- *)

(* ns/op and words/op of one operation: median over batches. *)
let micro name f =
  let batch = 2_000 in
  let per_batch () =
    let a0 = words () in
    let t0 = wall () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    let t1 = wall () in
    (1e9 *. (t1 -. t0) /. fi batch, (words () -. a0) /. fi batch)
  in
  ignore (per_batch ());
  let samples = List.init 31 (fun _ -> per_batch ()) in
  ( ("micro." ^ name ^ ".ns", median (List.map fst samples), "ns"),
    ("micro." ^ name ^ ".words", median (List.map snd samples), "words") )

let micro_metrics () =
  let record =
    List.fold_left
      (fun acc v ->
        Record.add_version acc ~version:v
          (Record.Tuple [| Value.Int v; Value.Str "payload"; Value.Float 3.14 |]))
      Record.empty [ 1; 5; 9; 12 ]
  in
  let encoded = Record.encode record in
  let key = [ Value.Int 42; Value.Str "WAREHOUSE"; Value.Int 7 ] in
  let vs = List.fold_left Version_set.add (Version_set.of_base 100_000) [ 100_002; 100_005; 100_009 ] in
  let vss =
    List.init 8 (fun i -> List.fold_left Version_set.add (Version_set.of_base (100_000 + i)) [ 100_010 + i; 100_020 ])
  in
  let h = H.create () in
  let both (a, b) = [ a; b ] in
  both (micro "record_encode" (fun () -> Record.encode record))
  @ both (micro "record_decode" (fun () -> Record.decode encoded))
  @ both (micro "codec_encode_key" (fun () -> Codec.encode_key key))
  @ [ fst (micro "version_set_mem" (fun () -> Version_set.mem vs 100_005)) ]
  @ [ fst (micro "version_set_union_many" (fun () -> Version_set.union_many vss)) ]
  @ [ fst (micro "histogram_add" (fun () -> H.add h 123_456)) ]

(* --- output ------------------------------------------------------------------------------ *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"
let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as ch ->
          Buffer.add_char b '\\';
          Buffer.add_char b ch
      | ch when Char.code ch < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"

let metrics_obj ms = obj (List.map (fun (k, v, u) -> (k, obj [ ("value", num v); ("unit", str u) ])) ms)

let write_trace path (r : run) counters =
  let oc = open_out path in
  let spans = r.rc.txn_spans in
  Printf.fprintf oc "{\"phases\": [%s],\n"
    (String.concat ", "
       (List.rev_map
          (fun p ->
            obj
              [
                ("name", str p.p_name);
                ("host_start", num p.p_wall0);
                ("host_end", num p.p_wall1);
                ("words", num p.p_words);
              ])
          !phase_spans));
  Printf.fprintf oc "\"counters\": %s,\n" counters;
  output_string oc "\"txn_fields\": [\"id\", \"type\", \"pn\", \"vstart_ns\", \"vend_ns\", \"outcome\", \"in_window\"],\n";
  output_string oc "\"txns\": [";
  for i = 0 to (spans.n / 6) - 1 do
    if i > 0 then output_string oc ",\n";
    let g k = spans.a.((6 * i) + k) in
    Printf.fprintf oc "[%d, %S, %d, %d, %d, %S, %d]" i txn_types.(g 0) (g 1) (g 2) (g 3)
      [| "committed"; "aborted"; "user_abort" |].(g 4)
      (g 5)
  done;
  output_string oc "]}\n";
  close_out oc

let snap_obj (s : snap) =
  obj
    [
      ("vnow_ns", string_of_int s.s_vnow);
      ("pn_requests", string_of_int s.s_pn_requests);
      ("pn_ops", string_of_int s.s_pn_ops);
      ("flusher_requests", string_of_int s.s_fl_requests);
      ("begins", string_of_int s.s_begins);
      ("buffer_hits", string_of_int s.s_hits);
      ("buffer_misses", string_of_int s.s_misses);
      ("notifier_flushes", string_of_int s.s_flushes);
      ("flusher_messages", string_of_int s.s_fl_messages);
      ("bytes_sent", string_of_int s.s_bytes_sent);
      ("bytes_stored", string_of_int s.s_stored);
      ("sn_busy_ns", "[" ^ String.concat ", " (Array.to_list (Array.map string_of_int s.s_busy)) ^ "]");
    ]

(* --- main -------------------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 42 and trace = ref 0 and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " tpcc-write | tpcc-read | tpcc-hot-sbvs");
      ("--seed", Arg.Set_int seed, " workload seed (kv = seed, loader = seed+1, driver = seed+2)");
      ("--trace", Arg.Set_int trace, " 1 = traced run: per-layer metrics, spans, micro-timings");
      ("--trace-out", Arg.Set_string trace_out, " file for the traced run's spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tellperf.exe --workload NAME [--seed N] [--trace 0|1]";
  let c =
    match List.assoc_opt !workload workloads with
    | Some c -> { c with seed = !seed }
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let tracing = !trace = 1 in
  let r = run_workload c ~tracing in
  let layer = if tracing then layer_metrics r @ micro_metrics () else [] in
  if tracing && !trace_out <> "" then
    write_trace !trace_out r (obj [ ("window_open", snap_obj r.w_open); ("window_close", snap_obj r.w_close) ]);
  List.iter
    (fun p -> Printf.eprintf "tellperf: %-16s %8.3f s host\n" p.p_name (p.p_wall1 -. p.p_wall0))
    (List.rev !phase_spans);
  let rep = r.report in
  print_string
    (obj
       [
         ("workload", str !workload);
         ("seed", string_of_int !seed);
         ("checks_failed", string_of_int r.check_failures);
         ("violations", "[" ^ String.concat ", " (List.map str (List.filteri (fun i _ -> i < 10) r.violations)) ^ "]");
         ("attempted", string_of_int (rep.committed + rep.aborted + rep.user_aborts));
         ("sim", obj (List.map (fun (k, v) -> (k, num v)) (sim_metrics r)));
         ("e2e", metrics_obj (e2e_metrics r));
         ("layer", metrics_obj layer);
         ( "host",
           obj
             [
               ("measure_s", num (r.w_close.s_wall -. r.w_open.s_wall));
               ("measure_cpu_s", num (r.w_close.s_cpu -. r.w_open.s_cpu));
             ] );
       ]);
  print_newline ()
