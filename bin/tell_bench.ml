(* Command-line interface to the benchmark harness:

     tell_bench experiment fig8 --quick
     tell_bench tell --pns 4 --sns 7 --rf 3 --mix read --net ethernet
     tell_bench voltdb --nodes 5 --k 2 --mix shardable                  *)

open Cmdliner
module Tpcc = Tell_tpcc
open Tell_harness

let mix_of_string = function
  | "standard" | "write" -> Tpcc.Spec.standard_mix
  | "read" | "read-intensive" -> Tpcc.Spec.read_intensive_mix
  | "shardable" -> Tpcc.Spec.shardable_mix
  | other -> invalid_arg ("unknown mix: " ^ other ^ " (standard|read|shardable)")

let print_outcome label cores = function
  | Scenarios.Report r ->
      Printf.printf
        "%s cores=%d\n  TpmC      %10.0f\n  Tps       %10.0f\n  aborts    %9.2f%%\n\
        \  latency   %8.2f ms (σ %.2f, TP99 %.2f, TP999 %.2f)\n  committed %10d (user rollbacks %d)\n"
        label cores (Tpcc.Driver.tpmc r) (Tpcc.Driver.tps r) (Tpcc.Driver.abort_rate r)
        (Tpcc.Driver.mean_latency_ms r) (Tpcc.Driver.stddev_latency_ms r)
        (Tpcc.Driver.percentile_latency_ms r 99.0)
        (Tpcc.Driver.percentile_latency_ms r 99.9)
        r.committed r.user_aborts
  | Scenarios.Out_of_memory -> Printf.printf "%s: storage out of memory\n" label

(* Commit-pipeline instrumentation: per-phase latency breakdown, client
   batching ratio, and store requests per committed new-order. *)
let requests_per_new_order (detail : Scenarios.tell_detail) = function
  | Scenarios.Report r when r.Tpcc.Driver.new_order_commits > 0 ->
      Some (float_of_int detail.d_requests /. float_of_int r.Tpcc.Driver.new_order_commits)
  | _ -> None

let print_detail (detail : Scenarios.tell_detail) outcome =
  Printf.printf "  commit pipeline (per txn phase):\n";
  List.iter
    (fun (name, hist, ops) ->
      Printf.printf "    %-7s n=%-8d mean=%8.1f us  TP99=%8.1f us  ops=%d\n" name
        (Tell_sim.Stats.Histogram.count hist)
        (Tell_sim.Stats.Histogram.mean hist /. 1e3)
        (float_of_int (Tell_sim.Stats.Histogram.percentile hist 99.0) /. 1e3)
        ops)
    detail.d_phases;
  Printf.printf "  store traffic: %d requests, %d ops (batching %.2f ops/request)\n"
    detail.d_requests detail.d_ops
    (if detail.d_requests = 0 then 0.0
     else float_of_int detail.d_ops /. float_of_int detail.d_requests);
  Printf.printf "  begin coalescing: %d begins over %d start RPCs (%.2f begins/RPC)\n"
    detail.d_begins detail.d_begin_rpcs
    (if detail.d_begin_rpcs = 0 then 0.0
     else float_of_int detail.d_begins /. float_of_int detail.d_begin_rpcs);
  (match detail.d_begin_dist with
  | [] | [ _ ] -> ()
  | dist ->
      Printf.printf "  begins by manager: %s\n"
        (String.concat ", " (List.map (fun (cm, n) -> Printf.sprintf "cm%d=%d" cm n) dist)));
  if detail.d_stale_bounces > 0 then
    Printf.printf "  stale-master bounces absorbed: %d (directory refresh + retry)\n"
      detail.d_stale_bounces;
  Printf.printf "  SBVS unit-cell give-ups: %d\n" detail.d_unit_cell_give_ups;
  Printf.printf "  index flusher: %d store requests, %d messages applied, %d deferred flushes\n"
    detail.d_flusher_requests detail.d_flusher_messages detail.d_flusher_deferrals;
  match requests_per_new_order detail outcome with
  | Some per_no -> Printf.printf "  store requests per new-order: %.1f\n" per_no
  | None -> ()

let json_of_run c (detail : Scenarios.tell_detail) outcome =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"config\": {\"pns\": %d, \"sns\": %d, \"cms\": %d, \"rf\": %d, \"warehouses\": %d, \"seed\": %d},\n"
    c.Scenarios.n_pns c.n_sns c.n_cms c.rf c.warehouses c.seed;
  (match outcome with
  | Scenarios.Report r ->
      Printf.bprintf buf
        "  \"tpmc\": %.1f,\n  \"tps\": %.1f,\n  \"abort_rate_pct\": %.3f,\n  \"committed\": %d,\n  \"new_order_commits\": %d,\n"
        (Tpcc.Driver.tpmc r) (Tpcc.Driver.tps r) (Tpcc.Driver.abort_rate r) r.committed
        r.new_order_commits
  | Scenarios.Out_of_memory -> Buffer.add_string buf "  \"oom\": true,\n");
  Printf.bprintf buf "  \"requests_sent\": %d,\n  \"ops_sent\": %d,\n" detail.d_requests detail.d_ops;
  Printf.bprintf buf "  \"batching_ratio\": %.3f,\n"
    (if detail.d_requests = 0 then 0.0
     else float_of_int detail.d_ops /. float_of_int detail.d_requests);
  Printf.bprintf buf "  \"begins\": %d,\n  \"begin_rpcs\": %d,\n" detail.d_begins
    detail.d_begin_rpcs;
  Printf.bprintf buf "  \"begin_distribution\": {%s},\n"
    (String.concat ", "
       (List.map (fun (cm, n) -> Printf.sprintf "\"cm%d\": %d" cm n) detail.d_begin_dist));
  Printf.bprintf buf "  \"stale_master_bounces\": %d,\n" detail.d_stale_bounces;
  Printf.bprintf buf "  \"unit_cell_give_ups\": %d,\n" detail.d_unit_cell_give_ups;
  (* Informational, outside [bench_compare --exact]'s field list. *)
  Printf.bprintf buf
    "  \"flusher_requests\": %d,\n  \"flusher_messages_applied\": %d,\n  \"flusher_deferrals\": %d,\n"
    detail.d_flusher_requests detail.d_flusher_messages detail.d_flusher_deferrals;
  (match requests_per_new_order detail outcome with
  | Some per_no -> Printf.bprintf buf "  \"requests_per_new_order\": %.2f,\n" per_no
  | None -> ());
  Buffer.add_string buf "  \"commit_phases\": {\n";
  let n_phases = List.length detail.d_phases in
  List.iteri
    (fun i (name, hist, ops) ->
      Printf.bprintf buf
        "    \"%s\": {\"count\": %d, \"mean_us\": %.2f, \"p99_us\": %.2f, \"ops\": %d}%s\n" name
        (Tell_sim.Stats.Histogram.count hist)
        (Tell_sim.Stats.Histogram.mean hist /. 1e3)
        (float_of_int (Tell_sim.Stats.Histogram.percentile hist 99.0) /. 1e3)
        ops
        (if i < n_phases - 1 then "," else ""))
    detail.d_phases;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf

(* Shared options *)
let mix_arg =
  Arg.(value & opt string "standard" & info [ "mix" ] ~doc:"Workload mix: standard|read|shardable")

let warehouses_arg = Arg.(value & opt int 32 & info [ "warehouses"; "w" ] ~doc:"TPC-C warehouses")
let measure_arg = Arg.(value & opt int 600 & info [ "measure-ms" ] ~doc:"Measurement window (virtual ms)")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic simulation seed")

(* tell subcommand *)
let tell_cmd =
  let run pns sns cms rf threads net buffer mix warehouses measure seed json =
    let net =
      match Tell_sim.Net.profile_of_string net with
      | Some p -> p
      | None -> invalid_arg ("unknown network: " ^ net)
    in
    let buffer =
      match String.lowercase_ascii buffer with
      | "tb" -> Tell_core.Buffer_pool.Transaction_buffer
      | "sb" -> Tell_core.Buffer_pool.Shared_record_buffer { capacity = 100_000 }
      | "sbvs10" -> Tell_core.Buffer_pool.Shared_vs_buffer { capacity = 100_000; unit_size = 10 }
      | "sbvs1000" -> Tell_core.Buffer_pool.Shared_vs_buffer { capacity = 100_000; unit_size = 1000 }
      | other -> invalid_arg ("unknown buffer strategy: " ^ other)
    in
    let c =
      {
        Scenarios.default_tell with
        n_pns = pns;
        n_sns = sns;
        n_cms = cms;
        rf;
        threads_per_pn = threads;
        net;
        buffer;
        mix = mix_of_string mix;
        warehouses;
        measure_ns = measure * 1_000_000;
        seed;
      }
    in
    let outcome, detail = Scenarios.run_tell_detailed c in
    print_outcome "tell" (Scenarios.tell_cores c) outcome;
    print_detail detail outcome;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (json_of_run c detail outcome);
        close_out oc;
        Printf.printf "  wrote %s\n" path)
      json
  in
  let pns = Arg.(value & opt int 4 & info [ "pns" ] ~doc:"Processing nodes") in
  let sns = Arg.(value & opt int 7 & info [ "sns" ] ~doc:"Storage nodes") in
  let cms = Arg.(value & opt int 1 & info [ "cms" ] ~doc:"Commit managers") in
  let rf = Arg.(value & opt int 1 & info [ "rf" ] ~doc:"Replication factor") in
  let threads = Arg.(value & opt int 8 & info [ "threads" ] ~doc:"Worker threads per PN") in
  let net = Arg.(value & opt string "infiniband" & info [ "net" ] ~doc:"infiniband|ethernet") in
  let buffer = Arg.(value & opt string "tb" & info [ "buffer" ] ~doc:"TB|SB|SBVS10|SBVS1000") in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~doc:"Write a machine-readable run summary to $(docv)" ~docv:"FILE")
  in
  Cmd.v (Cmd.info "tell" ~doc:"Run TPC-C on the Tell shared-data database")
    Term.(
      const run $ pns $ sns $ cms $ rf $ threads $ net $ buffer $ mix_arg $ warehouses_arg
      $ measure_arg $ seed_arg $ json)

(* voltdb subcommand *)
let voltdb_cmd =
  let run nodes k mix warehouses measure seed =
    let c =
      {
        Scenarios.default_voltdb with
        v_nodes = nodes;
        v_k_factor = k;
        v_mix = mix_of_string mix;
        v_warehouses = warehouses;
        v_measure_ns = measure * 1_000_000;
        v_seed = seed;
      }
    in
    print_outcome "voltdb" (Scenarios.voltdb_cores c) (Scenarios.run_voltdb c)
  in
  let nodes = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Cluster nodes") in
  let k = Arg.(value & opt int 0 & info [ "k" ] ~doc:"K-factor (extra replicas)") in
  Cmd.v (Cmd.info "voltdb" ~doc:"Run TPC-C on the VoltDB baseline model")
    Term.(const run $ nodes $ k $ mix_arg $ warehouses_arg $ measure_arg $ seed_arg)

(* mysql subcommand *)
let ndb_cmd =
  let run dn sql replicas mix warehouses measure seed =
    let c =
      {
        Scenarios.default_ndb with
        m_data_nodes = dn;
        m_sql_nodes = sql;
        m_replicas = replicas;
        m_mix = mix_of_string mix;
        m_warehouses = warehouses;
        m_measure_ns = measure * 1_000_000;
        m_seed = seed;
      }
    in
    print_outcome "mysql-cluster" (Scenarios.ndb_cores c) (Scenarios.run_ndb c)
  in
  let dn = Arg.(value & opt int 3 & info [ "data-nodes" ] ~doc:"NDB data nodes") in
  let sql = Arg.(value & opt int 2 & info [ "sql-nodes" ] ~doc:"SQL nodes") in
  let replicas = Arg.(value & opt int 1 & info [ "replicas" ] ~doc:"Fragment replicas") in
  Cmd.v (Cmd.info "mysql" ~doc:"Run TPC-C on the MySQL Cluster baseline model")
    Term.(const run $ dn $ sql $ replicas $ mix_arg $ warehouses_arg $ measure_arg $ seed_arg)

(* fdb subcommand *)
let fdb_cmd =
  let run nodes replicas mix warehouses measure seed =
    let c =
      {
        Scenarios.default_fdb with
        f_nodes = nodes;
        f_replicas = replicas;
        f_mix = mix_of_string mix;
        f_warehouses = warehouses;
        f_measure_ns = measure * 1_000_000;
        f_seed = seed;
      }
    in
    print_outcome "foundationdb" (Scenarios.fdb_cores c) (Scenarios.run_fdb c)
  in
  let nodes = Arg.(value & opt int 3 & info [ "nodes" ] ~doc:"Nodes per layer") in
  let replicas = Arg.(value & opt int 3 & info [ "replicas" ] ~doc:"Redundancy mode") in
  Cmd.v (Cmd.info "fdb" ~doc:"Run TPC-C on the FoundationDB baseline model")
    Term.(const run $ nodes $ replicas $ mix_arg $ warehouses_arg $ measure_arg $ seed_arg)

(* experiment subcommand *)
let experiment_cmd =
  let run name quick =
    let intensity = if quick then Experiments.Quick else Experiments.Full in
    Experiments.by_name name intensity
  in
  let exp_name =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "One of: %s, all" (String.concat ", " Experiments.names)))
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced sweep for fast runs") in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate a table/figure of the paper")
    Term.(const run $ exp_name $ quick)

let () =
  let doc = "TPC-C benchmarks for the Tell shared-data database reproduction" in
  let info = Cmd.info "tell_bench" ~version:"1.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ tell_cmd; voltdb_cmd; ndb_cmd; fdb_cmd; experiment_cmd ]))
