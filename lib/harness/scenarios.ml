(* Deployment descriptions and runners for the benchmark experiments: one
   function per engine that builds a fresh simulated cluster, loads TPC-C,
   drives the workload, and returns the driver report together with the
   paper's core-count accounting. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core
module Tpcc = Tell_tpcc
module B = Tell_baselines

type outcome = Report of Tpcc.Driver.report | Out_of_memory

let committed_tpmc = function Report r -> Tpcc.Driver.tpmc r | Out_of_memory -> 0.0

(* --- Tell ----------------------------------------------------------------------- *)

type tell_config = {
  n_pns : int;
  n_sns : int;
  n_cms : int;
  rf : int;
  pn_cores : int;
  sn_cores : int;
  threads_per_pn : int;
  net : Sim.Net.profile;
  buffer : Buffer_pool.strategy;
  sn_capacity_bytes : int;
  warehouses : int;
  mix : Tpcc.Spec.mix;
  warmup_ns : int;
  measure_ns : int;
  seed : int;
  notify_flush_window_ns : int;
  begin_window_ns : int;
  index_flush_interval_ns : int;
  index_flush_threshold_bytes : int;
}

let default_tell =
  {
    n_pns = 1;
    n_sns = 7;
    n_cms = 1;
    rf = 1;
    pn_cores = 4;
    sn_cores = 4;
    threads_per_pn = 8;
    net = Sim.Net.infiniband;
    buffer = Buffer_pool.Transaction_buffer;
    sn_capacity_bytes = 64 * 1024 * 1024 * 1024;
    warehouses = 32;
    mix = Tpcc.Spec.standard_mix;
    warmup_ns = 150_000_000;
    measure_ns = 600_000_000;
    seed = 42;
    notify_flush_window_ns = Pn.default_notify_flush_window_ns;
    begin_window_ns = Pn.default_begin_window_ns;
    index_flush_interval_ns = Index_flusher.default_flush_interval_ns;
    index_flush_threshold_bytes = Index_flusher.default_flush_threshold_bytes;
  }

(* Core accounting of §6.4: 4-core PNs and SNs (one NUMA unit), 2-core
   commit managers, one 2-core management node. *)
let tell_cores c = (4 * c.n_pns) + (4 * c.n_sns) + (2 * c.n_cms) + 2

let scale_of c = Tpcc.Spec.sim_scale ~warehouses:c.warehouses

(* Aggregated commit-pipeline instrumentation of one Tell run: store-client
   counters summed over the PNs plus the merged per-phase breakdown. *)
type tell_detail = {
  d_requests : int;  (** store requests sent by all PN clients *)
  d_ops : int;  (** operations carried by those requests *)
  d_begins : int;  (** transactions started on all PNs *)
  d_begin_rpcs : int;  (** commit-manager start RPCs those begins cost *)
  d_stale_bounces : int;
      (** wrong-master/fenced bounces the PN clients absorbed by refreshing
          the directory and retrying (elastic migrations make these routine) *)
  d_unit_cell_give_ups : int;
      (** SBVS unit-cell grows that exhausted their LL/SC attempts, summed
          over the PNs (0 under the other buffering strategies) *)
  d_begin_dist : (int * int) list;
      (** begins served per commit manager (manager id, begins), summed
          over the PNs and sorted by id — the §4.2 load spread across the
          interval-partitioned managers *)
  d_phases : (string * Sim.Stats.Histogram.t * int) list;
  d_flusher_requests : int;
      (** store requests the index flusher sent (included in [d_requests]) *)
  d_flusher_messages : int;  (** Bε messages the flusher applied to leaves *)
  d_flusher_deferrals : int;
      (** flushes that ran out of routing rounds and left their stripe for
          a later sweep *)
}

let run_tell_detailed (c : tell_config) =
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
          ~notify_flush_window_ns:c.notify_flush_window_ns
          ~begin_window_ns:c.begin_window_ns ())
  in
  let scale = scale_of c in
  let _ = Tpcc.Loader.load (Database.cluster db) ~scale ~seed:(c.seed + 1) in
  let tell = Tpcc.Tell_engine.create db ~pns ~scale in
  let config =
    {
      Tpcc.Driver.terminals = c.n_pns * c.threads_per_pn;
      warmup_ns = c.warmup_ns;
      measure_ns = c.measure_ns;
      seed = c.seed + 2;
    }
  in
  let outcome =
    match
      Tpcc.Driver.run
        (module Tpcc.Tell_engine : Tpcc.Engine_intf.ENGINE
          with type t = Tpcc.Tell_engine.t
           and type conn = Tpcc.Tell_engine.conn)
        tell ~engine ~scale ~mix:c.mix ~config ()
    with
    | report -> Report report
    | exception Kv.Op.Capacity_exceeded _ -> Out_of_memory
  in
  let merged = Sim.Stats.Breakdown.create Pn.commit_phases in
  List.iter
    (fun pn -> Sim.Stats.Breakdown.merge_into ~src:(Pn.commit_stats pn) ~dst:merged)
    pns;
  let flusher = Database.index_flusher db in
  let flusher_requests = Kv.Client.requests_sent (Index_flusher.kv flusher) in
  let detail =
    {
      (* Store traffic is PN clients + the index flusher's management
         client: flush-induced leaf and inner-node writes are real
         storage-bandwidth spend even though they sit on no
         transaction's phase. *)
      d_requests =
        List.fold_left (fun a pn -> a + Kv.Client.requests_sent (Pn.kv pn)) flusher_requests pns;
      d_ops =
        List.fold_left
          (fun a pn -> a + Kv.Client.ops_sent (Pn.kv pn))
          (Kv.Client.ops_sent (Index_flusher.kv flusher))
          pns;
      d_begins = List.fold_left (fun a pn -> a + fst (Pn.begin_stats pn)) 0 pns;
      d_begin_rpcs = List.fold_left (fun a pn -> a + snd (Pn.begin_stats pn)) 0 pns;
      d_stale_bounces =
        List.fold_left (fun a pn -> a + Kv.Client.stale_master_bounces (Pn.kv pn)) 0 pns;
      d_unit_cell_give_ups =
        List.fold_left (fun a pn -> a + Buffer_pool.unit_cell_give_ups (Pn.pool pn)) 0 pns;
      d_begin_dist =
        (let dist = Hashtbl.create 4 in
         List.iter
           (fun pn ->
             List.iter
               (fun (cm, n) ->
                 Hashtbl.replace dist cm (n + Option.value ~default:0 (Hashtbl.find_opt dist cm)))
               (Pn.begin_distribution pn))
           pns;
         List.sort compare (Hashtbl.fold (fun cm n acc -> (cm, n) :: acc) dist []));
      d_phases = Sim.Stats.Breakdown.phases merged;
      d_flusher_requests = flusher_requests;
      d_flusher_messages = (Index_flusher.stats flusher).messages_applied;
      d_flusher_deferrals = (Index_flusher.stats flusher).deferrals;
    }
  in
  (outcome, detail)

let run_tell c = fst (run_tell_detailed c)

(* --- VoltDB ---------------------------------------------------------------------- *)

type voltdb_config = {
  v_nodes : int;
  v_k_factor : int;
  v_terminals_per_node : int;
  v_warehouses : int;
  v_mix : Tpcc.Spec.mix;
  v_warmup_ns : int;
  v_measure_ns : int;
  v_seed : int;
}

let default_voltdb =
  {
    v_nodes = 3;
    v_k_factor = 0;
    v_terminals_per_node = 20;
    v_warehouses = 32;
    v_mix = Tpcc.Spec.standard_mix;
    v_warmup_ns = 150_000_000;
    v_measure_ns = 600_000_000;
    v_seed = 42;
  }

let voltdb_cores c = 8 * c.v_nodes

let run_voltdb (c : voltdb_config) =
  let engine = Sim.Engine.create () in
  let scale = Tpcc.Spec.sim_scale ~warehouses:c.v_warehouses in
  let volt =
    B.Voltdb_model.create engine
      ~config:
        { B.Voltdb_model.default_config with n_nodes = c.v_nodes; k_factor = c.v_k_factor; seed = c.v_seed }
      ~scale
  in
  let config =
    {
      Tpcc.Driver.terminals = c.v_nodes * c.v_terminals_per_node;
      warmup_ns = c.v_warmup_ns;
      measure_ns = c.v_measure_ns;
      seed = c.v_seed + 2;
    }
  in
  Report
    (Tpcc.Driver.run
       (module B.Voltdb_model : Tpcc.Engine_intf.ENGINE
         with type t = B.Voltdb_model.t
          and type conn = B.Voltdb_model.conn)
       volt ~engine ~scale ~mix:c.v_mix ~config ())

(* --- MySQL Cluster ---------------------------------------------------------------- *)

type ndb_config = {
  m_data_nodes : int;
  m_sql_nodes : int;
  m_replicas : int;
  m_terminals : int;
  m_warehouses : int;
  m_mix : Tpcc.Spec.mix;
  m_warmup_ns : int;
  m_measure_ns : int;
  m_seed : int;
}

let default_ndb =
  {
    m_data_nodes = 3;
    m_sql_nodes = 2;
    m_replicas = 1;
    m_terminals = 64;
    m_warehouses = 32;
    m_mix = Tpcc.Spec.standard_mix;
    m_warmup_ns = 150_000_000;
    m_measure_ns = 600_000_000;
    m_seed = 42;
  }

(* Data nodes + SQL nodes (8 cores each) + two 2-core management nodes. *)
let ndb_cores c = (8 * c.m_data_nodes) + (8 * c.m_sql_nodes) + 4

let run_ndb (c : ndb_config) =
  let engine = Sim.Engine.create () in
  let scale = Tpcc.Spec.sim_scale ~warehouses:c.m_warehouses in
  let ndb =
    B.Ndb_model.create engine
      ~config:
        {
          B.Ndb_model.default_config with
          n_data_nodes = c.m_data_nodes;
          n_sql_nodes = c.m_sql_nodes;
          replicas = c.m_replicas;
          seed = c.m_seed;
        }
      ~scale
  in
  let config =
    {
      Tpcc.Driver.terminals = c.m_terminals;
      warmup_ns = c.m_warmup_ns;
      measure_ns = c.m_measure_ns;
      seed = c.m_seed + 2;
    }
  in
  Report
    (Tpcc.Driver.run
       (module B.Ndb_model : Tpcc.Engine_intf.ENGINE
         with type t = B.Ndb_model.t
          and type conn = B.Ndb_model.conn)
       ndb ~engine ~scale ~mix:c.m_mix ~config ())

(* --- FoundationDB ------------------------------------------------------------------ *)

type fdb_config = {
  f_nodes : int;  (** per layer: storage and SQL *)
  f_replicas : int;
  f_terminals : int;
  f_warehouses : int;
  f_mix : Tpcc.Spec.mix;
  f_warmup_ns : int;
  f_measure_ns : int;
  f_seed : int;
}

let default_fdb =
  {
    f_nodes = 3;
    f_replicas = 3;
    f_terminals = 24;
    f_warehouses = 32;
    f_mix = Tpcc.Spec.standard_mix;
    f_warmup_ns = 150_000_000;
    f_measure_ns = 600_000_000;
    f_seed = 42;
  }

let fdb_cores c = 8 * c.f_nodes

let run_fdb (c : fdb_config) =
  let engine = Sim.Engine.create () in
  let scale = Tpcc.Spec.sim_scale ~warehouses:c.f_warehouses in
  let fdb =
    B.Fdb_model.create engine
      ~config:
        {
          B.Fdb_model.default_config with
          n_storage = c.f_nodes;
          n_sql = c.f_nodes;
          replicas = c.f_replicas;
          seed = c.f_seed;
        }
      ~scale
  in
  let config =
    {
      Tpcc.Driver.terminals = c.f_terminals;
      warmup_ns = c.f_warmup_ns;
      measure_ns = c.f_measure_ns;
      seed = c.f_seed + 2;
    }
  in
  Report
    (Tpcc.Driver.run
       (module B.Fdb_model : Tpcc.Engine_intf.ENGINE
         with type t = B.Fdb_model.t
          and type conn = B.Fdb_model.conn)
       fdb ~engine ~scale ~mix:c.f_mix ~config ())
