module Sim = Tell_sim

type config = {
  n_storage_nodes : int;
  replication_factor : int;
  partitions_per_node : int;
  sn_cores : int;
  sn_capacity_bytes : int;
  net_profile : Sim.Net.profile;
  base_service_ns : int;
  per_byte_service_ns : float;
  replication_coord_ns : int;
  replication_latency_ns : int;
  client_max_batch : int;
  client_timeout_ns : int;
  detector_period_ns : int;
  lease_ns : int;
  seed : int;
}

let default_config =
  {
    n_storage_nodes = 7;
    replication_factor = 1;
    partitions_per_node = 8;
    sn_cores = 4;
    sn_capacity_bytes = 64 * 1024 * 1024 * 1024;
    net_profile = Sim.Net.infiniband;
    base_service_ns = 600;
    per_byte_service_ns = 0.12;
    replication_coord_ns = 1_500;
    replication_latency_ns = 20_000;
    client_max_batch = 64;
    client_timeout_ns = 300_000;
    detector_period_ns = 150_000;
    (* Serving-lease duration: four detector periods, so a couple of lost
       heartbeats never expire a healthy node, while a partitioned
       master's zombie window stays well under a client retry budget. *)
    lease_ns = 600_000;
    seed = 42;
  }

type t = {
  engine : Sim.Engine.t;
  config : config;
  rng : Sim.Rng.t;
  net : Sim.Net.t;
  mutable nodes : Storage_node.t array;
      (** grows when the management node adds a storage node online *)
  directory : Directory.t;
  mgmt_cpu : Sim.Resource.t;
  mgmt_group : Sim.Engine.Group.t;
  mutable handled_crashes : int list;  (** node ids already repaired *)
  mutable epoch : int;
      (** cluster epoch, owned by the management node: bumped whenever a
          member is declared dead or a partition cutover deposes its
          master, so their in-flight writes can be fenced *)
  mutable granted_lease : int array;
      (** per node: the last serving-lease deadline the management node
          handed out (0 = never).  A fenced cutover of an unreachable
          master waits this out before re-pointing its partitions. *)
  mutable evaluator : (program:string -> key:Op.key -> data:string -> string option) option;
      (** remembered so nodes added online get the push-down evaluator too *)
  mutable migrations_done : int;
  commit_manager_ids : (int, unit) Hashtbl.t;
      (** registry of commit-manager ids currently serving on this
          cluster's network — the kv layer never calls a manager, but the
          fault harness and topology tooling need the full endpoint list
          without holding the core-layer objects.  A replacement
          re-registers the same id (idempotent); retirement removes it. *)
  deposed : (int, int) Hashtbl.t;
      (** partition -> source currently being deposed by a migration
          cutover (retire-to-flip critical section).  Consulted by
          {!tables_for}: without it, the lease-renewal heartbeat — which
          recomputes tables from the directory, and the directory still
          names the source until the flip — would re-install the
          partition into the retired source's master table, reviving it
          as a zombie that acks unreplicated writes. *)
}

(* "sn<i>", built once per id: every request names its endpoints.  The
   table grows on first use of a new id, e.g. a storage node added online. *)
let sn_names = ref [||]

let sn_endpoint i =
  if i >= Array.length !sn_names then
    sn_names := Array.init (max (i + 1) (2 * Array.length !sn_names)) (fun j -> "sn" ^ string_of_int j);
  !sn_names.(i)

let mgmt_endpoint = "mgmt"

let register_commit_manager t ~cm_id = Hashtbl.replace t.commit_manager_ids cm_id ()
let unregister_commit_manager t ~cm_id = Hashtbl.remove t.commit_manager_ids cm_id

(* The ownership tables the directory implies for node [i] — optionally
   computed as if node [i] had already been deposed as master of
   partition [without] (the retire step of a migration cutover).  The
   deposed partition stays in the {e replica} table: the node must keep
   its cells until after the flip — the cutover's delta copy reads them —
   and the first post-flip sync prunes them naturally once the directory
   no longer lists the node in the chain. *)
let tables_for t i ~without =
  let deposed_from p =
    p = without || Hashtbl.find_opt t.deposed p = Some i
  in
  let masters = ref [] and replicas = ref [] in
  for p = Directory.n_partitions t.directory - 1 downto 0 do
    let chain = Directory.replicas t.directory p in
    (match chain with
    | m :: _ when m = i && not (deposed_from p) -> masters := p :: !masters
    | _ -> ());
    if List.mem i chain then replicas := p :: !replicas
  done;
  (!masters, !replicas)

(* Zero-cost, direct table install — the modelling idiom for management
   metadata a node re-syncs before serving (same rationale as fence
   installation): used at boot, on repair, and on the reachable members
   of a migration's new chain.  The delivery-gated path is {!sync_node}. *)
let install_tables ?(without = -1) t i =
  let masters, replicas = tables_for t i ~without in
  Storage_node.set_ownership t.nodes.(i) ~epoch:t.epoch ~masters ~replicas
    ~partition_of:(fun key -> Directory.partition_of_key t.directory key)

(* One management heartbeat to node [i]: deliver the ownership sync and
   renew the serving lease.  Returns whether the message got through —
   the delivery ack is what makes a migration retire step trustworthy
   (an unreachable node keeps its stale tables and expires instead).
   Must run inside a fiber. *)
let sync_node ?(without = -1) ?(renew = true) t i =
  if not (Storage_node.alive t.nodes.(i)) then false
  else
    match Sim.Net.send t.net ~src:mgmt_endpoint ~dst:(sn_endpoint i) ~bytes:96 with
    | `Dropped -> false
    | `Delivered ->
        install_tables ~without t i;
        if renew then begin
          let until = Sim.Engine.now t.engine + t.config.lease_ns in
          Storage_node.renew_lease t.nodes.(i) ~until;
          t.granted_lease.(i) <- until
        end;
        true

let create engine config =
  let rng = Sim.Rng.make config.seed in
  let net = Sim.Net.create engine (Sim.Rng.split rng) config.net_profile in
  let nodes =
    Array.init config.n_storage_nodes (fun id ->
        Storage_node.create engine ~id ~cores:config.sn_cores
          ~capacity_bytes:config.sn_capacity_bytes ~base_service_ns:config.base_service_ns
          ~per_byte_service_ns:config.per_byte_service_ns)
  in
  let directory =
    Directory.create
      ~n_partitions:(config.n_storage_nodes * config.partitions_per_node)
      ~n_nodes:config.n_storage_nodes ~replication_factor:config.replication_factor
  in
  let t =
    {
      engine;
      config;
      rng;
      net;
      nodes;
      directory;
      mgmt_cpu = Sim.Resource.create engine ~servers:2 "mgmt";
      mgmt_group = Sim.Engine.make_group engine "mgmt";
      handled_crashes = [];
      epoch = 1;
      granted_lease = Array.make config.n_storage_nodes 0;
      evaluator = None;
      migrations_done = 0;
      commit_manager_ids = Hashtbl.create 4;
      deposed = Hashtbl.create 4;
    }
  in
  (* Boot-time ownership sync: every node knows which partitions it
     masters, so keyed operations routed on a stale directory bounce
     explicitly instead of being answered by a deposed copy. *)
  Array.iteri (fun i _ -> install_tables t i) nodes;
  t

let engine t = t.engine
let config t = t.config
let directory t = t.directory
let node t i = t.nodes.(i)
let nodes t = t.nodes
let net t = t.net
let rng t = t.rng
let mgmt_cpu t = t.mgmt_cpu
let mgmt_group t = t.mgmt_group
let crash_node t i = Storage_node.crash t.nodes.(i)

let restart_node t i =
  Storage_node.restart t.nodes.(i);
  (* Forget the repair mark so the failure detector handles a future
     crash of this node again. *)
  t.handled_crashes <- List.filter (fun id -> id <> i) t.handled_crashes

let inject_latency_spike t ~from_ns ~until_ns ?factor ?extra_ns () =
  Sim.Net.inject_fault t.net ~from_ns ~until_ns ?factor ?extra_ns ()

(* --- epoch fencing (zombie protection) ------------------------------------ *)

let current_epoch t = t.epoch

(* Declare the named senders dead: bump the cluster epoch once and
   install [fence sender (new epoch)] on every storage node, so writes
   the senders still have in flight — tagged with the previous epoch —
   bounce.  Must complete on every node BEFORE recovery rolls the
   senders' transactions back; callers rely on that ordering.

   One management message per live node models the installation cost
   (bounded retries ride out flaky links; the fence itself is installed
   regardless — it is management metadata a dead or partitioned node
   re-syncs before it can serve again).  Must run inside a fiber. *)
let fence_senders t ~senders =
  t.epoch <- t.epoch + 1;
  let epoch = t.epoch in
  Array.iteri
    (fun i node ->
      if Storage_node.alive node then begin
        let rec push attempts =
          match
            Sim.Net.send t.net ~src:mgmt_endpoint ~dst:(sn_endpoint i) ~bytes:64
          with
          | `Delivered -> ()
          | `Dropped when attempts > 0 ->
              Sim.Engine.sleep t.engine t.config.client_timeout_ns;
              push (attempts - 1)
          | `Dropped -> ()
        in
        push 8
      end;
      List.iter (fun sender -> Storage_node.fence node ~sender ~epoch) senders)
    t.nodes;
  epoch

let min_live_replication t =
  let worst = ref max_int in
  for p = 0 to Directory.n_partitions t.directory - 1 do
    let live =
      List.fold_left
        (fun acc n -> if Storage_node.alive t.nodes.(n) then acc + 1 else acc)
        0
        (Directory.replicas t.directory p)
    in
    if live < !worst then worst := live
  done;
  if !worst = max_int then 0 else !worst

let live_nodes t =
  Array.fold_left (fun acc n -> if Storage_node.alive n then acc + 1 else acc) 0 t.nodes

let total_bytes_stored t =
  Array.fold_left
    (fun acc n -> if Storage_node.alive n then acc + Storage_node.bytes_stored n else acc)
    0 t.nodes

(* Pick the live node with the fewest partitions assigned, excluding those
   already in the chain. *)
let pick_new_backup t ~exclude =
  let load = Array.make (Array.length t.nodes) 0 in
  for p = 0 to Directory.n_partitions t.directory - 1 do
    List.iter (fun n -> load.(n) <- load.(n) + 1) (Directory.replicas t.directory p)
  done;
  let best = ref None in
  Array.iteri
    (fun i n ->
      if Storage_node.alive n && (not (Storage_node.retired n)) && not (List.mem i exclude)
      then
        match !best with
        | Some (_, l) when l <= load.(i) -> ()
        | _ -> best := Some (i, load.(i)))
    t.nodes;
  Option.map fst !best

(* Bulk-copy partition [p]'s cells from its (new) master to node [target].
   The copy streams over the network with bandwidth cost, then installs;
   concurrent writes reach the target too because it is already listed in
   the chain, and [Storage_node.load] never overwrites a newer token. *)
let re_replicate t ~partition ~target =
  let master_id = Directory.master t.directory partition in
  let master = t.nodes.(master_id) in
  (* Catch-up window: the transfer suspends, and a [Remove] replicated to
     the target meanwhile would be resurrected by the (older) snapshot —
     a load can add and advance cells but never delete (see
     [Storage_node.begin_catchup]). *)
  Storage_node.begin_catchup t.nodes.(target) ~partition;
  let belongs key = Directory.partition_of_key t.directory key = partition in
  let cells = List.filter (fun (k, _, _) -> belongs k) (Storage_node.snapshot master) in
  let bytes =
    List.fold_left (fun acc (k, v, _) -> acc + String.length k + String.length v + 16) 64 cells
  in
  Sim.Net.transfer t.net ~bytes;
  if Storage_node.alive t.nodes.(target) then
    Storage_node.end_catchup t.nodes.(target) ~partition ~entries:cells

let repair_after_crash t ~dead =
  for p = 0 to Directory.n_partitions t.directory - 1 do
    let chain = Directory.replicas t.directory p in
    if List.mem dead chain then begin
      let survivors = List.filter (fun n -> n <> dead) chain in
      match survivors with
      | [] ->
          (* RF1: the partition's data is lost; keep routing somewhere so
             the system stays available for new writes. *)
          (match pick_new_backup t ~exclude:[] with
          | Some fresh ->
              Storage_node.set_serving t.nodes.(fresh) true;
              Directory.set_replicas t.directory p [ fresh ];
              install_tables t fresh
          | None -> ())
      | _ :: _ -> (
          match pick_new_backup t ~exclude:survivors with
          | Some fresh ->
              Storage_node.set_serving t.nodes.(fresh) true;
              Directory.set_replicas t.directory p (survivors @ [ fresh ]);
              List.iter (fun n -> install_tables t n) (survivors @ [ fresh ]);
              re_replicate t ~partition:p ~target:fresh
          | None ->
              Directory.set_replicas t.directory p survivors;
              List.iter (fun n -> install_tables t n) survivors)
    end
  done

let set_pushdown_evaluator t evaluate =
  t.evaluator <- Some evaluate;
  Array.iter (fun node -> Storage_node.set_evaluator node evaluate) t.nodes

let poke t ~key ~data =
  let p = Directory.partition_of_key t.directory key in
  List.iter
    (fun sn_id -> Storage_node.load t.nodes.(sn_id) [ (key, data, 1) ])
    (Directory.replicas t.directory p)

let poke_counter t ~key ~value = poke t ~key ~data:(Storage_node.encode_counter value)

let peek t ~key =
  let p = Directory.partition_of_key t.directory key in
  let master = t.nodes.(Directory.master t.directory p) in
  Option.map fst (Storage_node.find master key)

let start_failure_detector t =
  Sim.Engine.spawn t.engine ~group:t.mgmt_group (fun () ->
      while true do
        Sim.Engine.sleep t.engine t.config.detector_period_ns;
        Array.iteri
          (fun i n ->
            if (not (Storage_node.alive n)) && not (List.mem i t.handled_crashes) then begin
              t.handled_crashes <- i :: t.handled_crashes;
              (* Heartbeat timeout already elapsed implicitly: the detector
                 period bounds detection latency. *)
              Sim.Resource.use t.mgmt_cpu ~demand:10_000;
              repair_after_crash t ~dead:i
            end)
          t.nodes
      done);
  (* Lease-renewal heartbeat, deliberately a separate fiber: a repair
     streaming partition copies must not starve the healthy nodes'
     serving leases.  Each tick re-syncs every reachable node's ownership
     tables and extends its lease; a node the management node cannot
     reach silently expires — which is exactly what bounds the zombie
     window of a partitioned master. *)
  Sim.Engine.spawn t.engine ~group:t.mgmt_group (fun () ->
      while true do
        Sim.Engine.sleep t.engine t.config.detector_period_ns;
        for i = 0 to Array.length t.nodes - 1 do
          ignore (sync_node t i)
        done
      done)

(* --- elastic storage tier (online add / drain / migrate) ------------------ *)

let migrations_done t = t.migrations_done

(* Register a new, empty storage node with the next id.  It serves scans
   (trivially empty) immediately but masters nothing until a migration
   grants it partitions. *)
let add_storage_node t =
  let id = Array.length t.nodes in
  let node =
    Storage_node.create t.engine ~id ~cores:t.config.sn_cores
      ~capacity_bytes:t.config.sn_capacity_bytes ~base_service_ns:t.config.base_service_ns
      ~per_byte_service_ns:t.config.per_byte_service_ns
  in
  (match t.evaluator with Some e -> Storage_node.set_evaluator node e | None -> ());
  t.nodes <- Array.append t.nodes [| node |];
  t.granted_lease <- Array.append t.granted_lease [| 0 |];
  install_tables t id;
  id

(* Stream partition [partition]'s current cells from [source] to [target]
   while the old chain keeps serving.  Acked send: a cut link or a crash
   surfaces as a failed copy, never as silently missing data.  The target
   queues the live replication stream for the partition while the copy is
   in flight (snapshot and [begin_catchup] sit in one suspension-free
   block) and replays it over the loaded cells — without that, an install
   delivered between snapshot and load could be undone by the load (a
   [Remove]'s drop has no tombstone for the load's token-max guard to
   see, so the stale snapshot would resurrect the cell). *)
let copy_partition t ~partition ~source ~target =
  if not (Storage_node.alive t.nodes.(source) && Storage_node.alive t.nodes.(target)) then
    false
  else begin
    Storage_node.begin_catchup t.nodes.(target) ~partition;
    let belongs key = Directory.partition_of_key t.directory key = partition in
    let cells =
      List.filter (fun (k, _, _) -> belongs k) (Storage_node.snapshot t.nodes.(source))
    in
    let bytes =
      List.fold_left (fun acc (k, v, _) -> acc + String.length k + String.length v + 16) 64 cells
    in
    let finish entries =
      if Storage_node.alive t.nodes.(target) then
        Storage_node.end_catchup t.nodes.(target) ~partition ~entries
    in
    match Sim.Net.send t.net ~src:(sn_endpoint source) ~dst:(sn_endpoint target) ~bytes with
    | `Dropped ->
        finish [];
        false
    | `Delivered ->
        if Storage_node.alive t.nodes.(target) then begin
          finish cells;
          true
        end
        else false
  end

(* Sleep until the last serving lease granted to node [i] has expired: a
   deposed master that cannot be reached (zombie) is guaranteed to have
   stopped answering before its partitions are re-pointed. *)
let wait_lease_expiry t i =
  let deadline = t.granted_lease.(i) in
  if deadline > 0 then begin
    let now = Sim.Engine.now t.engine in
    if deadline >= now then Sim.Engine.sleep t.engine (deadline - now + 1)
  end

(* Live partition migration: add the target (and any fresh backups needed
   to keep the replication factor) to the chain as learners — from then
   on they receive the live replication stream — bulk-copy the existing
   cells underneath ([Storage_node.load] never steps tokens backwards, so
   the two streams merge), then perform the fenced cutover:

     1. retire the source: a delivery-acked ownership sync that deposes
        it as master of the partition (it keeps the cells but bounces
        further keyed operations); if the source is unreachable, fence
        its chain-replication identity and wait out its serving lease
        instead — writes it mastered before the cutover bounce on the
        new chain, and no client can still be answered by it;
     2. delta copy: re-copy the now-quiescent source's cells to every
        learner.  Writes the source applied just before retiring can
        still be in flight in the replication stream at this point; if
        the flip happened first, the new master could write on the stale
        token lineage and the late replica install would be skipped by
        the load token guard — silently losing the source's final
        writes.  The delta copy closes that window: after it, every
        learner token dominates every in-flight install;
     3. flip: bump the cluster epoch, re-point the directory chain and
        grant the new chain its ownership tables, all without a
        suspension point — no fiber can observe a half-flipped
        configuration.  The source's copy of the cells is pruned by the
        next ownership sync the failure detector delivers it.

   Clients that still route on the old directory get [Wrong_master]
   bounces (refresh-and-retry); nothing times out and no committed write
   is lost.  Aborts cleanly (restoring the old chain) if the copy fails
   or a concurrent crash repair supersedes it. *)
let migrate_partition t ~partition ~target =
  let dir = t.directory in
  let old_chain = Directory.replicas dir partition in
  match old_chain with
  | [] -> `Aborted "partition has no chain"
  | source :: _ when source = target -> `Done
  | source :: _ ->
      if not (Storage_node.alive t.nodes.(target)) || Storage_node.retired t.nodes.(target)
      then `Aborted "target not available"
      else begin
        let final =
          ref
            (target
            :: List.filter
                 (fun n -> n <> source && n <> target && Storage_node.alive t.nodes.(n))
                 old_chain)
        in
        (try
           while List.length !final < t.config.replication_factor do
             match pick_new_backup t ~exclude:(source :: !final) with
             | Some fresh -> final := !final @ [ fresh ]
             | None -> raise Exit
           done
         with Exit -> ());
        let final = !final in
        let joiners = List.filter (fun n -> not (List.mem n old_chain)) final in
        (* Bulk-copy targets: fresh joiners, plus any chain member whose
           previous copy never completed (a migration cancelled mid-copy
           leaves the member with an open catch-up window and a partial
           store — it must not be trusted as caught-up just because a
           past attempt already linked it into the chain). *)
        let copy_targets =
          List.filter
            (fun n ->
              n <> source
              && ((not (List.mem n old_chain))
                 || Storage_node.catchup_pending t.nodes.(n) ~partition))
            final
        in
        if joiners <> [] then begin
          Directory.set_replicas dir partition (old_chain @ joiners);
          List.iter (fun l -> install_tables t l) joiners
        end;
        let copied =
          List.for_all (fun l -> copy_partition t ~partition ~source ~target:l) copy_targets
        in
        let superseded () =
          (* A concurrent crash repair re-shaped the chain (source or a
             member died mid-copy): let the repair own the partition. *)
          (not (Storage_node.alive t.nodes.(source)))
          || Directory.master dir partition <> source
        in
        if superseded () then `Aborted "superseded by crash repair"
        else if not copied then begin
          Directory.set_replicas dir partition old_chain;
          List.iter
            (fun l -> if Storage_node.alive t.nodes.(l) then install_tables t l)
            joiners;
          `Aborted "bulk copy failed"
        end
        else begin
          (* Retire-to-flip critical section.  Register the deposition
             first: from here until the flip the directory still names
             the source as master, and a concurrent lease-renewal
             heartbeat recomputing its tables from the directory would
             otherwise re-empower the retired source — a zombie master
             that acks writes [replicate] no longer routes anywhere.
             Cleared on every exit, including cancellation of the
             migration fiber mid-cutover (the next heartbeat then
             restores the source, which merely un-retires it). *)
          Hashtbl.replace t.deposed partition source;
          Fun.protect ~finally:(fun () -> Hashtbl.remove t.deposed partition)
          @@ fun () ->
          let retired_cleanly = sync_node ~without:partition ~renew:true t source in
          let delta_ok =
            if retired_cleanly then
              (* Delta copy from the quiescent source (step 2 above) to
                 EVERY member of the new chain, not just the learners:
                 after it, each member's cell tokens match the source's
                 final state exactly, so a replica install still in
                 flight at the flip is skipped identically everywhere
                 (token-max) and the new master's next write strictly
                 dominates it — no member can diverge by applying a
                 pre-cutover install the others rejected. *)
              List.for_all
                (fun l -> copy_partition t ~partition ~source ~target:l)
                final
            else begin
              (* Unreachable source: fence its replication identity and
                 wait out its serving lease.  No delta copy is possible
                 (or needed): the source only acked a batch once its
                 replica installs were delivered chain-wide — learners
                 included — so every acknowledged write already sits on
                 the final chain, and anything it applies during the
                 zombie window bounces there with [Fenced]. *)
              ignore (fence_senders t ~senders:[ sn_endpoint source ]);
              wait_lease_expiry t source;
              true
            end
          in
          if superseded () && not retired_cleanly then
            (* The source died while we were deposing it; crash repair has
               (or will) re-point the partition. *)
            `Aborted "superseded by crash repair"
          else if retired_cleanly && not delta_ok then begin
            if superseded () then `Aborted "superseded by crash repair"
            else begin
              (* The cleanly retired source is still authoritative; undo
                 the retire and hand the partition back rather than flip
                 onto learners that may have missed its final writes.
                 Deposition lifted first so the re-install empowers. *)
              Hashtbl.remove t.deposed partition;
              Directory.set_replicas dir partition old_chain;
              install_tables t source;
              List.iter
                (fun l -> if Storage_node.alive t.nodes.(l) then install_tables t l)
                joiners;
              `Aborted "delta copy failed"
            end
          end
          else begin
            (* Atomic flip: no suspension point from here to the end. *)
            t.epoch <- t.epoch + 1;
            Directory.set_replicas dir partition final;
            List.iter
              (fun n -> if Storage_node.alive t.nodes.(n) then install_tables t n)
              final;
            t.migrations_done <- t.migrations_done + 1;
            `Done
          end
        end
      end

(* Move every partition off node [sn]: mastered partitions migrate to the
   senior surviving backup (which already holds the data — a fresh
   learner tops the chain back up inside the same migration), backup
   memberships are swapped for a freshly copied replacement.  The node is
   marked retired (never again a chain candidate) and stops serving once
   nothing routes to it. *)
let drain_storage_node t ~sn =
  let dir = t.directory in
  let failures = ref 0 in
  for p = 0 to Directory.n_partitions dir - 1 do
    let chain = Directory.replicas dir p in
    if List.mem sn chain then begin
      match chain with
      | [] -> ()
      | master :: _ when master = sn -> (
          let target =
            match List.filter (fun n -> n <> sn && Storage_node.alive t.nodes.(n)) chain with
            | b :: _ -> Some b
            | [] -> pick_new_backup t ~exclude:[ sn ]
          in
          match target with
          | None -> incr failures
          | Some target -> (
              match migrate_partition t ~partition:p ~target with
              | `Done -> ()
              | `Aborted _ -> incr failures))
      | master :: _ -> (
          (* Backup membership: swap in a replacement learner; no
             mastership change, so no fenced cutover is needed. *)
          match pick_new_backup t ~exclude:(sn :: chain) with
          | None -> incr failures
          | Some fresh ->
              Directory.set_replicas dir p (chain @ [ fresh ]);
              install_tables t fresh;
              if copy_partition t ~partition:p ~source:master ~target:fresh then begin
                let kept = List.filter (fun n -> n <> sn) chain in
                Directory.set_replicas dir p (kept @ [ fresh ]);
                List.iter
                  (fun n -> if Storage_node.alive t.nodes.(n) then install_tables t n)
                  (sn :: kept @ [ fresh ])
              end
              else begin
                Directory.set_replicas dir p chain;
                if Storage_node.alive t.nodes.(fresh) then install_tables t fresh;
                incr failures
              end)
    end
  done;
  if !failures = 0 then begin
    Storage_node.set_retired t.nodes.(sn) true;
    Storage_node.set_serving t.nodes.(sn) false;
    `Done
  end
  else `Aborted (Printf.sprintf "%d partitions could not be moved" !failures)

(* Even out mastership onto [target] (typically a node just added): keep
   migrating the lowest-numbered partition of the currently most-loaded
   master until [target] holds a fair share.  Returns (moved, failed). *)
let rebalance_onto t ~target =
  let dir = t.directory in
  let candidates =
    Array.fold_left
      (fun acc n ->
        if Storage_node.alive n && not (Storage_node.retired n) then acc + 1 else acc)
      0 t.nodes
  in
  let share = Directory.n_partitions dir / max 1 candidates in
  let moved = ref 0 and failed = ref 0 in
  let continue_ = ref true in
  while !continue_ && !moved < share do
    let masters = Array.make (Array.length t.nodes) 0 in
    for p = 0 to Directory.n_partitions dir - 1 do
      let m = Directory.master dir p in
      masters.(m) <- masters.(m) + 1
    done;
    let busiest = ref None in
    Array.iteri
      (fun i n ->
        if i <> target && Storage_node.alive n then
          match !busiest with
          | Some (_, l) when l >= masters.(i) -> ()
          | _ -> busiest := Some (i, masters.(i)))
      t.nodes;
    match !busiest with
    | Some (src, load) when load > masters.(target) + 1 -> (
        let p = ref (-1) in
        (try
           for q = 0 to Directory.n_partitions dir - 1 do
             if Directory.master dir q = src then begin
               p := q;
               raise Exit
             end
           done
         with Exit -> ());
        match migrate_partition t ~partition:!p ~target with
        | `Done -> incr moved
        | `Aborted _ ->
            incr failed;
            continue_ := false)
    | _ -> continue_ := false
  done;
  (!moved, !failed)
