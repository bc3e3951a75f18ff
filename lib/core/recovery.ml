(* Fail-over for processing nodes and commit managers (§4.4).

   Processing nodes are crash-stop: when the management node detects a PN
   failure it starts a recovery process that discovers the failed node's
   in-flight transactions from the transaction log and rolls their
   partially applied updates back.  The lowest active version number acts
   as a rolling checkpoint: log entries below it cannot belong to an
   active transaction.

   A failure "detected" through a network partition may be false: the
   node can still be alive behind the cut, writing.  Recovery therefore
   fences before it rolls back — it bumps the cluster epoch and installs
   the failed nodes' endpoints as fenced on every storage node, so any
   write a zombie still lands after the fence bounces.  Only then is it
   sound to treat the log scan as covering everything the node did.

   The management node guarantees at most one recovery process at a time;
   a single process can handle several failed nodes (§4.4.1). *)

module Sim = Tell_sim
module Kv = Tell_kv

type t = {
  engine : Sim.Engine.t;
  cluster : Kv.Cluster.t;
  kv : Kv.Client.t;
  cms : unit -> Commit_manager.t list;
      (* current commit-manager topology, looked up per pass: managers
         crash, get replaced, and get retired while this process lives *)
  lock : Sim.Mutex.t;  (* at most one recovery pass at a time (§4.4.1) *)
  mutable recovered_txns : int;
}

let create cluster ~cms =
  let group = Kv.Cluster.mgmt_group cluster in
  let engine = Kv.Cluster.engine cluster in
  {
    engine;
    cluster;
    kv = Kv.Client.create cluster ~group;
    cms;
    lock = Sim.Mutex.create engine;
    recovered_txns = 0;
  }

let recovered_txns t = t.recovered_txns

let live_cms t = List.filter Commit_manager.alive (t.cms ())

(* The rolling checkpoint under multiple managers is the {e minimum} of
   their lavs: a transaction begun at any manager is active until that
   manager (or a management sweep) sees its decision.  No live manager at
   all means no floor — scan the whole log. *)
let global_lav t =
  match live_cms t with
  | [] -> 0
  | cms -> List.fold_left (fun acc cm -> min acc (Commit_manager.current_lav cm)) max_int cms

(* Decisions recovered from the log are broadcast to every live manager:
   each is idempotent about tids it never allocated, and only the
   allocating manager holds the tid in its active set.  Per-manager
   [Unavailable] is tolerated — an unreachable manager re-learns the
   decision from the published states or the reclamation sweep. *)
let broadcast_decision t ~tid ~committed =
  List.iter
    (fun cm ->
      try
        if committed then Commit_manager.set_committed cm ~tid ()
        else Commit_manager.set_aborted cm ~tid ()
      with Kv.Op.Unavailable _ -> ())
    (live_cms t)

(* Roll back one logged, uncommitted transaction: remove its version from
   every record in the write set, then report the abort so snapshots can
   advance past its tid. *)
let roll_back t (entry : Txlog.entry) =
  List.iter (fun key -> Rollback.remove_version t.kv ~key ~version:entry.tid) entry.write_set;
  History.note_rolled_back ~tid:entry.tid;
  Txlog.append t.kv { entry with committed = false };
  broadcast_decision t ~tid:entry.tid ~committed:false;
  t.recovered_txns <- t.recovered_txns + 1

(* Recover every uncommitted transaction of the given failed processing
   nodes.  Scans the log tail backwards from the highest known tid down to
   the lav (§4.4.1). *)
let recover_processing_nodes t ~failed_pn_ids =
  (* The management node runs at most one recovery process at a time
     (§4.4.1); a second request queues behind the current pass.  Waiting
     matters under degraded networks: a pass can spend milliseconds in
     client retries, and the caller's failed nodes may not be the ones the
     running pass was started for. *)
  Sim.Mutex.with_lock t.lock (fun () ->
      (* Fence first (zombie protection): bump the epoch and refuse, on
         every storage node, further writes carrying the failed nodes'
         old epochs.  The log scan below is only complete if nothing can
         land after it starts — a falsely-suspected node behind a
         partition would otherwise keep writing into state we are about
         to declare rolled back. *)
      (match failed_pn_ids with
      | [] -> ()
      | ids ->
          ignore
            (Kv.Cluster.fence_senders t.cluster
               ~senders:(List.map (Printf.sprintf "pn%d") ids)));
      let lav = global_lav t in
      let entries = Txlog.scan t.kv ~min_tid:lav in
      let entries = List.sort (fun (a : Txlog.entry) b -> Int.compare b.tid a.tid) entries in
      List.iter
        (fun (entry : Txlog.entry) ->
          if List.mem entry.pn_id failed_pn_ids then
            if not entry.committed then roll_back t entry
            else
              (* The entry is flagged but the PN may have died before its
                 notifier reported the commit.  Re-deliver it so the tid
                 does not linger in the allocating manager's active set
                 and wedge the lav ([set_committed] is idempotent). *)
              broadcast_decision t ~tid:entry.tid ~committed:true)
        entries)

(* Stand up a replacement commit manager (§4.4.3): restore its state from
   the published peer states and the transaction-log tail.  The dead
   instance is fenced first: if it is not dead but partitioned, its next
   store write (range refill, state publication) bounces and it
   self-fences, so two managers never serve the same identity. *)
let replace_commit_manager cluster ~dead ~fresh_id ~peers =
  if dead >= 0 then
    ignore
      (Kv.Cluster.fence_senders cluster ~senders:[ Printf.sprintf "cm%d" dead ]);
  let cm = Commit_manager.create cluster ~id:fresh_id ~peers () in
  (* If log recovery trips over a concurrent storage fail-over
     (Unavailable after retries), tear the half-recovered instance down —
     [create] already started its sync fiber, which must not keep
     publishing a partial state — and let the caller stand up another. *)
  (match Commit_manager.recover cm with
  | () -> ()
  | exception e ->
      Commit_manager.crash cm;
      raise e);
  cm
