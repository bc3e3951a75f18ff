module Sim = Tell_sim
module Kv = Tell_kv
module ISet = Set.Make (Int)

type start_reply = { tid : int; snapshot : Version_set.t; lav : int }

(* Test-only weakened-merge mutants (mutation battery, DESIGN.md §7/§8):
   each models a shortcut a sloppy multi-manager implementation could
   take, and each must be rejected by the history checker with a witness
   cycle.  [Skip_descriptor_merge] is the "don't wait for the peers'
   descriptors, just assume their intervals are decided" shortcut: begins
   serve a base covering every tid this manager has ever seen allocated,
   admitting in-flight and aborted transactions into snapshots.
   [Overlapping_ranges] breaks the interval partition itself: every range
   refill reaches back over the previously allocated range, so two
   managers hand out the same tids. *)
type merge_mutant = Skip_descriptor_merge | Overlapping_ranges

let merge_mutant : merge_mutant option ref = ref None
let unsafe_set_merge_mutant m = merge_mutant := m

type t = {
  cluster : Kv.Cluster.t;
  engine : Sim.Engine.t;
  id : int;
  mutable peers : int list;
  group : Sim.Engine.Group.t;
  cpu : Sim.Resource.t;
  kv : Kv.Client.t;
  range_size : int;
  sync_interval_ns : int;
  retire_after_ns : int;
  lease_ns : int;
      (* how stale a peer's merged descriptor may be before a begin
         triggers an inline store pull (§6.3.3 sync + short leases) *)
  mutable range_start : int;  (* first tid of the current range *)
  mutable range_next : int;
  mutable range_end : int;  (* exclusive *)
  mutable range_acquired_at : int;
  mutable range_refill : unit Sim.Ivar.t option;
  mutable decided_base : int;
  decided : (int, bool) Hashtbl.t;  (* tid > decided_base -> committed? *)
  mutable committed_above : ISet.t;
  mutable cached_snapshot : Version_set.t option;
  active : (int, int * Sim.Engine.Group.t) Hashtbl.t;
      (* tid -> (snapshot base at start, originating PN's fiber group) *)
  mutable peer_lavs : (int, int) Hashtbl.t;
  peer_descriptors : (int, Version_set.t) Hashtbl.t;
      (* each peer's last merged snapshot descriptor, kept verbatim: the
         begin-time visible set is the union of all of them plus ours *)
  peer_seen_at : (int, int) Hashtbl.t;
      (* when each peer's published state was last merged (gossip pull,
         inline refresh, or recovery scan) — the lease clock *)
  mutable last_inline_refresh : int;
  mutable begin_refreshes : int;  (* inline lease-expiry pulls at begin *)
  mutable failed_refreshes : int;  (* ... that failed and served stale *)
  mutable highest_seen : int;
      (* highest tid this manager allocated or saw decided; only the
         [Skip_descriptor_merge] mutant consults it *)
  mutable alive : bool;
  mutable fenced : bool;
      (* this instance's lease over its tid range was revoked: a
         replacement took over its identity while it was partitioned *)
}

let make cluster ~id ?(peers = []) ?(range_size = 64) ?(sync_interval_ns = 1_000_000) () =
  let engine = Kv.Cluster.engine cluster in
  let label = Printf.sprintf "cm%d" id in
  let group = Sim.Engine.make_group engine label in
  let t =
    {
      cluster;
      engine;
      id;
      peers = List.filter (fun p -> p <> id) peers;
      group;
      cpu = Sim.Resource.create engine ~servers:2 label;
      kv = Kv.Client.create cluster ~group;
      range_size;
      sync_interval_ns;
      retire_after_ns = 4 * sync_interval_ns;
      lease_ns = 4 * sync_interval_ns;
      range_start = 1;
      range_next = 1;
      range_end = 1;
      range_acquired_at = 0;
      range_refill = None;
      decided_base = 0;
      decided = Hashtbl.create 256;
      committed_above = ISet.empty;
      cached_snapshot = None;
      active = Hashtbl.create 64;
      peer_lavs = Hashtbl.create 4;
      peer_descriptors = Hashtbl.create 4;
      peer_seen_at = Hashtbl.create 4;
      last_inline_refresh = 0;
      begin_refreshes = 0;
      failed_refreshes = 0;
      highest_seen = 0;
      alive = true;
      fenced = false;
    }
  in
  (* Until a peer has published its state, its lav is unknown: treat it
     as 0, not as absent.  Otherwise [global_lav] overestimates during
     the gap (it would ignore a peer whose oldest active transaction
     still holds a low snapshot base) and eager record GC could compact
     versions that transaction can still read.  Initialising to 0 also
     makes the advertised lav monotone: late peer news can only raise
     it.  The lease clock starts at creation: a fresh manager gets one
     lease of grace before begins start pulling inline. *)
  let now = Sim.Engine.now engine in
  List.iter
    (fun p ->
      Hashtbl.replace t.peer_lavs p 0;
      Hashtbl.replace t.peer_seen_at p now)
    t.peers;
  t

let id t = t.id
let alive t = t.alive
let was_fenced t = t.fenced

let crash t =
  t.alive <- false;
  Sim.Engine.Group.kill t.group

(* The manager's lease over its tid range is the epoch fence on its own
   store writes: when the management node replaces it, every store write
   it attempts — extending its range, publishing its state — bounces
   [Fenced].  On the first bounce the instance must stop acting as a
   manager (the replacement owns its identity now); a zombie that kept
   handing out tids from its stale range would race the replacement. *)
let self_fence t =
  if t.alive then begin
    t.fenced <- true;
    t.alive <- false;
    Sim.Engine.Group.kill t.group
  end

(* --- snapshot bookkeeping ------------------------------------------------ *)

let invalidate t = t.cached_snapshot <- None

let advance_base t =
  let advanced = ref false in
  while Hashtbl.mem t.decided (t.decided_base + 1) do
    Hashtbl.remove t.decided (t.decided_base + 1);
    t.decided_base <- t.decided_base + 1;
    t.committed_above <- ISet.remove t.decided_base t.committed_above;
    advanced := true
  done;
  if !advanced then invalidate t

let mark_decided t ~tid ~committed =
  if tid > t.highest_seen then t.highest_seen <- tid;
  if tid > t.decided_base && not (Hashtbl.mem t.decided tid) then begin
    Hashtbl.replace t.decided tid committed;
    if committed then t.committed_above <- ISet.add tid t.committed_above;
    invalidate t;
    advance_base t
  end

(* This manager's own descriptor: decisions delivered to it directly
   (its intervals' commits via the notifier, plus management-sweep
   broadcasts) folded with everything already adopted from peers. *)
let local_descriptor t =
  ISet.fold
    (fun tid acc -> Version_set.add acc tid)
    t.committed_above
    (Version_set.of_base t.decided_base)

(* The begin-time merge (§4.2, multi-manager form): the visible set is
   the union of this manager's descriptor and every peer's last merged
   descriptor.  [merge_peer_state] folds each peer descriptor into the
   local decided state as it arrives, so the cache stays valid across
   peer updates — the union can only change when the local state does
   (which invalidates it). *)
let snapshot_of_state t =
  match !merge_mutant with
  | Some Skip_descriptor_merge ->
      (* Mutation battery only — the "skip the descriptor merge"
         shortcut: don't consult anybody's descriptor, just assume every
         tid ever seen allocated is decided.  Serves snapshots admitting
         in-flight and aborted transactions; the history checker must
         reject the run with a witness cycle. *)
      Version_set.of_base (max t.decided_base t.highest_seen)
  | Some Overlapping_ranges | None -> (
      match t.cached_snapshot with
      | Some s -> s
      | None ->
          let s =
            Version_set.union_many
              (local_descriptor t
              :: List.filter_map
                   (fun p -> Hashtbl.find_opt t.peer_descriptors p)
                   t.peers)
          in
          t.cached_snapshot <- Some s;
          s)

let local_lav t =
  Hashtbl.fold (fun _ (b, _) acc -> min b acc) t.active t.decided_base

let global_lav t =
  Hashtbl.fold (fun _ lav acc -> min lav acc) t.peer_lavs (local_lav t)

(* --- tid ranges ----------------------------------------------------------- *)

let acquire_range t =
  let top = Kv.Client.increment t.kv Keys.tid_counter t.range_size in
  let start = top - t.range_size + 1 in
  let start =
    match !merge_mutant with
    | Some Overlapping_ranges ->
        (* Mutation battery only — break the interval partition: reach
           back over the previously allocated range, so this refill
           re-issues tids another manager (or this one) already handed
           out.  Two transactions sharing a tid conflate their version
           chains; the history checker must reject the run. *)
        max 1 (start - t.range_size)
    | Some Skip_descriptor_merge | None -> start
  in
  t.range_start <- start;
  t.range_next <- t.range_start;
  t.range_end <- top + 1;
  t.range_acquired_at <- Sim.Engine.now t.engine;
  if top > t.highest_seen then t.highest_seen <- top

(* Acquiring a range suspends on a store round trip, so concurrent
   [start] calls must not each fetch their own range (the overwritten
   ranges would hold every snapshot's base back forever): the first caller
   refills, the others wait on the refill ivar and retry. *)
let rec next_tid t =
  if t.range_next < t.range_end then begin
    let tid = t.range_next in
    t.range_next <- tid + 1;
    (* A refill whose reply was delayed (e.g. behind a storage cut) can
       install a range the reclamation sweep already arbitrated: while
       the reply was in flight the tids belonged to no live span, so the
       sweep rolled them back and decided them aborted.  Handing one out
       again would put two conflicting decisions on one tid — skip
       anything already decided. *)
    if tid <= t.decided_base || Hashtbl.mem t.decided tid then next_tid t else tid
  end
  else begin
    match t.range_refill with
    | Some refill ->
        Sim.Ivar.read refill;
        next_tid t
    | None ->
        let refill = Sim.Ivar.create t.engine in
        t.range_refill <- Some refill;
        Fun.protect
          ~finally:(fun () ->
            t.range_refill <- None;
            Sim.Ivar.fill refill ())
          (fun () -> acquire_range t);
        next_tid t
  end

(* Give back the unassigned tail of a stale range by declaring those tids
   aborted: otherwise an idle commit manager blocks every snapshot's base
   from advancing past its reserved range. *)
let retire_stale_range t =
  if
    t.range_next < t.range_end
    && Sim.Engine.now t.engine - t.range_acquired_at > t.retire_after_ns
  then begin
    for tid = t.range_next to t.range_end - 1 do
      mark_decided t ~tid ~committed:false
    done;
    t.range_next <- t.range_end
  end

(* --- state publication and merge (§4.2) ----------------------------------- *)

(* Published state cell: the decided base, the decided tids above it with
   their commit flags, and the local lav. *)
let encode_state ~base ~decided ~lav =
  let buf = Buffer.create 256 in
  Codec.put_int buf base;
  Codec.put_int buf (List.length decided);
  List.iter
    (fun (tid, committed) ->
      Codec.put_int buf tid;
      Buffer.add_char buf (if committed then '\x01' else '\x00'))
    decided;
  Codec.put_int buf lav;
  Buffer.contents buf

let decode_state s =
  let c = Codec.cursor s in
  let base = Codec.read_int c in
  let decided =
    List.init (Codec.read_count c) (fun _ ->
        let tid = Codec.read_int c in
        match Codec.read_char c with
        | '\x00' -> (tid, false)
        | '\x01' -> (tid, true)
        | ch -> invalid_arg (Printf.sprintf "Commit_manager.decode_state: bad flag %C" ch))
  in
  let lav = Codec.read_int c in
  (base, decided, lav)

let merge_peer_state t ~peer ~state =
  let peer_base, decided, peer_lav = decode_state state in
  if peer_base > t.decided_base then begin
    (* Everything up to the peer's base is decided; commit status of the
       skipped ids is irrelevant because aborted updates were rolled back
       before being reported. *)
    t.decided_base <- peer_base;
    let stale = Hashtbl.fold (fun tid _ acc -> if tid <= peer_base then tid :: acc else acc) t.decided [] in
    List.iter (Hashtbl.remove t.decided) stale;
    t.committed_above <- ISet.filter (fun v -> v > peer_base) t.committed_above;
    invalidate t
  end;
  if peer_base > t.highest_seen then t.highest_seen <- peer_base;
  List.iter (fun (tid, committed) -> mark_decided t ~tid ~committed) decided;
  (* Track lav, lease, and descriptor only for configured peers: the
     recovery scan may stumble over the published slot of a manager that
     has since been retired from the topology, whose facts are still
     facts but whose frozen lav must not hold [global_lav] back. *)
  if List.mem peer t.peers then begin
    Hashtbl.replace t.peer_lavs peer peer_lav;
    Hashtbl.replace t.peer_seen_at peer (Sim.Engine.now t.engine);
    Hashtbl.replace t.peer_descriptors peer
      (List.fold_left
         (fun acc (tid, committed) -> if committed then Version_set.add acc tid else acc)
         (Version_set.of_base peer_base) decided)
  end

let publish_state t =
  (* In [Hashtbl.iter] order: fold visits the same order, consing reverses it. *)
  let decided = List.rev (Hashtbl.fold (fun tid committed acc -> (tid, committed) :: acc) t.decided []) in
  Kv.Client.put t.kv (Keys.commit_manager_state ~cm_id:t.id)
    (encode_state ~base:t.decided_base ~decided ~lav:(local_lav t))

let pull_peer_states ?only t =
  match (match only with Some peers -> peers | None -> t.peers) with
  | [] -> ()
  | peers ->
      let keys = List.map (fun p -> Keys.commit_manager_state ~cm_id:p) peers in
      let replies = Kv.Client.multi_get t.kv keys in
      List.iter2
        (fun peer reply ->
          match reply with
          | Some (state, _token) -> merge_peer_state t ~peer ~state
          | None -> ())
        peers replies

(* --- leases: bounded descriptor staleness at begin ------------------------- *)

let stale_peers t =
  let now = Sim.Engine.now t.engine in
  List.filter
    (fun p ->
      match Hashtbl.find_opt t.peer_seen_at p with
      | Some seen -> now - seen > t.lease_ns
      | None -> true)
    t.peers

(* The short-lease rule (§6.3.3 + leases): in the common case a begin
   costs a round to this manager only — the gossip fiber keeps every
   peer's descriptor within one sync interval.  When a peer's merged
   descriptor has outlived its lease (the gossip pull is failing or
   lagging), the begin {e stalls}: it pulls the stale peers' published
   state inline from the store before serving.  If the pull itself fails
   the begin {e stays SI} instead: it serves the last merged state — a
   delayed snapshot is correct under SI (§4.2), it can only raise the
   abort rate.  Single-flight with a one-sync-interval cooldown: the
   attempt timestamp is written before the pull suspends, so concurrent
   begins don't pile onto the store, and after a failure the next
   attempt waits out a sync interval (the sync fiber keeps retrying in
   the background regardless). *)
let refresh_stale_peers t =
  match stale_peers t with
  | [] -> ()
  | stale ->
      let now = Sim.Engine.now t.engine in
      if now - t.last_inline_refresh >= t.sync_interval_ns then begin
        t.last_inline_refresh <- now;
        t.begin_refreshes <- t.begin_refreshes + 1;
        try pull_peer_states ~only:stale t
        with Kv.Op.Unavailable _ -> t.failed_refreshes <- t.failed_refreshes + 1
      end

let begin_refresh_stats t = (t.begin_refreshes, t.failed_refreshes)

(* --- topology -------------------------------------------------------------- *)

(* A manager joined the topology after this one was created: start
   merging its published state.  Its lav starts at 0 (unknown, see
   [make]) and its lease at now. *)
let note_peer t ~peer =
  if peer <> t.id && not (List.mem peer t.peers) then begin
    t.peers <- peer :: t.peers;
    Hashtbl.replace t.peer_lavs peer 0;
    Hashtbl.replace t.peer_seen_at peer (Sim.Engine.now t.engine)
  end

(* A dead manager was retired from the topology without a replacement:
   stop pulling its slot and drop its frozen lav.  Only safe once no
   transaction begun at the retired manager is still running (see
   [Database.retire_commit_manager]); its sparse descriptor was already
   folded into the local decided state by the merges, so dropping the
   cached copy loses nothing. *)
let forget_peer t ~peer =
  if List.mem peer t.peers then begin
    t.peers <- List.filter (fun p -> p <> peer) t.peers;
    Hashtbl.remove t.peer_lavs peer;
    Hashtbl.remove t.peer_seen_at peer;
    Hashtbl.remove t.peer_descriptors peer
  end

let peers t = t.peers

let start_sync_fiber t =
  Sim.Engine.spawn t.engine ~group:t.group (fun () ->
      while t.alive do
        Sim.Engine.sleep t.engine t.sync_interval_ns;
        retire_stale_range t;
        try
          publish_state t;
          pull_peer_states t
        with
        | Kv.Op.Unavailable _ ->
            (* Partitioned from the store: skip this round and try again —
               peers tolerate a stale published state (it only delays
               snapshot advance). *)
            ()
        | Kv.Op.Fenced _ ->
            (* Our lease is gone: a replacement owns this identity. *)
            self_fence t
      done)

(* --- remote interface ------------------------------------------------------ *)

let endpoint t = Printf.sprintf "cm%d" t.id

(* [src]: the caller's link endpoint.  With it, the request and reply
   travel as identity-carrying messages subject to the network fault
   plan (cuts, loss); without it the legacy reliable-transfer path is
   used (tests and local callers).  [on_reply_lost] runs when the call
   executed but its reply was dropped — the manager's chance to
   compensate for a result the caller will never learn. *)
let rpc t ?src ?on_reply_lost ~demand f =
  let net = Kv.Cluster.net t.cluster in
  let timeout_ns = (Kv.Cluster.config t.cluster).client_timeout_ns in
  let unavailable () =
    Sim.Engine.sleep t.engine timeout_ns;
    raise (Kv.Op.Unavailable (endpoint t))
  in
  (match src with
  | None -> Sim.Net.transfer net ~bytes:48
  | Some src -> (
      match Sim.Net.send net ~src ~dst:(endpoint t) ~bytes:48 with
      | `Delivered -> ()
      | `Dropped -> unavailable ()));
  if not t.alive then unavailable ();
  Sim.Resource.use t.cpu ~demand;
  let reply = f () in
  (match src with
  | None -> Sim.Net.transfer net ~bytes:64
  | Some src -> (
      match Sim.Net.send net ~src:(endpoint t) ~dst:src ~bytes:64 with
      | `Delivered -> ()
      | `Dropped ->
          (* The manager processed the call but the reply was lost: the
             caller sees a timeout.  Decisions are idempotent, so the
             caller's re-send is safe. *)
          (match on_reply_lost with Some g -> g reply | None -> ());
          unavailable ()));
  reply

(* One RPC starting a whole begin window of transactions.  Every
   transaction in the batch gets its own tid but they share the snapshot
   computed once at service time — for the early arrivals that is a
   slightly delayed snapshot, which SI tolerates (§4.2): at worst the
   abort rate rises. *)
let start_many t ?src ~from_group ~count () =
  if count <= 0 then invalid_arg "Commit_manager.start_many: count must be positive";
  rpc t ?src
    ~demand:(900 + (120 * (count - 1)))
    ~on_reply_lost:(fun (replies : start_reply list) ->
      (* The caller never learned these tids, so nobody will ever
         decide or even claim them — orphaned active entries would hold
         the lav (and with it every snapshot base and version GC) back
         forever.  In a real deployment a handout lease expires; here the
         manager sees the drop and aborts the batch on the spot. *)
      List.iter
        (fun (reply : start_reply) ->
          Hashtbl.remove t.active reply.tid;
          mark_decided t ~tid:reply.tid ~committed:false)
        replies)
    (fun () ->
      refresh_stale_peers t;
      let tids = ref [] in
      (try
         for _ = 1 to count do
           tids := next_tid t :: !tids
         done
       with
      | Kv.Op.Fenced _ ->
         (* The range refill bounced mid-batch: this instance was
            replaced while partitioned.  Tids already drawn stay
            undecided outside every live manager's span, so the
            reclamation sweep collects them; fence ourselves and answer
            like a dead node. *)
         self_fence t;
         raise (Kv.Op.Unavailable (endpoint t))
      | Kv.Op.Unavailable _ as e ->
         (* The refill timed out mid-batch (store unreachable, e.g. this
            manager is partitioned from the storage tier).  Unlike the
            fenced case this instance stays alive, so its range span
            would shield the drawn tids from the reclamation sweep
            forever: abort them on the spot — they were never handed
            out — and let the caller fail over. *)
         List.iter (fun tid -> mark_decided t ~tid ~committed:false) !tids;
         raise e);
      let snapshot = snapshot_of_state t in
      let lav = global_lav t in
      let base = Version_set.base snapshot in
      List.rev_map
        (fun tid ->
          Hashtbl.replace t.active tid (base, from_group);
          { tid; snapshot; lav })
        !tids)

let set_decided_batch t ?src ~committed ~aborted () =
  let n = List.length committed + List.length aborted in
  if n > 0 then
    (* Marginal decisions are much cheaper than the first: the message
       dominates, each extra tid is a table update. *)
    rpc t ?src ~demand:(350 + (80 * (n - 1))) (fun () ->
        let decide ~committed tid =
          Hashtbl.remove t.active tid;
          mark_decided t ~tid ~committed
        in
        List.iter (decide ~committed:true) committed;
        List.iter (decide ~committed:false) aborted)

let start t ?src ~from_group () =
  match start_many t ?src ~from_group ~count:1 () with
  | [ reply ] -> reply
  | _ -> assert false

let set_committed t ?src ~tid () = set_decided_batch t ?src ~committed:[ tid ] ~aborted:[] ()
let set_aborted t ?src ~tid () = set_decided_batch t ?src ~committed:[] ~aborted:[ tid ] ()

(* --- introspection / recovery ---------------------------------------------- *)

let current_snapshot t = snapshot_of_state t
let current_lav t = global_lav t
let active_count t = Hashtbl.length t.active
let active_tids t = Hashtbl.fold (fun tid _ acc -> tid :: acc) t.active []

(* Discard active transactions whose originating fiber group is dead,
   recovering each one's decision from the log (§4.4.1): a flagged entry
   is a commit that died between flagging and notifying; anything else —
   unflagged (recovery rolled it back) or never logged (it applied
   nothing) — is an abort.  Without this sweep the dead node's tids
   wedge the lav, and with it snapshot-base advance and record GC,
   forever. *)
(* The whole current range, handed-out part included: the reclamation
   sweep must not touch tids this live manager may still decide through
   the normal notification path. *)
let range_span t = (t.range_start, t.range_end)

let release_actives_matching t pred =
  let doomed =
    Hashtbl.fold
      (fun tid (_, group) acc -> if pred group then tid :: acc else acc)
      t.active []
  in
  List.iter
    (fun tid ->
      Hashtbl.remove t.active tid;
      let committed =
        match Txlog.find t.kv ~tid with
        | Some (entry : Txlog.entry) -> entry.committed
        | None -> false
      in
      mark_decided t ~tid ~committed)
    (List.sort Int.compare doomed);
  List.length doomed

let release_dead_actives t =
  release_actives_matching t (fun group -> not (Sim.Engine.Group.alive group))

(* Release the actives of one specific (fenced) owner group, whether or
   not the engine considers the group dead yet: once the owner is
   declared dead its undecided transactions must resolve from the log,
   exactly as in the dead-group sweep. *)
let release_group_actives t ~group =
  release_actives_matching t (fun g -> g == group)

let recover t =
  (* Last used tid: the shared counter is authoritative. *)
  (match Kv.Client.get t.kv Keys.tid_counter with
  | Some _ -> ()
  | None -> ());
  (* Bootstrap from every published manager state, own included. *)
  let published = Kv.Client.scan_all t.kv ~prefix:Keys.commit_manager_prefix in
  List.iter
    (fun (key, state, _token) ->
      let peer = int_of_string (String.sub key 5 (String.length key - 5)) in
      if peer <> t.id then merge_peer_state t ~peer ~state
      else begin
        let base, decided, _lav = decode_state state in
        if base > t.decided_base then t.decided_base <- base;
        List.iter (fun (tid, committed) -> mark_decided t ~tid ~committed) decided
      end)
    published;
  (* Replay the transaction-log tail: entries above our base tell us about
     commits the dead manager acknowledged after its last publication. *)
  let log = Kv.Client.scan_all t.kv ~prefix:Keys.log_prefix in
  List.iter
    (fun (key, entry, _token) ->
      let tid = Keys.tid_of_log_key key in
      if tid > t.decided_base && String.length entry > 0 then
        if entry.[0] = '\x01' then mark_decided t ~tid ~committed:true)
    log;
  invalidate t

let create cluster ~id ?peers ?range_size ?sync_interval_ns () =
  let t = make cluster ~id ?peers ?range_size ?sync_interval_ns () in
  Kv.Cluster.register_commit_manager cluster ~cm_id:id;
  start_sync_fiber t;
  t
