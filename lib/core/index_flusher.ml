(* Background Bε buffer flusher (§3d).

   One fiber on the management group applies the secondary indexes'
   buffered messages ([Btree.enqueue_prepare]) to the leaves in
   bulk, keeping the commit path down to one blind append per stripe.
   Correctness never depends on it running — every read path merges
   pending messages — so the flusher only bounds stripe-cell growth and
   keeps leaf reads cheap.

   Two triggers, mirroring the notifier's shape:
   - a periodic sweep every [flush_interval_ns]: one multi-get over all
     registered stripes prefilters the ones with work
     ([Btree.stripe_cell_needs_flush]), which are then flushed;
   - an overflow nudge from the commit path ([note]): when an append
     leaves a stripe cell at or above [flush_threshold_bytes] the stripe
     is marked dirty and a single-flight drain fiber flushes it without
     waiting for the next tick.  [note] is also how indexes register —
     every buffered commit reports its stripes here.

   Calibration rationale for the two knobs is in DESIGN.md §3b;
   [calibrate.exe flush] sweeps them.

   The flusher lives on the management group with its own store client:
   it survives any PN crash (messages already appended are replicated,
   so a crash between commit-ack and flush loses nothing — the sweep
   simply applies them later), and its traffic is accounted to the
   management node, not to any transaction's commit phases. *)

module Sim = Tell_sim
module Kv = Tell_kv

let default_flush_interval_ns = 500_000
let default_flush_threshold_bytes = 4_096

type stats = {
  mutable sweeps : int;
  mutable nudges : int;  (* overflow nudges that marked a stripe dirty *)
  mutable stripes_flushed : int;
  mutable messages_applied : int;
  mutable deferrals : int;  (* flushes whose round budget ran out ([Btree.Flush_deferred]) *)
  mutable errors : int;  (* unexpected exceptions swallowed to keep the fiber alive *)
}

type t = {
  engine : Sim.Engine.t;
  group : Sim.Engine.Group.t;
  kv : Kv.Client.t;
  interval_ns : int;
  threshold_bytes : int;
  trees : (string, Btree.t) Hashtbl.t;  (* index name -> own handle *)
  mutable dirty : (string * int) list;  (* (index, stripe), newest first *)
  mutable in_flight : unit Sim.Ivar.t option;  (* single-flight drain *)
  stats : stats;
}

let stats t = t.stats
let kv t = t.kv

let tree t ~index =
  match Hashtbl.find_opt t.trees index with
  | Some tree -> tree
  | None ->
      let tree = Btree.attach t.kv ~name:index in
      Hashtbl.replace t.trees index tree;
      tree

(* Indexes that only ever receive GC deletes (e.g. bulk-loaded trees on
   an idle database) never pass through [note]: pick them up from the
   schema cells so [drain] and the periodic sweep cover them too. *)
let discover t =
  match Kv.Client.scan_all t.kv ~prefix:"s/" with
  | exception Kv.Op.Unavailable _ -> ()
  | cells ->
      List.iter
        (fun (_, data, _) ->
          let table = Schema.decode_table data in
          List.iter
            (fun (index : Schema.index) -> ignore (tree t ~index:index.idx_name))
            (Schema.all_indexes table))
        cells

let flush_one t (index, stripe) =
  match Hashtbl.find_opt t.trees index with
  | None -> ()
  | Some tree -> (
      match Btree.flush_stripe tree ~stripe with
      | applied ->
          t.stats.stripes_flushed <- t.stats.stripes_flushed + 1;
          t.stats.messages_applied <- t.stats.messages_applied + applied
      | exception Kv.Op.Unavailable _ ->
          (* Store unreachable: nothing is lost (the messages stay in the
             stripe cell); the next sweep retries. *)
          ()
      | exception Btree.Flush_deferred ->
          (* Contention outlasted the round budget: the watermark stayed
             put, so the next sweep replays the stripe. *)
          t.stats.deferrals <- t.stats.deferrals + 1
      | exception _ ->
          (* Anything else — an undecodable cell, a [Btree.Retry] leaking
             past a flush, an exhausted CAS budget — must not kill the
             drain fiber: one bad stripe would otherwise permanently stop
             the only flusher and every stripe cell would grow without
             bound.  Count it and move on; the messages stay in place. *)
          t.stats.errors <- t.stats.errors + 1)

(* Flush every dirty stripe; single-flight so concurrent nudges and the
   periodic sweep never flush one stripe concurrently.  Flushing is safe
   against appends, but a second flusher holding an older copy of the
   cell could re-apply a message over a newer one the first had already
   applied. *)
let rec drain_dirty t =
  match t.in_flight with
  | Some flush -> Sim.Ivar.read flush
  | None -> (
      match t.dirty with
      | [] -> ()
      | _ :: _ ->
          let batch = List.rev t.dirty in
          t.dirty <- [];
          let flush = Sim.Ivar.create t.engine in
          t.in_flight <- Some flush;
          Fun.protect
            ~finally:(fun () ->
              t.in_flight <- None;
              Sim.Ivar.fill flush ())
            (fun () -> List.iter (flush_one t) batch);
          drain_dirty t)

let mark_dirty t ~index ~stripe =
  if not (List.mem (index, stripe) t.dirty) then t.dirty <- (index, stripe) :: t.dirty

(* Commit-path hook: every buffered enqueue reports (index, stripe, cell
   bytes) here.  Registration is unconditional; an immediate flush fiber
   is only kicked when the cell outgrew the threshold. *)
let note t ~index ~stripe ~bytes =
  ignore (tree t ~index);
  if bytes >= t.threshold_bytes then begin
    t.stats.nudges <- t.stats.nudges + 1;
    mark_dirty t ~index ~stripe;
    if t.in_flight = None then Sim.Engine.spawn t.engine ~group:t.group (fun () -> drain_dirty t)
  end

(* One prefiltered pass: multi-get every registered stripe cell, mark
   the ones with work dirty, drain. *)
let sweep t =
  t.stats.sweeps <- t.stats.sweeps + 1;
  let stripes =
    Hashtbl.fold
      (fun index tree acc ->
        List.init (Btree.stripe_count tree) (fun stripe -> (index, stripe)) @ acc)
      t.trees []
  in
  match stripes with
  | [] -> ()
  | _ :: _ -> (
      match
        Kv.Client.multi_get t.kv
          (List.map (fun (index, stripe) -> Keys.index_buffer ~index ~stripe) stripes)
      with
      | exception Kv.Op.Unavailable _ -> ()
      | cells ->
          let now = Sim.Engine.now t.engine in
          List.iter2
            (fun (index, stripe) cell ->
              match cell with
              | Some (data, _) -> (
                  match Btree.stripe_cell_needs_flush data ~now with
                  | true -> mark_dirty t ~index ~stripe
                  | false -> ()
                  | exception _ ->
                      (* An undecodable cell must not abort the whole
                         prefilter pass (the other stripes still need
                         their flush). *)
                      t.stats.errors <- t.stats.errors + 1)
              | None -> ())
            stripes cells;
          drain_dirty t)

(* Quiesce helper for the harness and tests: discover every index, then
   sweep until no registered tree has unapplied messages (bounded — with
   writers quiesced two passes suffice; the bound covers Unavailable
   windows).  Returns [false] when the round budget ran out with messages
   still pending, so a caller using this as a quiesce barrier can tell
   "drained" from "gave up" instead of silently auditing a half-flushed
   state. *)
let drain t =
  discover t;
  let pending () =
    Hashtbl.fold (fun _ tree acc -> acc + Btree.pending_messages tree) t.trees 0
  in
  let rec go rounds =
    if pending () = 0 then true
    else if rounds <= 0 then false
    else begin
      Sim.Engine.sleep t.engine 100_000;
      sweep t;
      go (rounds - 1)
    end
  in
  sweep t;
  go 8

let create engine ~group ~kv ?(interval_ns = default_flush_interval_ns)
    ?(threshold_bytes = default_flush_threshold_bytes) () =
  let t =
    {
      engine;
      group;
      kv;
      interval_ns;
      threshold_bytes;
      trees = Hashtbl.create 16;
      dirty = [];
      in_flight = None;
      stats =
        {
          sweeps = 0;
          nudges = 0;
          stripes_flushed = 0;
          messages_applied = 0;
          deferrals = 0;
          errors = 0;
        };
    }
  in
  let discovery_period = 64 in
  Sim.Engine.spawn engine ~group (fun () ->
      let round = ref 0 in
      while true do
        Sim.Engine.sleep engine t.interval_ns;
        (* Broad guard: [sweep]/[flush_one] absorb the failures they
           anticipate, but any exception that still escapes would kill
           this fiber silently and the flusher would be dead for the rest
           of the run — count it and keep sweeping. *)
        (try
           if !round mod discovery_period = 0 then discover t;
           sweep t
         with _ -> t.stats.errors <- t.stats.errors + 1);
        incr round
      done);
  t
