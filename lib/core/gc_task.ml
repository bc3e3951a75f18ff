(* Lazy garbage collection (§5.4).

   The eager strategy in [Txn] compacts a record whenever it is written
   back; this background task covers rarely updated records: it sweeps all
   data records, drops versions no active transaction can reach, removes
   records whose surviving version is a tombstone, and prunes index
   entries whose key no longer appears in any stored version of the
   referenced record. *)

module Sim = Tell_sim
module Kv = Tell_kv

type stats = {
  mutable records_scanned : int;
  mutable versions_dropped : int;
  mutable records_dropped : int;
  mutable index_entries_dropped : int;
}

type t = { kv : Kv.Client.t; cms : unit -> Commit_manager.t list; stats : stats }

let create cluster ~cms ~group =
  {
    kv = Kv.Client.create cluster ~group;
    cms;
    stats =
      { records_scanned = 0; versions_dropped = 0; records_dropped = 0; index_entries_dropped = 0 };
  }

let stats t = t.stats

let sweep_records t ~lav =
  let cells = Kv.Client.scan_all t.kv ~prefix:"r/" in
  List.iter
    (fun (key, data, token) ->
      t.stats.records_scanned <- t.stats.records_scanned + 1;
      let record = Record.decode data in
      let compacted, removed = Record.gc record ~lav in
      match removed with
      | [] -> ()
      | _ :: _ ->
          t.stats.versions_dropped <- t.stats.versions_dropped + List.length removed;
          if Record.is_empty compacted then begin
            (* Skip on conflict: a concurrent writer revived the record. *)
            (match Kv.Client.remove_if t.kv key (Some token) with
            | `Ok -> t.stats.records_dropped <- t.stats.records_dropped + 1
            | `Conflict -> ())
          end
          else ignore (Kv.Client.put_if t.kv key (Some token) (Record.encode compacted)))
    cells

(* An index entry (a, rid) is dead when no stored version of record [rid]
   still carries key [a] (the V_a \ G = ∅ condition of §5.4 after record
   compaction). *)
let entry_alive t ~table ~(index : Schema.index) (entry_key, rid) =
  let record_key = Keys.record ~table ~rid in
  match Kv.Client.get t.kv record_key with
  | None -> false
  | Some (data, _) ->
      List.exists
        (fun (v : Record.version) ->
          match v.payload with
          | Record.Tombstone -> false
          | Record.Tuple tuple ->
              Codec.encode_key (Schema.key_of_tuple ~columns:index.idx_columns tuple) = entry_key)
        (Record.versions (Record.decode data))

(* Upper bound on how long one operation of a commit's record/index
   multi-write can stay in flight after a sibling operation has already
   landed: [Client.max_retries] rounds, each up to a full ship budget of
   [client_timeout_ns] waits plus the jittered backoff ladder — ≈27 ms
   with the §3b defaults.  [settle_ns] dominates it with margin. *)
let settle_ns = 50_000_000

let sweep_index t ~table ~(index : Schema.index) =
  let tree = Btree.attach t.kv ~name:index.idx_name in
  let entries = Btree.range tree ~lo:"" ~hi:"\xff\xff\xff\xff" in
  match List.filter (fun e -> not (entry_alive t ~table ~index e)) entries with
  | [] -> ()
  | candidates -> (
      (* A buffered entry is visible (via the stripe merge) the moment
         its append lands — possibly before the same commit's record
         Put_if, which rides the same multi-write but may land later on
         another storage node.  "Entry without a matching record" at
         first sight may therefore be a commit still in flight; deleting
         it would permanently retire a committed record's index entry.
         Wait out the longest possible multi-write and re-check each
         candidate against the fresh record: a commit that eventually
         succeeded has installed its version by now, while one that
         failed left a stray entry the delete below correctly retires. *)
      Sim.Engine.sleep (Kv.Cluster.engine (Kv.Client.cluster t.kv)) settle_ns;
      match List.filter (fun e -> not (entry_alive t ~table ~index e)) candidates with
      | [] -> ()
      | dead ->
          (* Retire through the message buffer, not a direct leaf remove:
             the stripe's append order guarantees the delete lands after
             any still-buffered insert of the same entry (a direct remove
             could be resurrected by a later flush of that insert). *)
          ignore (Btree.enqueue_many tree ~ops:(List.map (fun e -> Btree.Del e) dead));
          t.stats.index_entries_dropped <- t.stats.index_entries_dropped + List.length dead)

let run_once t ~tables =
  (* The GC floor under multiple managers is the minimum of the live
     lavs: a version is unreachable only when no manager's begins can
     still see it.  With no manager alive there is no floor — sweep with
     lav 0, a no-op on versions. *)
  let lav =
    match List.filter Commit_manager.alive (t.cms ()) with
    | [] -> 0
    | cms -> List.fold_left (fun acc cm -> min acc (Commit_manager.current_lav cm)) max_int cms
  in
  sweep_records t ~lav;
  List.iter
    (fun (table : Schema.table) ->
      List.iter
        (fun index -> sweep_index t ~table:table.tbl_name ~index)
        (Schema.all_indexes table))
    tables
