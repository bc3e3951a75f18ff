module Kv = Tell_kv

type strategy =
  | Transaction_buffer
  | Shared_record_buffer of { capacity : int }
  | Shared_vs_buffer of { capacity : int; unit_size : int }

type entry = {
  mutable record : Record.t;
  mutable token : int;
  mutable validity : Version_set.t;  (* B *)
  mutable last_used : int;  (* LRU clock *)
}

type pool = {
  kv : Kv.Client.t;
  strategy : strategy;
  vmax : unit -> Version_set.t;
  entries : (string, entry) Hashtbl.t;  (* record key -> entry *)
  units : (string, Version_set.t) Hashtbl.t;  (* cached unit cells (SBVS) *)
  decode_memo : (string, int * Record.t) Hashtbl.t;
      (* key -> (LL/SC token, decoded record): pure parse memoisation —
         every strategy still performs its store fetches; only re-decoding
         an unchanged cell is skipped.  Records are immutable. *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable extra_requests : int;
  mutable unit_cell_give_ups : int;  (* SBVS unit-cell grows that ran out of LL/SC attempts *)
}

let create kv strategy ~vmax =
  {
    kv;
    strategy;
    vmax;
    entries = Hashtbl.create 1024;
    units = Hashtbl.create 256;
    decode_memo = Hashtbl.create 4096;
    clock = 0;
    hits = 0;
    misses = 0;
    extra_requests = 0;
    unit_cell_give_ups = 0;
  }

let strategy t = t.strategy
let hits t = t.hits
let misses t = t.misses
let extra_requests t = t.extra_requests
let unit_cell_give_ups t = t.unit_cell_give_ups

let capacity_of = function
  | Transaction_buffer -> 0
  | Shared_record_buffer { capacity } -> capacity
  | Shared_vs_buffer { capacity; _ } -> capacity

let unit_key ~table ~rid ~unit_size = Keys.version_set ~table ~unit_id:(rid / unit_size)

let touch t entry =
  t.clock <- t.clock + 1;
  entry.last_used <- t.clock

(* Cheap LRU: when over capacity, evict the stalest ~1/8 of sampled
   entries.  Exact LRU would need an intrusive list; sampling is what
   production caches (e.g. Redis) do and keeps the hot path O(1). *)
let maybe_evict t =
  let capacity = capacity_of t.strategy in
  if capacity > 0 && Hashtbl.length t.entries > capacity then begin
    let victims = ref [] in
    let n = ref 0 in
    let threshold = t.clock - (capacity / 2) in
    Hashtbl.iter
      (fun key entry ->
        if !n < capacity / 8 && entry.last_used < threshold then begin
          victims := key :: !victims;
          incr n
        end)
      t.entries;
    (match !victims with
    | [] ->
        (* Everything is recent: drop arbitrary entries to bound memory. *)
        let dropped = ref 0 in
        Hashtbl.iter
          (fun key _ -> if !dropped < capacity / 8 then begin
               victims := key :: !victims;
               incr dropped
             end)
          t.entries
    | _ :: _ -> ());
    List.iter (Hashtbl.remove t.entries) !victims
  end

let decode_memo_cap = 16_384

(* Token-keyed decode memoisation: parsing an unchanged cell twice is
   pure waste.  Not a data cache — callers still fetch from the store. *)
let decode_record t ~key ~data ~token =
  match Hashtbl.find_opt t.decode_memo key with
  | Some (cached_token, record) when cached_token = token -> record
  | _ ->
      let record = Record.decode data in
      if Hashtbl.length t.decode_memo >= decode_memo_cap then Hashtbl.reset t.decode_memo;
      Hashtbl.replace t.decode_memo key (token, record);
      record

let fetch_from_store t ~key =
  match Kv.Client.get t.kv key with
  | None -> None
  | Some (data, token) -> Some (decode_record t ~key ~data ~token, token)

let install t ~key ~record ~token ~validity =
  (match Hashtbl.find_opt t.entries key with
  | Some entry ->
      entry.record <- record;
      entry.token <- token;
      entry.validity <- validity;
      touch t entry
  | None ->
      let entry = { record; token; validity; last_used = 0 } in
      touch t entry;
      Hashtbl.replace t.entries key entry);
  maybe_evict t

(* Fetch from the store and install tagged with V_max: all transactions in
   V_max committed before this fetch, so V_max is a sound validity set. *)
let refetch t ~key =
  let validity = t.vmax () in
  match fetch_from_store t ~key with
  | None ->
      Hashtbl.remove t.entries key;
      None
  | Some (record, token) ->
      install t ~key ~record ~token ~validity;
      Some (record, token)

let read_tb t ~key =
  t.misses <- t.misses + 1;
  fetch_from_store t ~key

let read_sb t ~snapshot ~key =
  match Hashtbl.find_opt t.entries key with
  | Some entry when Version_set.subset snapshot entry.validity ->
      t.hits <- t.hits + 1;
      touch t entry;
      Some (entry.record, entry.token)
  | Some _ | None ->
      t.misses <- t.misses + 1;
      refetch t ~key

let read_sbvs t ~snapshot ~key ~cell_key =
  match Hashtbl.find_opt t.entries key with
  | Some entry when Version_set.subset snapshot entry.validity ->
      t.hits <- t.hits + 1;
      touch t entry;
      Some (entry.record, entry.token)
  | Some entry ->
      (* The cache might be outdated: fetch the unit's version-set cell
         first; if it equals the entry's tag, no write touched the unit
         since the record was tagged and the copy is still valid. *)
      t.extra_requests <- t.extra_requests + 1;
      (match Kv.Client.get t.kv cell_key with
      | Some (cell, _) ->
          let remote = Version_set.decode cell in
          if Version_set.equal remote entry.validity then begin
            t.hits <- t.hits + 1;
            touch t entry;
            Some (entry.record, entry.token)
          end
          else begin
            t.misses <- t.misses + 1;
            (* Order matters: the record is fetched after the cell, so a
               copy tagged [remote] shows every write the cell accounts. *)
            match fetch_from_store t ~key with
            | None ->
                Hashtbl.remove t.entries key;
                None
            | Some (record, token) ->
                install t ~key ~record ~token ~validity:remote;
                Some (record, token)
          end
      | None ->
          t.misses <- t.misses + 1;
          refetch t ~key)
  | None ->
      t.misses <- t.misses + 1;
      refetch t ~key

let read t ~snapshot ~table ~rid =
  let key = Keys.record ~table ~rid in
  match t.strategy with
  | Transaction_buffer -> read_tb t ~key
  | Shared_record_buffer _ -> read_sb t ~snapshot ~key
  | Shared_vs_buffer { unit_size; _ } ->
      read_sbvs t ~snapshot ~key ~cell_key:(unit_key ~table ~rid ~unit_size)

(* Batched read: one store multi-get per miss class instead of one get
   per record, preserving each strategy's semantics exactly.  TB always
   fetches; SB serves entries whose validity covers the snapshot and
   refetches the rest tagged with one V_max computed before the batch
   fetch (every transaction in it committed before any fetch, so it is a
   sound validity for the whole batch); SBVS re-validates stale entries
   against their unit cells — all cells in one round first, then all
   records that still need fetching, so a record tagged with a remote
   cell shows every write the cell accounts.  Results are in input
   order; duplicate keys are the caller's concern (harmless here).

   Accounting audit (§3d): everything issued here rides the pool's own
   client — the PN's — so it lands in the reading transaction's read
   phase, which is right: these are the transaction's record fetches.
   Bε flush work (leaf and inner-node writes applying buffered index
   messages) never passes through this pool; it runs on the index
   flusher's management client and is aggregated as storage-bandwidth
   traffic there, not into any transaction's phase. *)
let read_many t ~snapshot pairs =
  match pairs with
  | [] -> []
  | _ :: _ -> (
      let keyed = List.map (fun (table, rid) -> (Keys.record ~table ~rid, table, rid)) pairs in
      match t.strategy with
      | Transaction_buffer ->
          t.misses <- t.misses + List.length keyed;
          let replies = Kv.Client.multi_get t.kv (List.map (fun (k, _, _) -> k) keyed) in
          List.map2
            (fun (key, _, _) reply ->
              Option.map (fun (data, token) -> (decode_record t ~key ~data ~token, token)) reply)
            keyed replies
      | Shared_record_buffer _ ->
          let classified =
            List.map
              (fun (key, _, _) ->
                match Hashtbl.find_opt t.entries key with
                | Some entry when Version_set.subset snapshot entry.validity ->
                    t.hits <- t.hits + 1;
                    touch t entry;
                    `Hit (entry.record, entry.token)
                | Some _ | None ->
                    t.misses <- t.misses + 1;
                    `Fetch key)
              keyed
          in
          let misses = List.filter_map (function `Fetch k -> Some k | `Hit _ -> None) classified in
          let fetched = Hashtbl.create 16 in
          (match misses with
          | [] -> ()
          | _ :: _ ->
              let validity = t.vmax () in
              let replies = Kv.Client.multi_get t.kv misses in
              List.iter2
                (fun key reply ->
                  match reply with
                  | None ->
                      Hashtbl.remove t.entries key;
                      Hashtbl.replace fetched key None
                  | Some (data, token) ->
                      let record = decode_record t ~key ~data ~token in
                      install t ~key ~record ~token ~validity;
                      Hashtbl.replace fetched key (Some (record, token)))
                misses replies);
          List.map
            (function
              | `Hit hit -> Some hit
              | `Fetch key -> Option.join (Hashtbl.find_opt fetched key))
            classified
      | Shared_vs_buffer { unit_size; _ } ->
          let classified =
            List.map
              (fun (key, table, rid) ->
                match Hashtbl.find_opt t.entries key with
                | Some entry when Version_set.subset snapshot entry.validity ->
                    t.hits <- t.hits + 1;
                    touch t entry;
                    `Hit (entry.record, entry.token)
                | Some entry -> `Check (key, entry, unit_key ~table ~rid ~unit_size)
                | None ->
                    t.misses <- t.misses + 1;
                    `Fetch (key, None))
              keyed
          in
          (* Round 1: unit cells of every stale entry. *)
          let checks = List.filter_map (function `Check c -> Some c | _ -> None) classified in
          let check_results = Hashtbl.create 8 in
          (match checks with
          | [] -> ()
          | _ :: _ ->
              t.extra_requests <- t.extra_requests + List.length checks;
              let cell_replies =
                Kv.Client.multi_get t.kv (List.map (fun (_, _, ck) -> ck) checks)
              in
              List.iter2
                (fun (key, entry, _) reply ->
                  match reply with
                  | Some (cell, _) ->
                      let remote = Version_set.decode cell in
                      if Version_set.equal remote entry.validity then begin
                        t.hits <- t.hits + 1;
                        touch t entry;
                        Hashtbl.replace check_results key (`Hit (entry.record, entry.token))
                      end
                      else begin
                        t.misses <- t.misses + 1;
                        Hashtbl.replace check_results key (`Fetch (Some remote))
                      end
                  | None ->
                      t.misses <- t.misses + 1;
                      Hashtbl.replace check_results key (`Fetch None))
                checks cell_replies);
          let resolved =
            List.map
              (function
                | `Hit hit -> `Hit hit
                | `Fetch (key, validity) -> `Fetch (key, validity)
                | `Check (key, _, _) -> (
                    match Hashtbl.find_opt check_results key with
                    | Some (`Hit hit) -> `Hit hit
                    | Some (`Fetch validity) -> `Fetch (key, validity)
                    | None -> `Fetch (key, None)))
              classified
          in
          (* Round 2: every record still needing a fetch. *)
          let to_fetch =
            List.filter_map (function `Fetch f -> Some f | `Hit _ -> None) resolved
          in
          let fetched = Hashtbl.create 16 in
          (match to_fetch with
          | [] -> ()
          | _ :: _ ->
              let vmax_validity = t.vmax () in
              let replies = Kv.Client.multi_get t.kv (List.map fst to_fetch) in
              List.iter2
                (fun (key, validity) reply ->
                  match reply with
                  | None ->
                      Hashtbl.remove t.entries key;
                      Hashtbl.replace fetched key None
                  | Some (data, token) ->
                      let record = decode_record t ~key ~data ~token in
                      let validity = Option.value validity ~default:vmax_validity in
                      install t ~key ~record ~token ~validity;
                      Hashtbl.replace fetched key (Some (record, token)))
                to_fetch replies);
          List.map
            (function
              | `Hit hit -> Some hit
              | `Fetch (key, _) -> Option.join (Hashtbl.find_opt fetched key))
            resolved)

(* Grow the unit cell with an LL/SC union loop so that it never shrinks:
   monotonicity is what makes the [B' = B] fast path above sound. *)
let rec grow_unit_cell t ~cell_key ~tid ~attempts =
  if attempts <= 0 then t.unit_cell_give_ups <- t.unit_cell_give_ups + 1
  else begin
    t.extra_requests <- t.extra_requests + 1;
    match Kv.Client.get t.kv cell_key with
    | None -> (
        let fresh = Version_set.add (t.vmax ()) tid in
        match Kv.Client.put_if t.kv cell_key None (Version_set.encode fresh) with
        | `Ok _ -> Hashtbl.replace t.units cell_key fresh
        | `Conflict -> grow_unit_cell t ~cell_key ~tid ~attempts:(attempts - 1))
    | Some (cell, token) -> (
        let merged = Version_set.add (Version_set.union (Version_set.decode cell) (t.vmax ())) tid in
        match Kv.Client.put_if t.kv cell_key (Some token) (Version_set.encode merged) with
        | `Ok _ -> Hashtbl.replace t.units cell_key merged
        | `Conflict -> grow_unit_cell t ~cell_key ~tid ~attempts:(attempts - 1))
  end

let note_applied t ~table ~rid ~record ~token ~tid =
  match t.strategy with
  | Transaction_buffer -> ()
  | Shared_record_buffer _ ->
      let key = Keys.record ~table ~rid in
      let validity = Version_set.add (t.vmax ()) tid in
      install t ~key ~record ~token ~validity
  | Shared_vs_buffer { unit_size; _ } ->
      let key = Keys.record ~table ~rid in
      let cell_key = unit_key ~table ~rid ~unit_size in
      grow_unit_cell t ~cell_key ~tid ~attempts:8;
      let validity =
        match Hashtbl.find_opt t.units cell_key with
        | Some cell -> cell
        | None -> Version_set.add (t.vmax ()) tid
      in
      install t ~key ~record ~token ~validity
