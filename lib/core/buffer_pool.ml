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

(* How one requested record gets served. *)
type plan =
  | Served of (Record.t * int) option
  | Revalidate of entry * string  (* SBVS: a stale entry and its unit-cell key *)
  | Fetch of Version_set.t option  (* tag for the fetched copy; [None]: V_max *)

let hit t entry =
  t.hits <- t.hits + 1;
  touch t entry;
  Served (Some (entry.record, entry.token))

let miss t validity =
  t.misses <- t.misses + 1;
  Fetch validity

(* The strategy's whole say over a read.  TB fetches everything; SB
   serves an entry whose validity covers the snapshot and fetches the
   rest; SBVS sends a stale entry to unit-cell revalidation instead. *)
let classify t ~snapshot ~key ~table ~rid =
  match t.strategy with
  | Transaction_buffer -> miss t None
  | Shared_record_buffer _ | Shared_vs_buffer _ -> (
      match (Hashtbl.find_opt t.entries key, t.strategy) with
      | Some entry, _ when Version_set.subset snapshot entry.validity -> hit t entry
      | Some entry, Shared_vs_buffer { unit_size; _ } ->
          Revalidate (entry, unit_key ~table ~rid ~unit_size)
      | (Some _ | None), _ -> miss t None)

(* Unit-cell round: one multi-get of the cells of every stale entry.  A
   cell equal to the entry's tag means no write touched the unit since
   the copy was tagged, so the copy still serves; otherwise the record is
   refetched and tagged with the remote cell. *)
let revalidate t plans =
  let slots = ref [] and cells = ref [] in
  for i = Array.length plans - 1 downto 0 do
    match plans.(i) with
    | Revalidate (_, cell_key) ->
        slots := i :: !slots;
        cells := cell_key :: !cells
    | Served _ | Fetch _ -> ()
  done;
  match !cells with
  | [] -> ()
  | cells ->
      t.extra_requests <- t.extra_requests + List.length cells;
      List.iter2
        (fun i reply ->
          match (plans.(i), reply) with
          | Revalidate (entry, _), Some (cell, _) ->
              let remote = Version_set.decode cell in
              plans.(i) <-
                (if Version_set.equal remote entry.validity then hit t entry
                 else miss t (Some remote))
          | Revalidate _, None -> plans.(i) <- miss t None
          | (Served _ | Fetch _), _ -> assert false)
        !slots (Kv.Client.multi_get t.kv cells)

(* Record round: one multi-get of every record still to fetch, after the
   cell round, so a copy tagged with a remote cell shows every write the
   cell accounts.  V_max is taken before the fetch: every transaction in
   it committed before the fetch, so it is a sound tag for the whole
   batch.  TB never installs. *)
let fetch_records t keys plans =
  let slots = ref [] and fetch = ref [] in
  for i = Array.length plans - 1 downto 0 do
    match plans.(i) with
    | Fetch _ ->
        slots := i :: !slots;
        fetch := keys.(i) :: !fetch
    | Served _ | Revalidate _ -> ()
  done;
  match !fetch with
  | [] -> ()
  | fetch ->
      let installs =
        match t.strategy with
        | Transaction_buffer -> false
        | Shared_record_buffer _ | Shared_vs_buffer _ -> true
      in
      let vmax = t.vmax () in
      List.iter2
        (fun i reply ->
          let key = keys.(i) in
          plans.(i) <-
            Served
              (match (reply, plans.(i)) with
              | None, _ ->
                  if installs then Hashtbl.remove t.entries key;
                  None
              | Some (data, token), Fetch validity ->
                  let record = decode_record t ~key ~data ~token in
                  if installs then
                    install t ~key ~record ~token ~validity:(Option.value validity ~default:vmax);
                  Some (record, token)
              | Some _, (Served _ | Revalidate _) -> assert false))
        !slots (Kv.Client.multi_get t.kv fetch)

(* Every read is this one pipeline: classify, then the unit-cell round
   (SBVS only), then the record round — at most one store multi-get per
   round instead of one get per record.  Results are in input order;
   duplicate keys are the caller's concern (harmless here).

   Accounting audit (§3d): everything issued here rides the pool's own
   client — the PN's — so it lands in the reading transaction's read
   phase, which is right: these are the transaction's record fetches.
   Bε flush work (leaf and inner-node writes applying buffered index
   messages) never passes through this pool; it runs on the index
   flusher's management client and is aggregated as storage-bandwidth
   traffic there, not into any transaction's phase. *)
let read_many t ~snapshot pairs =
  let pairs = Array.of_list pairs in
  let keys = Array.map (fun (table, rid) -> Keys.record ~table ~rid) pairs in
  let plans =
    Array.mapi (fun i (table, rid) -> classify t ~snapshot ~key:keys.(i) ~table ~rid) pairs
  in
  revalidate t plans;
  fetch_records t keys plans;
  Array.fold_right
    (fun plan acc ->
      match plan with Served r -> r :: acc | Revalidate _ | Fetch _ -> assert false)
    plans []

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
