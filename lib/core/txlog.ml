(* Transaction log (§4.3 step 3, §4.4.1).

   An ordered map of entries in the shared store, keyed by tid.  Before a
   transaction applies any update it appends an entry with its processing
   node id, a timestamp, and the write set (the list of updated record
   keys); on success a commit flag is set.  The recovery process iterates
   the log backwards from the highest tid to the lav and rolls back
   partially applied transactions of failed processing nodes.

   Entry layout: byte 0 is the commit flag so that readers (including the
   commit-manager recovery path) can test it without a full decode. *)

module Kv = Tell_kv

type entry = {
  tid : int;
  pn_id : int;
  timestamp : int;
  write_set : string list;  (* record keys *)
  committed : bool;
}

let encode e =
  let buf = Buffer.create 128 in
  Buffer.add_char buf (if e.committed then '\x01' else '\x00');
  Codec.put_int buf e.pn_id;
  Codec.put_int buf e.timestamp;
  Codec.put_int buf (List.length e.write_set);
  List.iter (Codec.put_string buf) e.write_set;
  Buffer.contents buf

let decode ~tid s =
  let c = Codec.cursor s in
  let committed =
    match Codec.read_char c with
    | '\x00' -> false
    | '\x01' -> true
    | ch -> invalid_arg (Printf.sprintf "Txlog.decode: bad commit flag %C" ch)
  in
  let pn_id = Codec.read_int c in
  let timestamp = Codec.read_int c in
  let write_set = List.init (Codec.read_count c) (fun _ -> Codec.read_string c) in
  { tid; pn_id; timestamp; write_set; committed }

let append kv entry = Kv.Client.put kv (Keys.log_entry ~tid:entry.tid) (encode entry)

let mark_committed_many kv entries =
  match entries with
  | [] -> ()
  | _ ->
      ignore
        (Kv.Client.multi_write kv
           (List.map
              (fun e -> Kv.Op.Put (Keys.log_entry ~tid:e.tid, encode { e with committed = true }))
              entries))

let find kv ~tid =
  match Kv.Client.get kv (Keys.log_entry ~tid) with
  | Some (data, _) -> Some (decode ~tid data)
  | None -> None

let scan kv ~min_tid =
  let raw = Kv.Client.scan_all kv ~prefix:Keys.log_prefix in
  List.filter_map
    (fun (key, data, _) ->
      let tid = Keys.tid_of_log_key key in
      if tid >= min_tid then Some (decode ~tid data) else None)
    raw

let truncate_below kv ~min_tid =
  let raw = Kv.Client.scan_all kv ~prefix:Keys.log_prefix in
  List.iter
    (fun (key, _, _) ->
      if Keys.tid_of_log_key key < min_tid then
        ignore (Kv.Client.remove_if kv key None))
    raw
