type payload = Tuple of Value.t array | Tombstone

type version = { version : int; payload : payload }

type t = version list (* newest first *)

let empty = []

let of_versions versions =
  List.sort (fun a b -> Int.compare b.version a.version) versions

let versions t = t
let version_numbers t = List.map (fun v -> v.version) t

let add_version t ~version payload =
  let entry = { version; payload } in
  let rec insert = function
    | [] -> [ entry ]
    | v :: rest when v.version = version -> entry :: rest
    | v :: rest when v.version < version -> entry :: v :: rest
    | v :: rest -> v :: insert rest
  in
  insert t

let latest_visible t ~visible = List.find_opt (fun v -> visible v.version) t

let newest = function [] -> None | v :: _ -> Some v

(* C = versions <= lav (visible to every transaction); everything in C but
   its newest member is unreachable.  A tombstone surviving as the sole
   remaining version makes the record empty. *)
let gc t ~lav =
  let rec split = function
    | [] -> ([], [])
    | v :: rest when v.version <= lav -> ([], v :: rest)
    | v :: rest ->
        let above, c = split rest in
        (v :: above, c)
  in
  let above, c = split t in
  match c with
  | [] -> (t, [])
  | survivor :: dropped ->
      let survivors =
        match (above, survivor.payload) with
        | [], Tombstone ->
            (* Nothing newer and the latest state is "deleted". *)
            []
        | _ -> above @ [ survivor ]
      in
      let removed =
        List.map (fun v -> v.version) dropped
        @ (if survivors = [] then [ survivor.version ] else [])
      in
      (survivors, removed)

let is_empty t = t = []

let remove_version t ~version = List.filter (fun v -> v.version <> version) t

let encode t =
  let buf = Buffer.create 128 in
  Codec.put_int buf (List.length t);
  List.iter
    (fun v ->
      Codec.put_int buf v.version;
      match v.payload with
      | Tombstone -> Buffer.add_char buf '\x00'
      | Tuple tuple ->
          Buffer.add_char buf '\x01';
          Codec.put_tuple buf tuple)
    t;
  Buffer.contents buf

let decode s =
  let c = Codec.cursor s in
  let rec read remaining =
    if remaining = 0 then []
    else begin
      let version = Codec.read_int c in
      let payload =
        match Codec.read_char c with
        | '\x00' -> Tombstone
        | '\x01' -> Tuple (Codec.read_tuple c)
        | ch -> invalid_arg (Printf.sprintf "Record.decode: bad payload tag %C" ch)
      in
      let v = { version; payload } in
      v :: read (remaining - 1)
    end
  in
  read (Codec.read_count c)
