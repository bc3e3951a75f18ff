type program = {
  snapshot : Version_set.t;
  predicate : Query.expr option;
  projection : int list;
}

(* --- expression codec ----------------------------------------------------------- *)

let binop_tag (op : Query.binop) =
  match op with
  | Eq -> 'a' | Ne -> 'b' | Lt -> 'c' | Le -> 'd' | Gt -> 'e' | Ge -> 'f'
  | And -> 'g' | Or -> 'h'
  | Add -> 'i' | Sub -> 'j' | Mul -> 'k' | Div -> 'l' | Mod -> 'm'

let binop_of_tag = function
  | 'a' -> Query.Eq | 'b' -> Query.Ne | 'c' -> Query.Lt | 'd' -> Query.Le
  | 'e' -> Query.Gt | 'f' -> Query.Ge | 'g' -> Query.And | 'h' -> Query.Or
  | 'i' -> Query.Add | 'j' -> Query.Sub | 'k' -> Query.Mul | 'l' -> Query.Div
  | 'm' -> Query.Mod
  | c -> invalid_arg (Printf.sprintf "Pushdown: bad binop tag %C" c)

let rec encode_expr buf (e : Query.expr) =
  match e with
  | Col i ->
      Buffer.add_char buf 'C';
      Codec.put_int buf i
  | Lit v ->
      Buffer.add_char buf 'L';
      Codec.put_value buf v
  | Binop (op, a, b) ->
      Buffer.add_char buf 'B';
      Buffer.add_char buf (binop_tag op);
      encode_expr buf a;
      encode_expr buf b
  | Not e ->
      Buffer.add_char buf 'N';
      encode_expr buf e
  | Is_null e ->
      Buffer.add_char buf 'U';
      encode_expr buf e
  | Like (e, pattern) ->
      Buffer.add_char buf 'K';
      Codec.put_string buf pattern;
      encode_expr buf e

let rec decode_expr c : Query.expr =
  match Codec.read_char c with
  | 'C' -> Query.Col (Codec.read_int c)
  | 'L' -> Query.Lit (Codec.read_value c)
  | 'B' ->
      let op = binop_of_tag (Codec.read_char c) in
      let a = decode_expr c in
      let b = decode_expr c in
      Query.Binop (op, a, b)
  | 'N' -> Query.Not (decode_expr c)
  | 'U' -> Query.Is_null (decode_expr c)
  | 'K' ->
      let pattern = Codec.read_string c in
      Query.Like (decode_expr c, pattern)
  | ch -> invalid_arg (Printf.sprintf "Pushdown: bad expr tag %C" ch)

(* --- program codec ---------------------------------------------------------------- *)

let encode_program p =
  let buf = Buffer.create 64 in
  Codec.put_string buf (Version_set.encode p.snapshot);
  (match p.predicate with
  | None -> Buffer.add_char buf '\x00'
  | Some e ->
      Buffer.add_char buf '\x01';
      encode_expr buf e);
  Codec.put_int buf (List.length p.projection);
  List.iter (Codec.put_int buf) p.projection;
  Buffer.contents buf

let decode_program s =
  let c = Codec.cursor s in
  let snapshot = Version_set.decode (Codec.read_string c) in
  let predicate =
    match Codec.read_char c with
    | '\x00' -> None
    | '\x01' -> Some (decode_expr c)
    | ch -> invalid_arg (Printf.sprintf "Pushdown: bad predicate tag %C" ch)
  in
  let projection = List.init (Codec.read_count c) (fun _ -> Codec.read_int c) in
  { snapshot; predicate; projection }

(* --- storage-node side -------------------------------------------------------------- *)

let apply_projection projection tuple =
  match projection with
  | [] -> tuple
  | cols -> Array.of_list (List.map (fun c -> tuple.(c)) cols)

let evaluator ~program ~key:_ ~data =
  let p = decode_program program in
  let record = Record.decode data in
  match Record.latest_visible record ~visible:(Version_set.mem p.snapshot) with
  | Some { payload = Record.Tuple tuple; _ } ->
      let keep = match p.predicate with None -> true | Some e -> Query.eval_bool tuple e in
      if keep then begin
        let buf = Buffer.create 64 in
        Codec.put_tuple buf (apply_projection p.projection tuple);
        Some (Buffer.contents buf)
      end
      else None
  | Some { payload = Record.Tombstone; _ } | None -> None

(* --- processing-node side ------------------------------------------------------------- *)

let scan txn ~table ?predicate ?(projection = []) () =
  let program =
    encode_program { snapshot = Txn.snapshot txn; predicate; projection }
  in
  let stored =
    Tell_kv.Client.scan_eval_all
      (Pn.kv (Txn.pn txn))
      ~prefix:(Keys.record_prefix ~table) ~program
  in
  let remote_rows =
    List.map (fun (_, data, _) -> Codec.read_tuple (Codec.cursor data)) stored
  in
  (* The transaction's own pending rows never reached the store: apply the
     same selection/projection locally. *)
  let own_rows =
    List.filter_map
      (fun (_, tuple) ->
        let keep =
          match predicate with None -> true | Some e -> Query.eval_bool tuple e
        in
        if keep then Some (apply_projection projection tuple) else None)
      (Txn.pending_rows txn ~table)
  in
  Query.of_list (remote_rows @ own_rows)
