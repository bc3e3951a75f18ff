(* Relational schema descriptors.

   Tell maps every table to a rid-keyed record space plus a primary-key
   B+tree and optional secondary B+trees (§5.1, Figure 4).  The schema is
   itself persisted in the store under "s/<table>" so that any processing
   node can discover it. *)

type column = { col_name : string; col_type : Value.ty }

type index = {
  idx_name : string;
  idx_columns : int list;  (* positions into the table's columns *)
  idx_unique : bool;
}

type table = {
  tbl_name : string;
  columns : column array;
  primary_key : int list;
  secondary : index list;
}

exception Schema_error of string

let column_index table name =
  let rec scan i =
    if i >= Array.length table.columns then
      raise (Schema_error (Printf.sprintf "table %s has no column %s" table.tbl_name name))
    else if String.lowercase_ascii table.columns.(i).col_name = String.lowercase_ascii name then i
    else scan (i + 1)
  in
  scan 0

let make_table ~name ~columns ~primary_key ~secondary =
  let t =
    { tbl_name = name; columns = Array.of_list columns; primary_key = []; secondary = [] }
  in
  let pk = List.map (column_index t) primary_key in
  let secondary =
    List.map
      (fun (idx_name, cols, unique) ->
        { idx_name; idx_columns = List.map (column_index t) cols; idx_unique = unique })
      secondary
  in
  { t with primary_key = pk; secondary }

let primary_index_name table = "pk_" ^ table.tbl_name

let all_indexes table =
  match table.primary_key with
  | [] -> table.secondary
  | _ :: _ ->
      { idx_name = primary_index_name table; idx_columns = table.primary_key; idx_unique = true }
      :: table.secondary

let key_of_tuple ~columns tuple = List.map (fun i -> tuple.(i)) columns

let validate_tuple table tuple =
  if Array.length tuple <> Array.length table.columns then
    raise
      (Schema_error
         (Printf.sprintf "table %s expects %d columns, got %d" table.tbl_name
            (Array.length table.columns) (Array.length tuple)));
  Array.iteri
    (fun i v ->
      if not (Value.matches_type v table.columns.(i).col_type) then
        raise
          (Schema_error
             (Printf.sprintf "table %s column %s: value %s does not match type %s"
                table.tbl_name table.columns.(i).col_name (Value.to_string v)
                (Value.type_name table.columns.(i).col_type))))
    tuple

let encode_table t =
  let buf = Buffer.create 128 in
  Codec.put_string buf t.tbl_name;
  Codec.put_int buf (Array.length t.columns);
  Array.iter
    (fun c ->
      Codec.put_string buf c.col_name;
      Buffer.add_char buf
        (match c.col_type with T_int -> 'i' | T_float -> 'f' | T_str -> 's'))
    t.columns;
  Codec.put_int buf (List.length t.primary_key);
  List.iter (Codec.put_int buf) t.primary_key;
  Codec.put_int buf (List.length t.secondary);
  List.iter
    (fun idx ->
      Codec.put_string buf idx.idx_name;
      Buffer.add_char buf (if idx.idx_unique then 'u' else 'd');
      Codec.put_int buf (List.length idx.idx_columns);
      List.iter (Codec.put_int buf) idx.idx_columns)
    t.secondary;
  Buffer.contents buf

let decode_table s =
  let c = Codec.cursor s in
  let tbl_name = Codec.read_string c in
  let columns =
    Array.init (Codec.read_count c) (fun _ ->
        let col_name = Codec.read_string c in
        let col_type =
          match Codec.read_char c with
          | 'i' -> Value.T_int
          | 'f' -> Value.T_float
          | 's' -> Value.T_str
          | ch -> invalid_arg (Printf.sprintf "Schema.decode_table: bad column type tag %C" ch)
        in
        { col_name; col_type })
  in
  let read_int_list () = List.init (Codec.read_count c) (fun _ -> Codec.read_int c) in
  let primary_key = read_int_list () in
  let secondary =
    List.init (Codec.read_count c) (fun _ ->
        let idx_name = Codec.read_string c in
        let idx_unique =
          match Codec.read_char c with
          | 'u' -> true
          | 'd' -> false
          | ch -> invalid_arg (Printf.sprintf "Schema.decode_table: bad uniqueness tag %C" ch)
        in
        let idx_columns = read_int_list () in
        { idx_name; idx_columns; idx_unique })
  in
  { tbl_name; columns; primary_key; secondary }
