(* Property tests for the data-mapping layer: tuple/record codecs, the
   order-preserving key encoding, and record garbage collection (§5.1,
   §5.4). *)

open Tell_core

let value_gen =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun i -> Value.Int i) int;
        map (fun f -> Value.Float f) (float_bound_inclusive 1e12);
        map (fun f -> Value.Float (-.f)) (float_bound_inclusive 1e12);
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 20));
      ])

let value_arb = QCheck.make ~print:Value.to_string value_gen

let tuple_arb =
  QCheck.make
    ~print:(fun t -> String.concat "," (Array.to_list (Array.map Value.to_string t)))
    QCheck.Gen.(array_size (int_range 0 12) value_gen)

let test_tuple_roundtrip =
  QCheck.Test.make ~name:"tuple encode/decode round trip" ~count:500 tuple_arb (fun tuple ->
      let buf = Buffer.create 64 in
      Codec.put_tuple buf tuple;
      let decoded = Codec.read_tuple (Codec.cursor (Buffer.contents buf)) in
      Array.length decoded = Array.length tuple
      && Array.for_all2 Value.equal decoded tuple)

(* Key encoding must be order-preserving for homogeneously typed columns
   (the only case the schema produces): byte-wise comparison of encoded
   keys equals lexicographic Value.compare of the component lists. *)
let typed_value_gen ty =
  QCheck.Gen.(
    match ty with
    | `Int -> map (fun i -> Value.Int i) int
    | `Float ->
        let* sign = bool in
        let* f = float_bound_inclusive 1e12 in
        return (Value.Float (if sign then f else -.f))
    | `Str -> map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 20)))

(* A pair of keys over the same column-type signature. *)
let key_pair_gen =
  QCheck.Gen.(
    let* signature = list_size (int_range 1 4) (oneofl [ `Int; `Float; `Str ]) in
    let* a = flatten_l (List.map typed_value_gen signature) in
    let* b = flatten_l (List.map typed_value_gen signature) in
    return (a, b))

let key_pair_arb =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s) vs (%s)"
        (String.concat "," (List.map Value.to_string a))
        (String.concat "," (List.map Value.to_string b)))
    key_pair_gen

let key_arb =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map Value.to_string l))
    QCheck.Gen.(
      let* signature = list_size (int_range 1 4) (oneofl [ `Int; `Float; `Str ]) in
      flatten_l (List.map typed_value_gen signature))

let rec compare_components a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys -> ( match Value.compare x y with 0 -> compare_components xs ys | c -> c)

let test_key_order =
  QCheck.Test.make ~name:"key encoding is order-preserving (typed columns)" ~count:1000
    key_pair_arb
    (fun (a, b) ->
      let ea = Codec.encode_key a and eb = Codec.encode_key b in
      let c = compare_components a b in
      if c = 0 then String.equal ea eb
      else if c < 0 then String.compare ea eb < 0
      else String.compare ea eb > 0)

let test_key_prefix_successor =
  QCheck.Test.make ~name:"prefix scans: prefix <= extended key < successor" ~count:500
    QCheck.(pair key_arb value_arb)
    (fun (prefix, extra) ->
      let has_nan = List.exists (function Value.Float f -> Float.is_nan f | _ -> false) in
      QCheck.assume (not (has_nan prefix || has_nan [ extra ]));
      let lo = Codec.encode_key prefix in
      let hi = Codec.encode_key_successor prefix in
      let extended = Codec.encode_key (prefix @ [ extra ]) in
      String.compare lo extended <= 0 && String.compare extended hi < 0)

(* --- records ------------------------------------------------------------------- *)

let record_gen =
  QCheck.Gen.(
    let* versions = list_size (int_range 0 8) (int_range 1 40) in
    let versions = List.sort_uniq Int.compare versions in
    let* payloads =
      flatten_l
        (List.map
           (fun v ->
             let* tombstone = bool in
             if tombstone then return (v, Record.Tombstone)
             else
               let* t = array_size (int_range 1 4) value_gen in
               return (v, Record.Tuple t))
           versions)
    in
    return
      (List.fold_left
         (fun acc (v, p) -> Record.add_version acc ~version:v p)
         Record.empty payloads))

let record_arb =
  QCheck.make ~print:(fun r -> String.concat "," (List.map string_of_int (Record.version_numbers r))) record_gen

let test_record_roundtrip =
  QCheck.Test.make ~name:"record encode/decode round trip" ~count:300 record_arb (fun r ->
      Record.version_numbers (Record.decode (Record.encode r)) = Record.version_numbers r)

let test_versions_sorted =
  QCheck.Test.make ~name:"versions kept newest-first" ~count:300 record_arb (fun r ->
      let vs = Record.version_numbers r in
      List.sort (fun a b -> Int.compare b a) vs = vs)

(* GC safety: for any lav, (1) versions above the lav survive, (2) the
   newest version at or below the lav survives (unless the whole record is
   a dead tombstone), (3) any snapshot whose base is >= lav reads the same
   visible version before and after GC. *)
let test_gc_safety =
  QCheck.Test.make ~name:"gc never changes what a live snapshot reads" ~count:500
    QCheck.(pair record_arb (int_range 0 45))
    (fun (r, lav) ->
      let compacted, _removed = Record.gc r ~lav in
      let snapshots = List.init 10 (fun i -> lav + i) in
      List.for_all
        (fun base ->
          let visible v = v <= base in
          let before = Record.latest_visible r ~visible in
          let after = Record.latest_visible compacted ~visible in
          match (before, after) with
          | None, None -> true
          | Some b, Some a -> b.version = a.version
          | Some b, None ->
              (* Permitted only when the surviving version was a tombstone
                 wholly below the lav (the record is logically deleted for
                 everyone). *)
              b.payload = Record.Tombstone && Record.is_empty compacted
          | None, Some _ -> false)
        snapshots)

let test_gc_keeps_newest =
  QCheck.Test.make ~name:"gc keeps at least the newest version of live records" ~count:300
    QCheck.(pair record_arb (int_range 0 45))
    (fun (r, lav) ->
      let compacted, _ = Record.gc r ~lav in
      match Record.newest r with
      | None -> Record.is_empty compacted
      | Some { payload = Record.Tombstone; version } ->
          Record.is_empty compacted || Record.version_numbers compacted = Record.version_numbers r
          || List.mem version (Record.version_numbers compacted)
      | Some { version; _ } -> List.mem version (Record.version_numbers compacted))

let test_remove_version =
  QCheck.Test.make ~name:"remove_version removes exactly that version" ~count:300
    QCheck.(pair record_arb (int_range 1 40))
    (fun (r, v) ->
      let r' = Record.remove_version r ~version:v in
      (not (List.mem v (Record.version_numbers r')))
      && List.for_all
           (fun u -> u = v || List.mem u (Record.version_numbers r'))
           (Record.version_numbers r))

(* --- store keys ------------------------------------------------------------------ *)

(* Every [Keys] constructor against the [Printf] format it replaced.  A
   one-byte difference reroutes the key ([Directory.partition_of_key])
   and changes every simulated number. *)
let key_formats =
  [
    ("record", (fun name n -> Keys.record ~table:name ~rid:n), fun name n -> Printf.sprintf "r/%s/%012d" name n);
    ("log_entry", (fun _ n -> Keys.log_entry ~tid:n), fun _ n -> Printf.sprintf "l/%012d" n);
    ( "index_node",
      (fun name n -> Keys.index_node ~index:name ~node_id:n),
      fun name n -> Printf.sprintf "i/%s/n/%d" name n );
    ( "index_buffer",
      (fun name n -> Keys.index_buffer ~index:name ~stripe:n),
      fun name n -> Printf.sprintf "i/%s/b/%03d" name n );
    ( "version_set",
      (fun name n -> Keys.version_set ~table:name ~unit_id:n),
      fun name n -> Printf.sprintf "v/%s/%d" name n );
    ( "commit_manager_state",
      (fun _ n -> Keys.commit_manager_state ~cm_id:n),
      fun _ n -> Printf.sprintf "m/cm/%03d" n );
    ("record_prefix", (fun name _ -> Keys.record_prefix ~table:name), fun name _ -> Printf.sprintf "r/%s/" name);
    ("index_root", (fun name _ -> Keys.index_root ~index:name), fun name _ -> Printf.sprintf "i/%s/root" name);
    ( "index_buffer_meta",
      (fun name _ -> Keys.index_buffer_meta ~index:name),
      fun name _ -> Printf.sprintf "i/%s/bufmeta" name );
  ]

let key_mismatches name n =
  List.filter_map
    (fun (label, make, reference) ->
      let got = make name n and want = reference name n in
      if String.equal got want then None else Some (Printf.sprintf "%s %S %d: %S <> %S" label name n got want))
    key_formats

let test_keys_edge_values () =
  let ints =
    [ 0; 1; 9; 10; 99; 100; 999; 1000; 99_999; 1_000_000_000_000 - 1; 1_000_000_000_000; max_int; -1; -42; min_int ]
  in
  let names = [ ""; "t"; "order_line"; "customer_last"; "a/b" ] in
  List.iter
    (fun name ->
      List.iter (fun n -> Alcotest.(check (list string)) "keys = printf" [] (key_mismatches name n)) ints)
    names

let test_keys_property =
  QCheck.Test.make ~name:"keys equal their printf formats" ~count:1000
    QCheck.(pair (string_gen_of_size Gen.(int_range 0 12) Gen.printable) int)
    (fun (name, n) -> key_mismatches name n = [] && key_mismatches name (abs n) = [])

(* --- cursor decoders ----------------------------------------------------------- *)

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

(* Every proper prefix of [encoded] must fail to decode. *)
let check_truncations label decode encoded =
  for len = 0 to String.length encoded - 1 do
    if not (raises_invalid (fun () -> decode (String.sub encoded 0 len))) then
      Alcotest.failf "%s: %d-byte prefix of %d decoded" label len (String.length encoded)
  done

let check_bad_tag label decode encoded ~at ~tag =
  let corrupt = Bytes.of_string encoded in
  Bytes.set corrupt at tag;
  if not (raises_invalid (fun () -> decode (Bytes.to_string corrupt))) then
    Alcotest.failf "%s: bad tag %C at %d decoded" label tag at

let float_bits = function Value.Float f -> Some (Int64.bits_of_float f) | _ -> None

let awkward_values =
  [
    Value.Float Float.nan;
    Value.Float (-0.0);
    Value.Float (Int64.float_of_bits 0x4000_0000_0000_0001L);
    Value.Float (Int64.float_of_bits 0xC000_0000_0000_0003L);
    Value.Str "nul\x00inside\x00";
    Value.Str "";
    Value.Int max_int;
    Value.Int min_int;
    Value.Null;
  ]

let test_values_roundtrip () =
  let buf = Buffer.create 64 in
  Codec.put_tuple buf (Array.of_list awkward_values);
  let encoded = Buffer.contents buf in
  let c = Codec.cursor encoded in
  let decoded = Codec.read_tuple c in
  Alcotest.(check bool) "consumed" true (Codec.at_end c);
  List.iteri
    (fun i v ->
      let d = decoded.(i) in
      match (float_bits v, float_bits d) with
      | Some a, Some b -> Alcotest.(check int64) "float bits" a b
      | _ -> Alcotest.(check bool) (Value.to_string v) true (Value.equal v d))
    awkward_values;
  let read_tuple s = Codec.read_tuple (Codec.cursor s) in
  check_truncations "tuple" read_tuple encoded;
  check_bad_tag "tuple" read_tuple encoded ~at:8 ~tag:'\x09'

let test_record_cursor () =
  let r =
    Record.of_versions
      [
        { version = 3; payload = Tuple (Array.of_list awkward_values) };
        { version = 7; payload = Tombstone };
        { version = 12; payload = Tuple [| Value.Int 1; Value.Str "x" |] };
        { version = 0; payload = Tuple [||] };
      ]
  in
  let encoded = Record.encode r in
  let decoded = Record.decode encoded in
  Alcotest.(check (list int)) "versions" [ 12; 7; 3; 0 ] (Record.version_numbers decoded);
  Alcotest.(check string) "re-encodes byte for byte" encoded (Record.encode decoded);
  Alcotest.(check bool) "tombstone kept" true
    (List.exists (fun (v : Record.version) -> v.version = 7 && v.payload = Tombstone) (Record.versions decoded));
  check_truncations "record" Record.decode encoded;
  (* count (8) + version (8), then the newest version's payload tag *)
  check_bad_tag "record" Record.decode encoded ~at:16 ~tag:'\x02'

let test_btree_nodes () =
  let leaf ~high_key ~next =
    Btree.Leaf { entries = [| ("a", 1); ("a", 2); ("b\x00", 3) |]; high_key; next }
  in
  let inner ~high_key ~next =
    Btree.Inner
      { seps = [| ("k", 4); ("q", 9) |]; children = [| 10; 11; 12 |]; high_key; next; level = 2 }
  in
  List.iter
    (fun (label, node) ->
      let encoded = Btree.encode_node node in
      Alcotest.(check bool) (label ^ " round trip") true (Btree.decode_node encoded = node);
      check_truncations label Btree.decode_node encoded;
      check_bad_tag label Btree.decode_node encoded ~at:0 ~tag:'X';
      check_bad_tag label Btree.decode_node encoded ~at:1 ~tag:'\x07')
    [
      ("leaf", leaf ~high_key:None ~next:None);
      ("leaf+link", leaf ~high_key:(Some ("m", 0)) ~next:(Some 42));
      ("inner", inner ~high_key:None ~next:None);
      ("inner+link", inner ~high_key:(Some ("z", 5)) ~next:(Some 7));
    ]

let test_stripe_cells () =
  let msgs = [ Btree.Add ("k1", 1); Btree.Del ("k\x002", 2); Btree.Add ("", 3) ] in
  List.iter
    (fun (label, (st : Btree.stripe_state)) ->
      let encoded = Btree.encode_stripe st in
      Alcotest.(check bool) (label ^ " round trip") true (Btree.decode_stripe encoded = st);
      (* A stripe may end after any whole message; cutting into the last
         one must fail. *)
      Alcotest.(check bool) (label ^ " truncated") true
        (raises_invalid (fun () -> Btree.decode_stripe (String.sub encoded 0 (String.length encoded - 1))));
      let first_msg = if st.applied <> 0 || st.applied_at <> 0 then 17 else 0 in
      check_bad_tag label Btree.decode_stripe encoded ~at:first_msg ~tag:'Z')
    [
      ("plain stripe", { applied = 0; applied_at = 0; msgs });
      ("watermarked stripe", { applied = 2; applied_at = 5_000_000; msgs });
    ];
  Alcotest.(check bool) "watermark cut short" true
    (raises_invalid (fun () -> Btree.decode_stripe "W\x01\x00"))

let test_log_vs_cm () =
  let entry =
    { Txlog.tid = 77; pn_id = 3; timestamp = 123_456; write_set = [ "r/t/000000000001"; "" ]; committed = true }
  in
  let encoded = Txlog.encode entry in
  Alcotest.(check bool) "txlog round trip" true (Txlog.decode ~tid:77 encoded = entry);
  check_truncations "txlog" (Txlog.decode ~tid:77) encoded;
  check_bad_tag "txlog" (Txlog.decode ~tid:77) encoded ~at:0 ~tag:'\x02';
  let vs = List.fold_left Version_set.add (Version_set.of_base 10) [ 12; 15; 40 ] in
  let encoded = Version_set.encode vs in
  Alcotest.(check bool) "version set round trip" true (Version_set.equal vs (Version_set.decode encoded));
  check_truncations "version set" Version_set.decode encoded;
  let base, decided, lav = (100, [ (103, true); (101, false); (250, true) ], 97) in
  let encoded = Commit_manager.encode_state ~base ~decided ~lav in
  Alcotest.(check bool) "cm state round trip" true (Commit_manager.decode_state encoded = (base, decided, lav));
  check_truncations "cm state" Commit_manager.decode_state encoded;
  (* base (8) + count (8) + first tid (8), then its commit flag *)
  check_bad_tag "cm state" Commit_manager.decode_state encoded ~at:24 ~tag:'\x05'

let test_schema_and_expr () =
  let table =
    Schema.make_table ~name:"orders"
      ~columns:
        [
          { col_name = "id"; col_type = Value.T_int };
          { col_name = "price"; col_type = Value.T_float };
          { col_name = "note"; col_type = Value.T_str };
        ]
      ~primary_key:[ "id" ] ~secondary:[ ("by_note", [ "note"; "id" ], false) ]
  in
  let encoded = Schema.encode_table table in
  Alcotest.(check bool) "schema round trip" true (Schema.decode_table encoded = table);
  check_truncations "schema" Schema.decode_table encoded;
  (* name (8 + 6) + column count (8) + "id" (8 + 2), then its type tag *)
  check_bad_tag "schema" Schema.decode_table encoded ~at:32 ~tag:'x';
  let expr = Query.(Binop (And, Binop (Lt, Col 1, Lit (Value.Float 2.5)), Like (Col 2, "a%"))) in
  let buf = Buffer.create 32 in
  Pushdown.encode_expr buf expr;
  let encoded = Buffer.contents buf in
  let decode s = Pushdown.decode_expr (Codec.cursor s) in
  Alcotest.(check bool) "expr round trip" true (decode encoded = expr);
  check_truncations "expr" decode encoded;
  check_bad_tag "expr" decode encoded ~at:0 ~tag:'?'

let () =
  Alcotest.run "record_codec"
    [
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [ test_tuple_roundtrip; test_key_order; test_key_prefix_successor ] );
      ( "keys",
        [ Alcotest.test_case "edge values equal printf" `Quick test_keys_edge_values ]
        @ List.map QCheck_alcotest.to_alcotest [ test_keys_property ] );
      ( "cursor",
        [
          Alcotest.test_case "awkward values" `Quick test_values_roundtrip;
          Alcotest.test_case "record versions and tombstone" `Quick test_record_cursor;
          Alcotest.test_case "btree leaf and inner nodes" `Quick test_btree_nodes;
          Alcotest.test_case "btree stripe cells" `Quick test_stripe_cells;
          Alcotest.test_case "txlog, version set, cm state" `Quick test_log_vs_cm;
          Alcotest.test_case "schema and push-down expr" `Quick test_schema_and_expr;
        ] );
      ( "record",
        List.map QCheck_alcotest.to_alcotest
          [
            test_record_roundtrip;
            test_versions_sorted;
            test_gc_safety;
            test_gc_keeps_newest;
            test_remove_version;
          ] );
    ]
