(* The §5.2 push-down extension: storage-side selection/projection must be
   observationally equivalent to the PN-side scan pipeline, respect
   snapshots and the transaction's own writes, and actually reduce network
   traffic. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core

let run_sim f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine));
  Sim.Engine.run engine ~until:60_000_000_000 ();
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

let make_pn engine =
  let kv_config =
    { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
  in
  let db = Database.create engine ~kv_config () in
  (db, Database.add_pn db ())

let seed pn n =
  ignore (Database.exec pn "CREATE TABLE m (id INT, grp INT, v INT, PRIMARY KEY (id))");
  for i = 1 to n do
    ignore
      (Database.exec pn (Printf.sprintf "INSERT INTO m VALUES (%d, %d, %d)" i (i mod 5) (i * 10)))
  done

let rows_as_ints it =
  List.map (fun r -> Array.to_list (Array.map Value.as_int r)) (Query.to_list it)
  |> List.sort compare

let test_expr_codec =
  let open Query in
  let exprs =
    [
      Col 3;
      Lit (Value.Str "hello");
      Binop (And, Binop (Gt, Col 1, Lit (Value.Int 5)), Not (Is_null (Col 0)));
      Binop (Add, Binop (Mul, Col 0, Lit (Value.Float 1.5)), Lit Value.Null);
    ]
  in
  QCheck.Test.make ~name:"expr codec round trip" ~count:1
    QCheck.(always ())
    (fun () ->
      List.for_all
        (fun e ->
          let buf = Buffer.create 32 in
          Pushdown.encode_expr buf e;
          let decoded = Pushdown.decode_expr (Codec.cursor (Buffer.contents buf)) in
          decoded = e)
        exprs)

let test_equivalent_to_pn_scan () =
  run_sim (fun engine ->
      let _, pn = make_pn engine in
      seed pn 300;
      let predicate = Query.Binop (Query.Eq, Query.Col 1, Query.Lit (Value.Int 2)) in
      Database.with_txn pn (fun txn ->
          let via_pn =
            rows_as_ints
              (Query.project [ Query.Col 0; Query.Col 2 ]
                 (Query.filter predicate (Query.seq_scan txn ~table:"m")))
          in
          let via_sn =
            rows_as_ints (Pushdown.scan txn ~table:"m" ~predicate ~projection:[ 0; 2 ] ())
          in
          Alcotest.(check bool) "non-empty" true (List.length via_pn > 10);
          Alcotest.(check bool) "identical result sets" true (via_pn = via_sn)))

let test_sees_own_writes () =
  run_sim (fun engine ->
      let _, pn = make_pn engine in
      seed pn 20;
      Database.with_txn pn (fun txn ->
          ignore (Database.exec_in txn "INSERT INTO m VALUES (999, 2, 12345)");
          let predicate = Query.Binop (Query.Eq, Query.Col 1, Query.Lit (Value.Int 2)) in
          let rows = rows_as_ints (Pushdown.scan txn ~table:"m" ~predicate ()) in
          Alcotest.(check bool) "pending insert included" true
            (List.exists (fun r -> r = [ 999; 2; 12345 ]) rows)))

let test_respects_snapshot () =
  run_sim (fun engine ->
      let _, pn = make_pn engine in
      seed pn 20;
      let reader = Txn.begin_txn pn in
      ignore (Database.exec pn "UPDATE m SET v = 0 WHERE id = 7");
      let rows = rows_as_ints (Pushdown.scan reader ~table:"m" ()) in
      Alcotest.(check bool) "snapshot value, not the concurrent update" true
        (List.exists (fun r -> r = [ 7; 2; 70 ]) rows);
      Txn.commit reader;
      Database.with_txn pn (fun txn ->
          let rows = rows_as_ints (Pushdown.scan txn ~table:"m" ()) in
          Alcotest.(check bool) "fresh snapshot sees the update" true
            (List.exists (fun r -> r = [ 7; 2; 0 ]) rows)))

let test_saves_bandwidth () =
  run_sim (fun engine ->
      let _, pn = make_pn engine in
      seed pn 500;
      let net = Kv.Cluster.net (Database.cluster (fst (make_pn engine))) in
      ignore net;
      let bytes_for f =
        let net = Kv.Cluster.net (Pn.cluster pn) in
        Sim.Net.reset_counters net;
        Database.with_txn pn (fun txn -> ignore (Query.to_list (f txn)));
        Sim.Net.bytes_sent net
      in
      let predicate = Query.Binop (Query.Eq, Query.Col 1, Query.Lit (Value.Int 0)) in
      let full =
        bytes_for (fun txn -> Query.filter predicate (Query.seq_scan txn ~table:"m"))
      in
      let pushed =
        bytes_for (fun txn -> Pushdown.scan txn ~table:"m" ~predicate ~projection:[ 2 ] ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "push-down moves less data (%d vs %d bytes)" pushed full)
        true
        (pushed * 3 < full))

let () =
  Alcotest.run "pushdown"
    [
      ( "pushdown",
        [
          QCheck_alcotest.to_alcotest test_expr_codec;
          Alcotest.test_case "equivalent to PN-side scan" `Quick test_equivalent_to_pn_scan;
          Alcotest.test_case "sees own writes" `Quick test_sees_own_writes;
          Alcotest.test_case "respects snapshot" `Quick test_respects_snapshot;
          Alcotest.test_case "saves bandwidth" `Quick test_saves_bandwidth;
        ] );
    ]
