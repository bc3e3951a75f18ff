(* Buffering strategies (§5.5): hit/miss behaviour of the shared record
   buffer, version-set revalidation of SBVS, and — the crucial property —
   observational equivalence: all three strategies must return exactly the
   same data under any interleaving of reads and remote writes. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core
module Tpcc = Tell_tpcc

let run_sim f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine));
  Sim.Engine.run engine ~until:120_000_000_000 ();
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

let make_db engine ~buffer =
  let kv_config =
    { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
  in
  let db = Database.create engine ~kv_config () in
  let pn_writer = Database.add_pn db () in
  let pn_reader = Database.add_pn db ~buffer () in
  let _ = Database.exec pn_writer "CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))" in
  for i = 1 to 50 do
    ignore (Database.exec pn_writer (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 100)))
  done;
  (db, pn_writer, pn_reader)

let read_value pn ~id =
  Database.with_txn pn (fun txn ->
      match Database.exec_in txn (Printf.sprintf "SELECT v FROM t WHERE id = %d" id) with
      | Sql_plan.Rows { rows = [ [| Value.Int v |] ]; _ } -> v
      | _ -> Alcotest.fail "read failed")

let test_sb_hits () =
  run_sim (fun engine ->
      let _, _, pn_reader =
        make_db engine ~buffer:(Buffer_pool.Shared_record_buffer { capacity = 1_000 })
      in
      (* §5.5.2: a buffered record tagged with V_max can only serve
         transactions whose snapshot is no newer — i.e. concurrent
         transactions that started before (or with) the one that filled
         the entry.  Start the older transaction first, warm the buffer
         with the younger one, then read through the older one. *)
      let older = Txn.begin_txn pn_reader in
      let younger = Txn.begin_txn pn_reader in
      let read_in txn id =
        match Database.exec_in txn (Printf.sprintf "SELECT v FROM t WHERE id = %d" id) with
        | Sql_plan.Rows { rows = [ [| Value.Int v |] ]; _ } -> v
        | _ -> Alcotest.fail "read failed"
      in
      List.iter (fun id -> ignore (read_in younger id)) [ 3; 7; 11 ];
      let before_hits = Buffer_pool.hits (Pn.pool pn_reader) in
      List.iter
        (fun id -> Alcotest.(check int) "value" (id * 100) (read_in older id))
        [ 3; 7; 11 ];
      Alcotest.(check bool) "buffer served the older transaction" true
        (Buffer_pool.hits (Pn.pool pn_reader) >= before_hits + 3);
      Txn.commit older;
      Txn.commit younger)

let test_remote_write_visibility ~buffer () =
  run_sim (fun engine ->
      let _, pn_writer, pn_reader = make_db engine ~buffer in
      (* Warm the reader's buffer. *)
      Alcotest.(check int) "initial" 500 (read_value pn_reader ~id:5);
      (* Remote PN updates the row; a NEW transaction on the reader must
         see it despite the buffered copy. *)
      ignore (Database.exec pn_writer "UPDATE t SET v = 9999 WHERE id = 5");
      Alcotest.(check int) "sees remote write" 9999 (read_value pn_reader ~id:5);
      (* And ten more rounds of write/read ping-pong stay coherent. *)
      for round = 1 to 10 do
        ignore
          (Database.exec pn_writer (Printf.sprintf "UPDATE t SET v = %d WHERE id = 5" round));
        Alcotest.(check int) (Printf.sprintf "round %d" round) round (read_value pn_reader ~id:5)
      done)

(* Run the same deterministic TPC-C load under each strategy: final
   database state (the YTD invariants and a district sample) must agree. *)
let test_strategies_equivalent () =
  let final_state buffer =
    run_sim (fun engine ->
        let kv_config =
          { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
        in
        let db = Database.create engine ~kv_config () in
        let pns = [ Database.add_pn db ~buffer (); Database.add_pn db ~buffer () ] in
        let scale =
          {
            Tpcc.Spec.warehouses = 2;
            districts_per_wh = 4;
            customers_per_district = 30;
            items = 100;
            stock_per_wh = 100;
            initial_orders_per_district = 30;
          }
        in
        let _ = Tpcc.Loader.load (Database.cluster db) ~scale ~seed:11 in
        let tell = Tpcc.Tell_engine.create db ~pns ~scale in
        let config =
          { Tpcc.Driver.terminals = 8; warmup_ns = 20_000_000; measure_ns = 150_000_000; seed = 3 }
        in
        let report =
          Tpcc.Driver.run
            (module Tpcc.Tell_engine : Tpcc.Engine_intf.ENGINE
              with type t = Tpcc.Tell_engine.t
               and type conn = Tpcc.Tell_engine.conn)
            tell ~engine ~scale ~mix:Tpcc.Spec.standard_mix ~config ()
        in
        Alcotest.(check bool) "ran" true (report.committed > 20);
        let violations = Tpcc.Consistency.check_all (List.nth pns 0) ~scale in
        Alcotest.(check (list string)) "consistent" [] violations;
        report.committed > 0)
  in
  Alcotest.(check bool) "TB consistent" true (final_state Buffer_pool.Transaction_buffer);
  Alcotest.(check bool) "SB consistent" true
    (final_state (Buffer_pool.Shared_record_buffer { capacity = 10_000 }));
  Alcotest.(check bool) "SBVS10 consistent" true
    (final_state (Buffer_pool.Shared_vs_buffer { capacity = 10_000; unit_size = 10 }));
  Alcotest.(check bool) "SBVS1000 consistent" true
    (final_state (Buffer_pool.Shared_vs_buffer { capacity = 10_000; unit_size = 1000 }))

(* SBVS unit-cell growth never gives up silently: each [note_applied]
   either lands its tid in the unit cell or counts a give-up.  Tids only
   accumulate in the cell (every grow is a union), so the tids found in
   the final cell are exactly the successful grows. *)
let test_unit_cell_give_ups () =
  let grow ~fibers ~calls_per_fiber =
    run_sim (fun engine ->
        let kv_config =
          { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
        in
        let cluster = Kv.Cluster.create engine kv_config in
        let kv = Kv.Client.create cluster ~group:(Sim.Engine.make_group engine "pn0") in
        let pool =
          Buffer_pool.create kv
            (Buffer_pool.Shared_vs_buffer { capacity = 1_000; unit_size = 100 })
            ~vmax:(fun () -> Version_set.empty)
        in
        let tids = List.init (fibers * calls_per_fiber) (fun i -> 1_000 + i) in
        let pending = ref fibers in
        let finished = Sim.Ivar.create engine in
        for f = 0 to fibers - 1 do
          Sim.Engine.spawn engine (fun () ->
              for c = 0 to calls_per_fiber - 1 do
                let rid = (f * calls_per_fiber) + c in
                Buffer_pool.note_applied pool ~table:"t" ~rid ~record:Record.empty ~token:0
                  ~tid:(1_000 + rid)
              done;
              decr pending;
              if !pending = 0 then Sim.Ivar.fill finished ())
        done;
        Sim.Ivar.read finished;
        let cell =
          match Kv.Client.get kv (Keys.version_set ~table:"t" ~unit_id:0) with
          | Some (data, _) -> Version_set.decode data
          | None -> Version_set.empty
        in
        let grown = List.length (List.filter (Version_set.mem cell) tids) in
        (grown, Buffer_pool.unit_cell_give_ups pool))
  in
  let grown, give_ups = grow ~fibers:1 ~calls_per_fiber:16 in
  Alcotest.(check (pair int int)) "a lone writer never gives up" (16, 0) (grown, give_ups);
  let grown, give_ups = grow ~fibers:16 ~calls_per_fiber:1 in
  Alcotest.(check int) "give-ups + successful grows = calls" 16 (grown + give_ups);
  Alcotest.(check bool) "16 racing writers exhaust some budgets" true (give_ups > 0)

(* Pin the pool's accounting, per strategy, over one fixed sequence on a
   reader PN whose peer writes under the same strategy: single fetches
   ([Txn.read], [Txn.update]), a batched read, a remote write, then
   re-reads.  Under SBVS the re-reads revalidate both ways: [r1]'s unit
   cell is unchanged (a hit that costs one cell fetch), [r2]'s was grown
   by the remote write (a refetch).  Each step records the deltas of
   (hits, misses, extra_requests, reader requests_sent). *)
let accounting_steps ~buffer =
  run_sim (fun engine ->
      let kv_config =
        { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
      in
      let db = Database.create engine ~kv_config () in
      let reader = Database.add_pn db ~buffer () in
      let writer = Database.add_pn db ~buffer () in
      ignore (Database.exec writer "CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))");
      for i = 1 to 30 do
        ignore (Database.exec writer (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i * 100)))
      done;
      let rid_of id =
        Database.with_txn writer (fun txn ->
            match Txn.index_lookup txn ~index:"pk_t" ~key:(Codec.encode_key [ Value.Int id ]) with
            | [ rid ] -> rid
            | _ -> Alcotest.fail "rid lookup failed")
      in
      let r1 = rid_of 3 and r2 = rid_of 15 and r3 = rid_of 25 in
      Alcotest.(check (list int)) "three distinct SBVS10 units" [ 0; 1; 2 ]
        (List.map (fun rid -> rid / 10) [ r1; r2; r3 ]);
      let pool = Pn.pool reader and kv = Pn.kv reader in
      let counters () =
        [ Buffer_pool.hits pool; Buffer_pool.misses pool; Buffer_pool.extra_requests pool;
          Kv.Client.requests_sent kv ]
      in
      let settle () = Sim.Engine.sleep engine 1_000_000 in
      let step f =
        let before = counters () in
        f ();
        List.map2 ( - ) (counters ()) before
      in
      settle ();
      let t1 = Txn.begin_txn reader in
      let single_read = step (fun () -> ignore (Txn.read t1 ~table:"t" ~rid:r1)) in
      let single_update =
        step (fun () -> Txn.update t1 ~table:"t" ~rid:r2 [| Value.Int 15; Value.Int 1 |])
      in
      let commit = step (fun () -> Txn.commit t1) in
      settle ();
      let t2 = Txn.begin_txn reader in
      let batch = step (fun () -> ignore (Txn.read_batch t2 ~table:"t" ~rids:[ r1; r2; r3 ])) in
      Txn.commit t2;
      ignore (Database.exec writer "UPDATE t SET v = 2 WHERE id = 15");
      settle ();
      let t3 = Txn.begin_txn reader in
      let reread_unchanged = step (fun () -> ignore (Txn.read t3 ~table:"t" ~rid:r1)) in
      let reread_changed = step (fun () -> ignore (Txn.read_batch t3 ~table:"t" ~rids:[ r2 ])) in
      Alcotest.(check (option int)) "re-read sees the remote write" (Some 2)
        (Option.map (fun row -> Value.as_int row.(1)) (Txn.read t3 ~table:"t" ~rid:r2));
      Txn.commit t3;
      [ single_read; single_update; commit; batch; reread_unchanged; reread_changed ])

let test_pool_accounting ~buffer ~expected () =
  let names = [ "read"; "update"; "commit"; "read_batch"; "re-read r1"; "re-read r2" ] in
  List.iter2
    (fun name (want, got) ->
      Alcotest.(check (list int)) (name ^ ": hits, misses, extra, requests") want got)
    names
    (List.combine expected (accounting_steps ~buffer))

let () =
  Alcotest.run "buffering"
    [
      ( "strategies",
        [
          Alcotest.test_case "shared buffer produces hits" `Quick test_sb_hits;
          Alcotest.test_case "SB: remote writes visible" `Quick
            (test_remote_write_visibility
               ~buffer:(Buffer_pool.Shared_record_buffer { capacity = 1_000 }));
          Alcotest.test_case "SBVS10: remote writes visible" `Quick
            (test_remote_write_visibility
               ~buffer:(Buffer_pool.Shared_vs_buffer { capacity = 1_000; unit_size = 10 }));
          Alcotest.test_case "SBVS1000: remote writes visible" `Quick
            (test_remote_write_visibility
               ~buffer:(Buffer_pool.Shared_vs_buffer { capacity = 1_000; unit_size = 1000 }));
          Alcotest.test_case "SBVS unit-cell give-ups are counted" `Quick test_unit_cell_give_ups;
          Alcotest.test_case "TB: pool accounting pinned" `Quick
            (test_pool_accounting ~buffer:Buffer_pool.Transaction_buffer
               ~expected:
                 [ [ 0; 1; 0; 1 ]; [ 0; 1; 0; 2 ]; [ 0; 0; 0; 2 ]; [ 0; 3; 0; 1 ]; [ 0; 1; 0; 1 ];
                   [ 0; 1; 0; 1 ] ]);
          Alcotest.test_case "SB: pool accounting pinned" `Quick
            (test_pool_accounting
               ~buffer:(Buffer_pool.Shared_record_buffer { capacity = 1_000 })
               ~expected:
                 [ [ 0; 1; 0; 1 ]; [ 0; 1; 0; 2 ]; [ 0; 0; 0; 2 ]; [ 1; 2; 0; 1 ]; [ 0; 1; 0; 1 ];
                   [ 0; 1; 0; 1 ] ]);
          Alcotest.test_case "SBVS10: pool accounting pinned" `Quick
            (test_pool_accounting
               ~buffer:(Buffer_pool.Shared_vs_buffer { capacity = 1_000; unit_size = 10 })
               ~expected:
                 [ [ 0; 1; 0; 1 ]; [ 0; 1; 0; 2 ]; [ 0; 0; 1; 4 ]; [ 1; 2; 1; 2 ]; [ 1; 0; 1; 1 ];
                   [ 0; 1; 1; 2 ] ]);
          Alcotest.test_case "all strategies TPC-C-consistent" `Slow test_strategies_equivalent;
        ] );
    ]
