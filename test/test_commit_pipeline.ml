(* The pipelined group-commit tail: [Txn.commit] returns once the updates
   and index entries are applied, while flagging the log entry and telling
   the commit manager happen in the PN's notifier fiber.  These tests pin
   the two crash windows that creates (§4.4.1):

   - PN dies with the outcome still queued -> the log entry is unflagged
     and recovery rolls the transaction back;
   - PN dies after the flag but before the manager heard -> recovery
     re-delivers [set_committed] so the tid leaves the active set. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core

let run_sim f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine));
  Sim.Engine.run engine ~until:120_000_000_000 ();
  match !result with Some r -> r | None -> Alcotest.fail "did not finish"

let make_db engine =
  let kv_config =
    { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
  in
  Database.create engine ~kv_config ()

let setup_rows pn n =
  ignore (Database.exec pn "CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))");
  for i = 1 to n do
    ignore (Database.exec pn (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i))
  done

let rid_of pn ~id =
  Database.with_txn pn (fun txn ->
      match Txn.index_lookup txn ~index:"pk_t" ~key:(Codec.encode_key [ Value.Int id ]) with
      | [ rid ] -> rid
      | _ -> Alcotest.fail "pk lookup")

(* Crash in the first window: the raw [Txn.commit] returns with the flag
   and the notification still queued; the queue dies with the PN and
   recovery must roll the (unflagged) transaction back. *)
let test_crash_before_flag_rolls_back () =
  run_sim (fun engine ->
      let db = make_db engine in
      let pn1 = Database.add_pn db () in
      let pn2 = Database.add_pn db () in
      setup_rows pn1 5;
      let rid = rid_of pn1 ~id:3 in
      let txn = Txn.begin_txn pn1 in
      Txn.update txn ~table:"t" ~rid [| Value.Int 3; Value.Int 999 |];
      Txn.commit txn;
      Alcotest.(check bool) "commit returned" true (Txn.status txn = Txn.Committed);
      (* No suspension point between [commit] and the crash, so the
         notifier cannot have flushed yet. *)
      Alcotest.(check bool) "outcome still queued" true
        (Notifier.pending (Pn.notifier pn1) > 0);
      Database.crash_pn db pn1;
      Alcotest.(check int) "one transaction rolled back" 1 (Database.recover_crashed_pns db);
      match Database.exec pn2 "SELECT v FROM t WHERE id = 3" with
      | Sql_plan.Rows { rows = [ [| Value.Int 3 |] ]; _ } -> ()
      | _ -> Alcotest.fail "unflagged commit was not rolled back")

(* Crash in the second window: the log entry is flagged but the manager
   never heard [set_committed].  Recovery must not roll back, must drain
   the tid from the active set (else the lav wedges), and the update must
   stay visible. *)
let test_crash_after_flag_keeps_commit () =
  run_sim (fun engine ->
      let db = make_db engine in
      let pn1 = Database.add_pn db () in
      let pn2 = Database.add_pn db () in
      setup_rows pn1 5;
      let rid = rid_of pn1 ~id:4 in
      let cm = List.hd (Database.commit_managers db) in
      let txn = Txn.begin_txn pn1 in
      let tid = Txn.tid txn in
      let entry =
        {
          Txlog.tid;
          pn_id = Pn.id pn1;
          timestamp = 0;
          write_set = [ Keys.record ~table:"t" ~rid ];
          committed = false;
        }
      in
      Txlog.append (Pn.kv pn1) entry;
      let key = Keys.record ~table:"t" ~rid in
      (match Kv.Client.get (Pn.kv pn1) key with
      | Some (data, token) ->
          let record =
            Record.add_version (Record.decode data) ~version:tid
              (Record.Tuple [| Value.Int 4; Value.Int 777 |])
          in
          (match Kv.Client.put_if (Pn.kv pn1) key (Some token) (Record.encode record) with
          | `Ok _ -> ()
          | `Conflict -> Alcotest.fail "apply failed")
      | None -> Alcotest.fail "record missing");
      Txlog.mark_committed_many (Pn.kv pn1) [ entry ];
      Database.crash_pn db pn1;
      Alcotest.(check int) "tid wedged in the active set" 1 (Commit_manager.active_count cm);
      Alcotest.(check int) "nothing rolled back" 0 (Database.recover_crashed_pns db);
      Alcotest.(check int) "active set drained" 0 (Commit_manager.active_count cm);
      match Database.exec pn2 "SELECT v FROM t WHERE id = 4" with
      | Sql_plan.Rows { rows = [ [| Value.Int 777 |] ]; _ } -> ()
      | _ -> Alcotest.fail "flagged commit lost its set_committed")

(* [Database.with_txn] (and [exec]) drain the notifier before returning:
   a crash right after must find the entry flagged. *)
let test_with_txn_is_durable_on_return () =
  run_sim (fun engine ->
      let db = make_db engine in
      let pn1 = Database.add_pn db () in
      setup_rows pn1 3;
      ignore (Database.exec pn1 "UPDATE t SET v = 42 WHERE id = 1");
      Alcotest.(check int) "nothing queued after exec" 0
        (Notifier.pending (Pn.notifier pn1));
      let entries = Txlog.scan (Pn.kv pn1) ~min_tid:0 in
      let unflagged = List.filter (fun (e : Txlog.entry) -> not e.committed) entries in
      Alcotest.(check int) "every logged entry flagged" 0 (List.length unflagged))

let () =
  Alcotest.run "commit_pipeline"
    [
      ( "crash windows",
        [
          Alcotest.test_case "unflagged outcome rolls back" `Quick
            test_crash_before_flag_rolls_back;
          Alcotest.test_case "flagged outcome keeps set_committed" `Quick
            test_crash_after_flag_keeps_commit;
          Alcotest.test_case "with_txn durable on return" `Quick
            test_with_txn_is_durable_on_return;
        ] );
    ]
