(* SQL layer: lexer/parser shapes, planner behaviour (index selection,
   joins, aggregation), and executor semantics (UPDATE/DELETE with
   predicates, ORDER BY/LIMIT/DISTINCT, NULL handling). *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core

let run_sim f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine));
  Sim.Engine.run engine ~until:60_000_000_000 ();
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation did not finish"

let with_db f =
  run_sim (fun engine ->
      let kv_config =
        { Kv.Cluster.default_config with n_storage_nodes = 3; replication_factor = 1 }
      in
      let db = Database.create engine ~kv_config () in
      let pn = Database.add_pn db () in
      f db pn)

let rows_to_string rows =
  String.concat "; "
    (List.map
       (fun row -> String.concat "," (Array.to_list (Array.map Value.to_string row)))
       rows)

let check_rows label expected result =
  Alcotest.(check string) label expected (rows_to_string (Database.rows result))

(* --- parser ---------------------------------------------------------------------- *)

let test_parse_errors () =
  let bad sql =
    match Sql_parser.parse sql with
    | exception Sql_ast.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" sql
  in
  bad "SELECT";
  bad "SELECT * FROM";
  bad "INSERT INTO t";
  bad "CREATE TABLE t (x BLOB)";
  bad "SELECT * FROM t WHERE";
  bad "UPDATE t SET";
  bad "SELECT * FROM t LIMIT x"

let test_parse_shapes () =
  (match Sql_parser.parse "SELECT a, b AS bee FROM t WHERE a > 3 ORDER BY b DESC LIMIT 5" with
  | Sql_ast.Select q ->
      Alcotest.(check int) "items" 2 (List.length q.sel_exprs);
      Alcotest.(check bool) "has where" true (q.where <> None);
      Alcotest.(check int) "order by" 1 (List.length q.order_by);
      Alcotest.(check (option int)) "limit" (Some 5) q.limit
  | _ -> Alcotest.fail "expected SELECT");
  (match Sql_parser.parse "INSERT INTO t (a, b) VALUES (1, 'x''y'), (2, NULL)" with
  | Sql_ast.Insert { columns = Some [ "a"; "b" ]; values; _ } ->
      Alcotest.(check int) "two rows" 2 (List.length values)
  | _ -> Alcotest.fail "expected INSERT with columns");
  match Sql_parser.parse "CREATE TABLE t (id INT, name VARCHAR(16), PRIMARY KEY (id))" with
  | Sql_ast.Create_table { cols; primary_key; _ } ->
      Alcotest.(check int) "cols" 2 (List.length cols);
      Alcotest.(check (list string)) "pk" [ "id" ] primary_key
  | _ -> Alcotest.fail "expected CREATE TABLE"

(* --- execution ------------------------------------------------------------------- *)

let seed_people pn =
  ignore
    (Database.exec pn "CREATE TABLE people (id INT, name TEXT, age INT, city TEXT, PRIMARY KEY (id))");
  ignore (Database.exec pn "CREATE INDEX idx_city ON people (city)");
  ignore
    (Database.exec pn
       "INSERT INTO people VALUES (1, 'ann', 34, 'zurich'), (2, 'ben', 28, 'basel'), \
        (3, 'cat', 41, 'zurich'), (4, 'dan', 28, 'bern'), (5, 'eva', 55, 'basel')")

let test_select_filtering () =
  with_db (fun _db pn ->
      seed_people pn;
      check_rows "equality via pk" "ann"
        (Database.exec pn "SELECT name FROM people WHERE id = 1");
      check_rows "range + order" "eva; cat; ann"
        (Database.exec pn "SELECT name FROM people WHERE age > 30 ORDER BY age DESC");
      check_rows "conjunction" "ben"
        (Database.exec pn "SELECT name FROM people WHERE age = 28 AND city = 'basel'");
      check_rows "disjunction + expression" "ann; dan"
        (Database.exec pn
           "SELECT name FROM people WHERE id + 3 = 4 OR (city = 'bern' AND NOT age > 99) ORDER BY name"))

let test_select_order_limit () =
  with_db (fun _db pn ->
      seed_people pn;
      check_rows "order by + limit" "eva; cat"
        (Database.exec pn "SELECT name FROM people ORDER BY age DESC LIMIT 2");
      check_rows "distinct" "28; 34; 41; 55"
        (Database.exec pn "SELECT DISTINCT age FROM people ORDER BY age"))

let test_secondary_index_used () =
  with_db (fun _db pn ->
      seed_people pn;
      check_rows "by city via secondary index" "ann; cat"
        (Database.exec pn "SELECT name FROM people WHERE city = 'zurich' ORDER BY name");
      (* Update that moves a row across index keys; the old entry must not
         resurface (version-unaware index + visibility re-check). *)
      ignore (Database.exec pn "UPDATE people SET city = 'geneva' WHERE name = 'ann'");
      check_rows "after move" "cat"
        (Database.exec pn "SELECT name FROM people WHERE city = 'zurich'");
      check_rows "new home" "ann" (Database.exec pn "SELECT name FROM people WHERE city = 'geneva'"))

let test_aggregation () =
  with_db (fun _db pn ->
      seed_people pn;
      check_rows "group by with multiple aggregates" "basel,2,83; bern,1,28; zurich,2,75"
        (Database.exec pn
           "SELECT city, COUNT(*), SUM(age) FROM people GROUP BY city ORDER BY city");
      check_rows "global aggregates" "5,186,28,55,37.2"
        (Database.exec pn
           "SELECT COUNT(*), SUM(age), MIN(age), MAX(age), AVG(age) FROM people");
      check_rows "aggregate over empty input" "0,NULL"
        (Database.exec pn "SELECT COUNT(*), SUM(age) FROM people WHERE age > 100"))

let test_join () =
  with_db (fun _db pn ->
      seed_people pn;
      ignore
        (Database.exec pn "CREATE TABLE cities (cname TEXT, country TEXT, PRIMARY KEY (cname))");
      ignore
        (Database.exec pn
           "INSERT INTO cities VALUES ('zurich', 'CH'), ('basel', 'CH'), ('paris', 'FR')");
      check_rows "equi-join via index on pk" "ann,CH; ben,CH; cat,CH; eva,CH"
        (Database.exec pn
           "SELECT p.name, c.country FROM people p, cities c WHERE p.city = c.cname ORDER BY p.name"))

let test_update_delete () =
  with_db (fun _db pn ->
      seed_people pn;
      (match Database.exec pn "UPDATE people SET age = age + 1 WHERE city = 'basel'" with
      | Sql_plan.Affected 2 -> ()
      | Sql_plan.Affected n -> Alcotest.failf "expected 2 updates, got %d" n
      | _ -> Alcotest.fail "expected Affected");
      check_rows "updated" "29; 56"
        (Database.exec pn "SELECT age FROM people WHERE city = 'basel' ORDER BY age");
      (match Database.exec pn "DELETE FROM people WHERE age > 50" with
      | Sql_plan.Affected 1 -> ()
      | _ -> Alcotest.fail "expected 1 delete");
      check_rows "post-delete count" "4" (Database.exec pn "SELECT COUNT(*) FROM people"))

let test_create_index_backfill () =
  with_db (fun _db pn ->
      seed_people pn;
      (* The index is created after the data exists: it must be backfilled
         and immediately usable. *)
      ignore (Database.exec pn "CREATE INDEX idx_age ON people (age)");
      check_rows "query through backfilled index" "ben,28; dan,28"
        (Database.exec pn "SELECT name, age FROM people WHERE age = 28 ORDER BY name"))

(* A backfill big enough to overflow the new index's one leaf several
   times over: its entries reach the tree as buffered messages, so the
   index answers straight away through the stripe merge, and the
   flusher's batched rounds split the leaf without losing an entry. *)
let test_create_index_backfill_populated () =
  with_db (fun db pn ->
      let n = 240 in
      ignore (Database.exec pn "CREATE TABLE t (id INT, grp INT, PRIMARY KEY (id))");
      for chunk = 0 to (n / 40) - 1 do
        ignore
          (Database.exec pn
             ("INSERT INTO t VALUES "
             ^ String.concat ", "
                 (List.init 40 (fun i ->
                      let id = (chunk * 40) + i + 1 in
                      Printf.sprintf "(%d, %d)" id (id mod 7)))))
      done;
      ignore (Database.exec pn "CREATE INDEX idx_grp ON t (grp)");
      let tree = Btree.attach (Pn.kv pn) ~name:"idx_grp" in
      let expect label =
        check_rows (label ^ ": count") "34"
          (Database.exec pn "SELECT COUNT(*) FROM t WHERE grp = 3");
        check_rows (label ^ ": rows") "6; 13; 20"
          (Database.exec pn "SELECT id FROM t WHERE grp = 6 ORDER BY id LIMIT 3");
        Alcotest.(check int)
          (label ^ ": index entries for one key") 34
          (List.length (Btree.lookup tree ~key:(Codec.encode_key [ Value.Int 3 ])))
      in
      expect "straight after CREATE INDEX";
      Alcotest.(check bool) "the flusher drained" true
        (Index_flusher.drain (Database.index_flusher db));
      expect "after the drain";
      Alcotest.(check int) "nothing pending" 0 (Btree.pending_messages tree);
      Alcotest.(check (list string)) "structurally sound" [] (Btree.check tree);
      Alcotest.(check int) "every row indexed" n
        (List.length (Btree.range tree ~lo:"" ~hi:"\xff")))

let test_null_semantics () =
  with_db (fun _db pn ->
      ignore (Database.exec pn "CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))");
      ignore (Database.exec pn "INSERT INTO t VALUES (1, 10), (2, NULL), (3, 30)");
      check_rows "null comparisons are never true" "1"
        (Database.exec pn "SELECT id FROM t WHERE v < 20");
      check_rows "is null" "2" (Database.exec pn "SELECT id FROM t WHERE v IS NULL");
      check_rows "is not null" "1; 3"
        (Database.exec pn "SELECT id FROM t WHERE v IS NOT NULL ORDER BY id");
      check_rows "aggregates skip nulls" "2,40" (Database.exec pn "SELECT COUNT(v), SUM(v) FROM t"))

let test_in_between_like_having () =
  with_db (fun _db pn ->
      seed_people pn;
      check_rows "IN list" "ann; ben; eva"
        (Database.exec pn "SELECT name FROM people WHERE id IN (1, 2, 5) ORDER BY name");
      check_rows "NOT IN" "cat; dan"
        (Database.exec pn "SELECT name FROM people WHERE id NOT IN (1, 2, 5) ORDER BY name");
      check_rows "BETWEEN" "ann; ben; dan"
        (Database.exec pn "SELECT name FROM people WHERE age BETWEEN 28 AND 35 ORDER BY name");
      check_rows "LIKE prefix" "basel; bern"
        (Database.exec pn "SELECT DISTINCT city FROM people WHERE city LIKE 'b%' ORDER BY city");
      check_rows "LIKE with underscore" "ben"
        (Database.exec pn "SELECT name FROM people WHERE name LIKE '_en'");
      check_rows "NOT LIKE" "eva"
        (Database.exec pn
           "SELECT name FROM people WHERE name NOT LIKE '%n%' AND name NOT LIKE 'c%'");
      check_rows "HAVING over groups" "basel,2; zurich,2"
        (Database.exec pn
           "SELECT city, COUNT(*) FROM people GROUP BY city HAVING COUNT(*) > 1 ORDER BY city");
      (* IN over an indexed column still uses correct results after
         desugaring to OR. *)
      match Database.exec pn "UPDATE people SET age = 99 WHERE id IN (2, 4)" with
      | Sql_plan.Affected 2 -> ()
      | _ -> Alcotest.fail "IN in UPDATE")

let test_multi_row_transactionality () =
  with_db (fun _db pn ->
      seed_people pn;
      (* A transaction that fails mid-way must leave nothing behind. *)
      (match
         Database.with_txn pn (fun txn ->
             ignore (Database.exec_in txn "UPDATE people SET age = 0 WHERE id = 1");
             failwith "application error")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected failure");
      check_rows "aborted update invisible" "34"
        (Database.exec pn "SELECT age FROM people WHERE id = 1"))

let () =
  Alcotest.run "sql"
    [
      ( "parser",
        [
          Alcotest.test_case "rejects malformed statements" `Quick test_parse_errors;
          Alcotest.test_case "statement shapes" `Quick test_parse_shapes;
        ] );
      ( "executor",
        [
          Alcotest.test_case "filtering" `Quick test_select_filtering;
          Alcotest.test_case "order/limit/distinct" `Quick test_select_order_limit;
          Alcotest.test_case "secondary index" `Quick test_secondary_index_used;
          Alcotest.test_case "aggregation" `Quick test_aggregation;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "update/delete" `Quick test_update_delete;
          Alcotest.test_case "create index backfill" `Quick test_create_index_backfill;
          Alcotest.test_case "create index over a populated table" `Quick
            test_create_index_backfill_populated;
          Alcotest.test_case "null semantics" `Quick test_null_semantics;
          Alcotest.test_case "IN/BETWEEN/LIKE/HAVING" `Quick test_in_between_like_having;
          Alcotest.test_case "transactional rollback" `Quick test_multi_row_transactionality;
        ] );
    ]
