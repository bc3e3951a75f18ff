(* The latch-free B+tree: model-based random testing against a reference
   map, bulk construction, concurrent flushes from several processing
   nodes, and structural invariants (§5.3).  Every mutation takes the one
   write path: Bε messages appended to a buffer stripe, applied to the
   leaves by a flush. *)

module Sim = Tell_sim
module Kv = Tell_kv
open Tell_core

module Entry_set = Set.Make (struct
  type t = string * int

  let compare = compare
end)

let with_cluster f =
  let engine = Sim.Engine.create () in
  let cluster =
    Kv.Cluster.create engine { Kv.Cluster.default_config with n_storage_nodes = 3 }
  in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine cluster));
  Sim.Engine.run engine ~until:120_000_000_000 ();
  match !result with Some r -> r | None -> Alcotest.fail "simulation did not finish"

let client cluster = Kv.Client.create cluster ~group:(Sim.Engine.root_group (Kv.Cluster.engine cluster))

(* Read through [f] from the leaves alone: merged reads replay the
   applied residue the stripe cells still hold, which would mask a
   message the bulk apply lost or misrouted. *)
let leaves_only f =
  Btree.unsafe_set_skip_buffer_merge true;
  Fun.protect ~finally:(fun () -> Btree.unsafe_set_skip_buffer_merge false) f

let enqueue tree ops = ignore (Btree.enqueue_many tree ~ops)

let op_key = function Btree.Add (key, _) | Btree.Del (key, _) -> key

(* Buffer [ops] and flush exactly the stripes they landed in — the
   production route into the bulk apply. *)
let apply_buffered tree ops =
  enqueue tree ops;
  List.iter
    (fun stripe -> ignore (Btree.flush_stripe tree ~stripe))
    (List.sort_uniq compare (List.map (fun op -> Btree.stripe_of tree (op_key op)) ops))

let insert_all tree entries = apply_buffered tree (List.map (fun e -> Btree.Add e) entries)

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take n = function
        | x :: rest when n > 0 ->
            let got, rem = take (n - 1) rest in
            (x :: got, rem)
        | rest -> ([], rest)
      in
      let got, rem = take n l in
      got :: chunks n rem

(* Install a bulk-built tree over [entries] straight into the store. *)
let bulk_load cluster ~name entries =
  List.iter
    (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
    (Btree.bulk_cells ~name ~entries)

(* Random operation sequence checked against a set model: single-message
   appends, flushed every few steps, so reads see both merged pending
   messages and leaves the flushes split. *)
let test_model_random () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"model";
      let tree = Btree.attach kv ~name:"model" in
      let rng = Random.State.make [| 1234 |] in
      let model = ref Entry_set.empty in
      for step = 1 to 1_500 do
        let key = Printf.sprintf "k%03d" (Random.State.int rng 200) in
        let rid = Random.State.int rng 5 in
        (match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            enqueue tree [ Btree.Add (key, rid) ];
            model := Entry_set.add (key, rid) !model
        | 6 | 7 ->
            enqueue tree [ Btree.Del (key, rid) ];
            model := Entry_set.remove (key, rid) !model
        | 8 ->
            let expected =
              Entry_set.elements (Entry_set.filter (fun (k, _) -> k = key) !model)
              |> List.map snd
            in
            Alcotest.(check (list int)) ("lookup " ^ key) expected (Btree.lookup tree ~key)
        | _ ->
            let lo = Printf.sprintf "k%03d" (Random.State.int rng 200) in
            let hi = Printf.sprintf "k%03d" (Random.State.int rng 200) in
            let lo, hi = if lo <= hi then (lo, hi) else (hi, lo) in
            let expected =
              Entry_set.elements (Entry_set.filter (fun (k, _) -> lo <= k && k < hi) !model)
            in
            Alcotest.(check (list (pair string int)))
              (Printf.sprintf "range [%s,%s)" lo hi)
              expected (Btree.range tree ~lo ~hi));
        if step mod 25 = 0 then ignore (Btree.flush_all tree)
      done;
      ignore (Btree.flush_all tree);
      Btree.check_invariants tree;
      (* Final full-range sweep, from the leaves alone. *)
      leaves_only (fun () ->
          Alcotest.(check (list (pair string int)))
            "final contents" (Entry_set.elements !model)
            (Btree.range tree ~lo:"" ~hi:"\xff")))

(* Enough flushed insertions to force leaf, inner, and root splits: small
   flushes that split the rightmost leaf two or three ways, then one big
   flush that splits a leaf dozens of ways at once. *)
let test_many_inserts_split () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"big";
      let tree = Btree.attach kv ~name:"big" in
      let n = 5_000 in
      let entries = List.init n (fun i -> (Printf.sprintf "key%06d" (i + 1), i + 1)) in
      let first, second = List.partition (fun (_, i) -> i <= n / 2) entries in
      List.iter (insert_all tree) (chunks 100 first);
      insert_all tree second;
      Btree.check_invariants tree;
      Alcotest.(check int) "all entries present" n
        (List.length (leaves_only (fun () -> Btree.range tree ~lo:"" ~hi:"\xff")));
      (* Point lookups across the range. *)
      for i = 1 to n do
        if i mod 137 = 0 then
          Alcotest.(check (list int))
            (Printf.sprintf "lookup %d" i)
            [ i ]
            (Btree.lookup tree ~key:(Printf.sprintf "key%06d" i))
      done)

(* Concurrent flushers on separate clients (PNs), each owning the buffer
   stripes of its own keyspace: their leaf splits race each other's
   separator CASes on the shared inner nodes, and all entries must end up
   present without latches, through LL/SC retries alone. *)
let test_concurrent_inserts () =
  with_cluster (fun engine cluster ->
      let n_workers = 6 in
      let per_worker = 400 in
      let key w j = Printf.sprintf "c%d_%05d" w j in
      (* Two bulk leaves of 48 per keyspace, one buffer stripe each. *)
      bulk_load cluster ~name:"conc"
        (List.concat (List.init n_workers (fun w -> List.init 96 (fun i -> (key w (2 * i), w)))));
      let kv0 = client cluster in
      let tree = Btree.attach kv0 ~name:"conc" in
      let owned =
        List.init n_workers (fun w ->
            List.sort_uniq compare
              (List.init (2 * per_worker) (fun j -> Btree.stripe_of tree (key w j))))
      in
      Alcotest.(check int) "keyspaces own disjoint stripes" (List.length (List.concat owned))
        (List.length (List.sort_uniq compare (List.concat owned)));
      let done_count = ref 0 in
      for w = 0 to n_workers - 1 do
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let tree = Btree.attach kv ~name:"conc" in
            let entries = List.init per_worker (fun i -> (key w ((2 * i) + 1), w)) in
            List.iter
              (fun chunk ->
                insert_all tree chunk;
                (* Interleave aggressively. *)
                Sim.Engine.sleep engine 1_000)
              (chunks 20 entries);
            incr done_count)
      done;
      (* Wait for every worker. *)
      while !done_count < n_workers do
        Sim.Engine.sleep engine 1_000_000
      done;
      Btree.check_invariants tree;
      Alcotest.(check int) "nothing pending" 0 (Btree.pending_messages tree);
      Alcotest.(check int) "all concurrent inserts present" (n_workers * (96 + per_worker))
        (List.length (leaves_only (fun () -> Btree.range tree ~lo:"" ~hi:"\xff"))))

(* Bulk construction must agree with incremental construction. *)
let test_bulk_matches_incremental () =
  with_cluster (fun _engine cluster ->
      let entries =
        List.init 2_000 (fun i -> (Printf.sprintf "key%05d" (i * 7 mod 2000), i mod 3))
      in
      let kv = client cluster in
      bulk_load cluster ~name:"bulk" entries;
      let tree = Btree.attach kv ~name:"bulk" in
      Btree.check_invariants tree;
      let expected = List.sort_uniq compare entries in
      Alcotest.(check (list (pair string int)))
        "bulk-built tree contains exactly the entries" expected
        (Btree.range tree ~lo:"" ~hi:"\xff");
      (* And it must remain fully updatable. *)
      apply_buffered tree [ Btree.Add ("key99999", 1); Btree.Del ("key00000", 0) ];
      Btree.check_invariants tree;
      Alcotest.(check (list int)) "insert after bulk" [ 1 ] (Btree.lookup tree ~key:"key99999");
      Alcotest.(check (list int)) "remove after bulk" []
        (leaves_only (fun () -> Btree.lookup tree ~key:"key00000")))

(* [range] honours both ends of [lo, hi): inclusive low, exclusive high,
   across leaf boundaries, and empty when the bounds cross. *)
let test_range_bounds () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"lim";
      let tree = Btree.attach kv ~name:"lim" in
      insert_all tree (List.init 500 (fun i -> (Printf.sprintf "k%04d" (i + 1), i + 1)));
      Alcotest.(check (list (pair string int)))
        "[k0001, k0011) holds the first ten"
        (List.init 10 (fun i -> (Printf.sprintf "k%04d" (i + 1), i + 1)))
        (Btree.range tree ~lo:"k0001" ~hi:"k0011");
      Alcotest.(check int) "a window spanning several leaves" 200
        (List.length (Btree.range tree ~lo:"k0100" ~hi:"k0300"));
      Alcotest.(check (list (pair string int))) "crossed bounds" []
        (Btree.range tree ~lo:"k0300" ~hi:"k0100"))

let test_lookup_many_grouped () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"many";
      let tree = Btree.attach kv ~name:"many" in
      insert_all tree (List.init 2_000 (fun i -> (Printf.sprintf "k%05d" (i + 1), i + 1)));
      let keys =
        List.map (fun i -> Printf.sprintf "k%05d" i) [ 1; 57; 58; 1999; 1500; 12345; 3 ]
      in
      let results =
        match Btree.lookup_many_grouped [ (tree, keys) ] with
        | [ results ] -> results
        | _ -> Alcotest.fail "one group expected"
      in
      Alcotest.(check int) "one result per key" (List.length keys) (List.length results);
      List.iter2
        (fun key (rkey, rids) ->
          Alcotest.(check string) "input order preserved" key rkey;
          Alcotest.(check (list int)) ("rids for " ^ key) (Btree.lookup tree ~key) rids)
        keys results;
      (* And the batched path agrees after mutations invalidate caches. *)
      apply_buffered tree [ Btree.Del ("k00057", 57); Btree.Add ("k00057", 5757) ];
      match Btree.lookup_many_grouped [ (tree, [ "k00057" ]) ] with
      | [ [ (_, rids) ] ] -> Alcotest.(check (list int)) "fresh value" [ 5757 ] rids
      | _ -> Alcotest.fail "single result expected")

(* Property: the flusher's bulk apply reaches exactly the sorted-assoc
   model, including while concurrent flushers on other clients mutate
   the same tree, a writer on yet another client appends to the stripes
   under the main fiber's flushes, and a fourth client rewrites the main
   fiber's leaves under it.  The tree is bulk-built with one leaf per
   buffer stripe and one keyspace per flushing fiber, so every stripe has
   a single flusher (as under the background flusher's single flight);
   the writer's appends race the main fiber's stripe CASes, the rewrites
   race its leaf and split CASes, and every fiber's splits race on the
   shared inner nodes. *)
let test_batched_matches_sequential () =
  with_cluster (fun engine cluster ->
      let key prefix i = Printf.sprintf "%s_%04d" prefix i in
      let prefixes = [ "c0"; "c1"; "c2"; "m" ] in
      (* 4 keyspaces x 192 entries = 16 bulk leaves of 48, one stripe each. *)
      let bulk = List.concat_map (fun p -> List.init 192 (fun i -> (key p i, 1_000))) prefixes in
      bulk_load cluster ~name:"p_bat" bulk;
      let kv0 = client cluster in
      let bat = Btree.attach kv0 ~name:"p_bat" in
      let owned =
        List.concat_map
          (fun p -> List.sort_uniq compare (List.init 200 (fun i -> Btree.stripe_of bat (key p i))))
          prefixes
      in
      Alcotest.(check int) "keyspaces own disjoint stripes" (List.length owned)
        (List.length (List.sort_uniq compare owned));
      (* Concurrent workers: each applies its own keyspace, splitting
         leaves under the main fiber's feet. *)
      let n_churn = 3 in
      let churn_done = ref 0 in
      let model = ref (Entry_set.of_list bulk) in
      for w = 0 to n_churn - 1 do
        let entries = List.init 120 (fun i -> (key (Printf.sprintf "c%d" w) i, i)) in
        let dels = List.filteri (fun i _ -> i mod 3 = 0) entries in
        List.iter (fun e -> model := Entry_set.add e !model) entries;
        List.iter (fun e -> model := Entry_set.remove e !model) dels;
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let bat = Btree.attach kv ~name:"p_bat" in
            List.iter
              (fun chunk ->
                insert_all bat chunk;
                Sim.Engine.sleep engine 2_000)
              (chunks 20 entries);
            apply_buffered bat (List.map (fun e -> Btree.Del e) dels);
            incr churn_done)
      done;
      (* A writer in the main fiber's keyspace that only appends: its
         messages land between the main fiber's stripe read and its
         watermark CAS, and must be folded in, never lost. *)
      let direct = List.init 150 (fun i -> (key "m" i, 7)) in
      Sim.Engine.spawn engine (fun () ->
          let kv = client cluster in
          let bat = Btree.attach kv ~name:"p_bat" in
          List.iter
            (fun e ->
              enqueue bat [ Btree.Add e ];
              Sim.Engine.sleep engine 300)
            direct;
          incr churn_done);
      (* A token bumper on the main fiber's leaves: it rewrites each "m"
         leaf's current bytes unchanged, so their content never moves but
         the main fiber's leaf CASes lose races.  A lost CAS must re-queue
         the leaf's messages, never drop them. *)
      let main_done = ref false in
      Sim.Engine.spawn engine (fun () ->
          let kv = client cluster in
          while not !main_done do
            List.iter
              (fun (cell, data, token) ->
                match Btree.decode_node data with
                | Btree.Leaf { entries; _ }
                  when Array.length entries > 0 && (fst entries.(0)).[0] = 'm' ->
                    ignore (Kv.Client.put_if kv cell (Some token) data)
                | Btree.Leaf _ | Btree.Inner _ -> ())
              (Kv.Client.scan_all kv ~prefix:"i/p_bat/n/");
            Sim.Engine.sleep engine 700
          done;
          incr churn_done);
      (* Main fiber: random mixed rounds over its own hot keyspace. *)
      let rng = Random.State.make [| 99 |] in
      for _round = 1 to 40 do
        let adds = ref [] and dels = ref [] in
        for _op = 1 to 25 do
          let key = key "m" (Random.State.int rng 150) in
          let rid = Random.State.int rng 4 in
          if Random.State.int rng 10 < 7 then begin
            if not (List.mem (key, rid) !adds) then adds := (key, rid) :: !adds
          end
          else if not (List.mem (key, rid) !dels) then dels := (key, rid) :: !dels
        done;
        let adds = List.rev !adds and dels = List.rev !dels in
        apply_buffered bat
          (List.map (fun e -> Btree.Add e) adds @ List.map (fun e -> Btree.Del e) dels);
        List.iter (fun e -> model := Entry_set.add e !model) adds;
        List.iter (fun e -> model := Entry_set.remove e !model) dels;
        Sim.Engine.sleep engine 1_000
      done;
      main_done := true;
      List.iter (fun e -> model := Entry_set.add e !model) direct;
      while !churn_done < n_churn + 2 do
        Sim.Engine.sleep engine 1_000_000
      done;
      ignore (Btree.flush_all bat);
      Alcotest.(check int) "nothing pending" 0 (Btree.pending_messages bat);
      Btree.check_invariants bat;
      leaves_only (fun () ->
          Alcotest.(check (list (pair string int)))
            "batched leaves = model" (Entry_set.elements !model)
            (Btree.range bat ~lo:"" ~hi:"\xff")))

(* Property: random buffered maintenance, flushed every round, against a
   sorted-assoc model,
   under seeded schedule shuffles.  The key pool is tiny (8 keys) while
   rids span 0..500, so runs of duplicates cross leaf boundaries and
   every descent must compare separators as full (key, rid) entries —
   comparing by key alone would lose or duplicate entries inside a run
   (CLAUDE.md "things that bite"). *)
let test_property_batched_separators () =
  let shuffle rng l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  List.iter
    (fun seed ->
      with_cluster (fun _engine cluster ->
          let kv = client cluster in
          let name = Printf.sprintf "prop%d" seed in
          Btree.create kv ~name;
          let tree = Btree.attach kv ~name in
          let rng = Random.State.make [| seed |] in
          (* The model is a sorted assoc of (key, rid) without duplicates —
             exactly the tree's advertised contents. *)
          let model = ref [] in
          let add e l = if List.mem e l then l else List.sort compare (e :: l) in
          let keys = [| "dA"; "dB"; "dC"; "dD"; "dE"; "dF"; "dG"; "dH" |] in
          let gen_entry () =
            (keys.(Random.State.int rng (Array.length keys)), Random.State.int rng 500)
          in
          for _round = 1 to 20 do
            let batch =
              List.sort_uniq compare (List.init (10 + Random.State.int rng 40) (fun _ -> gen_entry ()))
            in
            (* The shuffle is the property under test: batched maintenance
               must not depend on the submission order of a batch. *)
            let batch = shuffle rng batch in
            if Random.State.int rng 10 < 7 then begin
              apply_buffered tree (List.map (fun e -> Btree.Add e) batch);
              List.iter (fun e -> model := add e !model) batch
            end
            else begin
              apply_buffered tree (List.map (fun e -> Btree.Del e) batch);
              List.iter (fun e -> model := List.filter (( <> ) e) !model) batch
            end;
            (* A point lookup through the duplicate run each round: a
               key-only separator comparison would misroute exactly here. *)
            let k = keys.(Random.State.int rng (Array.length keys)) in
            Alcotest.(check (list int))
              (Printf.sprintf "seed %d lookup %s" seed k)
              (List.filter_map (fun (k', r) -> if k' = k then Some r else None) !model)
              (leaves_only (fun () -> Btree.lookup tree ~key:k))
          done;
          Btree.check_invariants tree;
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "seed %d tree = sorted-assoc model" seed)
            !model
            (leaves_only (fun () -> Btree.range tree ~lo:"" ~hi:"\xff"))))
    [ 7; 21; 42 ]

(* Bε buffered maintenance (§3d): random interleavings of buffered
   enqueues and partial and full flushes must track a set model — the
   merged read view at every step, and after a final flush the leaves
   alone.  Meanwhile a churn writer on another client flushes its own
   stripe, so its leaf and inner splits race the main fiber's bulk
   applies on the shared inner nodes. *)
let test_buffered_matches_direct () =
  List.iter
    (fun seed ->
      with_cluster (fun engine cluster ->
          let name = Printf.sprintf "beps%d" seed in
          (* Two bulk leaves, one buffer stripe each: the main fiber's
             keys ("b...") fall in stripe 0, the churn's ("z...") in
             stripe 1. *)
          bulk_load cluster ~name
            (List.init 48 (fun i -> (Printf.sprintf "a%03d" i, i))
            @ List.init 48 (fun i -> (Printf.sprintf "y%03d" i, i)));
          let kv0 = client cluster in
          let tree = Btree.attach kv0 ~name in
          Alcotest.(check (pair int int))
            "one stripe per writer" (0, 1)
            (Btree.stripe_of tree "b000", Btree.stripe_of tree "z00001");
          let churn_done = ref false in
          Sim.Engine.spawn engine (fun () ->
              let t2 = Btree.attach (client cluster) ~name in
              List.iter
                (fun chunk ->
                  insert_all t2 chunk;
                  Sim.Engine.sleep engine 2_000)
                (chunks 50 (List.init 400 (fun i -> (Printf.sprintf "z%05d" (i + 1), i + 1))));
              churn_done := true);
          let rng = Random.State.make [| seed |] in
          let model = ref Entry_set.empty in
          for round = 1 to 30 do
            let ops =
              List.init
                (5 + Random.State.int rng 20)
                (fun _ ->
                  let key = Printf.sprintf "b%03d" (Random.State.int rng 120) in
                  let rid = Random.State.int rng 6 in
                  if Random.State.int rng 10 < 7 then Btree.Add (key, rid)
                  else Btree.Del (key, rid))
            in
            enqueue tree ops;
            List.iter
              (function
                | Btree.Add e -> model := Entry_set.add e !model
                | Btree.Del e -> model := Entry_set.remove e !model)
              ops;
            if Random.State.int rng 3 > 0 then ignore (Btree.flush_stripe tree ~stripe:0);
            if round mod 5 = 0 then
              Alcotest.(check (list (pair string int)))
                (Printf.sprintf "seed %d round %d merged view" seed round)
                (Entry_set.elements !model)
                (Btree.range tree ~lo:"b" ~hi:"c")
          done;
          while not !churn_done do
            Sim.Engine.sleep engine 1_000_000
          done;
          ignore (Btree.flush_all tree);
          Alcotest.(check int) "no pending after final flush" 0 (Btree.pending_messages tree);
          Btree.check_invariants tree;
          leaves_only (fun () ->
              Alcotest.(check (list (pair string int)))
                (Printf.sprintf "seed %d leaves = model after flush" seed)
                (Entry_set.elements !model)
                (Btree.range tree ~lo:"b" ~hi:"c");
              Alcotest.(check int) "churn survived the flushes" 400
                (List.length (Btree.range tree ~lo:"z" ~hi:"\xff")))))
    [ 11; 23 ]

(* Every read path against a half-flushed tree: one stripe applied, the
   others still pending.  lookup, lookup_many_grouped, and range must all
   merge; the skip-merge mutant must expose the stale leaves; a full
   flush converges the two views. *)
let test_half_flushed_reads () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      (* Bulk-load so the stripe map has real fan-out. *)
      let entries = List.init 2_000 (fun i -> (Printf.sprintf "h%05d" i, i)) in
      List.iter
        (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
        (Btree.bulk_cells ~name:"half" ~entries);
      let tree = Btree.attach kv ~name:"half" in
      Alcotest.(check bool) "bulk tree has several stripes" true (Btree.stripe_count tree > 1);
      (* Three messages far enough apart to land in distinct stripes. *)
      enqueue tree
        [ Btree.Add ("h00100a", 7); Btree.Del ("h01500", 1500); Btree.Add ("h01900", 9999) ];
      ignore (Btree.flush_stripe tree ~stripe:(Btree.stripe_of tree "h00100a"));
      Alcotest.(check (list int)) "flushed stripe entry" [ 7 ] (Btree.lookup tree ~key:"h00100a");
      Alcotest.(check (list int)) "pending delete hides the leaf entry" []
        (Btree.lookup tree ~key:"h01500");
      Alcotest.(check (list int)) "pending add merges with the leaf" [ 1900; 9999 ]
        (Btree.lookup tree ~key:"h01900");
      Alcotest.(check (list (pair string int)))
        "range merges the delete"
        [ ("h01499", 1499); ("h01501", 1501) ]
        (Btree.range tree ~lo:"h01499" ~hi:"h01502");
      (match Btree.lookup_many_grouped [ (tree, [ "h01500"; "h01900" ]) ] with
      | [ [ (_, a); (_, b) ] ] ->
          Alcotest.(check (list int)) "batched lookup merges the delete" [] a;
          Alcotest.(check (list int)) "batched lookup merges the add" [ 1900; 9999 ] b
      | _ -> Alcotest.fail "two results expected");
      (* The harness mutant: reads that skip the merge see stale leaves. *)
      Btree.unsafe_set_skip_buffer_merge true;
      Fun.protect
        ~finally:(fun () -> Btree.unsafe_set_skip_buffer_merge false)
        (fun () ->
          Alcotest.(check (list int)) "skip-merge resurrects the deleted entry" [ 1500 ]
            (Btree.lookup tree ~key:"h01500");
          Alcotest.(check (list int)) "skip-merge hides the pending add" [ 1900 ]
            (Btree.lookup tree ~key:"h01900"));
      ignore (Btree.flush_all tree);
      Alcotest.(check int) "nothing pending" 0 (Btree.pending_messages tree);
      Btree.check_invariants tree;
      Alcotest.(check (list int)) "after flush: delete applied" []
        (Btree.lookup tree ~key:"h01500");
      Alcotest.(check (list int)) "after flush: add applied" [ 1900; 9999 ]
        (Btree.lookup tree ~key:"h01900"))

(* The two merge fast paths — [range]'s overlapped stripe fetch and
   [lookup_many_grouped]'s piggybacked one — read stripes and leaves
   with no ordering between them, and trust the merge only while the
   read window stays under the 2 ms merge guard.  Slow every request
   past it: both must redo the read stripes-then-leaves, still hiding
   the pending delete and merging the pending add, and the redo shows
   up as extra store requests. *)
let test_guard_overrun () =
  with_cluster (fun engine cluster ->
      let kv = client cluster in
      let entries = List.init 2_000 (fun i -> (Printf.sprintf "g%05d" i, i)) in
      List.iter
        (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
        (Btree.bulk_cells ~name:"guard" ~entries);
      let tree = Btree.attach kv ~name:"guard" in
      enqueue tree
        [ Btree.Add ("g00100a", 7); Btree.Del ("g01500", 1500); Btree.Add ("g01900", 9999) ];
      ignore (Btree.flush_stripe tree ~stripe:(Btree.stripe_of tree "g00100a"));
      let reads label =
        let before = Kv.Client.requests_sent kv in
        Alcotest.(check (list (pair string int)))
          (label ^ ": range hides the pending delete")
          [ ("g01499", 1499); ("g01501", 1501) ]
          (Btree.range tree ~lo:"g01499" ~hi:"g01502");
        Alcotest.(check (list (pair string int)))
          (label ^ ": range merges the pending add")
          [ ("g01900", 1900); ("g01900", 9999) ]
          (Btree.range tree ~lo:"g01900" ~hi:"g01901");
        let mid = Kv.Client.requests_sent kv in
        (match Btree.lookup_many_grouped [ (tree, [ "g00100a"; "g01500"; "g01900" ]) ] with
        | [ [ (_, flushed); (_, deleted); (_, added) ] ] ->
            Alcotest.(check (list int)) (label ^ ": batched lookup, flushed add") [ 7 ] flushed;
            Alcotest.(check (list int)) (label ^ ": batched lookup, pending delete") [] deleted;
            Alcotest.(check (list int)) (label ^ ": batched lookup, pending add") [ 1900; 9999 ] added
        | _ -> Alcotest.fail "three results expected");
        (mid - before, Kv.Client.requests_sent kv - mid)
      in
      (* The first pass warms the inner-node cache, so the two measured
         passes walk the same nodes. *)
      ignore (reads "warm-up");
      let quiet = reads "in time" in
      let now = Sim.Engine.now engine in
      (* +2 ms per hop: every request's round trip overruns the guard. *)
      Kv.Cluster.inject_latency_spike cluster ~from_ns:now ~until_ns:(now + 10_000_000_000)
        ~extra_ns:2_000_000 ();
      let slow = reads "overrun" in
      Alcotest.(check bool)
        (Printf.sprintf "range redid its scans (%d requests vs %d)" (fst slow) (fst quiet))
        true
        (fst slow > fst quiet);
      Alcotest.(check bool)
        (Printf.sprintf "batched lookup redid its keys (%d requests vs %d)" (snd slow) (snd quiet))
        true
        (snd slow > snd quiet))

let test_duplicate_keys () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"dup";
      let tree = Btree.attach kv ~name:"dup" in
      (* Many rids under the same attribute key (non-unique index), in one
         flush: the leaf splits four ways inside one duplicate run. *)
      insert_all tree (List.init 200 (fun i -> ("same", i + 1)));
      Btree.check_invariants tree;
      Alcotest.(check int) "all duplicates" 200 (List.length (Btree.lookup tree ~key:"same"));
      apply_buffered tree [ Btree.Del ("same", 77) ];
      let rids = leaves_only (fun () -> Btree.lookup tree ~key:"same") in
      Alcotest.(check int) "one removed" 199 (List.length rids);
      Alcotest.(check bool) "right one removed" false (List.mem 77 rids))

(* §3c fix: the loser of a concurrent split could leak an unreachable
   node when its cleanup (or a later step of the split) was interrupted
   by an exception.  Suspects are stashed on the handle and reclaimed at
   the next flush — provably stranded nodes are deleted, linked nodes
   survive even when over-stashed. *)
let test_orphan_reclaim () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"orph";
      let tree = Btree.attach kv ~name:"orph" in
      insert_all tree (List.init 300 (fun i -> (Printf.sprintf "k%04d" (i + 1), i + 1)));
      (* A stranded node: stored under a fresh id, never linked — the
         state an exception between storing a split piece and the CAS
         that links it leaves behind. *)
      let orphan = Kv.Client.increment kv (Keys.index_node_counter ~index:"orph") 1 in
      let orphan_key = Keys.index_node ~index:"orph" ~node_id:orphan in
      Kv.Client.put kv orphan_key
        (Btree.encode_node (Btree.Leaf { entries = [| ("k0150", 999) |]; high_key = None; next = None }));
      Btree.stash_orphan tree orphan;
      Alcotest.(check int) "stashed" 1 (Btree.orphan_count tree);
      (* The next flush reclaims it. *)
      apply_buffered tree [ Btree.Add ("k9999", 1) ];
      Alcotest.(check int) "stash drained" 0 (Btree.orphan_count tree);
      Alcotest.(check bool) "orphan deleted" true (Kv.Client.get kv orphan_key = None);
      (* The stranded entry never became visible. *)
      Alcotest.(check (list int)) "not visible" [ 150 ] (Btree.lookup tree ~key:"k0150");
      (* Over-stashing live nodes must reclaim nothing: stash every
         allocated node id and verify the tree survives intact. *)
      let top = Kv.Client.increment kv (Keys.index_node_counter ~index:"orph") 0 in
      for id = 1 to top do
        Btree.stash_orphan tree id
      done;
      Btree.reclaim_orphans tree;
      Btree.check_invariants tree;
      Alcotest.(check int) "no live node dropped" 301
        (List.length (leaves_only (fun () -> Btree.range tree ~lo:"" ~hi:"\xff"))))

(* Deep contention on the shared inner levels: eight flushers on separate
   clients, each owning the stripe of one hot duplicate key, split their
   leaves as fast as they can, so every split's separator CAS-races the
   others on the one root.  The deterministic growing retry pause must
   ride out [insert_sep]'s 64-attempt budget on every seed. *)
let run_hot_leaf seed =
  let engine = Sim.Engine.create () in
  let cluster =
    Kv.Cluster.create engine { Kv.Cluster.default_config with n_storage_nodes = 3; seed }
  in
  let result = ref None in
  Sim.Engine.spawn engine (fun () ->
      let n_workers = 8 and per_worker = 300 and bulk = 48 in
      let hot w = Printf.sprintf "hot%d" w in
      (* One bulk leaf, and so one stripe, per hot key. *)
      bulk_load cluster ~name:"hot"
        (List.concat (List.init n_workers (fun w -> List.init bulk (fun i -> (hot w, -i - 1)))));
      let done_count = ref 0 in
      for w = 0 to n_workers - 1 do
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let tree = Btree.attach kv ~name:"hot" in
            List.iter (insert_all tree)
              (chunks 10 (List.init per_worker (fun i -> (hot w, (w * per_worker) + i))));
            incr done_count)
      done;
      while !done_count < n_workers do
        Sim.Engine.sleep engine 1_000_000
      done;
      let tree = Btree.attach (client cluster) ~name:"hot" in
      Btree.check_invariants tree;
      result :=
        Some
          (leaves_only (fun () ->
               List.init n_workers (fun w -> List.length (Btree.lookup tree ~key:(hot w))))));
  Sim.Engine.run engine ~until:120_000_000_000 ();
  match !result with
  | Some counts ->
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d all present" seed)
        (List.init 8 (fun _ -> 48 + 300))
        counts
  | None -> Alcotest.fail (Printf.sprintf "seed %d did not finish" seed)

let test_hot_leaf_contention () = List.iter run_hot_leaf [ 1; 4; 6 ]

(* One flush per stripe at a time: a second flush of a stripe that the
   same handle is still flushing could re-apply an older message over a
   newer one, so it must be refused outright; once the first flush is
   done the stripe flushes normally again. *)
let test_concurrent_flush_refused () =
  with_cluster (fun engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"solo";
      let tree = Btree.attach kv ~name:"solo" in
      enqueue tree
        (List.init 20 (fun i -> Btree.Add (Printf.sprintf "s%03d" i, i)));
      let first = Sim.Ivar.create engine in
      Sim.Engine.spawn engine (fun () -> Sim.Ivar.fill first (Btree.flush_stripe tree ~stripe:0));
      (* The spawned flush runs first and suspends on its stripe read. *)
      Sim.Engine.sleep engine 1;
      (match Btree.flush_stripe tree ~stripe:0 with
      | _ -> Alcotest.fail "a second concurrent flush of one stripe must be refused"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "the first flush applied everything" 20 (Sim.Ivar.read first);
      Alcotest.(check int) "a later flush runs (nothing left)" 0
        (Btree.flush_stripe tree ~stripe:0);
      Alcotest.(check int) "no pending messages" 0 (Btree.pending_messages tree);
      Alcotest.(check int) "all entries in the leaves" 20
        (List.length (Btree.range tree ~lo:"s" ~hi:"t")))

(* One flush whose messages overflow a leaf more than twice over: the
   batched round must split the leaf as many ways as it takes in that
   same round — not fall back to one descent and CAS per message, which
   costs at least two store requests per message. *)
let test_flush_overflows_leaf () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"wide";
      let tree = Btree.attach kv ~name:"wide" in
      let key i = Printf.sprintf "w%04d" (i * 7919 mod 300) in
      let ops =
        List.concat
          (List.init 300 (fun i ->
               let add = Btree.Add (key i, i) in
               if i mod 5 = 4 then [ add; Btree.Del (key (i - 3), i - 3) ] else [ add ]))
      in
      let model =
        List.fold_left
          (fun m -> function
            | Btree.Add e -> if List.mem e m then m else List.sort compare (e :: m)
            | Btree.Del e -> List.filter (( <> ) e) m)
          [] ops
      in
      enqueue tree ops;
      Alcotest.(check int) "one stripe" 1 (Btree.stripe_count tree);
      let before = Kv.Client.requests_sent kv in
      Alcotest.(check int) "one flush applies every message" (List.length ops)
        (Btree.flush_stripe tree ~stripe:0);
      let requests = Kv.Client.requests_sent kv - before in
      Alcotest.(check bool)
        (Printf.sprintf "under two store requests per message (%d for %d)" requests
           (List.length ops))
        true
        (requests < 2 * List.length ops);
      Alcotest.(check int) "nothing pending" 0 (Btree.pending_messages tree);
      Alcotest.(check (list string)) "structurally sound" [] (Btree.check tree);
      leaves_only (fun () ->
          Alcotest.(check (list (pair string int)))
            "leaves = sorted-assoc model" model
            (Btree.range tree ~lo:"" ~hi:"\xff")))

let () =
  Alcotest.run "btree"
    [
      ( "btree",
        [
          Alcotest.test_case "model-based random ops" `Quick test_model_random;
          Alcotest.test_case "splits under sequential load" `Quick test_many_inserts_split;
          Alcotest.test_case "concurrent inserts (latch-free)" `Quick test_concurrent_inserts;
          Alcotest.test_case "bulk build = incremental" `Quick test_bulk_matches_incremental;
          Alcotest.test_case "range limit" `Quick test_range_bounds;
          Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys;
          Alcotest.test_case "lookup_many_grouped batched" `Quick test_lookup_many_grouped;
          Alcotest.test_case "batched maintenance = sequential" `Quick
            test_batched_matches_sequential;
          Alcotest.test_case "property: shuffled batches vs sorted-assoc model" `Quick
            test_property_batched_separators;
          Alcotest.test_case "property: buffered maintenance = direct" `Quick
            test_buffered_matches_direct;
          Alcotest.test_case "half-flushed reads merge pending messages" `Quick
            test_half_flushed_reads;
          Alcotest.test_case "merge-guard overrun redoes reads in order" `Quick
            test_guard_overrun;
          Alcotest.test_case "orphan reclamation after interrupted splits" `Quick
            test_orphan_reclaim;
          Alcotest.test_case "hot-leaf contention survives the attempt budget" `Quick
            test_hot_leaf_contention;
          Alcotest.test_case "concurrent flush of one stripe is refused" `Quick
            test_concurrent_flush_refused;
          Alcotest.test_case "one flush splits a leaf more than two ways" `Quick
            test_flush_overflows_leaf;
        ] );
    ]
