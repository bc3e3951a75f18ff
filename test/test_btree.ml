(* The latch-free B+tree: model-based random testing against a reference
   map, bulk construction, concurrent insertions from several processing
   nodes, and structural invariants (§5.3). *)

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

(* Random operation sequence checked against a set model. *)
let test_model_random () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"model";
      let tree = Btree.attach kv ~name:"model" in
      let rng = Random.State.make [| 1234 |] in
      let model = ref Entry_set.empty in
      for _step = 1 to 1_500 do
        let key = Printf.sprintf "k%03d" (Random.State.int rng 200) in
        let rid = Random.State.int rng 5 in
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            Btree.insert tree ~key ~rid;
            model := Entry_set.add (key, rid) !model
        | 6 | 7 ->
            Btree.remove tree ~key ~rid;
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
              expected (Btree.range tree ~lo ~hi)
      done;
      Btree.check_invariants tree;
      (* Final full-range sweep. *)
      let all = Btree.range tree ~lo:"" ~hi:"\xff" in
      Alcotest.(check (list (pair string int))) "final contents" (Entry_set.elements !model) all)

(* Enough sequential insertions to force leaf, inner, and root splits. *)
let test_many_inserts_split () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"big";
      let tree = Btree.attach kv ~name:"big" in
      let n = 5_000 in
      for i = 1 to n do
        Btree.insert tree ~key:(Printf.sprintf "key%06d" i) ~rid:i
      done;
      Btree.check_invariants tree;
      Alcotest.(check int) "all entries present" n
        (List.length (Btree.range tree ~lo:"" ~hi:"\xff"));
      (* Point lookups across the range. *)
      for i = 1 to n do
        if i mod 137 = 0 then
          Alcotest.(check (list int))
            (Printf.sprintf "lookup %d" i)
            [ i ]
            (Btree.lookup tree ~key:(Printf.sprintf "key%06d" i))
      done)

(* Concurrent inserters on separate clients (PNs): all entries must end up
   present, without latches, through LL/SC retries alone. *)
let test_concurrent_inserts () =
  with_cluster (fun engine cluster ->
      let kv0 = client cluster in
      Btree.create kv0 ~name:"conc";
      let n_workers = 6 in
      let per_worker = 300 in
      let done_count = ref 0 in
      for w = 0 to n_workers - 1 do
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let tree = Btree.attach kv ~name:"conc" in
            for i = 0 to per_worker - 1 do
              let key = Printf.sprintf "k%05d" ((i * n_workers) + w) in
              Btree.insert tree ~key ~rid:w;
              (* Interleave aggressively. *)
              if i mod 7 = 0 then Sim.Engine.sleep engine 1_000
            done;
            incr done_count)
      done;
      (* Wait for every worker. *)
      while !done_count < n_workers do
        Sim.Engine.sleep engine 1_000_000
      done;
      let tree = Btree.attach kv0 ~name:"conc" in
      Btree.check_invariants tree;
      let all = Btree.range tree ~lo:"" ~hi:"\xff" in
      Alcotest.(check int) "all concurrent inserts present" (n_workers * per_worker)
        (List.length all))

(* Bulk construction must agree with incremental construction. *)
let test_bulk_matches_incremental () =
  with_cluster (fun _engine cluster ->
      let entries =
        List.init 2_000 (fun i -> (Printf.sprintf "key%05d" (i * 7 mod 2000), i mod 3))
      in
      let kv = client cluster in
      List.iter
        (fun (key, data) -> Kv.Client.put kv key data)
        (List.map (fun (k, v) -> (k, v)) []);
      ignore kv;
      (* Install bulk cells directly. *)
      List.iter
        (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
        (Btree.bulk_cells ~name:"bulk" ~entries);
      let tree = Btree.attach kv ~name:"bulk" in
      Btree.check_invariants tree;
      let expected = List.sort_uniq compare entries in
      Alcotest.(check (list (pair string int)))
        "bulk-built tree contains exactly the entries" expected
        (Btree.range tree ~lo:"" ~hi:"\xff");
      (* And it must remain fully updatable. *)
      Btree.insert tree ~key:"key99999" ~rid:1;
      Btree.remove tree ~key:"key00000" ~rid:0;
      Btree.check_invariants tree;
      Alcotest.(check (list int)) "insert after bulk" [ 1 ] (Btree.lookup tree ~key:"key99999"))

(* [range] honours both ends of [lo, hi): inclusive low, exclusive high,
   across leaf boundaries, and empty when the bounds cross. *)
let test_range_bounds () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"lim";
      let tree = Btree.attach kv ~name:"lim" in
      for i = 1 to 500 do
        Btree.insert tree ~key:(Printf.sprintf "k%04d" i) ~rid:i
      done;
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
      for i = 1 to 2_000 do
        Btree.insert tree ~key:(Printf.sprintf "k%05d" i) ~rid:i
      done;
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
      Btree.remove tree ~key:"k00057" ~rid:57;
      Btree.insert tree ~key:"k00057" ~rid:5757;
      match Btree.lookup_many_grouped [ (tree, [ "k00057" ]) ] with
      | [ [ (_, rids) ] ] -> Alcotest.(check (list int)) "fresh value" [ 5757 ] rids
      | _ -> Alcotest.fail "single result expected")

(* Read through [f] from the leaves alone: merged reads replay the
   applied residue the stripe cells still hold, which would mask a
   message the bulk apply lost or misrouted. *)
let leaves_only f =
  Btree.unsafe_set_skip_buffer_merge true;
  Fun.protect ~finally:(fun () -> Btree.unsafe_set_skip_buffer_merge false) f

let op_key = function Btree.Add (key, _) | Btree.Del (key, _) -> key

(* Buffer [ops] and flush exactly the stripes they landed in — the
   production route into the bulk apply. *)
let apply_buffered tree ops =
  Btree.enqueue_many tree ~ops;
  List.iter
    (fun stripe -> ignore (Btree.flush_stripe tree ~stripe))
    (List.sort_uniq compare (List.map (fun op -> Btree.stripe_of tree (op_key op)) ops))

(* Property: the flusher's bulk apply is equivalent to the sequential
   per-entry operations, including while concurrent flushers and a
   direct writer on other clients mutate the same tree.  Two trees
   receive the same operations — per entry on one, buffered and flushed
   on the other — and their leaves must end up identical.  Both trees
   are bulk-built with one leaf per buffer stripe and one keyspace per
   flushing fiber, so every stripe has a single flusher (as under the
   background flusher's single flight); the direct writer and the
   flushes race each other's leaf CASes, and every fiber's splits race
   on the shared inner nodes. *)
let test_batched_matches_sequential () =
  with_cluster (fun engine cluster ->
      let key prefix i = Printf.sprintf "%s_%04d" prefix i in
      let prefixes = [ "c0"; "c1"; "c2"; "m" ] in
      (* 4 keyspaces x 192 entries = 16 bulk leaves of 48, one stripe each. *)
      let bulk = List.concat_map (fun p -> List.init 192 (fun i -> (key p i, 1_000))) prefixes in
      List.iter
        (fun name ->
          List.iter
            (fun (key, data) -> Kv.Cluster.poke cluster ~key ~data)
            (Btree.bulk_cells ~name ~entries:bulk))
        [ "p_seq"; "p_bat" ];
      let kv0 = client cluster in
      let seq = Btree.attach kv0 ~name:"p_seq" in
      let bat = Btree.attach kv0 ~name:"p_bat" in
      let owned =
        List.concat_map
          (fun p -> List.sort_uniq compare (List.init 200 (fun i -> Btree.stripe_of bat (key p i))))
          prefixes
      in
      Alcotest.(check int) "keyspaces own disjoint stripes" (List.length owned)
        (List.length (List.sort_uniq compare owned));
      (* Concurrent workers: each applies its own keyspace to both trees,
         per entry on one and buffered on the other, splitting leaves
         under the main fiber's feet. *)
      let n_churn = 3 in
      let churn_done = ref 0 in
      for w = 0 to n_churn - 1 do
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let seq = Btree.attach kv ~name:"p_seq" in
            let bat = Btree.attach kv ~name:"p_bat" in
            let entries = List.init 120 (fun i -> (key (Printf.sprintf "c%d" w) i, i)) in
            let rec chunks = function
              | [] -> []
              | l ->
                  let rec take n = function
                    | x :: rest when n > 0 ->
                        let got, rem = take (n - 1) rest in
                        (x :: got, rem)
                    | rest -> ([], rest)
                  in
                  let got, rem = take 20 l in
                  got :: chunks rem
            in
            List.iter
              (fun chunk ->
                List.iter (fun (key, rid) -> Btree.insert seq ~key ~rid) chunk;
                apply_buffered bat (List.map (fun e -> Btree.Add e) chunk);
                Sim.Engine.sleep engine 2_000)
              (chunks entries);
            let dels = List.filteri (fun i _ -> i mod 3 = 0) entries in
            List.iter (fun (key, rid) -> Btree.remove seq ~key ~rid) dels;
            apply_buffered bat (List.map (fun e -> Btree.Del e) dels);
            incr churn_done)
      done;
      (* A direct writer in the main fiber's keyspace: its per-entry
         inserts CAS-race the main fiber's flushes on the same leaves. *)
      let direct = List.init 150 (fun i -> (key "m" i, 7)) in
      Sim.Engine.spawn engine (fun () ->
          let kv = client cluster in
          let seq = Btree.attach kv ~name:"p_seq" in
          let bat = Btree.attach kv ~name:"p_bat" in
          List.iter
            (fun (key, rid) ->
              Btree.insert seq ~key ~rid;
              Btree.insert bat ~key ~rid;
              Sim.Engine.sleep engine 300)
            direct;
          incr churn_done);
      (* Main fiber: random mixed rounds over its own hot keyspace. *)
      let rng = Random.State.make [| 99 |] in
      let model = ref (Entry_set.of_list (List.filter (fun (k, _) -> k.[0] = 'm') bulk)) in
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
        List.iter (fun (key, rid) -> Btree.insert seq ~key ~rid) adds;
        List.iter (fun (key, rid) -> Btree.remove seq ~key ~rid) dels;
        apply_buffered bat
          (List.map (fun e -> Btree.Add e) adds @ List.map (fun e -> Btree.Del e) dels);
        List.iter (fun e -> model := Entry_set.add e !model) adds;
        List.iter (fun e -> model := Entry_set.remove e !model) dels;
        Sim.Engine.sleep engine 1_000
      done;
      List.iter (fun e -> model := Entry_set.add e !model) direct;
      while !churn_done < n_churn + 1 do
        Sim.Engine.sleep engine 1_000_000
      done;
      ignore (Btree.flush_all bat);
      Alcotest.(check int) "nothing pending" 0 (Btree.pending_messages bat);
      Btree.check_invariants seq;
      Btree.check_invariants bat;
      leaves_only (fun () ->
          Alcotest.(check (list (pair string int)))
            "batched leaves = sequential leaves"
            (Btree.range seq ~lo:"" ~hi:"\xff")
            (Btree.range bat ~lo:"" ~hi:"\xff");
          Alcotest.(check (list (pair string int)))
            "batched leaves = model" (Entry_set.elements !model)
            (Btree.range bat ~lo:"m" ~hi:"n")))

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
   enqueues, partial and full flushes, and concurrent direct inserts
   that force splits under the buffer's feet must be equivalent to
   direct application — the merged read view tracks a set model at
   every step, and after a final flush the leaves alone hold exactly
   the model. *)
let test_buffered_matches_direct () =
  List.iter
    (fun seed ->
      with_cluster (fun engine cluster ->
          let kv0 = client cluster in
          let name = Printf.sprintf "beps%d" seed in
          Btree.create kv0 ~name;
          let tree = Btree.attach kv0 ~name in
          (* Direct churn from another client in a disjoint keyspace:
             leaf and inner splits race the flusher's bulk applies. *)
          let churn_done = ref false in
          Sim.Engine.spawn engine (fun () ->
              let kv = client cluster in
              let t2 = Btree.attach kv ~name in
              for i = 1 to 400 do
                Btree.insert t2 ~key:(Printf.sprintf "z%05d" i) ~rid:i;
                if i mod 50 = 0 then Sim.Engine.sleep engine 2_000
              done;
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
            Btree.enqueue_many tree ~ops;
            List.iter
              (function
                | Btree.Add e -> model := Entry_set.add e !model
                | Btree.Del e -> model := Entry_set.remove e !model)
              ops;
            (match Random.State.int rng 3 with
            | 0 -> ()
            | 1 ->
                ignore
                  (Btree.flush_stripe tree
                     ~stripe:(Random.State.int rng (Btree.stripe_count tree)))
            | _ -> ignore (Btree.flush_all tree));
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
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "seed %d leaves = model after flush" seed)
            (Entry_set.elements !model)
            (Btree.range tree ~lo:"b" ~hi:"c");
          Alcotest.(check int) "churn survived the flushes" 400
            (List.length (Btree.range tree ~lo:"z" ~hi:"\xff"))))
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
      Btree.enqueue_many tree
        ~ops:[ Btree.Add ("h00100a", 7); Btree.Del ("h01500", 1500); Btree.Add ("h01900", 9999) ];
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
      Btree.enqueue_many tree
        ~ops:[ Btree.Add ("g00100a", 7); Btree.Del ("g01500", 1500); Btree.Add ("g01900", 9999) ];
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
      (* Many rids under the same attribute key (non-unique index). *)
      for rid = 1 to 200 do
        Btree.insert tree ~key:"same" ~rid
      done;
      Alcotest.(check int) "all duplicates" 200 (List.length (Btree.lookup tree ~key:"same"));
      Btree.remove tree ~key:"same" ~rid:77;
      let rids = Btree.lookup tree ~key:"same" in
      Alcotest.(check int) "one removed" 199 (List.length rids);
      Alcotest.(check bool) "right one removed" false (List.mem 77 rids))

(* §3c fix: the loser of a concurrent split could leak an unreachable
   node when its cleanup (or a later step of the split) was interrupted
   by an exception.  Suspects are stashed on the handle and reclaimed at
   the next mutation — provably stranded nodes are deleted, linked nodes
   survive even when over-stashed. *)
let test_orphan_reclaim () =
  with_cluster (fun _engine cluster ->
      let kv = client cluster in
      Btree.create kv ~name:"orph";
      let tree = Btree.attach kv ~name:"orph" in
      for i = 1 to 300 do
        Btree.insert tree ~key:(Printf.sprintf "k%04d" i) ~rid:i
      done;
      (* A stranded node: stored, never linked. *)
      let orphan = Btree.debug_make_orphan tree ~key:"k0150" ~rid:999 in
      Alcotest.(check bool) "orphan stored" true (Btree.debug_node_exists tree orphan);
      Alcotest.(check int) "stashed" 1 (Btree.orphan_count tree);
      (* The next mutation reclaims it. *)
      Btree.insert tree ~key:"k9999" ~rid:1;
      Alcotest.(check int) "stash drained" 0 (Btree.orphan_count tree);
      Alcotest.(check bool) "orphan deleted" false (Btree.debug_node_exists tree orphan);
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
        (List.length (Btree.range tree ~lo:"" ~hi:"\xff")))

(* Deep same-leaf contention: eight fibers CAS-racing duplicate entries
   into one hot leaf used to exhaust the 64-attempt budget on some seeds
   ([Invalid_argument "Btree.insert: too many conflicts"]).  The
   deterministic growing retry pause must ride it out. *)
let run_hot_leaf seed =
  let engine = Sim.Engine.create () in
  let cluster =
    Kv.Cluster.create engine { Kv.Cluster.default_config with n_storage_nodes = 3; seed }
  in
  let result = ref None in
  Sim.Engine.spawn engine (fun () ->
      let kv0 = client cluster in
      Btree.create kv0 ~name:"hot";
      let n_workers = 8 and per_worker = 25 in
      let done_count = ref 0 in
      for w = 0 to n_workers - 1 do
        Sim.Engine.spawn engine (fun () ->
            let kv = client cluster in
            let tree = Btree.attach kv ~name:"hot" in
            for i = 0 to per_worker - 1 do
              Btree.insert tree ~key:"hot" ~rid:((w * per_worker) + i)
            done;
            incr done_count)
      done;
      while !done_count < n_workers do
        Sim.Engine.sleep engine 1_000_000
      done;
      let tree = Btree.attach kv0 ~name:"hot" in
      Btree.check_invariants tree;
      result := Some (List.length (Btree.lookup tree ~key:"hot")));
  Sim.Engine.run engine ~until:120_000_000_000 ();
  match !result with
  | Some n -> Alcotest.(check int) (Printf.sprintf "seed %d all present" seed) 200 n
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
      Btree.enqueue_many tree
        ~ops:(List.init 20 (fun i -> Btree.Add (Printf.sprintf "s%03d" i, i)));
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
        ] );
    ]
