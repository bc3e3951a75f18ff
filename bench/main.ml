(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) — run with no arguments for the full sweep, or pass
   experiment names (fig5 fig8 table3 ...) and/or "quick".

   A bechamel suite of micro-benchmarks on the core data structures
   (snapshot descriptors, record and tuple codecs, store keys, key codec,
   histogram) runs first;
   the macro experiments then drive the full simulated cluster. *)

let microbenchmarks () =
  let open Bechamel in
  let open Tell_core in
  print_endline "=== Micro-benchmarks (bechamel) ===";
  let snapshot =
    let base = Version_set.of_base 100_000 in
    let vs = List.fold_left Version_set.add base [ 100_002; 100_005; 100_009 ] in
    Test.make ~name:"version_set.mem"
      (Staged.stage (fun () -> ignore (Version_set.mem vs 100_005)))
  in
  let vs_add =
    let vs = Version_set.of_base 5_000 in
    Test.make ~name:"version_set.add"
      (Staged.stage (fun () -> ignore (Version_set.add vs 5_002)))
  in
  let record =
    let r =
      List.fold_left
        (fun acc v ->
          Record.add_version acc ~version:v
            (Record.Tuple [| Value.Int v; Value.Str "payload"; Value.Float 3.14 |]))
        Record.empty [ 1; 5; 9; 12 ]
    in
    let encoded = Record.encode r in
    Test.make ~name:"record.decode+gc"
      (Staged.stage (fun () ->
           let r = Record.decode encoded in
           ignore (Record.gc r ~lav:9)))
  in
  let tuple_codec =
    let tuple = [| Value.Int 42; Value.Str "WAREHOUSE"; Value.Float 3.14; Value.Null |] in
    let buf = Buffer.create 64 in
    Test.make ~name:"codec.put_tuple+read_tuple"
      (Staged.stage (fun () ->
           Buffer.clear buf;
           Codec.put_tuple buf tuple;
           ignore (Codec.read_tuple (Codec.cursor (Buffer.contents buf)))))
  in
  let store_key =
    Test.make ~name:"keys.record"
      (Staged.stage (fun () -> ignore (Keys.record ~table:"order_line" ~rid:1_234_567)))
  in
  let key_codec =
    Test.make ~name:"codec.encode_key"
      (Staged.stage (fun () ->
           ignore (Codec.encode_key [ Value.Int 42; Value.Str "WAREHOUSE"; Value.Int 7 ])))
  in
  let histogram =
    let h = Tell_sim.Stats.Histogram.create () in
    Test.make ~name:"histogram.add"
      (Staged.stage (fun () -> Tell_sim.Stats.Histogram.add h 123_456))
  in
  let tests =
    Test.make_grouped ~name:"core"
      [ snapshot; vs_add; record; tuple_codec; store_key; key_codec; histogram ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  List.iter
    (fun instance ->
      let result = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ estimate ] -> Printf.printf "  %-36s %10.1f ns/op\n%!" name estimate
          | Some _ | None -> Printf.printf "  %-36s (no estimate)\n%!" name)
        result)
    instances

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "quick" args in
  let intensity = if quick then Tell_harness.Experiments.Quick else Tell_harness.Experiments.Full in
  let chosen = List.filter (fun a -> List.mem a Tell_harness.Experiments.names) args in
  microbenchmarks ();
  (match chosen with
  | [] -> Tell_harness.Experiments.all intensity
  | names -> List.iter (fun name -> Tell_harness.Experiments.by_name name intensity) names);
  print_endline "\nbench: done"
