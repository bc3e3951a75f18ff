(* Unit and property tests for the simulation substrate. *)

module Sim = Tell_sim

let run ?(until = 10_000_000_000) f =
  let engine = Sim.Engine.create () in
  f engine;
  Sim.Engine.run engine ~until ();
  engine

(* --- event ordering ------------------------------------------------------------ *)

let test_event_order () =
  let log = ref [] in
  let _ =
    run (fun engine ->
        Sim.Engine.schedule engine ~delay:30 (fun () -> log := 3 :: !log);
        Sim.Engine.schedule engine ~delay:10 (fun () -> log := 1 :: !log);
        Sim.Engine.schedule engine ~delay:20 (fun () -> log := 2 :: !log);
        (* Same-instant events keep FIFO order. *)
        Sim.Engine.schedule engine ~delay:10 (fun () -> log := 11 :: !log))
  in
  Alcotest.(check (list int)) "timestamp then FIFO order" [ 1; 11; 2; 3 ] (List.rev !log)

let test_sleep_advances_clock () =
  let observed = ref (-1) in
  let engine =
    run (fun engine ->
        Sim.Engine.spawn engine (fun () ->
            Sim.Engine.sleep engine 1_234;
            Sim.Engine.sleep engine 766;
            observed := Sim.Engine.now engine))
  in
  Alcotest.(check int) "clock after sleeps" 2_000 !observed;
  Alcotest.(check int) "engine clock keeps running to the horizon" 10_000_000_000
    (Sim.Engine.now engine)

let test_heap_property =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let heap = Tell_sim.Heap.create () in
      List.iter (fun t -> Tell_sim.Heap.push heap ~time:t ()) times;
      let rec drain last =
        if Tell_sim.Heap.is_empty heap then Tell_sim.Heap.min_time heap = max_int
        else begin
          let t = Tell_sim.Heap.min_time heap in
          Tell_sim.Heap.pop_exn heap;
          t >= last && drain t
        end
      in
      drain min_int)

(* --- cancellation ----------------------------------------------------------------- *)

let test_group_cancellation () =
  let progressed = ref 0 in
  let cancelled = ref false in
  let _ =
    run (fun engine ->
        let group = Sim.Engine.make_group engine "victim" in
        Sim.Engine.spawn engine ~group (fun () ->
            match
              incr progressed;
              Sim.Engine.sleep engine 1_000;
              incr progressed;
              Sim.Engine.sleep engine 1_000_000;
              incr progressed
            with
            | () -> ()
            | exception Sim.Engine.Cancelled ->
                cancelled := true;
                raise Sim.Engine.Cancelled);
        Sim.Engine.schedule engine ~delay:5_000 (fun () -> Sim.Engine.Group.kill group))
  in
  Alcotest.(check int) "stopped at the suspension point" 2 !progressed;
  Alcotest.(check bool) "observed Cancelled" true !cancelled

(* --- resources ---------------------------------------------------------------------- *)

let test_resource_serializes () =
  (* 4 jobs of 100ns on a 2-server resource: finish at 100, 100, 200, 200. *)
  let finish_times = ref [] in
  let _ =
    run (fun engine ->
        let cpu = Sim.Resource.create engine ~servers:2 "cpu" in
        for _ = 1 to 4 do
          Sim.Engine.spawn engine (fun () ->
              Sim.Resource.use cpu ~demand:100;
              finish_times := Sim.Engine.now engine :: !finish_times)
        done)
  in
  Alcotest.(check (list int)) "queueing delays" [ 100; 100; 200; 200 ] (List.sort compare !finish_times)

let test_resource_utilization () =
  let busy = ref 0 in
  let _ =
    run (fun engine ->
        let cpu = Sim.Resource.create engine ~servers:1 "cpu" in
        for _ = 1 to 10 do
          Sim.Engine.spawn engine (fun () -> Sim.Resource.use cpu ~demand:50)
        done;
        Sim.Engine.schedule engine ~delay:1_000 (fun () -> busy := Sim.Resource.busy_time cpu))
  in
  Alcotest.(check int) "total service time accounted" 500 !busy

(* --- ivar / mailbox / mutex ----------------------------------------------------------- *)

let test_ivar () =
  let results = ref [] in
  let _ =
    run (fun engine ->
        let iv = Sim.Ivar.create engine in
        for i = 1 to 3 do
          Sim.Engine.spawn engine (fun () ->
              let v = Sim.Ivar.read iv in
              results := (i, v, Sim.Engine.now engine) :: !results)
        done;
        Sim.Engine.schedule engine ~delay:500 (fun () -> Sim.Ivar.fill iv 42))
  in
  Alcotest.(check int) "all readers woken" 3 (List.length !results);
  List.iter
    (fun (_, v, t) ->
      Alcotest.(check int) "value" 42 v;
      Alcotest.(check int) "time of wake" 500 t)
    !results

let test_ivar_exn () =
  let raised = ref false in
  let _ =
    run (fun engine ->
        let iv = Sim.Ivar.create engine in
        Sim.Engine.spawn engine (fun () ->
            match Sim.Ivar.read iv with
            | _ -> ()
            | exception Failure msg -> raised := msg = "boom");
        Sim.Engine.schedule engine ~delay:10 (fun () -> Sim.Ivar.fill_exn iv (Failure "boom")))
  in
  Alcotest.(check bool) "exception propagated to reader" true !raised

let test_mailbox_fifo () =
  let received = ref [] in
  let _ =
    run (fun engine ->
        let mb = Sim.Mailbox.create engine in
        Sim.Engine.spawn engine (fun () ->
            for _ = 1 to 5 do
              received := Sim.Mailbox.recv mb :: !received
            done);
        Sim.Engine.schedule engine ~delay:100 (fun () -> List.iter (Sim.Mailbox.send mb) [ 1; 2; 3; 4; 5 ]))
  in
  Alcotest.(check (list int)) "FIFO delivery" [ 1; 2; 3; 4; 5 ] (List.rev !received)

let test_mutex_exclusion () =
  let inside = ref 0 in
  let max_inside = ref 0 in
  let _ =
    run (fun engine ->
        let m = Sim.Mutex.create engine in
        for _ = 1 to 8 do
          Sim.Engine.spawn engine (fun () ->
              Sim.Mutex.with_lock m (fun () ->
                  incr inside;
                  max_inside := max !max_inside !inside;
                  Sim.Engine.sleep engine 100;
                  decr inside))
        done)
  in
  Alcotest.(check int) "mutual exclusion" 1 !max_inside

(* --- determinism ------------------------------------------------------------------------ *)

let test_determinism () =
  let trace () =
    let log = Buffer.create 256 in
    let engine = Sim.Engine.create () in
    let rng = Sim.Rng.make 7 in
    let net = Sim.Net.create engine rng Sim.Net.infiniband in
    for i = 1 to 5 do
      Sim.Engine.spawn engine (fun () ->
          Sim.Net.transfer net ~bytes:(i * 100);
          Buffer.add_string log (Printf.sprintf "%d@%d;" i (Sim.Engine.now engine)))
    done;
    Sim.Engine.run engine ();
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same trace" (trace ()) (trace ())

(* --- statistics --------------------------------------------------------------------------- *)

let test_histogram_percentiles =
  QCheck.Test.make ~name:"histogram percentile within quantisation error of exact" ~count:50
    QCheck.(list_of_size (Gen.int_range 50 300) (int_range 1 5_000_000))
    (fun samples ->
      let h = Sim.Stats.Histogram.create () in
      List.iter (Sim.Stats.Histogram.add h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      List.for_all
        (fun p ->
          let rank = max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)) in
          let exact = List.nth sorted rank in
          let approx = Sim.Stats.Histogram.percentile h p in
          (* Log-linear buckets bound the relative error at ~2/64. *)
          float_of_int approx >= float_of_int exact *. 0.95
          && float_of_int approx <= float_of_int exact *. 1.05)
        [ 50.0; 90.0; 99.0 ])

let test_moments () =
  let m = Sim.Stats.Moments.create () in
  List.iter (Sim.Stats.Moments.add m) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Sim.Stats.Moments.mean m);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 (Sim.Stats.Moments.stddev m)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "event ordering" `Quick test_event_order;
          Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
          QCheck_alcotest.to_alcotest test_heap_property;
          Alcotest.test_case "group cancellation" `Quick test_group_cancellation;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "resources",
        [
          Alcotest.test_case "FCFS queueing" `Quick test_resource_serializes;
          Alcotest.test_case "utilization accounting" `Quick test_resource_utilization;
        ] );
      ( "sync",
        [
          Alcotest.test_case "ivar broadcast" `Quick test_ivar;
          Alcotest.test_case "ivar exception" `Quick test_ivar_exn;
          Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
          Alcotest.test_case "mutex exclusion" `Quick test_mutex_exclusion;
        ] );
      ( "stats",
        [
          QCheck_alcotest.to_alcotest test_histogram_percentiles;
          Alcotest.test_case "moments" `Quick test_moments;
        ] );
    ]
