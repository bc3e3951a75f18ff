(* bench_compare: regression gate over tell_bench --json summaries.

     bench_compare BASELINE.json CURRENT.json
       [--tpmc-tolerance PCT] [--rpno-tolerance PCT] [--abort-tolerance PP]
     bench_compare --elastic ELASTIC.json [--recovery-window-ms MS]
     bench_compare --cm CM.json [--cm-scaling X] [--abort-tolerance PP]
     bench_compare --index BASELINE.json CURRENT.json [--index-p99-us US]
     bench_compare --exact BASELINE.json CURRENT.json

   Fails (exit 1) when the current run's TpmC drops by more than the TpmC
   tolerance (default 15%), its requests-per-new-order rises by more than
   the rpno tolerance (default 10%), or its abort rate rises by more than
   the abort tolerance (default 0.5 percentage points — the snapshot-
   sharing budget of the begin coalescer) versus the baseline.  The files
   are the flat JSON summaries tell_bench writes; fields are scraped
   textually so the tool has no dependencies beyond the stdlib.

   The --elastic mode gates the storage-elasticity contract instead,
   against the summary examples/elastic_scaling.exe writes: at least one
   completed migration, {e zero} migration-caused aborts (an elastic
   operation must never surface a timeout or fence bounce to a
   transaction — stale routes bounce with Wrong_master and are absorbed
   by a directory refresh), no failed rebalance moves, and both the
   add-SN and drain-SN throughput-recovery windows within the bound
   (default 200 ms).

   The --cm mode gates the commit-manager scale-out contract, against
   the summary the fig_cm experiment writes: begin throughput must
   scale by at least the bound (default 3.0x) from 1 to 4 managers, the
   TPC-C abort rate at the multi-manager point must not exceed the
   single-manager rate by more than the abort tolerance (default 1.0
   percentage point in this mode — merged snapshots are at most one
   gossip interval delayed, which SI pays for only in aborts), and
   every configured manager must have served begins.

   The --index mode gates the buffered-index contract (DESIGN.md §3d):
   the current run's index commit phase — the blind stripe appends that
   replaced leaf read/CAS cycles — must keep its p99 under the bound
   (default 500 us) and TpmC must stay within the usual tolerance of
   the baseline.

   The --exact mode gates a refactor that must not move the simulation:
   every simulated counter of the two runs (TpmC, commits, store
   requests and ops, begins and begin RPCs, and each commit phase's count
   and ops) must be equal, not merely within tolerance. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Extract the number following ["field": ] in a flat JSON object. *)
let field contents name =
  let needle = Printf.sprintf "\"%s\":" name in
  let rec find from =
    if from + String.length needle > String.length contents then None
    else if String.sub contents from (String.length needle) = needle then Some from
    else find (from + 1)
  in
  match find 0 with
  | None -> None
  | Some at ->
      let start = at + String.length needle in
      let stop = ref start in
      while
        !stop < String.length contents
        && (match contents.[!stop] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' | ' ' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.trim (String.sub contents start (!stop - start)))

let require path contents name =
  match field contents name with
  | Some v -> v
  | None ->
      Printf.eprintf "bench_compare: field %S not found in %s\n" name path;
      exit 2

(* Scrape [name] from the region following the first occurrence of
   [anchor] — the flat scraper above always finds the {e first} match,
   which for a per-phase field like "p99_us" inside "commit_phases"
   would be a different phase's sample. *)
let require_after path contents ~anchor name =
  let rec find from =
    if from + String.length anchor > String.length contents then None
    else if String.sub contents from (String.length anchor) = anchor then Some from
    else find (from + 1)
  in
  match find 0 with
  | None ->
      Printf.eprintf "bench_compare: anchor %S not found in %s\n" anchor path;
      exit 2
  | Some at ->
      let tail = String.sub contents at (String.length contents - at) in
      (match field tail name with
      | Some v -> v
      | None ->
          Printf.eprintf "bench_compare: field %S not found after %S in %s\n" name anchor path;
          exit 2)

(* The buffered-index gate (§3d): the whole point of taking index
   maintenance off the commit critical path is a short index phase, so
   the current run's index-phase p99 must sit under an absolute bound
   and TpmC must stay within the usual tolerance of the baseline. *)
let check_index ~baseline_path ~current_path ~p99_bound_us ~tpmc_tolerance =
  let baseline = read_file baseline_path in
  let current = read_file current_path in
  let b_tpmc = require baseline_path baseline "tpmc" in
  let c_tpmc = require current_path current "tpmc" in
  let c_p99 = require_after current_path current ~anchor:"\"index\":" "p99_us" in
  let c_mean = require_after current_path current ~anchor:"\"index\":" "mean_us" in
  let tpmc_drop_pct = 100.0 *. (b_tpmc -. c_tpmc) /. b_tpmc in
  Printf.printf "index phase mean      %10.2f us\n" c_mean;
  Printf.printf "index phase p99       %10.2f us  (bound %.0f us)\n" c_p99 p99_bound_us;
  Printf.printf "TpmC                  %10.1f -> %10.1f  (%+.1f%%, tolerance -%.0f%%)\n" b_tpmc
    c_tpmc (-.tpmc_drop_pct) tpmc_tolerance;
  let failed = ref false in
  if c_p99 > p99_bound_us then begin
    Printf.printf "FAIL: index-phase p99 %.2f us exceeds %.0f us\n" c_p99 p99_bound_us;
    failed := true
  end;
  if tpmc_drop_pct > tpmc_tolerance then begin
    Printf.printf "FAIL: TpmC regressed %.1f%% (> %.0f%%)\n" tpmc_drop_pct tpmc_tolerance;
    failed := true
  end;
  if !failed then exit 1 else print_endline "bench_compare: buffered-index contract holds"

(* The exact simulated-counter gate: a change meant to move only the host
   clock leaves every simulated counter of the same seed unchanged. *)
let exact_fields = [ "tpmc"; "committed"; "new_order_commits"; "requests_sent"; "ops_sent"; "begins"; "begin_rpcs" ]
let exact_phases = [ "begin"; "read"; "log"; "apply"; "index"; "notify" ]

let check_exact ~baseline_path ~current_path =
  let baseline = read_file baseline_path in
  let current = read_file current_path in
  let compare label b c =
    let ok = Float.equal b c in
    Printf.printf "%-22s %14.1f -> %14.1f  %s\n" label b c (if ok then "equal" else "DIFFERS");
    ok
  in
  let top =
    List.map
      (fun name -> compare name (require baseline_path baseline name) (require current_path current name))
      exact_fields
  in
  let phases =
    List.concat_map
      (fun phase ->
        let anchor = Printf.sprintf "\"%s\":" phase in
        List.map
          (fun name ->
            compare (phase ^ "." ^ name)
              (require_after baseline_path baseline ~anchor name)
              (require_after current_path current ~anchor name))
          [ "count"; "ops" ])
      exact_phases
  in
  if List.for_all Fun.id (top @ phases) then print_endline "bench_compare: simulated counters identical"
  else begin
    print_endline "FAIL: simulated counters differ";
    exit 1
  end

(* The storage-elasticity gate (ELASTIC.json from elastic_scaling.exe). *)
let check_elastic path ~recovery_bound_ms =
  let contents = read_file path in
  let migrations = require path contents "migrations_done" in
  let aborts = require path contents "migration_aborts" in
  let failed_moves = require path contents "rebalance_failed" in
  let add_window = require path contents "add_recovery_window_ms" in
  let drain_window = require path contents "drain_recovery_window_ms" in
  Printf.printf "migrations done       %10.0f  (required > 0)\n" migrations;
  Printf.printf "migration aborts      %10.0f  (required 0)\n" aborts;
  Printf.printf "rebalance failures    %10.0f  (required 0)\n" failed_moves;
  Printf.printf "add-SN recovery       %8.1f ms  (bound %.0f ms)\n" add_window recovery_bound_ms;
  Printf.printf "drain-SN recovery     %8.1f ms  (bound %.0f ms)\n" drain_window
    recovery_bound_ms;
  let failed = ref false in
  if migrations < 1.0 then begin
    print_endline "FAIL: no partition migration completed";
    failed := true
  end;
  if aborts > 0.0 then begin
    Printf.printf "FAIL: %.0f transactions aborted because of migration (must be 0)\n" aborts;
    failed := true
  end;
  if failed_moves > 0.0 then begin
    Printf.printf "FAIL: %.0f rebalance moves failed (must be 0)\n" failed_moves;
    failed := true
  end;
  if add_window > recovery_bound_ms then begin
    Printf.printf "FAIL: add-SN recovery window %.1f ms exceeds %.0f ms\n" add_window
      recovery_bound_ms;
    failed := true
  end;
  if drain_window > recovery_bound_ms then begin
    Printf.printf "FAIL: drain-SN recovery window %.1f ms exceeds %.0f ms\n" drain_window
      recovery_bound_ms;
    failed := true
  end;
  if !failed then exit 1 else print_endline "bench_compare: elastic contract holds"

(* The commit-manager scale-out gate (CM.json from the fig_cm experiment). *)
let check_cm path ~scaling_bound ~abort_bound_pp =
  let contents = read_file path in
  let tps1 = require path contents "begin_tps_1cm" in
  let tps4 = require path contents "begin_tps_4cm" in
  let scaling = require path contents "begin_scaling_4v1" in
  let abort1 = require path contents "tpcc_abort_1cm_pct" in
  let abortm = require path contents "tpcc_abort_multi_pct" in
  let cms = require path contents "tpcc_multi_cms" in
  let serving = require path contents "tpcc_begin_managers" in
  let abort_rise = abortm -. abort1 in
  Printf.printf "begin throughput      %10.0f -> %10.0f begins/s (1 -> 4 managers)\n" tps1 tps4;
  Printf.printf "begin scaling 4-vs-1  %9.2fx  (required >= %.1fx)\n" scaling scaling_bound;
  Printf.printf "TPC-C abort rate      %9.3f%% -> %9.3f%%  (%+.3f pp, tolerance +%.2f pp)\n"
    abort1 abortm abort_rise abort_bound_pp;
  Printf.printf "managers serving      %10.0f  (required %.0f)\n" serving cms;
  let failed = ref false in
  if scaling < scaling_bound then begin
    Printf.printf "FAIL: begin throughput scaled only %.2fx from 1 to 4 managers (< %.1fx)\n"
      scaling scaling_bound;
    failed := true
  end;
  if abort_rise > abort_bound_pp then begin
    Printf.printf "FAIL: abort rate rose %.3f pp with merged snapshots (> %.2f pp)\n" abort_rise
      abort_bound_pp;
    failed := true
  end;
  if serving < cms then begin
    Printf.printf "FAIL: only %.0f of %.0f managers served begins\n" serving cms;
    failed := true
  end;
  if !failed then exit 1 else print_endline "bench_compare: commit-manager contract holds"

let () =
  let baseline_path = ref None in
  let current_path = ref None in
  let elastic_path = ref None in
  let cm_path = ref None in
  let index_mode = ref false in
  let exact_mode = ref false in
  let index_p99_us = ref 500.0 in
  let tpmc_tolerance = ref 15.0 in
  let rpno_tolerance = ref 10.0 in
  let abort_tolerance = ref None in
  let recovery_bound_ms = ref 200.0 in
  let cm_scaling = ref 3.0 in
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--tpmc-tolerance" :: v :: rest ->
        tpmc_tolerance := float_of_string v;
        parse rest
    | "--rpno-tolerance" :: v :: rest ->
        rpno_tolerance := float_of_string v;
        parse rest
    | "--abort-tolerance" :: v :: rest ->
        abort_tolerance := Some (float_of_string v);
        parse rest
    | "--elastic" :: path :: rest ->
        elastic_path := Some path;
        parse rest
    | "--cm" :: path :: rest ->
        cm_path := Some path;
        parse rest
    | "--index" :: rest ->
        index_mode := true;
        parse rest
    | "--exact" :: rest ->
        exact_mode := true;
        parse rest
    | "--index-p99-us" :: v :: rest ->
        index_p99_us := float_of_string v;
        parse rest
    | "--cm-scaling" :: v :: rest ->
        cm_scaling := float_of_string v;
        parse rest
    | "--recovery-window-ms" :: v :: rest ->
        recovery_bound_ms := float_of_string v;
        parse rest
    | path :: rest ->
        (match (!baseline_path, !current_path) with
        | None, _ -> baseline_path := Some path
        | Some _, None -> current_path := Some path
        | Some _, Some _ ->
            prerr_endline "bench_compare: too many arguments";
            exit 2);
        parse rest
  in
  parse (List.tl args);
  match (!elastic_path, !cm_path) with
  | Some path, _ -> check_elastic path ~recovery_bound_ms:!recovery_bound_ms
  | None, Some path ->
      check_cm path ~scaling_bound:!cm_scaling
        ~abort_bound_pp:(Option.value ~default:1.0 !abort_tolerance)
  | None, None when !exact_mode -> (
      match (!baseline_path, !current_path) with
      | Some baseline_path, Some current_path -> check_exact ~baseline_path ~current_path
      | _ ->
          prerr_endline "usage: bench_compare --exact BASELINE.json CURRENT.json";
          exit 2)
  | None, None when !index_mode -> (
      match (!baseline_path, !current_path) with
      | Some baseline_path, Some current_path ->
          check_index ~baseline_path ~current_path ~p99_bound_us:!index_p99_us
            ~tpmc_tolerance:!tpmc_tolerance
      | _ ->
          prerr_endline
            "usage: bench_compare --index BASELINE.json CURRENT.json [--index-p99-us US] \
             [--tpmc-tolerance PCT]";
          exit 2)
  | None, None -> (
      match (!baseline_path, !current_path) with
  | Some baseline_path, Some current_path ->
      let baseline = read_file baseline_path in
      let current = read_file current_path in
      let b_tpmc = require baseline_path baseline "tpmc" in
      let c_tpmc = require current_path current "tpmc" in
      let b_rpno = require baseline_path baseline "requests_per_new_order" in
      let c_rpno = require current_path current "requests_per_new_order" in
      let b_abort = require baseline_path baseline "abort_rate_pct" in
      let c_abort = require current_path current "abort_rate_pct" in
      let abort_tolerance = ref (Option.value ~default:0.5 !abort_tolerance) in
      let tpmc_drop_pct = 100.0 *. (b_tpmc -. c_tpmc) /. b_tpmc in
      let rpno_rise_pct = 100.0 *. (c_rpno -. b_rpno) /. b_rpno in
      let abort_rise_pp = c_abort -. b_abort in
      Printf.printf "TpmC                  %10.1f -> %10.1f  (%+.1f%%, tolerance -%.0f%%)\n"
        b_tpmc c_tpmc (-.tpmc_drop_pct) !tpmc_tolerance;
      Printf.printf "requests/new-order    %10.2f -> %10.2f  (%+.1f%%, tolerance +%.0f%%)\n"
        b_rpno c_rpno rpno_rise_pct !rpno_tolerance;
      Printf.printf "abort rate            %9.3f%% -> %9.3f%%  (%+.3f pp, tolerance +%.2f pp)\n"
        b_abort c_abort abort_rise_pp !abort_tolerance;
      let failed = ref false in
      if tpmc_drop_pct > !tpmc_tolerance then begin
        Printf.printf "FAIL: TpmC regressed %.1f%% (> %.0f%%)\n" tpmc_drop_pct !tpmc_tolerance;
        failed := true
      end;
      if rpno_rise_pct > !rpno_tolerance then begin
        Printf.printf "FAIL: requests/new-order regressed %.1f%% (> %.0f%%)\n" rpno_rise_pct
          !rpno_tolerance;
        failed := true
      end;
      if abort_rise_pp > !abort_tolerance then begin
        Printf.printf "FAIL: abort rate rose %.3f pp (> %.2f pp)\n" abort_rise_pp
          !abort_tolerance;
        failed := true
      end;
      if !failed then exit 1 else print_endline "bench_compare: within tolerance"
  | _ ->
      prerr_endline
        "usage: bench_compare BASELINE.json CURRENT.json [--tpmc-tolerance PCT] \
         [--rpno-tolerance PCT] [--abort-tolerance PP]\n\
        \       bench_compare --elastic ELASTIC.json [--recovery-window-ms MS]\n\
        \       bench_compare --cm CM.json [--cm-scaling X] [--abort-tolerance PP]\n\
        \       bench_compare --index BASELINE.json CURRENT.json [--index-p99-us US]\n\
        \       bench_compare --exact BASELINE.json CURRENT.json";
      exit 2)
