(* perfbench: the repository's benchmark.

     python3 perfbench/run.py --workload relay --seed 1 --seconds 15 --trace 0

   builds this executable and runs one workload (relay, churn or rejoin,
   see README.md).  Inputs are generated from --seed.  With --trace 0 the
   run is untraced and reports the end-to-end metrics; with --trace 1 it
   records spans around every call into a layer and reports the
   per-layer metrics instead.  The last line of stdout is one JSON object
   {correct, attempted, failed, metrics}.  A failed correctness check
   prints its reason on stderr, no metrics, and exits 1. *)

open Perfbench
open Util

let usage () =
  prerr_endline
    "usage: perfbench --workload relay|churn|rejoin --seed N --seconds S --trace 0|1";
  exit 2

let args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := int_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when seconds > 0 -> (!workload, seed, seconds, trace)
  | _ -> usage ()

(* ----- reporting ----- *)

let rows : (string * float * string * int) list ref = ref []
let put ?(n = 1) name unit value = rows := (name, value, unit, n) :: !rows

let put_pct name unit s q =
  if Stats.count s > 0 && Stats.beyond s q < 10 then
    Printf.eprintf "perfbench: %s rests on %d sample(s) beyond it (fewer than 10)\n%!"
      name (Stats.beyond s q);
  put ~n:(Stats.count s) name unit (Stats.quantile s q)

let pooled f (o : outcome) =
  let s = Stats.create () in
  List.iter (fun seg -> Stats.append s (f seg)) o.segments;
  s

(* The median over segments of a per-segment figure, with the number of
   samples behind it. *)
let across name unit (o : outcome) f n =
  put ~n:(List.fold_left (fun a seg -> a + n seg) 0 o.segments) name unit
    (Stats.median (Stats.of_list (List.map f o.segments)))

let end_to_end (o : outcome) =
  put ~n:(Stats.count o.setup_s) "setup_s" "s" (Stats.median o.setup_s);
  let p50 name unit f =
    across name unit o (fun seg -> Stats.median (f seg)) (fun seg -> Stats.count (f seg))
  in
  p50 "keystroke_p50_us" "us" (fun s -> s.keystroke_us);
  p50 "visible_p50_ms" "ms" (fun s -> s.visible_ms);
  p50 "validated_p50_ms" "ms" (fun s -> s.validated_ms);
  across "cpu_us_per_edit" "us" o
    (fun s -> s.cpu_s *. 1e6 /. float_of_int (max 1 s.settled))
    (fun s -> s.settled);
  put "heap_peak_mb" "MiB" o.heap_mb

let per_layer (o : outcome) =
  let extra k = Option.value ~default:0. (List.assoc_opt k o.extra) in
  let span_pct name metric unit scale q =
    let s = Span.durations_us name in
    put ~n:(Stats.count s) metric unit (Stats.quantile s q /. scale)
  in
  let mean_of name = Stats.mean (Probe.samples_of name) in
  put_pct "keystroke_p99_us" "us" (pooled (fun s -> s.keystroke_us) o) 0.99;
  put_pct "visible_p99_ms" "ms" (pooled (fun s -> s.visible_ms) o) 0.99;
  put_pct "validated_p99_ms" "ms" (pooled (fun s -> s.validated_ms) o) 0.99;
  span_pct "core.generate" "core.generate_us.p50" "us" 1. 0.5;
  span_pct "core.generate" "core.generate_us.p99" "us" 1. 0.99;
  put "core.generate.count" "count"
    (float_of_int (Stats.count (Span.durations_us "core.generate")));
  span_pct "core.receive" "core.receive_us.p50" "us" 1. 0.5;
  span_pct "core.receive" "core.receive_us.p99" "us" 1. 0.99;
  put "core.window_len_max" "count" (Probe.maximum "core.window_len_max");
  span_pct "core.receive_admin" "core.receive_admin_us.p50" "us" 1. 0.5;
  span_pct "core.receive_admin" "core.receive_admin_us.p99" "us" 1. 0.99;
  put "core.admin_log_len" "count" (extra "core.admin_log_len");
  span_pct "core.admin_update" "core.admin_update_us.p50" "us" 1. 0.5;
  span_pct "core.admin_update" "core.admin_update_us.p99" "us" 1. 0.99;
  put "core.undone_ratio" "ratio" (extra "core.undone_ratio");
  span_pct "core.compact" "core.compact_us.p50" "us" 1. 0.5;
  span_pct "core.compact" "core.compact_us.p99" "us" 1. 0.99;
  put "core.denied_local" "count" (Probe.count "core.denied_local");
  span_pct "core.catch_up" "core.catch_up_ms.p50" "ms" 1e3 0.5;
  span_pct "core.apply_delta" "core.apply_delta_ms.p50" "ms" 1e3 0.5;
  span_pct "wire.encode" "wire.encode_us.p50" "us" 1. 0.5;
  span_pct "wire.decode" "wire.decode_us.p50" "us" 1. 0.5;
  put "wire.bytes_per_edit" "B"
    (Probe.count "wire.bytes" /. float_of_int (max 1 o.attempted));
  span_pct "wire.state_decode" "wire.state_decode_ms.p50" "ms" 1e3 0.5;
  span_pct "wire.delta_decode" "wire.delta_decode_ms.p50" "ms" 1e3 0.5;
  put "wire.snapshot_bytes" "B"
    (Probe.count "wire.snapshot_bytes" /. Float.max 1. (Probe.count "netd.snapshots"));
  put "wire.delta_bytes" "B"
    (Probe.count "wire.delta_bytes" /. Float.max 1. (Probe.count "netd.deltas"));
  span_pct "netd.client_step" "netd.client_step_us.p50" "us" 1. 0.5;
  put "netd.events_per_step" "count" (mean_of "netd.events_per_step");
  put "netd.client_outbox_max_bytes" "B" (Probe.maximum "netd.client_outbox_max_bytes");
  put "netd.reconnects" "count" (extra "netd.reconnects");
  List.iter
    (fun (k, unit) -> put k unit (extra k))
    [
      ("hub.step_busy_us_per_edit", "us");
      ("hub.cpu_us_per_edit", "us");
      ("hub.step_max_ms", "ms");
      ("hub.outbox_max_bytes", "B");
      ("hub.stable_lag_max", "count");
      ("hub.journal_errors", "count");
      ("catchup.delta_ratio", "ratio");
    ];
  span_pct "store.opendir" "store.opendir_ms.p50" "ms" 1e3 0.5;
  put "store.replayed_records" "count" (mean_of "store.replayed_records");
  span_pct "store.checkpoint" "store.checkpoint_ms.p50" "ms" 1e3 0.5;
  span_pct "store.record" "store.record_us.p50" "us" 1. 0.5;
  put "store.wal_bytes" "B" (Probe.maximum "store.wal_bytes");
  List.iter
    (fun (k, unit) -> put k unit (extra k))
    [
      ("gen.late_p99_ms", "ms");
      ("gen.backlog_max", "count");
      ("max_rate", "edits/s");
      ("edits_per_s", "edits/s");
      ("enforce_p90_ms", "ms");
      ("catchup_p50_ms", "ms");
      ("catchup_p90_ms", "ms");
    ];
  put "failed_ratio" "ratio"
    (float_of_int !Probe.failures /. float_of_int (max 1 o.attempted));
  let self = Span.self_ms_by_layer () in
  List.iter
    (fun l -> put ("self." ^ l ^ "_ms") "ms" (self l))
    [ "core"; "wire"; "netd"; "store" ];
  (* residual: each measured edit's end-to-end time minus the self time of
     the timed calls that carried its trace id *)
  let by_trace = Span.self_ns_by_trace () in
  let residual = Stats.create () and covered = Stats.create () in
  List.iter
    (fun (site, serial, e2e_ms) ->
      let ns = Option.value ~default:0 (Hashtbl.find_opt by_trace (site, serial)) in
      let c = float_of_int ns /. 1e6 in
      Stats.add residual (e2e_ms -. c);
      if e2e_ms > 0. then Stats.add covered (100. *. c /. e2e_ms))
    o.paths;
  put ~n:(Stats.count residual) "trace.residual_p50_ms" "ms" (Stats.median residual);
  put ~n:(Stats.count covered) "trace.covered_p50_pct" "%" (Stats.median covered);
  let spans = Span.count () in
  let overhead =
    float_of_int spans *. Span.calibrate_ns () /. (o.wall_s *. 1e9) *. 100.
  in
  put "trace.overhead_pct" "%" overhead;
  put "trace.spans" "count" (float_of_int spans)

let json_number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result (o : outcome) =
  let rows = List.rev !rows in
  List.iter
    (fun (name, v, unit, n) -> Printf.printf "  %-32s %16.6f %-8s n=%d\n" name v unit n)
    rows;
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit, _) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         rows)
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.attempted !Probe.failures metrics

let () =
  let workload, seed, seconds, trace = args () in
  let run =
    match workload with
    | "relay" -> Relay.run
    | "churn" -> Churn.run ~features:Dce_core.Controller.secure
    | "rejoin" -> Rejoin.run
    | _ -> usage ()
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  rm_rf scratch;
  mkdir_p scratch;
  if trace then Span.enable ();
  Printf.printf
    "perfbench: workload %s, seed %d, %d s, trace %d, nproc %d, loopback, fsync %s\n%!"
    workload seed seconds (Bool.to_int trace)
    (Domain.recommended_domain_count ())
    (Dce_store.Store.fsync_policy_to_string Dce_store.Store.default_config.fsync);
  match run ~seed ~seconds with
  | exception Gate msg ->
    rm_rf scratch;
    Printf.eprintf "perfbench: correctness check failed: %s\n%!" msg;
    exit 1
  | o ->
    List.iter (Printf.eprintf "perfbench: failed op: %s\n") (List.rev !Probe.failure_notes);
    if trace then begin
      per_layer o;
      let out =
        Filename.concat ".perfbench-out" (Printf.sprintf "spans-%s-%d.txt" workload seed)
      in
      mkdir_p ".perfbench-out";
      Span.write out;
      Printf.printf "perfbench: %d spans written to %s\n" (Span.count ()) out;
      if !Span.dropped > 0 then
        Printf.eprintf "perfbench: %d spans beyond the cap of %d were not recorded\n"
          !Span.dropped Span.cap
    end
    else end_to_end o;
    rm_rf scratch;
    print_result o
