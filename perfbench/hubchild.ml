(* The hub under test, in a forked child process.

   The child builds a real [Dce_hub.Hub] hosting one document, journaled
   through [Persist] into [dir] with [Store.default_config], reports its
   port on a pipe and steps the hub until SIGTERM.  It times every
   [Hub.step] (wall and CPU) and samples the hub's own gauges; on
   SIGTERM it writes one ["key value"] line per figure, including the
   content fingerprint of its hosted replica, and exits.  Keeping the hub
   in its own process keeps hub work apart from editor work.  The loop
   blocks up to 50 ms per step, like [dced]'s, so an idle hub costs next
   to no CPU; a step's CPU time, not its wall time, is what it spent
   working, since the wall time includes the wait for input. *)

open Dce_core
module Hub = Dce_hub.Hub
module Proto = Dce_wire.Proto
module Persist = Dce_store.Persist

type t = { pid : int; port : int; ic : in_channel; mutable reaped : bool }

let relay_site = 1_000_000
let live : int list ref = ref []

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The live major heap after a full collection, in MiB: what the
   process's state occupies, independent of when the collector ran. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.

let serve ~dir ~initial oc =
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  let metrics = Dce_obs.Metrics.create () in
  let journal = ref None in
  let factory _doc =
    let ctrl = initial ~site:relay_site in
    match
      Persist.opendir ~config:Dce_store.Store.default_config ~eq:Char.equal
        ~codec:Proto.char_codec dir
    with
    | Error e -> Error e
    | Ok (j, _) -> (
      journal := Some j;
      match Persist.checkpoint j ctrl with Ok () -> Ok (ctrl, Some j) | Error e -> Error e)
  in
  let hub =
    Hub.create ~metrics ~eq:Char.equal ~codec:Proto.char_codec ~factory
      ~docs:[ "main" ] ~port:0 ()
  in
  Printf.fprintf oc "%d\n%!" (Hub.port hub);
  let cpu0 = cpu_s () in
  let busy = ref 0. and steps = ref 0 and step_max = ref 0. in
  let outbox_max = ref 0 and lag_max = ref 0 in
  while not !stop do
    let c0 = cpu_s () in
    (try Hub.step ~timeout_ms:50 hub with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let dc = cpu_s () -. c0 in
    busy := !busy +. dc;
    incr steps;
    if dc *. 1e3 > !step_max then step_max := dc *. 1e3;
    outbox_max := max !outbox_max (Hub.outbox_bytes hub);
    lag_max := max !lag_max (Hub.max_stable_lag hub)
  done;
  let ctrl = Hub.controller hub in
  let counter name =
    Option.value ~default:0 (List.assoc_opt name (Dce_obs.Metrics.counters metrics))
  in
  let put k v = Printf.fprintf oc "%s %s\n" k v in
  put "fingerprint" (Proto.content_fingerprint Proto.char_codec ctrl);
  put "cpu_s" (Printf.sprintf "%.6f" (cpu_s () -. cpu0));
  put "step_busy_s" (Printf.sprintf "%.6f" !busy);
  put "steps" (string_of_int !steps);
  put "step_max_ms" (Printf.sprintf "%.4f" !step_max);
  put "outbox_max_bytes" (string_of_int !outbox_max);
  put "stable_lag_max" (string_of_int !lag_max);
  put "journal_errors" (string_of_int (Hub.journal_errors hub));
  put "deltas" (string_of_int (counter "hub.deltas"));
  put "snapshots" (string_of_int (counter "netd.snapshots"));
  put "reconnects" (string_of_int (counter "netd.reconnects"));
  put "admin_log_len" (string_of_int (Controller.version ctrl));
  put "heap_mb" (Printf.sprintf "%.4f" (live_heap_mb ()));
  close_out oc;
  Hub.shutdown hub;
  Option.iter Persist.close !journal

let spawn ~dir ~initial =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      match serve ~dir ~initial (Unix.out_channel_of_descr w) with
      | () -> 0
      | exception e ->
        prerr_endline ("hub child: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    Unix.close w;
    live := pid :: !live;
    let ic = Unix.in_channel_of_descr r in
    match int_of_string_opt (input_line ic) with
    | Some port -> { pid; port; ic; reaped = false }
    | None | (exception End_of_file) -> failwith "hub child did not report its port")

let reap t =
  if not t.reaped then begin
    t.reaped <- true;
    live := List.filter (( <> ) t.pid) !live;
    close_in_noerr t.ic;
    ignore (Unix.waitpid [] t.pid)
  end

let get report k = Option.value ~default:"" (List.assoc_opt k report)
let getf report k = Option.value ~default:0. (float_of_string_opt (get report k))

(* Stop the child and read its report. *)
let stop t =
  Unix.kill t.pid Sys.sigterm;
  let rec read acc =
    match input_line t.ic with
    | line -> (
      match String.index_opt line ' ' with
      | Some k ->
        let v = String.sub line (k + 1) (String.length line - k - 1) in
        read ((String.sub line 0 k, v) :: acc)
      | None -> read acc)
    | exception End_of_file -> acc
  in
  let report = read [] in
  reap t;
  (* a journal write the hub could not make is a failed operation *)
  for _ = 1 to int_of_float (getf report "journal_errors") do
    Probe.fail "hub: journal error"
  done;
  report


(* The hub's per-layer figures, per edit where they are costs. *)
let extras report ~edits =
  let per_edit k = getf report k *. 1e6 /. float_of_int (max 1 edits) in
  [
    ("hub.step_busy_us_per_edit", per_edit "step_busy_s");
    ("hub.cpu_us_per_edit", per_edit "cpu_s");
    ("hub.step_max_ms", getf report "step_max_ms");
    ("hub.outbox_max_bytes", getf report "outbox_max_bytes");
    ("hub.stable_lag_max", getf report "stable_lag_max");
    ("hub.journal_errors", getf report "journal_errors");
    ("netd.reconnects", getf report "reconnects");
  ]

(* Whatever happens to the load process, no hub child outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)
