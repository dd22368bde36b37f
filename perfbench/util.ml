(* Shared plumbing of the workloads. *)

module Evloop = Dce_hub.Evloop

(* A failed correctness check: the run stops and prints no metrics. *)
exception Gate of string

let gate cond msg = if not cond then raise (Gate msg)
let now_ms = Span.now_ms
let cpu_s = Hubchild.cpu_s
let live_heap_mb = Hubchild.live_heap_mb

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* Scratch space for journals and traces, inside the working directory. *)
let scratch = ".perfbench-tmp"

(* Block until one of the replicas' sockets is ready or [timeout_ms]
   passes — never a busy poll — then give every replica one turn.  A
   replica still joining is not in the write set (a socket waiting for
   its greeting is always writable); short timeouts pick up its connect. *)
let pump reps ~timeout_ms =
  let rd = List.concat_map Replica.fds reps in
  let wr = List.concat_map Replica.wants_write reps in
  let timeout_ms =
    if List.for_all (fun r -> r.Replica.live) reps then timeout_ms else min 1 timeout_ms
  in
  (if rd = [] then Evloop.sleep_ms timeout_ms
   else
     try ignore (Evloop.wait ~timeout_ms ~read:rd ~write:wr ())
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
  List.iter Replica.step reps

(* Pump until [due] (ms): poll(2) counts whole milliseconds, so wait on
   the sockets for the whole ones and sleep off the remainder. *)
let pump_until_due reps due =
  let ahead = due -. now_ms () in
  pump reps ~timeout_ms:(max 0 (min 5 (int_of_float ahead)));
  let ahead = due -. now_ms () in
  if ahead > 0. && ahead < 1. then Unix.sleepf (ahead /. 1000.)

(* Pump until [cond] holds, for at most [ms]; whether it held. *)
let pump_until reps ~ms cond =
  let deadline = now_ms () +. ms in
  while (not (cond ())) && now_ms () < deadline do
    pump reps ~timeout_ms:2
  done;
  cond ()

(* One stretch of measured edits.  The end-to-end figures are medians,
   over a run's segments, of each segment's own figure: a burst of outside
   load that slows one segment does not move the result. *)
type segment = {
  keystroke_us : Stats.t;
  visible_ms : Stats.t;
  validated_ms : Stats.t;
  mutable cpu_s : float;  (** CPU of every process over the segment *)
  mutable settled : int;  (** edits those CPU seconds settled *)
}

let segment () =
  {
    keystroke_us = Stats.create ();
    visible_ms = Stats.create ();
    validated_ms = Stats.create ();
    cpu_s = 0.;
    settled = 0;
  }

(* What a workload run hands back to the reporter. *)
type outcome = {
  setup_s : Stats.t;  (** one sample per set-up *)
  segments : segment list;
  heap_mb : float;
  attempted : int;
  wall_s : float;  (** measured wall time *)
  paths : (int * int * float) list;
      (** (site, serial, visible ms) of measured edits, for the trace
          residual *)
  extra : (string * float) list;  (** workload-specific figures *)
}
