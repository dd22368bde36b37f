(* The benchmark's one replica driver: a site of a hub-hosted session,
   driven the way an honest editor must drive it.

   - Every site starts from the session's initial state and joins through
     the durable catch-up paths only: a [Delta] goes through
     [Controller.apply_delta], a [Snapshot] through [Controller.catch_up]
     against the local controller — never the lossy [Controller.rejoin].
   - The client's heartbeat carries this site's stability beacon
     ([Client.set_stamp]); the hub's aggregate beacons are absorbed with
     [Controller.receive_beacon]; the log is compacted on a cadence, and a
     journaled site checkpoints first so compaction never outruns its
     durability cut.
   - A journaled site records every input before broadcasting
     ([Persist.record]), and checkpoints after a catch-up, whose inputs
     bypassed the journal.
   - Every decode error, receive exception or rejected delta is a failed
     operation: counted and reported, never swallowed. *)

open Dce_core
module Client = Dce_netd.Client
module Proto = Dce_wire.Proto
module Persist = Dce_store.Persist

type t = {
  site : int;
  mutable ctrl : char Controller.t;
  client : Client.t;
  journal : char Persist.t option;
  mutable pending : char Controller.message list;
      (** owed to the group before the session went live *)
  mutable live : bool;
  mutable last_compact_ms : float;
  mutable on_change : unit -> unit;
      (** called after the controller integrated network input *)
  mutable on_emit : char Controller.message -> unit;
      (** called for every message this site broadcasts *)
}

(* A journaled site checkpoints before each compaction that moves its
   cut, so it compacts less often. *)
let compact_every_ms r = if r.journal = None then 100. else 1_000.

let client_config =
  {
    Client.default_config with
    Client.heartbeat_ms = 1_000;
    backoff_base_ms = 5;
    backoff_max_ms = 50;
    max_attempts = Some 200;
  }

let tid_of_message = function
  | Controller.Coop q -> (q.Dce_ot.Request.id.site, q.Dce_ot.Request.id.serial)
  | Controller.Admin { Admin_op.op = Admin_op.Validate id; _ } ->
    (id.Dce_ot.Request.site, id.Dce_ot.Request.serial)
  | Controller.Admin _ -> (-1, 0)

let send r m =
  let site, serial = tid_of_message m in
  let sp = Span.start "wire.encode" in
  let blob = Proto.Char_proto.encode_message m in
  Span.finish ~site ~serial sp;
  Probe.add "wire.bytes" (float_of_int (String.length blob));
  r.on_emit m;
  if r.live then Client.send r.client blob else r.pending <- r.pending @ [ m ]

let checkpoint r =
  match r.journal with
  | None -> ()
  | Some j -> (
    let sp = Span.start "store.checkpoint" in
    let res = Persist.checkpoint j r.ctrl in
    Span.finish sp;
    match res with Ok () -> () | Error e -> Probe.fail ("checkpoint: " ^ e))

let record r rec_ ~site ~serial =
  match r.journal with
  | None -> ()
  | Some j -> (
    let sp = Span.start "store.record" in
    Persist.record j rec_;
    let res = Persist.maybe_checkpoint j r.ctrl in
    Span.finish ~site ~serial sp;
    match res with Ok _ -> () | Error e -> Probe.fail ("checkpoint: " ^ e))

let go_live r =
  if not r.live then begin
    r.live <- true;
    let owed = r.pending in
    r.pending <- [];
    List.iter
      (fun m -> Client.send r.client (Proto.Char_proto.encode_message m))
      owed
  end

let receive_span r =
  if Controller.is_admin r.ctrl then "core.receive_admin" else "core.receive"

let on_message r blob =
  let sp = Span.start "wire.decode" in
  let d = Proto.Char_proto.decode_message blob in
  match d with
  | Error e ->
    Span.finish sp;
    Probe.fail ("decode: " ^ e)
  | Ok m -> (
    let site, serial = tid_of_message m in
    Span.finish ~site ~serial sp;
    let sp = Span.start (receive_span r) in
    match Controller.receive r.ctrl m with
    | exception e ->
      Span.finish ~site ~serial sp;
      Probe.fail ("receive: " ^ Printexc.to_string e)
    | c, emitted ->
      Span.finish ~site ~serial sp;
      r.ctrl <- c;
      record r (Persist.Received m) ~site ~serial;
      List.iter (send r) emitted;
      r.on_change ())

let after_catch_up r out =
  checkpoint r;
  List.iter (send r) out;
  go_live r;
  r.on_change ()

let handle r = function
  | Client.Snapshot blob -> (
    Probe.add "wire.snapshot_bytes" (float_of_int (String.length blob));
    Probe.incr "netd.snapshots";
    let sp = Span.start "wire.state_decode" in
    let st = Proto.Char_proto.decode_state blob in
    Span.finish sp;
    match Result.bind st (Controller.load ~eq:Char.equal) with
    | Error e -> Probe.fail ("snapshot: " ^ e)
    | Ok donor ->
      let sp = Span.start "core.catch_up" in
      let c, out = Controller.catch_up r.ctrl donor in
      Span.finish sp;
      r.ctrl <- c;
      after_catch_up r out)
  | Client.Delta blob -> (
    Probe.add "wire.delta_bytes" (float_of_int (String.length blob));
    Probe.incr "netd.deltas";
    let sp = Span.start "wire.delta_decode" in
    let d = Proto.Char_proto.decode_delta blob in
    Span.finish sp;
    match d with
    | Error e -> Probe.fail ("delta: " ^ e)
    | Ok d -> (
      let sp = Span.start "core.apply_delta" in
      let res = Controller.apply_delta r.ctrl d in
      Span.finish sp;
      match res with
      | Error e -> Probe.fail ("apply_delta: " ^ e)
      | Ok (c, out) ->
        r.ctrl <- c;
        after_catch_up r out))
  | Client.Message blob -> on_message r blob
  | Client.Beacon blob -> (
    match Proto.decode_frontier blob with
    | Error e -> Probe.fail ("frontier: " ^ e)
    | Ok entries ->
      r.ctrl <-
        List.fold_left
          (fun c (b : Proto.beacon) ->
            Controller.receive_beacon c ~peer:b.Proto.b_site ~clock:b.Proto.b_clock
              ~version:b.Proto.b_version)
          r.ctrl entries)
  | Client.Connected -> ()
  | Client.Disconnected _ ->
    r.live <- false;
    Probe.incr "netd.disconnects"
  | Client.Reconnecting _ -> ()
  | Client.Gave_up e -> Probe.fail ("gave up: " ^ e)

let compact r =
  let sp = Span.start "core.compact" in
  (match r.journal with
   | None -> r.ctrl <- Controller.compact r.ctrl
   | Some j -> (
     (match Persist.checkpoint_clock j with
      | Some cut when Dce_ot.Vclock.leq (Controller.stable_frontier r.ctrl) cut -> ()
      | _ -> checkpoint r);
     match Persist.checkpoint_clock j with
     | Some limit -> r.ctrl <- Controller.compact ~limit r.ctrl
     | None -> ()));
  Span.finish sp

(* One non-blocking turn: read, dispatch, flush, and compact on cadence.
   The caller has already waited for readiness with [Evloop.wait]. *)
let step r =
  let sp = Span.start "netd.client_step" in
  let events = Client.step ~timeout_ms:0 r.client in
  Span.finish sp;
  (* only busy steps count: an idle one is a poll that found nothing *)
  if events = [] then Span.drop sp
  else Probe.sample "netd.events_per_step" (float_of_int (List.length events));
  List.iter (handle r) events;
  Probe.max_ "netd.client_outbox_max_bytes" (float_of_int (Client.outbox_bytes r.client));
  Probe.max_ "core.window_len_max" (float_of_int (Controller.window_len r.ctrl));
  let now = Span.now_ms () in
  if r.live && now -. r.last_compact_ms >= compact_every_ms r then begin
    r.last_compact_ms <- now;
    compact r
  end

let fds r = match Client.fd r.client with Some fd -> [ fd ] | None -> []

let wants_write r =
  match Client.fd r.client with
  | Some fd when r.live && Client.outbox_bytes r.client > 0 -> [ fd ]
  | _ -> []

(* Generate one local edit: the local echo (the paper's t1).  Returns
   the request's serial ([None] when the local policy copy denied it) and
   the µs [Controller.generate] took. *)
let generate r op =
  let sp = Span.start "core.generate" in
  let t0 = Span.now_ns () in
  let c, outcome = Controller.generate r.ctrl op in
  let us = float_of_int (Span.now_ns () - t0) /. 1e3 in
  Span.finish sp;
  match outcome with
  | Controller.Denied _ ->
    Probe.incr "core.denied_local";
    (None, us)
  | Controller.Accepted m ->
    r.ctrl <- c;
    let site, serial = tid_of_message m in
    Span.tag sp ~site ~serial;
    record r (Persist.Generated op) ~site ~serial;
    send r m;
    (Some serial, us)

let create ?journal ?(resume = false) ~port ~site ctrl =
  let cell = ref None in
  let resume_point () =
    match !cell with
    | Some r when resume -> Some (Controller.clock r.ctrl, Controller.version r.ctrl)
    | _ -> None
  in
  let client =
    Client.create ~config:client_config ~seed:site ~doc:"main" ~resume:resume_point
      ~host:"127.0.0.1" ~port ~site ()
  in
  let r =
    {
      site;
      ctrl;
      client;
      journal;
      pending = [];
      live = false;
      last_compact_ms = Span.now_ms ();
      on_change = ignore;
      on_emit = ignore;
    }
  in
  cell := Some r;
  Client.set_stamp client (fun () -> Controller.beacon r.ctrl);
  r

(* Orderly close (Bye). *)
let close r =
  Client.close r.client;
  Option.iter Persist.close r.journal

(* A crash: the socket is closed by the kernel as the process dies, with
   no Bye, and the journal is abandoned without a sync or a close. *)
let kill r = Option.iter Unix.close (Client.fd r.client)

let content r = Proto.content_fingerprint Proto.char_codec r.ctrl
