module Obs = Dce_obs
module Proto = Dce_wire.Proto
module Persist = Dce_store.Persist
module Controller = Dce_core.Controller
module Vclock = Dce_ot.Vclock

type error =
  | Bad_snapshot of string
  | Bad_delta of string
  | Bad_message of string
  | Rejected of string
  | Bad_beacon of string
  | Journal of string

let error_to_string = function
  | Bad_snapshot e -> "bad snapshot: " ^ e
  | Bad_delta e -> "bad delta: " ^ e
  | Bad_message e -> "bad message: " ^ e
  | Rejected e -> "rejected message: " ^ e
  | Bad_beacon e -> "bad beacon: " ^ e
  | Journal e -> "journal error: " ^ e

type event =
  | Connected
  | Joined of { delta : bool; rebroadcast : int }
  | Delivered of Proto.stamp option
  | Disconnected of string
  | Reconnecting of { attempt : int; delay_ms : int }
  | Gave_up of string
  | Failed of error

type 'e t = {
  client : Client.t;
  codec : 'e Proto.elt_codec;
  eq : 'e -> 'e -> bool;
  trace : Obs.Trace.sink;
  metrics : Obs.Metrics.t option;
  journal : 'e Persist.t option;
  mutable ctrl : 'e Controller.t option;
  mutable deferred : event list; (* journal failures of local edits *)
  mutable last_compact_ms : float;
}

(* Compaction is cheap behind a stable frontier, but a journaled replica
   checkpoints before each compaction that moves its cut. *)
let compact_every_ms = 2_000.

let create ?journal ?ctrl ?(eq = ( = )) ?(trace = Obs.Trace.null) ?metrics
    ~codec client =
  let r =
    {
      client;
      codec;
      eq;
      trace;
      metrics;
      journal;
      ctrl;
      deferred = [];
      last_compact_ms = Obs.Clock.now_ms ();
    }
  in
  Client.set_stamp client (fun () ->
      match r.ctrl with Some c -> Controller.beacon c | None -> (Vclock.empty, 0));
  Client.set_resume client (fun () ->
      Option.map (fun c -> (Controller.clock c, Controller.version c)) r.ctrl);
  r

let controller r = r.ctrl
let client r = r.client

let journal_result = function Ok _ -> [] | Error e -> [ Failed (Journal e) ]

let checkpoint r c =
  match r.journal with None -> [] | Some j -> journal_result (Persist.checkpoint j c)

(* Journal one input of [c]'s history, then the cadence checkpoint. *)
let record r c input =
  match r.journal with
  | None -> []
  | Some j ->
    Persist.record j input;
    journal_result (Persist.maybe_checkpoint j c)

(* Dropped by the client unless the session is live.  Nothing is lost:
   what this site generates while the link is down — like what a journal
   replay re-emits — is its own history, and the catch-up at the next
   join returns exactly the part of it the hub lacks. *)
let send r m =
  let stamp = Proto.stamp_now ~site:(Client.site r.client) () in
  Client.send r.client (Proto.encode_message ~stamp r.codec m)

(* The transfer's inputs bypassed the journal, so checkpoint before the
   re-broadcast: the group must never hold a request (or a backlog
   validation) this site could forget in a crash. *)
let join r ~delta c out =
  r.ctrl <- Some c;
  let failed = checkpoint r c in
  List.iter (send r) out;
  failed @ [ Joined { delta; rebroadcast = List.length out } ]

(* A transfer we cannot use leaves this site unsynchronized: fail it and
   reconnect, which asks for a fresh one. *)
let unusable r err =
  Client.drop_link ~reason:(error_to_string err) r.client;
  [ Failed err ]

let on_snapshot r blob =
  match
    Result.bind (Proto.decode_state r.codec blob)
      (Controller.load ~eq:r.eq ~trace:r.trace ?metrics:r.metrics)
  with
  | Error e -> unusable r (Bad_snapshot e)
  | Ok donor -> (
    match r.ctrl with
    | None ->
      join r ~delta:false (Controller.rejoin ~site:(Client.site r.client) donor) []
    | Some mine ->
      let c, out = Controller.catch_up mine donor in
      join r ~delta:false c out)

let on_delta r blob =
  let applied =
    match r.ctrl with
    | None -> Error "delta without local state"
    | Some mine ->
      Result.bind (Proto.decode_delta r.codec blob) (Controller.apply_delta mine)
  in
  match applied with
  | Error e -> unusable r (Bad_delta e)
  | Ok (c, out) -> join r ~delta:true c out

let on_message r blob =
  match (Proto.decode_message_stamped r.codec blob, r.ctrl) with
  | Error e, _ -> [ Failed (Bad_message e) ]
  | Ok _, None -> [ Failed (Rejected "message before the session joined") ]
  | Ok (stamp, m), Some c -> (
    match Controller.try_receive c m with
    | Error e -> [ Failed (Rejected e) ]
    | Ok (c, emitted) ->
      r.ctrl <- Some c;
      let failed = record r c (Persist.Received m) in
      List.iter (send r) emitted;
      Delivered stamp :: failed)

let on_beacon r blob =
  match (Proto.decode_frontier blob, r.ctrl) with
  | Error e, _ -> [ Failed (Bad_beacon e) ]
  | Ok _, None -> []
  | Ok entries, Some c ->
    r.ctrl <-
      Some
        (List.fold_left
           (fun c (b : Proto.beacon) ->
             Controller.receive_beacon c ~peer:b.Proto.b_site ~clock:b.Proto.b_clock
               ~version:b.Proto.b_version)
           c entries);
    []

let handle r = function
  | Client.Connected -> [ Connected ]
  | Client.Snapshot blob -> on_snapshot r blob
  | Client.Delta blob -> on_delta r blob
  | Client.Message blob -> on_message r blob
  | Client.Beacon blob -> on_beacon r blob
  | Client.Disconnected reason -> [ Disconnected reason ]
  | Client.Reconnecting { attempt; delay_ms } -> [ Reconnecting { attempt; delay_ms } ]
  | Client.Gave_up reason -> [ Gave_up reason ]

let compact r =
  match (r.ctrl, r.journal) with
  | None, _ -> []
  | Some c, None ->
    r.ctrl <- Some (Controller.compact c);
    []
  | Some c, Some j ->
    let failed =
      match Persist.checkpoint_clock j with
      | Some cut when Vclock.leq (Controller.stable_frontier c) cut -> []
      | _ -> checkpoint r c
    in
    Option.iter
      (fun limit -> r.ctrl <- Some (Controller.compact ~limit c))
      (Persist.checkpoint_clock j);
    failed

let step ?timeout_ms r =
  let deferred = r.deferred in
  r.deferred <- [];
  let events = List.concat_map (handle r) (Client.step ?timeout_ms r.client) in
  let now = Obs.Clock.now_ms () in
  let compacted =
    if now -. r.last_compact_ms < compact_every_ms then []
    else begin
      r.last_compact_ms <- now;
      compact r
    end
  in
  deferred @ events @ compacted

(* Journal before broadcast: the group must never hold a request its
   origin site could forget in a crash. *)
let issue r input make =
  match r.ctrl with
  | None -> Error "not joined yet"
  | Some c -> (
    match make c with
    | Error _ as e -> e
    | Ok (c, m) ->
      r.ctrl <- Some c;
      r.deferred <- r.deferred @ record r c input;
      send r m;
      Ok ())

let generate r op =
  issue r (Persist.Generated op) (fun c ->
      match Controller.generate c op with
      | c, Controller.Accepted m -> Ok (c, m)
      | _, Controller.Denied reason -> Error reason)

let admin_update r op =
  issue r (Persist.Admin_cmd op) (fun c -> Controller.admin_update c op)

let close r =
  Client.close r.client;
  match r.journal with
  | None -> Ok ()
  | Some j ->
    let saved = match r.ctrl with Some c -> Persist.checkpoint j c | None -> Ok () in
    Persist.close j;
    Result.map_error (fun e -> Journal e) saved
