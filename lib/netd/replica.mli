(** The editor side of a hub session: one site's controller driven over
    one {!Client} connection — the paper's site loop (Algorithms 1–4)
    with the network in place of a broadcast primitive.

    Every editor that talks to a hub (the [p2pedit] connect mode, the
    [loadgen] editors, the netd and hub benches, the loopback tests)
    drives its controller through this module, so each of these jobs is
    done once:

    - {b Join.}  A site with no local state joins from the hub's
      [Snapshot] ({!Dce_core.Controller.load} then
      {!Dce_core.Controller.rejoin}; there is nothing of its own to
      lose).  A site with local state merges every [Snapshot] with
      {!Dce_core.Controller.catch_up}, and presents its clock at every
      (re)connect so the hub can answer with a [Delta] instead
      ({!Dce_core.Controller.apply_delta}).  A transfer that cannot be
      used drops the link, so the reconnect asks again.
    - {b Broadcast.}  Every outgoing message carries an origin stamp,
      and goes out only while the session is live.  What is owed to the
      group — edits made while the link was down, a journal replay's
      re-emissions — is this site's own history, so the catch-up at the
      next join returns exactly the part the hub lacks, and that is
      re-broadcast.
    - {b Stability.}  The client's heartbeat beacon advertises this
      controller's clock; the hub's aggregate beacons are absorbed with
      {!Dce_core.Controller.receive_beacon}.
    - {b Journal.}  With a {!Dce_store.Persist} journal, every input is
      recorded before anything it caused is broadcast, the journal
      checkpoints on its own cadence, and after every catch-up (whose
      inputs bypassed it).
    - {b Compaction.}  Every 2 s the log is compacted behind the
      stability frontier; a journaled replica checkpoints first when the
      frontier has moved past its durable cut, and never compacts past
      that cut ({!Dce_store.Persist.checkpoint_clock}).

    Failures are {!event}s for the caller to print, count or fail on:
    this module prints nothing and swallows nothing. *)

type error =
  | Bad_snapshot of string
      (** a [Snapshot] that does not decode or does not load *)
  | Bad_delta of string
      (** a [Delta] that does not decode, arrives with no local state,
          or that {!Dce_core.Controller.apply_delta} refuses *)
  | Bad_message of string  (** a message that does not decode *)
  | Rejected of string
      (** a decoded message {!Dce_core.Controller.try_receive} refuses,
          or one that arrives before the session joined *)
  | Bad_beacon of string  (** a stability beacon that does not decode *)
  | Journal of string  (** a journal checkpoint failed *)

val error_to_string : error -> string

type event =
  | Connected  (** TCP is up and the attach went out *)
  | Joined of { delta : bool; rebroadcast : int }
      (** the session is live: a snapshot ([delta = false]) or a delta
          was integrated, and [rebroadcast] messages the hub lacked went
          out *)
  | Delivered of Dce_wire.Proto.stamp option
      (** a remote message was integrated; its origin stamp, if any *)
  | Disconnected of string
  | Reconnecting of { attempt : int; delay_ms : int }
  | Gave_up of string  (** the client exhausted its connection attempts *)
  | Failed of error

type 'e t

val create :
  ?journal:'e Dce_store.Persist.t ->
  ?ctrl:'e Dce_core.Controller.t ->
  ?eq:('e -> 'e -> bool) ->
  ?trace:Dce_obs.Trace.sink ->
  ?metrics:Dce_obs.Metrics.t ->
  codec:'e Dce_wire.Proto.elt_codec ->
  Client.t ->
  'e t
(** Drive [ctrl] — the local state, if any — over the client, and take
    over its stamp and resume hooks ({!Client.set_stamp},
    {!Client.set_resume}).  A [journal] must already hold a checkpoint
    of [ctrl] (as a recovered one does); a fresh one gets its first at
    the join.
    [eq], [trace] and [metrics] are passed to
    {!Dce_core.Controller.load} for the hub's snapshots. *)

val step : ?timeout_ms:int -> 'e t -> event list
(** One turn: {!Client.step} (blocking at most [timeout_ms]), integrate
    what it delivered, broadcast what that produced, and compact when
    the cadence is due. *)

val controller : 'e t -> 'e Dce_core.Controller.t option
(** [None] until the first join when created without local state. *)

val client : 'e t -> Client.t

val generate : 'e t -> 'e Dce_ot.Op.t -> (unit, string) result
(** Generate a local edit, journal it, then broadcast it.  [Error]
    carries the local policy's denial, or says the site has not joined.
    A journal checkpoint failure surfaces as [Failed (Journal _)] from
    the next {!step}. *)

val admin_update : 'e t -> Dce_core.Admin_op.t -> (unit, string) result
(** {!generate} for an administrative command. *)

val compact : 'e t -> event list
(** Compact now, with the same clamp as the cadence (the events are
    journal failures). *)

val close : 'e t -> (unit, error) result
(** Close the connection with a [Bye]; a journaled replica checkpoints
    and closes its journal. *)
