(** One non-blocking framed connection.

    Wraps a connected socket with a read-side {!Splitter} and a bounded
    write-side outbox of framed chunks.  Nothing here blocks: the owner
    runs a poll loop and calls {!handle_readable} / {!handle_writable}
    when the kernel says the socket is ready; partial reads and writes
    are the normal case and are resumed transparently.

    Sends write through: a frame sent while nothing is queued goes to
    the kernel in the same call, so the owner's loop needs no extra
    round to learn that the socket is writable.  Only the bytes of a
    short write wait in the outbox, and only then does {!wants_write}
    ask for write readiness.

    A connection never raises on hostile input or socket trouble — it
    transitions to a closed state carrying a {!close_reason}, and the
    owner reaps it.  Write backpressure is a disconnect-on-overflow
    policy: when the outbox would exceed its byte bound the peer is
    dropped (it will recover current state from a snapshot when it
    reconnects), so one stalled consumer cannot hold the process's
    memory hostage. *)

type close_reason =
  | Eof  (** orderly close from the peer *)
  | Overflow  (** outbox bound exceeded: the peer was not draining *)
  | Idle  (** no traffic within the idle timeout *)
  | Superseded  (** the same site opened a newer connection *)
  | Corrupt of string  (** the byte stream failed frame validation *)
  | Socket_error of string
  | Local of string  (** closed by this endpoint for [reason] *)

val reason_string : close_reason -> string

type t

val create :
  ?max_outbox:int ->
  ?max_frame:int ->
  ?faults:Faults.t ->
  tele:Tele.t ->
  peer:string ->
  Unix.file_descr ->
  t
(** Takes ownership of [fd]: sets it non-blocking (and [TCP_NODELAY]).
    [max_outbox] (default 4 MiB) bounds buffered unsent bytes;
    [max_frame] (default 8 MiB) bounds a single incoming frame.
    [faults] (chaos runs only) filters every outgoing frame through a
    seeded {!Faults} plan — drop, duplicate, delay, reorder, or
    partition-drop; held frames are released on later send/flush/poll
    activity. *)

val fd : t -> Unix.file_descr
val peer : t -> string

val send : t -> string -> unit
(** Frame a payload and hand it to the kernel now if the outbox is
    empty; otherwise, or for whatever a short write leaves over, queue
    it behind the bytes already waiting, so frames leave in send order.
    Under a {!Faults} plan the frame's fate is decided first: a held
    (delayed or swapped) frame enters the outbox only when released,
    and then goes the same way.  A write error marks the connection
    closed ([Eof] for a peer that went away); so may [Overflow].
    Silently ignored once closed. *)

val handle_readable : t -> string list
(** Read once and return every complete frame payload now available.
    Sets the closed state on EOF, socket error or corrupt framing (the
    payloads extracted before the corruption are still returned). *)

val handle_writable : t -> unit
(** Flush as much of the outbox as the kernel accepts.  A no-op once
    the connection is marked closed. *)

val flush : t -> unit
(** Like {!handle_writable} but also runs on a connection already
    marked closed: a single best-effort push of whatever is queued (a
    final [Pong], [Bye] or kick notice) before {!shutdown}.  Whatever
    the kernel does not accept immediately is dropped. *)

val wants_write : t -> bool
(** Whether to put this socket in the poll write set: true only while
    bytes a short write could not hand over are queued (after releasing
    any fault-held frames that are due, which write through too). *)

val alive : t -> bool
val closed_reason : t -> close_reason option

val mark_closed : t -> close_reason -> unit
(** First reason wins; the socket itself is closed by {!shutdown}. *)

val last_recv_ms : t -> float
val last_send_ms : t -> float
(** Wall-clock activity timestamps, for heartbeat/idle policies. *)

val outbox_bytes : t -> int

val shutdown : t -> unit
(** Close the file descriptor (idempotent, never raises). *)
