(** The administrative log [L] (paper §4.2, second scenario).

    Every site stores the administrative requests it has applied, in
    version order, together with a policy snapshot per version (snapshots
    share structure, so this costs O(1) extra per request).  The log
    answers the question the paper's [Check_Remote] needs: {e was this
    access granted at every policy version between its generation and
    now?} — and, when not, at which version it first stopped being
    granted (the canonical cancellation version used to classify undo
    entries consistently across sites, see [Dce_ot.Oplog]). *)

type t

val create : admin:Subject.user -> Policy.t -> t
(** [create ~admin p]: [p] is the initial policy, version 0, and [admin]
    holds the administrator role until a [Transfer_admin] applies. *)

val version : t -> int
val current : t -> Policy.t
val initial : t -> Policy.t

val current_admin : t -> Subject.user
(** Holder of the administrator role at the current version. *)

val initial_admin : t -> Subject.user

val admin_at : t -> int -> Subject.user option
(** Holder of the administrator role at a given version — the identity a
    cooperative request generated under that version should be compared
    against. *)

val append : t -> Admin_op.request -> (t, string) result
(** Apply the next administrative request.  Fails if the request's
    version is not [version t + 1], if its issuer is not the current
    administrator (an impostor — the paper assumes an authenticated
    network, so this is defence in depth), or if the operation does not
    apply to the current policy. *)

val policy_at : t -> int -> Policy.t option
(** Snapshot at a given version ([None] if beyond the current version). *)

val request_at : t -> int -> Admin_op.request option
(** The request that produced a given version (≥ 1). *)

val requests : t -> Admin_op.request list
(** All applied requests, oldest first. *)

val first_denial :
  t -> from_version:int -> user:Subject.user -> right:Right.t -> pos:int option ->
  int option
(** [first_denial l ~from_version ~user ~right ~pos]: the smallest
    version [v >= from_version] whose policy denies the access, or [None]
    if every version in [[from_version, version l]] grants it.  This is
    the paper's remote check: a cooperative request is accepted iff the
    result is [None], and otherwise the returned version is its canonical
    cancellation version.  Costs O(versions since [from_version]): only
    the starting snapshot and the later restrictive ones are checked. *)

val pp : Format.formatter -> t -> unit
