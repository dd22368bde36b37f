(** Vector clocks over dynamic site sets.

    The paper's coordination framework avoids vector timestamps by tracking
    direct dependencies (a dependency tree); we carry those dependency
    identifiers too (see {!Request}), but use vector clocks as the ground
    truth for the happened-before relation.  Clocks are maps from site
    identifiers to counters, so sites can join and leave at any time
    without fixed-width vectors (DESIGN §4.3). *)

type site = int

type t

val empty : t

val get : t -> site -> int
(** [get c s] is [s]'s counter, [0] if absent. *)

val tick : t -> site -> t
(** Increment [s]'s counter. *)

val advance : t -> site -> int -> t
(** [advance c s n]: [c] with [s]'s counter raised to at least [n]. *)

val merge : t -> t -> t
(** Pointwise maximum. *)

val meet : t -> t -> t
(** Pointwise minimum (a site missing from either clock counts as 0 and
    disappears from the result).  The meet of what every group member
    has seen is the stability frontier used for log compaction. *)

val leq : t -> t -> bool
(** [leq a b]: every counter of [a] is [<=] the corresponding counter of
    [b] — i.e. [a] happened before or equals [b]. *)

val equal : t -> t -> bool

val concurrent : t -> t -> bool
(** Neither [leq a b] nor [leq b a]. *)

val dominates_event : t -> site:site -> count:int -> bool
(** [dominates_event c ~site ~count]: the event numbered [count] issued by
    [site] is covered by [c]. *)

val sum : t -> int
(** Total number of events covered: a Lamport-style scalar ([a] happened
    before [b] implies [sum a < sum b] for the clocks of successive
    requests). *)

val to_list : t -> (site * int) list
val of_list : (site * int) list -> t
val pp : Format.formatter -> t -> unit
