(* Counts, maxima and raw samples the workloads collect in every run,
   traced or not: integer bookkeeping read from gauges the program
   already exposes (window lengths, outbox bytes, WAL size), never
   timings — timings of layer calls come from {!Span}. *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let maxes : (string, float) Hashtbl.t = Hashtbl.create 32
let samples : (string, Stats.t) Hashtbl.t = Hashtbl.create 32

let add name x =
  Hashtbl.replace counts name
    (x +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let incr name = add name 1.

let max_ name x =
  match Hashtbl.find_opt maxes name with
  | Some m when m >= x -> ()
  | _ -> Hashtbl.replace maxes name x

let sample name x =
  let s =
    match Hashtbl.find_opt samples name with
    | Some s -> s
    | None ->
      let s = Stats.create () in
      Hashtbl.add samples name s;
      s
  in
  Stats.add s x

let count name = Option.value ~default:0. (Hashtbl.find_opt counts name)
let maximum name = Option.value ~default:0. (Hashtbl.find_opt maxes name)

let samples_of name =
  Option.value ~default:(Stats.create ()) (Hashtbl.find_opt samples name)

(* Failed operations, with the first few reasons kept for stderr. *)
let failures = ref 0
let failure_notes : string list ref = ref []

let fail reason =
  Stdlib.incr failures;
  if List.length !failure_notes < 10 then failure_notes := reason :: !failure_notes
