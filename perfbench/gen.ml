(* Seeded inputs.  Every stream comes from [Random.State.make [| seed;
   stream |]], so one seed gives the same op streams, admin schedule,
   delivery schedule and downtime schedule on every run; the program under
   test only ever receives the generated operations. *)

open Dce_core
module Tdoc = Dce_ot.Tdoc

let rng ~seed stream = Random.State.make [| seed; stream |]

(* An edit is drawn before the document it applies to exists: its kind,
   a position as a fraction of the visible length, and a letter. *)
type edit = { ins : bool; frac : float; ch : char }

let edits st n ~ins_pct =
  Array.init n (fun _ ->
      let ins = Random.State.int st 100 < ins_pct in
      let frac = Random.State.float st 1. in
      { ins; frac; ch = Char.chr (97 + Random.State.int st 26) })

let text st n = String.init n (fun _ -> Char.chr (97 + Random.State.int st 26))

let op_of doc e =
  let len = Tdoc.visible_length doc in
  if e.ins || len = 0 then
    Tdoc.ins_visible doc (min len (int_of_float (e.frac *. float_of_int (len + 1)))) e.ch
  else Tdoc.del_visible doc (min (len - 1) (int_of_float (e.frac *. float_of_int len)))

(* The one-rule policy of the networked sessions: every registered user
   may do everything. *)
let open_policy users =
  Policy.make ~users [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]

let controller ~policy ~text ~site =
  Controller.create ~eq:Char.equal ~site ~admin:0 ~policy (Tdoc.of_string text)

(* A |P| = [rules] policy shaped like the analysis bench's (128 users,
   8 groups, user/group subjects, zones within a 10k-position document,
   ~20% negative), except that no generated rule covers the session's own
   [sites]: they are decided by the final catch-all grant, so every check
   of theirs scans the whole list. *)
let big_policy st ~rules ~sites =
  let pool = 128 in
  let users = List.init (pool + sites) Fun.id in
  let others = List.filter (fun u -> u >= sites) users in
  let groups =
    List.init 8 (fun g ->
        (Printf.sprintf "g%d" g, List.filter (fun u -> u mod 8 = g) others))
  in
  let rand n = Random.State.int st n in
  let auths =
    List.init rules (fun _ ->
        let subjects =
          if rand 10 = 0 then [ Subject.Group (Printf.sprintf "g%d" (rand 8)) ]
          else [ Subject.User (sites + rand pool) ]
        in
        let objects =
          match rand 8 with
          | 0 -> [ Docobj.Whole ]
          | 1 | 2 -> [ Docobj.Element (rand 10_000) ]
          | _ ->
            let lo = rand 10_000 in
            [ Docobj.zone lo (lo + rand 512) ]
        in
        let rights = [ Right.of_index (rand Right.count) ] in
        (if rand 5 = 0 then Auth.deny else Auth.grant) subjects objects rights)
  in
  Policy.make ~users ~groups
    (auths @ [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ])
