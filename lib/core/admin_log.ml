type t = {
  initial : Policy.t;
  initial_admin : Subject.user;
  (* newest first; entry i has version (length - i) and carries the
     snapshot and administrator the request produced *)
  entries : (Admin_op.request * Policy.t * Subject.user) list;
  version : int;
}

let create ~admin p =
  { initial = p; initial_admin = admin; entries = []; version = 0 }

let version t = t.version

let current t = match t.entries with [] -> t.initial | (_, p, _) :: _ -> p

let initial t = t.initial

let current_admin t =
  match t.entries with [] -> t.initial_admin | (_, _, a) :: _ -> a

let initial_admin t = t.initial_admin

let append t (r : Admin_op.request) =
  if r.Admin_op.version <> t.version + 1 then
    Error
      (Printf.sprintf "administrative request out of order: got v%d, expected v%d"
         r.Admin_op.version (t.version + 1))
  else if r.Admin_op.admin <> current_admin t then
    Error
      (Printf.sprintf "administrative request from %d, but %d holds the role"
         r.Admin_op.admin (current_admin t))
  else
    match Admin_op.apply (current t) r.Admin_op.op with
    | Error e -> Error e
    | Ok p ->
      let admin =
        match r.Admin_op.op with Admin_op.Transfer_admin u -> u | _ -> current_admin t
      in
      Ok { t with entries = (r, p, admin) :: t.entries; version = t.version + 1 }

let policy_at t v =
  if v < 0 || v > t.version then None
  else if v = 0 then Some t.initial
  else
    (* entries are newest first: version v is at index (version - v) *)
    match List.nth_opt t.entries (t.version - v) with
    | Some (_, p, _) -> Some p
    | None -> None

let admin_at t v =
  if v < 0 || v > t.version then None
  else if v = 0 then Some t.initial_admin
  else
    match List.nth_opt t.entries (t.version - v) with
    | Some (_, _, a) -> Some a
    | None -> None

let request_at t v =
  if v < 1 || v > t.version then None
  else
    match List.nth_opt t.entries (t.version - v) with
    | Some (r, _, _) -> Some r
    | None -> None

let requests t = List.rev_map (fun (r, _, _) -> r) t.entries

let first_denial t ~from_version ~user ~right ~pos =
  (* Grants can only be withdrawn by restrictive requests, so it is
     enough to check the starting version and the version produced by
     each restrictive request after it.  Entries are newest first: the
     walk stops at [from_version], so a recent request costs
     O(versions since from_version), not O(|L|). *)
  let granted p = Policy.check p ~user ~right ~pos in
  (* the snapshot at [from_version] and the later restrictive
     snapshots, oldest first *)
  let rec since acc = function
    | (r, p, _) :: rest when r.Admin_op.version > from_version ->
      let acc =
        if Admin_op.is_restrictive r.Admin_op.op then (r.Admin_op.version, p) :: acc
        else acc
      in
      since acc rest
    | (_, p, _) :: _ -> (p, acc)
    | [] -> (t.initial, acc)
  in
  if from_version > t.version then None
  else if from_version < 0 then Some from_version
  else
    let base, restrictive = since [] t.entries in
    if not (granted base) then Some from_version
    else List.find_map (fun (v, p) -> if granted p then None else Some v) restrictive

let pp ppf t =
  Format.fprintf ppf "@[<v>L (version %d):@ %a@]" t.version
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Admin_op.pp_request)
    (requests t)
