type role = Normal | Canceller of Request.id

type 'e entry = { req : 'e Request.t; role : role }

module Id_map = Map.Make (struct
  type t = int * int

  let compare (a : t) b = compare a b
end)

(* Entries in execution order in a stat tree (measure: tentative normal
   entries, so the tentative set enumerates without scanning settled
   entries), plus an id -> position index over normal entries.  Indexed
   positions are absolute — [base] counts entries dropped by compaction,
   so the tree position of id is [index(id) - base] and compaction never
   rewrites the index.  [compacted] is the per-site serial floor below
   which entries have been compacted away.

   [horizon] and [cancel_max] are a causal summary of the stored
   entries: the per-site max serial over normal entries and canceller
   targets, and the max canceller policy version.  A request whose
   context and policy version dominate them has every entry in its
   context, which lets [integrate] skip the prefix scan.  Compaction
   leaves them as they are — an over-approximation, which only makes
   the skip rarer.  They are derived state: {!entries}, and hence every
   encoder and fingerprint, never see them. *)
type 'e t = {
  entries : 'e entry Stree.t;
  index : int Id_map.t;
  base : int;
  compacted : Vclock.t;
  horizon : Vclock.t;
  cancel_max : int;
}

let tentative e =
  match e.role with
  | Normal when e.req.Request.flag = Request.Tentative -> 1
  | Normal | Canceller _ -> 0

let key (id : Request.id) = (id.Request.site, id.Request.serial)

let index_set e pos index =
  match e.role with
  | Normal -> Id_map.add (key e.req.Request.id) pos index
  | Canceller _ -> index

let note_entry h e =
  match e.role with
  | Normal ->
    let id = e.req.Request.id in
    { h with horizon = Vclock.advance h.horizon id.Request.site id.Request.serial }
  | Canceller target ->
    {
      h with
      horizon = Vclock.advance h.horizon target.Request.site target.Request.serial;
      cancel_max = max h.cancel_max e.req.Request.policy_version;
    }

let empty =
  {
    entries = Stree.empty;
    index = Id_map.empty;
    base = 0;
    compacted = Vclock.empty;
    horizon = Vclock.empty;
    cancel_max = 0;
  }

let length h = Stree.length h.entries

let live_length = length

let entries h = Stree.to_list h.entries

let of_entries ~compacted entries =
  let tree = Stree.of_list ~measure:tentative entries in
  let index, _ =
    List.fold_left
      (fun (index, i) e -> (index_set e i index, i + 1))
      (Id_map.empty, 0) entries
  in
  List.fold_left note_entry { empty with entries = tree; index; compacted } entries

let compacted_upto h = h.compacted

let requests h =
  List.filter_map
    (fun e -> match e.role with Normal -> Some e.req | Canceller _ -> None)
    (entries h)

let ops h = List.map (fun e -> e.req.Request.op) (entries h)

let find id h =
  match Id_map.find_opt (key id) h.index with
  | None -> None
  | Some pos -> Some (Stree.get h.entries (pos - h.base)).req

let mem id h =
  Vclock.dominates_event h.compacted ~site:id.Request.site ~count:id.Request.serial
  || Id_map.mem (key id) h.index

let set_flag id flag h =
  match Id_map.find_opt (key id) h.index with
  | None -> h
  | Some pos ->
    {
      h with
      entries =
        Stree.update ~measure:tentative h.entries (pos - h.base) (fun e ->
            { e with req = { e.req with Request.flag } });
    }

let tentative_requests h =
  (* exactly the nonzero-measure entries, all normal by construction *)
  List.rev (Stree.fold_nonzero (fun acc e -> e.req :: acc) [] h.entries)

let broadcast_form (q : 'e Request.t) h =
  let rec last_normal i =
    if i < 0 then None
    else
      let e = Stree.get h.entries i in
      match e.role with
      | Normal -> Some e.req.Request.id
      | Canceller _ -> last_normal (i - 1)
  in
  { q with Request.dep = last_normal (Stree.length h.entries - 1) }

(* Adjacent transposition: given consecutive entries [a; b], produce
   [b'; a'] with the same combined effect.  [b'] excludes [a]'s effect;
   [a'] re-includes [b']'s.  Only [op] is rewritten: identity, role,
   flag and policy version are untouched, which is what lets the
   id index and the context classification survive reorderings. *)
let transpose a b =
  let b_op = Transform.et b.req.Request.op a.req.Request.op in
  let a_op = Transform.it a.req.Request.op b_op in
  ( { b with req = { b.req with Request.op = b_op } },
    { a with req = { a.req with Request.op = a_op } } )

(* Canonize: bubble the entry at the end of the log (an insertion)
   backwards past the deletion/update entries before it, stopping at the
   first insertion or Nop-carrying entry.  The bubble is batched: the
   movable suffix is extracted once, transposed in a flat array, and
   written back with a single {!Stree.set_range} walk — O(k + log H)
   tree work for a bubble of extent [k], instead of two O(log H) tree
   writes per transposition. *)
let append_entry_canonized h entry =
  let h = note_entry h entry in
  let movable op = Op.is_del op || Op.is_undel op || Op.is_up op in
  let pos = Stree.length h.entries in
  let entries = Stree.append ~measure:tentative h.entries entry in
  let index = index_set entry (h.base + pos) h.index in
  if not (Op.is_ins entry.req.Request.op) then { h with entries; index }
  else begin
    let k = ref 0 in
    while
      !k < pos && movable (Stree.get entries (pos - !k - 1)).req.Request.op
    do
      incr k
    done;
    if !k = 0 then { h with entries; index }
    else begin
      let lo = pos - !k in
      let w = !k + 1 in
      let window = Array.make w entry in
      let (_ : int) =
        Stree.fold_range
          (fun i e ->
            window.(i) <- e;
            i + 1)
          0 entries ~pos:lo ~len:w
      in
      let i = ref (w - 1) in
      while
        !i > 0
        && Op.is_ins window.(!i).req.Request.op
        && movable window.(!i - 1).req.Request.op
      do
        let b', a' = transpose window.(!i - 1) window.(!i) in
        window.(!i - 1) <- b';
        window.(!i) <- a';
        decr i
      done;
      let entries = Stree.set_range ~measure:tentative entries ~pos:lo window in
      let index = ref index in
      for j = 0 to w - 1 do
        index := index_set window.(j) (h.base + lo + j) !index
      done;
      { h with entries; index = !index }
    end
  end

let append_local q h = append_entry_canonized h { req = q; role = Normal }

(* Does the request [q] causally include entry [e]?  Normal entries are
   classified by the vector clock.  A canceller is part of [q]'s context
   iff its target is and the administrative cut that created it
   (recorded as the canceller request's [policy_version]) is below [q]'s
   generation version — see DESIGN §4.4 and the .mli.  Classification
   reads only fields that transposition preserves, so an entry's class
   with respect to a fixed [q] is stable under log reordering. *)
let in_context_of (q : _ Request.t) e =
  match e.role with
  | Normal ->
    Vclock.dominates_event q.Request.ctx ~site:e.req.Request.id.Request.site
      ~count:e.req.Request.id.Request.serial
  | Canceller target ->
    Vclock.dominates_event q.Request.ctx ~site:target.Request.site
      ~count:target.Request.serial
    && q.Request.policy_version >= e.req.Request.policy_version

(* ComputeFF, window-local.  Entries in the longest all-in-context
   prefix would be left in place by SOCT2 separation (context entries
   bubble leftwards, and there is nothing concurrent before them to
   bubble past), so only the suffix after that prefix — the concurrency
   window — is extracted, reordered and written back.  If the window
   contains no context entries (the common case: a remote request
   concurrent with the whole suffix), separation moves nothing and the
   write-back is skipped entirely.  When [q] dominates the causal
   summary the whole log is in its context and the O(H) prefix scan is
   skipped too. *)
let integrate q h =
  let n = Stree.length h.entries in
  let p =
    if Vclock.leq h.horizon q.Request.ctx && q.Request.policy_version >= h.cancel_max
    then n
    else Stree.prefix_length (in_context_of q) h.entries
  in
  let entries, index, op =
    if p = n then (h.entries, h.index, q.Request.op)
    else begin
      let w = n - p in
      let window = Array.make w (Stree.get h.entries p) in
      let (_ : int) =
        Stree.fold_range
          (fun i e ->
            window.(i) <- e;
            i + 1)
          0 h.entries ~pos:p ~len:w
      in
      (* classification is stable under transposition, so the flags can
         be computed up front instead of mid-reorder *)
      let in_ctx = Array.map (in_context_of q) window in
      (* separate: bubble context entries down with adjacent
         transpositions; [boundary] = first concurrent position *)
      let boundary = ref 0 in
      for i = 0 to w - 1 do
        if in_ctx.(i) then begin
          let e = ref window.(i) in
          for j = i downto !boundary + 1 do
            let b', a' = transpose window.(j - 1) !e in
            window.(j) <- a';
            e := b'
          done;
          window.(!boundary) <- !e;
          incr boundary
        end
      done;
      let op = ref q.Request.op in
      for i = !boundary to w - 1 do
        op := Transform.it !op window.(i).req.Request.op
      done;
      if !boundary = 0 then (h.entries, h.index, !op)
      else begin
        (* the window really was permuted: write it back in one walk *)
        let entries = Stree.set_range ~measure:tentative h.entries ~pos:p window in
        let index = ref h.index in
        for i = 0 to w - 1 do
          index := index_set window.(i) (h.base + p + i) !index
        done;
        (entries, !index, !op)
      end
    end
  in
  let entry = { req = { q with Request.op }; role = Normal } in
  (op, append_entry_canonized { h with entries; index } entry)

let canceller_of ~cancel_version (q : 'e Request.t) op =
  {
    req = { q with Request.op; Request.policy_version = cancel_version;
            Request.flag = Request.Invalid };
    role = Canceller q.Request.id;
  }

let undo ~cancel_version id h =
  match Id_map.find_opt (key id) h.index with
  | None -> None
  | Some pos ->
    let i = pos - h.base in
    let e = Stree.get h.entries i in
    if e.req.Request.flag = Request.Invalid then None
    else
      let n = Stree.length h.entries in
      let inv =
        Stree.fold_range
          (fun op e' -> Transform.it op e'.req.Request.op)
          (Op.inverse e.req.Request.op)
          h.entries ~pos:(i + 1) ~len:(n - i - 1)
      in
      let entries =
        Stree.set ~measure:tentative h.entries i
          { e with req = { e.req with Request.flag = Request.Invalid } }
      in
      let cancel = canceller_of ~cancel_version e.req inv in
      let entries = Stree.append ~measure:tentative entries cancel in
      Some (inv, note_entry { h with entries } cancel)

(* Rejecting a request = integrating it and undoing it on the spot: the
   request's cells enter the model (as tombstones, net visible effect
   zero), so later requests that causally include it still find their
   generation context in the log.  Both returned operations must be
   executed on the document, in order. *)
let append_rejected ~cancel_version q h =
  let op, h = integrate { q with Request.flag = Request.Tentative } h in
  match undo ~cancel_version q.Request.id h with
  | Some (inv, h) -> ((op, inv), h)
  | None -> assert false

let causally_ready (q : _ Request.t) h =
  List.for_all
    (fun (site, count) -> count = 0 || mem { Request.site; Request.serial = count } h)
    (Vclock.to_list q.Request.ctx)

let is_canonical h =
  let ok, _ =
    Stree.fold_left
      (fun (ok, seen_du) e ->
        let op = e.req.Request.op in
        if (not ok) || (Op.is_ins op && seen_du) then (false, seen_du)
        else (true, seen_du || Op.is_del op || Op.is_up op))
      (true, false) h.entries
  in
  ok

(* Compaction: drop the longest stable prefix (see the .mli for the
   soundness argument).  Positions in the id index are absolute, so only
   the dropped ids leave the index — [base] absorbs the shift. *)
let compact ~stable ~stable_version h =
  let droppable e =
    match e.role with
    | Normal ->
      e.req.Request.flag <> Request.Tentative
      && Vclock.dominates_event stable ~site:e.req.Request.id.Request.site
           ~count:e.req.Request.id.Request.serial
    | Canceller target ->
      e.req.Request.policy_version <= stable_version
      && Vclock.dominates_event stable ~site:target.Request.site
           ~count:target.Request.serial
  in
  let k = Stree.prefix_length droppable h.entries in
  if k = 0 then h
  else
    let n = Stree.length h.entries in
    let dropped =
      List.rev (Stree.fold_range (fun acc e -> e :: acc) [] h.entries ~pos:0 ~len:k)
    in
    let compacted =
      List.fold_left
        (fun compacted e ->
          match e.role with
          | Normal ->
            Vclock.advance compacted e.req.Request.id.Request.site
              e.req.Request.id.Request.serial
          | Canceller _ -> compacted)
        h.compacted dropped
    in
    let index =
      List.fold_left
        (fun index e ->
          match e.role with
          | Normal -> Id_map.remove (key e.req.Request.id) index
          | Canceller _ -> index)
        h.index dropped
    in
    let rest =
      List.rev
        (Stree.fold_range (fun acc e -> e :: acc) [] h.entries ~pos:k ~len:(n - k))
    in
    {
      h with
      entries = Stree.of_list ~measure:tentative rest;
      index;
      base = h.base + k;
      compacted;
    }

let pp pp_elt ppf h =
  let pp_entry ppf e =
    match e.role with
    | Normal -> Request.pp pp_elt ppf e.req
    | Canceller id ->
      Format.fprintf ppf "undo(%a)[%a]" Request.pp_id id (Op.pp pp_elt) e.req.Request.op
  in
  Format.fprintf ppf "[@[%a@]]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ") pp_entry)
    (entries h)
