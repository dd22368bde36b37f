type role = Normal | Canceller of Request.id

type 'e entry = { req : 'e Request.t; role : role }

module Id_map = Map.Make (struct
  type t = int * int

  let compare ((s1, n1) : t) (s2, n2) =
    let c = Int.compare s1 s2 in
    if c <> 0 then c else Int.compare n1 n2
end)

(* Where an indexed entry sits, packed into an immediate int so the
   index holds no boxed value per entry: [2p] at absolute position [p];
   [2v + 1] inside the movable tail, at absolute position [v + shift]. *)
let abs_slot a = a lsl 1

let tail_slot v = (v lsl 1) lor 1

(* Entries in execution order in a stat tree (measure: tentative normal
   entries, so the tentative set enumerates without scanning settled
   entries), plus an id -> slot index over normal entries.  Indexed
   positions are absolute — [base] counts entries dropped by compaction,
   so the tree position of id is its absolute position minus [base] and
   compaction never rewrites the index.  [tail] is the length of the
   maximal movable suffix; its entries hold tail slots, which [shift]
   offsets, so an insertion bubbling past the whole tail moves them all
   with one increment (see [tree_pos]).  [compacted] is the per-site
   serial floor below which entries have been compacted away.

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
  tail : int;
  shift : int;
}

let tentative e =
  match e.role with
  | Normal when e.req.Request.flag = Request.Tentative -> 1
  | Normal | Canceller _ -> 0

let key (id : Request.id) = (id.Request.site, id.Request.serial)

let movable op = Op.is_del op || Op.is_undel op || Op.is_up op

let index_set e slot index =
  match e.role with
  | Normal -> Id_map.add (key e.req.Request.id) slot index
  | Canceller _ -> index

(* The slot for absolute position [a], given the tail starts at [tail_from]. *)
let slot_at h ~tail_from a = if a >= tail_from then tail_slot (a - h.shift) else abs_slot a

(* Tree position of an indexed slot. *)
let tree_pos h slot =
  (if slot land 1 = 0 then slot asr 1 else (slot asr 1) + h.shift) - h.base

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
    tail = 0;
    shift = 0;
  }

let length h = Stree.length h.entries

let live_length = length

let entries h = Stree.to_list h.entries

let tail_length h = h.tail

let of_entries ~compacted entries =
  let tree = Stree.of_list ~measure:tentative entries in
  let tail =
    List.fold_left
      (fun tail e -> if movable e.req.Request.op then tail + 1 else 0)
      0 entries
  in
  let h = { empty with entries = tree; compacted; tail } in
  let tail_from = Stree.length tree - tail in
  let index, _ =
    List.fold_left
      (fun (index, i) e -> (index_set e (slot_at h ~tail_from i) index, i + 1))
      (Id_map.empty, 0) entries
  in
  List.fold_left note_entry { h with index } entries

let compacted_upto h = h.compacted

let requests h =
  List.filter_map
    (fun e -> match e.role with Normal -> Some e.req | Canceller _ -> None)
    (entries h)

let ops h = List.map (fun e -> e.req.Request.op) (entries h)

let find id h =
  match Id_map.find_opt (key id) h.index with
  | None -> None
  | Some slot -> Some (Stree.get h.entries (tree_pos h slot)).req

let mem id h =
  Vclock.dominates_event h.compacted ~site:id.Request.site ~count:id.Request.serial
  || Id_map.mem (key id) h.index

let set_flag id flag h =
  match Id_map.find_opt (key id) h.index with
  | None -> h
  | Some slot ->
    {
      h with
      entries =
        Stree.update ~measure:tentative h.entries (tree_pos h slot) (fun e ->
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

(* Seal the tail: give its entries absolute slots again, before an
   entry that no insertion may bubble past is appended behind it. *)
let seal h =
  if h.tail = 0 then h
  else
    let n = Stree.length h.entries in
    let index, _ =
      Stree.fold_range
        (fun (index, a) e -> (index_set e (abs_slot a) index, a + 1))
        (h.index, h.base + n - h.tail)
        h.entries ~pos:(n - h.tail) ~len:h.tail
    in
    { h with index; tail = 0; shift = 0 }

(* Append without canonizing: a movable entry extends the tail, any
   other one seals it. *)
let append_plain h e =
  let a = h.base + Stree.length h.entries in
  let entries = Stree.append ~measure:tentative h.entries e in
  if movable e.req.Request.op then
    { h with entries; index = index_set e (tail_slot (a - h.shift)) h.index; tail = h.tail + 1 }
  else
    let h = seal h in
    { h with entries; index = index_set e (abs_slot a) h.index }

(* Canonize: bubble an appended insertion backwards past the movable
   tail.  Kinds survive transposition, so it always crosses the whole
   tail.  The bubble is batched: the tail is extracted once, transposed
   in a flat array and written back with a single {!Stree.set_range}
   walk — O(k + log H) tree work for a tail of length [k] — and the
   index work is O(log H): one slot for the insertion, one [shift] bump
   for the tail. *)
let append_entry_canonized h entry =
  let h = note_entry h entry in
  if h.tail = 0 || not (Op.is_ins entry.req.Request.op) then append_plain h entry
  else begin
    let k = h.tail in
    let lo = Stree.length h.entries - k in
    let window = Array.make (k + 1) entry in
    let (_ : int) =
      Stree.fold_range
        (fun i e ->
          window.(i) <- e;
          i + 1)
        0 h.entries ~pos:lo ~len:k
    in
    for i = k downto 1 do
      let b', a' = transpose window.(i - 1) window.(i) in
      window.(i - 1) <- b';
      window.(i) <- a'
    done;
    let entries = Stree.append ~measure:tentative h.entries entry in
    {
      h with
      entries = Stree.set_range ~measure:tentative entries ~pos:lo window;
      index = index_set window.(0) (abs_slot (h.base + lo)) h.index;
      shift = h.shift + 1;
    }
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
  let h, op =
    if p = n then (h, q.Request.op)
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
      if !boundary = 0 then (h, !op)
      else begin
        (* the window really was permuted: write it back in one walk.
           Kinds survive transposition, so a window inside the tail
           leaves the tail as it was; a wider one holds the whole tail
           and its new extent is re-derived here. *)
        let tail =
          if h.tail >= w then h.tail
          else begin
            let t = ref 0 in
            while !t < w && movable window.(w - 1 - !t).req.Request.op do
              incr t
            done;
            !t
          end
        in
        let tail_from = h.base + n - tail in
        let index = ref h.index in
        for i = 0 to w - 1 do
          index := index_set window.(i) (slot_at h ~tail_from (h.base + p + i)) !index
        done;
        let entries = Stree.set_range ~measure:tentative h.entries ~pos:p window in
        ({ h with entries; index = !index; tail }, !op)
      end
    end
  in
  let entry = { req = { q with Request.op }; role = Normal } in
  (op, append_entry_canonized h entry)

let canceller_of ~cancel_version (q : 'e Request.t) op =
  {
    req = { q with Request.op; Request.policy_version = cancel_version;
            Request.flag = Request.Invalid };
    role = Canceller q.Request.id;
  }

let undo ~cancel_version id h =
  match Id_map.find_opt (key id) h.index with
  | None -> None
  | Some slot ->
    let i = tree_pos h slot in
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
      Some (inv, append_plain (note_entry { h with entries } cancel) cancel)

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
   the dropped ids leave the index — [base] absorbs the shift — and a
   tail reaching into the dropped prefix just gets shorter. *)
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
      tail = min h.tail (n - k);
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
