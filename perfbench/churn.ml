(* churn: the access-control core under concurrency, closed loop.

   Four controllers in one process — the administrator (site 0) and three
   editors — with no sockets and no disk.  The policy holds |P| = 10k
   generated authorizations that never match the session's own sites, so
   every check scans the whole list before the final grant decides.
   Messages travel over seeded per-link FIFO queues, each link with its
   own lag in loop iterations, so concurrency windows stay open.  Each
   editor keeps at most [depth] unsettled edits outstanding and issues
   the next one only when one settles (closed loop).  Every ~50 edits the
   administrator issues a restrictive request aimed at the zone one
   editor is working in — alternately a deny on that zone and the
   deletion of that deny — so retroactive undo, the interval re-check and
   validation all run.  Sessions restart every ~1000 edits, so |L| stays
   small.

   An edit is settled when every other site has integrated it and every
   editor has applied its fate: the administrator's [Validate], or the
   policy version at which the administrator refused it. *)

open Dce_core
open Util
module Vclock = Dce_ot.Vclock
module Tdoc = Dce_ot.Tdoc

let editors = [ 1; 2; 3 ]
let all_sites = [ 0; 1; 2; 3 ]
let rules = 10_000
let session_edits = 1000
let depth = 4
let beacon_every = 16
let compact_every = 32

type msg = M of char Controller.message | B of int * Vclock.t * int

type edit = {
  due : float;
  mutable others : int;  (** other sites that integrated it *)
  mutable fate : int;  (** policy version that settles it; 0 = unknown *)
  mutable settled : bool;
}

type admin_req =
  | Restrictive of { issued : float; mutable applied : int }
  | Validates of int * int

type totals = {
  setup : Stats.t;
  enforce : Stats.t;
  mutable segs : segment list;
  mutable generated : int;
  mutable settled_n : int;
  mutable refused : int;
  mutable paths : (int * int * float) list;
  mutable wall : float;
  mutable heap_mb : float;
}

(* A local denial is expected only when the administrator's deny, always
   at index 0, decided it. *)
let expected_denial c ~site op =
  let policy = Controller.policy c in
  match Right.of_op op with
  | None -> false
  | Some right -> (
    match Policy.explain policy ~user:site ~right ~pos:(Dce_ot.Op.pos op) with
    | Policy.Matched 0 -> (
      match Policy.auth_at policy 0 with
      | Some a -> a.Auth.sign = Auth.Negative
      | None -> false)
    | _ -> false)

(* The correctness gate over quiescent sites: equal content fingerprints
   everywhere and, with [oracle], the simulator's convergence oracle
   (documents, versions, policies, empty queues, nothing left tentative,
   agreeing flags).  Raises [Gate]. *)
let check_sites ?(oracle = false) ~what cs =
  let fps = List.map (Dce_wire.Proto.content_fingerprint Dce_wire.Proto.char_codec) cs in
  gate (List.for_all (( = ) (List.hd fps)) fps) (what ^ ": the replicas diverged");
  if oracle then
    gate
      (Dce_sim.Convergence.ok (Dce_sim.Convergence.check cs))
      (what ^ ": convergence oracle failed: "
      ^ Option.value ~default:"" (Dce_sim.Convergence.explain cs))

(* One session: set up, run until [session_edits] edits or [stop_at],
   drain, and check that every site converged.  Returns the controllers. *)
let session ~features ~seed ~index ~stop_at ~text ~policy_seed tot =
  Span.epoch := index;
  let st = Gen.rng ~seed (1000 + index) in
  let t_setup = now_ms () in
  let policy = Gen.big_policy (Random.State.make [| policy_seed |]) ~rules ~sites:4 in
  let ctrl =
    Array.of_list
      (List.map
         (fun site ->
           Controller.create ~features ~eq:Char.equal ~site ~admin:0 ~policy
             (Tdoc.of_string text))
         all_sites)
  in
  Stats.add tot.setup ((now_ms () -. t_setup) /. 1000.);
  let seg = segment () in
  let t0 = now_ms () and cpu0 = cpu_s () in
  (* the twelve links' lags are a seeded shuffle of one fixed multiset,
     so every session has the same spread of delivery lags *)
  let lag =
    let pool = [| 1; 1; 2; 2; 3; 3; 4; 4; 5; 5; 6; 6 |] in
    for i = Array.length pool - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = pool.(i) in
      pool.(i) <- pool.(j);
      pool.(j) <- t
    done;
    let k = ref 0 in
    Array.init 4 (fun s ->
        Array.init 4 (fun d ->
            if s = d then 0
            else begin
              incr k;
              pool.(!k - 1)
            end))
  in
  let queue = Array.init 4 (fun _ -> Array.init 4 (fun _ -> Queue.create ())) in
  let last = Array.make_matrix 4 4 0 in
  let iter = ref 0 in
  let broadcast src m =
    List.iter
      (fun d ->
        if d <> src then begin
          let at = max last.(src).(d) (!iter + lag.(src).(d)) in
          last.(src).(d) <- at;
          Queue.push (at, m) queue.(src).(d)
        end)
      all_sites
  in
  let edits = Hashtbl.create 2048 in
  let outstanding = Array.make 4 0 in
  let admin_reqs = Hashtbl.create 2048 in
  let validated_keys = Hashtbl.create 2048 in
  let fated = ref [] in
  let seen = Array.map (fun c -> Controller.clock c) ctrl in
  let ver = Array.map Controller.version ctrl in
  let min_editor_version () =
    List.fold_left (fun a e -> min a (Controller.version ctrl.(e))) max_int editors
  in
  let settle_ready () =
    let mv = min_editor_version () in
    fated :=
      List.filter
        (fun ((o, _), e) ->
          if e.fate <= mv && e.others = 3 then begin
            e.settled <- true;
            outstanding.(o) <- outstanding.(o) - 1;
            tot.settled_n <- tot.settled_n + 1;
            seg.settled <- seg.settled + 1;
            false
          end
          else true)
        !fated
  in
  let set_fate key e v =
    e.fate <- v;
    fated := (key, e) :: !fated
  in
  let after_change d =
    let now = now_ms () in
    let clk = Controller.clock ctrl.(d) in
    List.iter
      (fun o ->
        if o <> d then
          for s = Vclock.get seen.(d) o + 1 to Vclock.get clk o do
            match Hashtbl.find_opt edits (o, s) with
            | None -> ()
            | Some e ->
              e.others <- e.others + 1;
              if e.others = 3 then begin
                let v = now -. e.due in
                Stats.add seg.visible_ms v;
                tot.paths <- (o, Span.trace_serial s, v) :: tot.paths
              end;
              if d = 0 && not (Hashtbl.mem validated_keys (o, s)) then begin
                tot.refused <- tot.refused + 1;
                set_fate (o, s) e (Controller.version ctrl.(0))
              end
          done)
      editors;
    seen.(d) <- clk;
    let v = Controller.version ctrl.(d) in
    for x = ver.(d) + 1 to v do
      match Hashtbl.find_opt admin_reqs x with
      | Some (Restrictive r) when d <> 0 ->
        r.applied <- r.applied + 1;
        if r.applied = 3 then Stats.add tot.enforce (now -. r.issued)
      | Some (Validates (o, s)) when o = d -> (
        match Hashtbl.find_opt edits (o, s) with
        | Some e -> Stats.add seg.validated_ms (now -. e.due)
        | None -> ())
      | _ -> ()
    done;
    ver.(d) <- v;
    settle_ready ()
  in
  let note_emit = function
    | Controller.Admin { Admin_op.version; op = Admin_op.Validate id; _ } -> (
      let key = (id.Dce_ot.Request.site, id.Dce_ot.Request.serial) in
      Hashtbl.replace admin_reqs version (Validates (fst key, snd key));
      Hashtbl.replace validated_keys key ();
      match Hashtbl.find_opt edits key with Some e -> set_fate key e version | None -> ())
    | _ -> ()
  in
  let deliver d = function
    | B (peer, clock, version) ->
      ctrl.(d) <- Controller.receive_beacon ctrl.(d) ~peer ~clock ~version
    | M m -> (
      let site, serial = Replica.tid_of_message m in
      let sp = Span.start (if d = 0 then "core.receive_admin" else "core.receive") in
      match Controller.receive ctrl.(d) m with
      | exception e ->
        Span.finish ~site ~serial sp;
        Probe.fail ("churn receive: " ^ Printexc.to_string e)
      | c, out ->
        Span.finish ~site ~serial sp;
        ctrl.(d) <- c;
        List.iter
          (fun m ->
            if d = 0 then note_emit m;
            broadcast d (M m))
          out;
        after_change d)
  in
  let beacon_of d =
    let clock, version = Controller.beacon ctrl.(d) in
    B (d, clock, version)
  in
  (* editors work around a drifting cursor, which the administrator's
     restrictive requests aim at *)
  let cursor = Array.make 4 (String.length text / 2) in
  let last_pos = Array.make 4 0 in
  let ops =
    Array.init 4 (fun e ->
        Gen.edits (Gen.rng ~seed (2000 + (100 * index) + e)) (2 * session_edits) ~ins_pct:70)
  in
  let op_index = Array.make 4 0 in
  let generated = ref 0 in
  let next_admin = ref (40 + Random.State.int st 21) in
  let deny_active = ref false in
  let generate e =
    let c = ctrl.(e) in
    let doc = Controller.document c in
    let len = Tdoc.visible_length doc in
    let g = ops.(e).(op_index.(e) mod Array.length ops.(e)) in
    op_index.(e) <- op_index.(e) + 1;
    cursor.(e) <- max 0 (min len (cursor.(e) + Random.State.int st 9 - 4));
    let p = cursor.(e) + int_of_float ((g.Gen.frac -. 0.5) *. 16.) in
    let op =
      if g.Gen.ins || len = 0 then Tdoc.ins_visible doc (max 0 (min len p)) g.Gen.ch
      else Tdoc.del_visible doc (max 0 (min (len - 1) p))
    in
    let sp = Span.start "core.generate" in
    let t = Span.now_ns () in
    let c', outcome = Controller.generate c op in
    let us = float_of_int (Span.now_ns () - t) /. 1e3 in
    Span.finish sp;
    match outcome with
    | Controller.Denied _ ->
      Probe.incr "core.denied_local";
      if not (expected_denial c ~site:e op) then Probe.fail "churn: unexpected local denial"
    | Controller.Accepted m ->
      (* the local echo of an accepted edit: a denial stops at the deny
         rule at index 0 and costs next to nothing *)
      Stats.add seg.keystroke_us us;
      ctrl.(e) <- c';
      let site, serial = Replica.tid_of_message m in
      Span.tag sp ~site ~serial;
      Option.iter (fun p -> last_pos.(e) <- p) (Dce_ot.Op.pos op);
      Hashtbl.replace edits (site, serial)
        { due = now_ms (); others = 0; fate = 0; settled = false };
      outstanding.(e) <- outstanding.(e) + 1;
      incr generated;
      tot.generated <- tot.generated + 1;
      broadcast e (M m)
  in
  let admin_step () =
    let target = List.nth editors (Random.State.int st 3) in
    let op =
      if !deny_active then Admin_op.Del_auth 0
      else
        let p = last_pos.(target) in
        Admin_op.Add_auth
          ( 0,
            Auth.deny [ Subject.User target ]
              [ Docobj.zone (max 0 (p - 40)) (p + 40) ]
              [ Right.Insert; Right.Delete ] )
    in
    let sp = Span.start "core.admin_update" in
    let res = Controller.admin_update ctrl.(0) op in
    Span.finish sp;
    match res with
    | Error e -> Probe.fail ("churn admin_update: " ^ e)
    | Ok (c, m) ->
      ctrl.(0) <- c;
      deny_active := not !deny_active;
      Hashtbl.replace admin_reqs (Controller.version c)
        (Restrictive { issued = now_ms (); applied = 0 });
      broadcast 0 (M m)
  in
  let queued () =
    Array.exists (fun row -> Array.exists (fun q -> not (Queue.is_empty q)) row) queue
  in
  let tick ~generating =
    incr iter;
    List.iter
      (fun s ->
        List.iter
          (fun d ->
            let q = queue.(s).(d) in
            while (not (Queue.is_empty q)) && fst (Queue.peek q) <= !iter do
              deliver d (snd (Queue.pop q))
            done)
          all_sites)
      all_sites;
    if generating then begin
      List.iter
        (fun e -> if outstanding.(e) < depth && Random.State.bool st then generate e)
        editors;
      if !generated >= !next_admin then begin
        next_admin := !generated + 40 + Random.State.int st 21;
        admin_step ()
      end
    end;
    if !iter mod beacon_every = 0 then
      List.iter (fun s -> broadcast s (beacon_of s)) all_sites;
    if !iter mod compact_every = 0 then
      List.iter
        (fun s ->
          let sp = Span.start "core.compact" in
          ctrl.(s) <- Controller.compact ctrl.(s);
          Span.finish sp;
          Probe.max_ "core.window_len_max" (float_of_int (Controller.window_len ctrl.(s))))
        all_sites
  in
  while !generated < session_edits && now_ms () < stop_at do
    tick ~generating:true
  done;
  (* drain: deliver everything, then a last round of beacons *)
  let drain_iters = ref 0 in
  while (queued () || !fated <> [] || List.exists (fun e -> outstanding.(e) > 0) editors)
        && !drain_iters < 100_000 do
    incr drain_iters;
    tick ~generating:false
  done;
  Hashtbl.iter
    (fun _ e -> if not e.settled then Probe.fail "churn: edit not settled after draining")
    edits;
  tot.wall <- tot.wall +. ((now_ms () -. t0) /. 1000.);
  seg.cpu_s <- cpu_s () -. cpu0;
  tot.segs <- seg :: tot.segs;
  tot.heap_mb <- Float.max tot.heap_mb (live_heap_mb ());
  let cs = Array.to_list ctrl in
  check_sites ~what:(Printf.sprintf "churn session %d" index) cs;
  cs

let totals () =
  {
    setup = Stats.create ();
    enforce = Stats.create ();
    segs = [];
    heap_mb = 0.;
    generated = 0;
    settled_n = 0;
    refused = 0;
    paths = [];
    wall = 0.;
  }

let run ~features ~seed ~seconds =
  let tot = totals () in
  let text = Gen.text (Gen.rng ~seed 1) 400 in
  let stop_at = now_ms () +. (float_of_int seconds *. 1000.) in
  let index = ref 0 and last = ref [] in
  while now_ms () < stop_at || !index = 0 do
    last :=
      session ~features ~seed ~index:!index ~stop_at ~text ~policy_seed:(!index mod 4) tot;
    incr index
  done;
  (* the oracle compares policies decision by decision over every
     registered user, which at |P| = 10k is too slow for every session *)
  check_sites ~oracle:true ~what:"churn" !last;
  Printf.printf "churn: %d session(s), %d edits generated, %d settled, %d refused\n%!" !index
    tot.generated tot.settled_n tot.refused;
  (* the last session is cut short by the clock: keep it out of the
     medians unless it is the only one *)
  let segs =
    match tot.segs with _ :: (_ :: _ as full) -> List.rev full | l -> l
  in
  {
    setup_s = tot.setup;
    segments = segs;
    heap_mb = tot.heap_mb;
    attempted = tot.generated;
    wall_s = tot.wall;
    paths = tot.paths;
    extra =
      [
        ("edits_per_s", float_of_int tot.settled_n /. Float.max 1e-9 tot.wall);
        ("enforce_p90_ms", Stats.quantile tot.enforce 0.9);
        ( "core.undone_ratio",
          float_of_int tot.refused /. float_of_int (max 1 tot.generated) );
      ];
  }
