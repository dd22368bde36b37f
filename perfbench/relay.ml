(* relay: the live path, open loop.

   One document on a forked hub journaling with [Store.default_config];
   an administrator site and one editor attached over loopback.  The
   editor issues a seeded mix of inserts and deletes on a fixed schedule
   — edit k is due at t0 + k/rate whether or not the system kept up —
   over a ladder of rates 2x apart.  Each ladder step is a fresh session
   (new hub, new journal) with the same edit count, so every step reaches
   the same |L|.  Every edit is timed from its due time:

   - visible: until the administrator, the last other site (the hub
     integrates before it fans out), has integrated it;
   - validated: until the administrator's [Validate] for it is integrated
     back at the editor — how long the edit was at risk while tentative.

   A step meets the limit when its visible p99 is at most 100 ms (the
   paper's interactivity budget, Fig. 7), every edit settled, and the
   backlog (generated but not yet validated) did not grow from the first
   half of the step to the second. *)

open Dce_core
open Util
module Vclock = Dce_ot.Vclock

let rates = [ 250; 500; 1000; 2000 ]

(* The lowest rate runs four times, between the others, and its sessions
   are the run's segments: the latency, keystroke and CPU figures are
   medians over them. *)
let schedule = [ 250; 500; 250; 1000; 250; 2000; 250 ]
let limit_ms = 100.

type step = {
  rate : int;
  setup : float;
  seg : segment;
  late : Stats.t;
  backlog_grew : bool;
  backlog_max : int;
  n : int;
  wall : float;
  achieved : float;
  admin_log_len : int;
  heap_mb : float;
  hub : (string * string) list;
  paths : (int * int * float) list;
}

let passes s =
  s.seg.settled = s.n
  && (not s.backlog_grew)
  && Stats.quantile s.seg.visible_ms 0.99 <= limit_ms

let run_step ~dir ~text ~rate ~edits =
  let n = Array.length edits in
  let policy = Gen.open_policy [ 0; 1 ] in
  let initial ~site = Gen.controller ~policy ~text ~site in
  let t_setup = now_ms () in
  let hub = Hubchild.spawn ~dir ~initial in
  let admin = Replica.create ~port:hub.Hubchild.port ~site:0 (initial ~site:0) in
  let ed = Replica.create ~port:hub.Hubchild.port ~site:1 (initial ~site:1) in
  let reps = [ admin; ed ] in
  gate
    (pump_until reps ~ms:10_000. (fun () -> admin.Replica.live && ed.Replica.live))
    "relay: the sites did not join";
  let setup = (now_ms () -. t_setup) /. 1000. in
  let due = Array.make (n + 1) 0. in
  let seg = segment () and late = Stats.create () in
  let seen_at_admin = ref 0 and ed_version = ref (Controller.version ed.ctrl) in
  let validate_of_version = Hashtbl.create n in
  let last_settle = ref 0. and paths = ref [] in
  admin.on_emit <-
    (function
    | Controller.Admin { Admin_op.version; op = Admin_op.Validate id; _ }
      when id.Dce_ot.Request.site = 1 ->
      Hashtbl.replace validate_of_version version id.Dce_ot.Request.serial
    | _ -> ());
  admin.on_change <-
    (fun () ->
      let c = Vclock.get (Controller.clock admin.ctrl) 1 in
      let now = now_ms () in
      for s = !seen_at_admin + 1 to min c n do
        let v = now -. due.(s) in
        Stats.add seg.visible_ms v;
        paths := (1, Span.trace_serial s, v) :: !paths
      done;
      seen_at_admin := max !seen_at_admin c);
  ed.on_change <-
    (fun () ->
      let v = Controller.version ed.ctrl in
      let now = now_ms () in
      for x = !ed_version + 1 to v do
        match Hashtbl.find_opt validate_of_version x with
        | Some s ->
          Stats.add seg.validated_ms (now -. due.(s));
          seg.settled <- seg.settled + 1;
          last_settle := now
        | None -> ()
      done;
      ed_version := max !ed_version v);
  let interval = 1000. /. float_of_int rate in
  let cpu0 = cpu_s () in
  let t0 = now_ms () in
  let due_of k = t0 +. (float_of_int k *. interval) in
  let mid = due_of (n / 2) in
  let deadline = due_of n +. 10_000. in
  let k = ref 0 in
  let first_half = Stats.create () and second_half = Stats.create () in
  let backlog_max = ref 0 in
  while (!k < n || seg.settled < n) && now_ms () < deadline do
    pump_until_due reps (if !k < n then due_of !k else now_ms () +. 5.);
    while !k < n && now_ms () >= due_of !k do
      let d = due_of !k in
      Stats.add late (now_ms () -. d);
      let op = Gen.op_of (Controller.document ed.ctrl) edits.(!k) in
      (match Replica.generate ed op with
       | Some s, us when s <= n ->
         due.(s) <- d;
         Stats.add seg.keystroke_us us
       | _ -> Probe.fail "relay: local denial under the open policy");
      incr k
    done;
    if !k < n then begin
      let b = !k - seg.settled in
      backlog_max := max !backlog_max b;
      Stats.add (if now_ms () < mid then first_half else second_half) (float_of_int b)
    end
  done;
  let cpu = cpu_s () -. cpu0 and wall = (now_ms () -. t0) /. 1000. in
  for _ = seg.settled + 1 to n do
    Probe.fail "relay: edit not validated by the drain deadline"
  done;
  gate
    (pump_until reps ~ms:5_000. (fun () ->
         Vclock.equal (Controller.clock admin.ctrl) (Controller.clock ed.ctrl)
         && Controller.version admin.ctrl = Controller.version ed.ctrl))
    "relay: the replicas did not quiesce";
  let fp = Replica.content admin in
  gate (fp = Replica.content ed) "relay: the editor diverged from the administrator";
  Replica.close admin;
  Replica.close ed;
  let hub_report = Hubchild.stop hub in
  gate (fp = Hubchild.get hub_report "fingerprint") "relay: the hub's replica diverged";
  seg.cpu_s <- cpu +. Hubchild.getf hub_report "cpu_s";
  {
    rate;
    setup;
    seg;
    late;
    backlog_grew = Stats.mean second_half > (2. *. Stats.mean first_half) +. 4.;
    backlog_max = !backlog_max;
    n;
    wall;
    achieved =
      (if !last_settle > t0 then float_of_int seg.settled /. ((!last_settle -. t0) /. 1000.)
       else 0.);
    admin_log_len = Controller.version admin.ctrl;
    heap_mb = live_heap_mb ();
    hub = hub_report;
    paths = !paths;
  }

let run ~seed ~seconds =
  let text = Gen.text (Gen.rng ~seed 1) 1000 in
  let per_edit_ms = List.fold_left (fun a r -> a +. (1000. /. float_of_int r)) 0. schedule in
  (* the sessions share the run's time; about 2.5 s goes to set-up and
     draining *)
  let n =
    max 1000 (int_of_float (((float_of_int seconds *. 1000.) -. 2500.) /. per_edit_ms))
  in
  let lowest = List.fold_left min max_int rates in
  let steps =
    List.mapi
      (fun i rate ->
        Span.epoch := i;
        let dir = Filename.concat scratch (Printf.sprintf "relay-%d" i) in
        rm_rf dir;
        let edits = Gen.edits (Gen.rng ~seed (10 + i)) n ~ins_pct:70 in
        let s = run_step ~dir ~text ~rate ~edits in
        rm_rf dir;
        Printf.printf
          "relay step %5d/s: %d/%d settled, visible p50 %.3f p99 %.3f ms, late p99 %.3f ms, \
           backlog max %d%s, hub CPU %.0f us/edit -> %s\n%!"
          rate s.seg.settled s.n (Stats.median s.seg.visible_ms)
          (Stats.quantile s.seg.visible_ms 0.99) (Stats.quantile s.late 0.99) s.backlog_max
          (if s.backlog_grew then " (grew)" else "")
          (Hubchild.getf s.hub "cpu_s" *. 1e6 /. float_of_int s.n)
          (if passes s then "meets the limit" else "misses the limit");
        s)
      schedule
  in
  let low = List.filter (fun s -> s.rate = lowest) steps in
  (* the highest rate whose every session met the limit *)
  let max_rate =
    List.fold_left
      (fun acc rate ->
        let at = List.filter (fun s -> s.rate = rate) steps in
        if List.for_all passes at then
          Stats.median (Stats.of_list (List.map (fun s -> s.achieved) at))
        else acc)
      0. rates
  in
  let med f = Stats.median (Stats.of_list (List.map f low)) in
  let first = List.hd low in
  {
    setup_s = Stats.of_list (List.map (fun s -> s.setup) steps);
    segments = List.map (fun s -> s.seg) low;
    heap_mb =
      List.fold_left
        (fun a s -> Float.max a (s.heap_mb +. Hubchild.getf s.hub "heap_mb"))
        0. steps;
    attempted = List.fold_left (fun a s -> a + s.n) 0 steps;
    wall_s = List.fold_left (fun a s -> a +. s.wall) 0. steps;
    paths = List.concat_map (fun s -> s.paths) steps;
    extra =
      [
        ("max_rate", max_rate);
        ("gen.late_p99_ms", med (fun s -> Stats.quantile s.late 0.99));
        ("gen.backlog_max", med (fun s -> float_of_int s.backlog_max));
        ("core.admin_log_len", float_of_int first.admin_log_len);
      ]
      @ Hubchild.extras first.hub ~edits:first.n;
  }
