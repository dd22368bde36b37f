(* rejoin: crash, restart and catch-up against a live session.

   A forked hub hosts one journaled document.  The administrator (site
   0) writes on an open loop at 100 edits/s for the whole run.  A
   journaled editor R (site 2) cycles: it edits at 200 edits/s for a
   seeded 60-120 ms, waits until the administrator validated those edits,
   and is killed — its socket closed as the kernel would close it, its
   journal handle dropped without a sync or a close.  After a seeded
   20-100 ms downtime it restarts: [Persist.opendir] replays its journal,
   it attaches presenting its recovered clock, and the hub answers with a
   [Delta] ([Controller.apply_delta]); the re-broadcast of what the replay
   emitted follows.  Every other cycle R's disk is lost while it is down,
   so it restarts from an empty journal, below the hub's compaction cut,
   and catches up from a full [Snapshot] ([Controller.catch_up]).  (A
   journaled R can never fall behind the cut on its own: its last beacon
   pins the hub's stability frontier.)

   catch-up time runs from the restart until R is live and holds
   everything the administrator held at the restart.  The first time R's
   state then equals the administrator's, their content fingerprints
   must agree; at the end the hub's must agree too. *)

open Dce_core
open Util
module Vclock = Dce_ot.Vclock
module Persist = Dce_store.Persist
module Proto = Dce_wire.Proto

let r_site = 2
let admin_rate = 100.
let r_interval_ms = 5.

let start_r ~port ~dir ~initial =
  let sp = Span.start "store.opendir" in
  let opened =
    Persist.opendir ~config:Dce_store.Store.default_config ~eq:Char.equal
      ~codec:Proto.char_codec dir
  in
  Span.finish sp;
  match opened with
  | Error e -> raise (Gate ("rejoin: journal recovery failed: " ^ e))
  | Ok (j, rc) ->
    Probe.sample "store.replayed_records" (float_of_int rc.Persist.replayed);
    let ctrl, resume =
      match rc.Persist.controller with
      | Some c -> (c, true)
      | None ->
        let c = initial ~site:r_site in
        (match Persist.checkpoint j c with
         | Ok () -> ()
         | Error e -> raise (Gate ("rejoin: first checkpoint failed: " ^ e)));
        (c, false)
    in
    let r = Replica.create ~journal:j ~resume ~port ~site:r_site ctrl in
    r.Replica.pending <- rc.Persist.emitted;
    r

type phase =
  | Editing of float  (** until *)
  | Settling of float  (** deadline *)
  | Down of float * bool  (** until, disk lost *)
  | Catching_up of { t0 : float; clock : Vclock.t; version : int; deltas : float }

let run ~seed ~seconds =
  let st = Gen.rng ~seed 7 in
  let text = Gen.text (Gen.rng ~seed 1) 500 in
  let policy = Gen.open_policy [ 0; r_site ] in
  let initial ~site = Gen.controller ~policy ~text ~site in
  let base = Filename.concat scratch "rejoin" in
  let setup = Stats.create () in
  (* set up three times and keep the last: set-up time is a median *)
  let rec set_up k =
    let hub_dir = Filename.concat base (Printf.sprintf "hub-%d" k) in
    let r_dir = Filename.concat base (Printf.sprintf "r-%d" k) in
    let t = now_ms () in
    let hub = Hubchild.spawn ~dir:hub_dir ~initial in
    let admin = Replica.create ~port:hub.Hubchild.port ~site:0 (initial ~site:0) in
    let r = start_r ~port:hub.Hubchild.port ~dir:r_dir ~initial in
    gate
      (pump_until [ admin; r ] ~ms:10_000. (fun () -> admin.Replica.live && r.Replica.live))
      "rejoin: the sites did not join";
    Stats.add setup ((now_ms () -. t) /. 1000.);
    if k < 2 then begin
      Replica.close admin;
      Replica.close r;
      ignore (Hubchild.stop hub);
      rm_rf hub_dir;
      rm_rf r_dir;
      set_up (k + 1)
    end
    else (hub, admin, r, r_dir)
  in
  let hub, admin, r0, r_dir = set_up 0 in
  let port = hub.Hubchild.port in
  let r = ref r0 and alive = ref true and incarnation = ref 0 in
  (* the run is cut into [nseg] stretches of time; each sample goes to
     the stretch its edit was due in *)
  let nseg = 6 in
  let segs = Array.init nseg (fun _ -> segment ()) in
  let catchup = Stats.create () in
  let cpu0 = cpu_s () and t0 = now_ms () in
  let stop_at = t0 +. (float_of_int seconds *. 1000.) -. 500. in
  let seg_of t =
    let k = int_of_float ((t -. t0) /. (stop_at -. t0) *. float_of_int nseg) in
    segs.(max 0 (min (nseg - 1) k))
  in
  let late = Stats.create () in
  let paths = ref [] in
  (* admin edits: serial -> (due, R's incarnation if R was live at due) *)
  let admin_edits = Hashtbl.create 4096 in
  (* R edits: serial -> (due, incarnation, validated) *)
  let r_edits = Hashtbl.create 4096 in
  let validate_of_version = Hashtbl.create 4096 in
  let r_seen = ref 0 and admin_seen = ref 0 and r_version = ref 0 in
  let checked = ref true and cycles = ref 0 and deltas_used = ref 0 in
  let attempted = ref 0 in
  let hook_r rr =
    r_seen := Vclock.get (Controller.clock rr.Replica.ctrl) 0;
    r_version := Controller.version rr.Replica.ctrl;
    rr.Replica.on_change <-
      (fun () ->
        let now = now_ms () in
        let c = Vclock.get (Controller.clock rr.Replica.ctrl) 0 in
        for s = !r_seen + 1 to c do
          match Hashtbl.find_opt admin_edits s with
          | Some (due, inc) when inc = !incarnation ->
            Stats.add (seg_of due).visible_ms (now -. due);
            paths := (0, Span.trace_serial s, now -. due) :: !paths
          | _ -> ()
        done;
        r_seen := max !r_seen c;
        let v = Controller.version rr.Replica.ctrl in
        for x = !r_version + 1 to v do
          match Hashtbl.find_opt validate_of_version x with
          | Some s -> (
            match Hashtbl.find_opt r_edits s with
            | Some (due, inc, false) when inc = !incarnation ->
              Stats.add (seg_of due).validated_ms (now -. due);
              Hashtbl.replace r_edits s (due, inc, true)
            | _ -> ())
          | None -> ()
        done;
        r_version := max !r_version v)
  in
  hook_r !r;
  admin.Replica.on_emit <-
    (function
    | Controller.Admin { Admin_op.version; op = Admin_op.Validate id; _ }
      when id.Dce_ot.Request.site = r_site ->
      Hashtbl.replace validate_of_version version id.Dce_ot.Request.serial
    | _ -> ());
  admin.Replica.on_change <-
    (fun () ->
      let now = now_ms () in
      let c = Vclock.get (Controller.clock admin.Replica.ctrl) r_site in
      for s = !admin_seen + 1 to c do
        match Hashtbl.find_opt r_edits s with
        | Some (due, inc, _) when !alive && inc = !incarnation ->
          Stats.add (seg_of due).visible_ms (now -. due);
          paths := (r_site, Span.trace_serial s, now -. due) :: !paths
        | _ -> ()
      done;
      admin_seen := max !admin_seen c);
  let admin_ops = Gen.edits (Gen.rng ~seed 20) 100_000 ~ins_pct:60 in
  let r_ops = Gen.edits (Gen.rng ~seed 21) 100_000 ~ins_pct:60 in
  let ai = ref 0 and ri = ref 0 in
  let admin_due k = t0 +. (float_of_int k *. 1000. /. admin_rate) in
  let next_r = ref t0 in
  let phase = ref (Editing (t0 +. 60. +. float_of_int (Random.State.int st 61))) in
  let gen (rep : Replica.t) ops i =
    let op = Gen.op_of (Controller.document rep.Replica.ctrl) ops.(!i mod Array.length ops) in
    incr i;
    incr attempted;
    let res, us = Replica.generate rep op in
    Stats.add (seg_of (now_ms ())).keystroke_us us;
    if res = None then Probe.fail "rejoin: local denial under the open policy";
    res
  in
  let kill () =
    Probe.max_ "store.wal_bytes"
      (float_of_int (Option.fold ~none:0 ~some:Persist.wal_size_bytes !r.Replica.journal));
    Replica.kill !r;
    alive := false
  in
  let restart ~wipe =
    if wipe then rm_rf r_dir;
    incr incarnation;
    let t = now_ms () in
    let deltas = Probe.count "netd.deltas" in
    let clock = Controller.clock admin.Replica.ctrl in
    let version = Controller.version admin.Replica.ctrl in
    let rr = start_r ~port ~dir:r_dir ~initial in
    r := rr;
    alive := true;
    checked := false;
    hook_r rr;
    Catching_up { t0 = t; clock; version; deltas }
  in
  let step_phase now =
    match !phase with
    | Editing until ->
      if now >= until then phase := Settling (now +. 2_000.)
      else if now >= !next_r then begin
        let due = !next_r in
        next_r := !next_r +. r_interval_ms;
        match gen !r r_ops ri with
        | Some s -> Hashtbl.replace r_edits s (due, !incarnation, false)
        | None -> ()
      end
    | Settling deadline ->
      let open_edits =
        Hashtbl.fold
          (fun _ (_, inc, v) n -> if inc = !incarnation && not v then n + 1 else n)
          r_edits 0
      in
      if (open_edits = 0 && !checked) || now >= deadline then begin
        if open_edits > 0 then Probe.fail "rejoin: R's edits not validated before the kill";
        if not !checked then Probe.fail "rejoin: R never matched the administrator";
        kill ();
        incr cycles;
        phase :=
          Down (now +. 20. +. float_of_int (Random.State.int st 81), !cycles mod 2 = 0)
      end
    | Down (until, wipe) -> if now >= until then phase := restart ~wipe
    | Catching_up c ->
      let rc = !r.Replica.ctrl in
      if
        !r.Replica.live
        && Vclock.leq c.clock (Controller.clock rc)
        && Controller.version rc >= c.version
      then begin
        Stats.add catchup (now -. c.t0);
        if Probe.count "netd.deltas" > c.deltas then incr deltas_used;
        next_r := now;
        phase := Editing (now +. 60. +. float_of_int (Random.State.int st 61))
      end
      else if now -. c.t0 > 10_000. then raise (Gate "rejoin: R did not catch up within 10 s")
  in
  let check_match () =
    if !alive && (not !checked) && !r.Replica.live then begin
      let rc = !r.Replica.ctrl and ac = admin.Replica.ctrl in
      if
        Vclock.equal (Controller.clock rc) (Controller.clock ac)
        && Controller.version rc = Controller.version ac
      then begin
        gate
          (Replica.content !r = Replica.content admin)
          "rejoin: a rejoined R diverged from the administrator";
        checked := true
      end
    end
  in
  while now_ms () < stop_at do
    let reps = if !alive then [ admin; !r ] else [ admin ] in
    let wake =
      match !phase with
      | Editing until -> Float.min (admin_due !ai) (Float.min until !next_r)
      | Down (until, _) -> Float.min (admin_due !ai) until
      | Settling _ | Catching_up _ -> Float.min (admin_due !ai) (now_ms () +. 2.)
    in
    pump_until_due reps wake;
    let now = now_ms () in
    while now_ms () >= admin_due !ai do
      let d = admin_due !ai in
      Stats.add late (now_ms () -. d);
      match gen admin admin_ops ai with
      | Some s ->
        let inc = if !alive && !r.Replica.live then !incarnation else -1 in
        Hashtbl.replace admin_edits s (d, inc)
      | None -> ()
    done;
    step_phase now;
    check_match ()
  done;
  let cpu = cpu_s () -. cpu0 and wall = (now_ms () -. t0) /. 1000. in
  (* quiesce: R back up and holding everything the administrator holds *)
  (match !phase with Down (_, wipe) -> phase := restart ~wipe | _ -> ());
  let same () =
    !r.Replica.live
    && Vclock.equal (Controller.clock !r.Replica.ctrl) (Controller.clock admin.Replica.ctrl)
    && Controller.version !r.Replica.ctrl = Controller.version admin.Replica.ctrl
  in
  gate (pump_until [ admin; !r ] ~ms:10_000. same) "rejoin: R did not converge at the end";
  let fp = Replica.content admin in
  gate (Replica.content !r = fp) "rejoin: R diverged from the administrator at the end";
  Replica.close admin;
  Replica.close !r;
  let report = Hubchild.stop hub in
  gate (Hubchild.get report "fingerprint" = fp) "rejoin: the hub's replica diverged";
  Printf.printf "rejoin: %d cycle(s), %d caught up by delta, %d admin edits, %d R edits\n%!"
    !cycles !deltas_used !ai !ri;
  if !cycles < 100 then
    Printf.eprintf "perfbench: rejoin ran %d cycles, fewer than 100\n%!" !cycles;
  (* the hub's CPU is only known for the whole run, so every stretch
     carries the run's CPU per edit, weighted by its edits *)
  let total_cpu = cpu +. Hubchild.getf report "cpu_s" in
  let edits = float_of_int (max 1 (!ai + !ri)) in
  Array.iter
    (fun sg ->
      sg.settled <- Stats.count sg.keystroke_us;
      sg.cpu_s <- total_cpu *. float_of_int sg.settled /. edits)
    segs;
  {
    setup_s = setup;
    segments = Array.to_list segs;
    heap_mb = live_heap_mb () +. Hubchild.getf report "heap_mb";
    attempted = !attempted + Stats.count catchup;
    wall_s = wall;
    paths = !paths;
    extra =
      [
        ("catchup_p50_ms", Stats.quantile catchup 0.5);
        ("catchup_p90_ms", Stats.quantile catchup 0.9);
        ( "catchup.delta_ratio",
          float_of_int !deltas_used /. float_of_int (max 1 (Stats.count catchup)) );
        ("gen.late_p99_ms", Stats.quantile late 0.99);
      ]
      @ Hubchild.extras report ~edits:(!ai + !ri);
  }
