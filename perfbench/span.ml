(* In-memory spans for the traced run.

   A span is one timed call from benchmark code into a layer: a name
   (["core.generate"], ["wire.decode"], ...), start and end in ns, the
   span that was open when it started, and a trace id equal to the
   request id [(site, serial)] of the edit it served ([site = -1] when the
   call served no single edit).  Spans live in flat arrays and are written
   out once, when the run ends.  With tracing off, [start] returns [-1]
   and [finish] does nothing: one branch per call. *)

(* Monotonic nanoseconds from clock_gettime: layer calls take a few µs,
   finer than the wall clock's microsecond steps. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_ms () = float_of_int (now_ns ()) /. 1e6
let on = ref false

(* Sessions restart serials at 1; the epoch keeps trace ids of different
   sessions of one run apart. *)
let epoch = ref 0
let trace_serial serial = (!epoch * 10_000_000) + serial
let cap = 2_000_000
let names : (string, int) Hashtbl.t = Hashtbl.create 32
let name_of = ref [||]
let n = ref 0
let dropped = ref 0
let cur = ref (-1)
let a_name = ref [||]
let a_t0 = ref [||]
let a_t1 = ref [||]
let a_parent = ref [||]
let a_site = ref [||]
let a_serial = ref [||]

let enable () =
  on := true;
  let mk () = Array.make 4096 0 in
  a_name := mk ();
  a_t0 := mk ();
  a_t1 := mk ();
  a_parent := mk ();
  a_site := mk ();
  a_serial := mk ()

let name_id name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names name i;
    name_of := Array.append !name_of [| name |];
    i

let grow () =
  let g r =
    let b = Array.make (2 * Array.length !r) 0 in
    Array.blit !r 0 b 0 !n;
    r := b
  in
  List.iter g [ a_name; a_t0; a_t1; a_parent; a_site; a_serial ]

let start name =
  if not !on then -1
  else if !n >= cap then begin
    incr dropped;
    -1
  end
  else begin
    if !n = Array.length !a_name then grow ();
    let i = !n in
    incr n;
    !a_name.(i) <- name_id name;
    !a_parent.(i) <- !cur;
    !a_site.(i) <- -1;
    !a_serial.(i) <- 0;
    cur := i;
    !a_t0.(i) <- now_ns ();
    !a_t1.(i) <- !a_t0.(i);
    i
  end

let finish ?(site = -1) ?(serial = 0) i =
  if i >= 0 then begin
    !a_t1.(i) <- now_ns ();
    !a_site.(i) <- site;
    !a_serial.(i) <- trace_serial serial;
    cur := !a_parent.(i)
  end

(* Forget the span just finished (a call that turned out to be idle). *)
let drop i =
  if i >= 0 && i = !n - 1 then begin
    n := i;
    cur := !a_parent.(i)
  end

(* Tag an already finished span with the request it turned out to serve
   (a generate only knows its request id once it returns). *)
let tag i ~site ~serial =
  if i >= 0 then begin
    !a_site.(i) <- site;
    !a_serial.(i) <- trace_serial serial
  end

let count () = !n

(* Durations in µs of every span called [name]. *)
let durations_us name =
  let s = Stats.create () in
  (match Hashtbl.find_opt names name with
   | None -> ()
   | Some id ->
     for i = 0 to !n - 1 do
       if !a_name.(i) = id then
         Stats.add s (float_of_int (!a_t1.(i) - !a_t0.(i)) /. 1e3)
     done);
  s

(* Self time of span [i]: its duration minus the part of it covered by
   its children.  Children never overlap (single-threaded), so the
   covered part is the sum of their durations. *)
let self_times () =
  let self = Array.init !n (fun i -> !a_t1.(i) - !a_t0.(i)) in
  for i = 0 to !n - 1 do
    let p = !a_parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (!a_t1.(i) - !a_t0.(i))
  done;
  self

let layer_of name =
  match String.index_opt name '.' with
  | Some k -> String.sub name 0 k
  | None -> name

(* Total self time in ms per layer (the name's prefix before the dot). *)
let self_ms_by_layer () =
  let self = self_times () in
  let tbl = Hashtbl.create 8 in
  for i = 0 to !n - 1 do
    let l = layer_of !name_of.(!a_name.(i)) in
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl l) in
    Hashtbl.replace tbl l (prev + self.(i))
  done;
  fun layer ->
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl layer)) /. 1e6

(* Summed self time in ns of the spans of each trace id. *)
let self_ns_by_trace () =
  let self = self_times () in
  let tbl = Hashtbl.create 4096 in
  for i = 0 to !n - 1 do
    if !a_site.(i) >= 0 then begin
      let k = (!a_site.(i), !a_serial.(i)) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (prev + self.(i))
    end
  done;
  tbl

(* Per-span cost of recording, measured on this machine: spans recorded
   times this cost, over the run's wall time, is the tracing overhead. *)
let calibrate_ns () =
  let reps = 20_000 in
  let saved = !n in
  let t0 = now_ns () in
  for _ = 1 to reps do
    let i = start "trace.calibrate" in
    finish ~site:(-1) i
  done;
  let dt = now_ns () - t0 in
  n := saved;
  float_of_int dt /. float_of_int reps

(* One line per span: name, start, end, parent index, site, serial. *)
let write path =
  let oc = open_out path in
  for i = 0 to !n - 1 do
    Printf.fprintf oc "%s %d %d %d %d %d\n" !name_of.(!a_name.(i)) !a_t0.(i)
      !a_t1.(i) !a_parent.(i) !a_site.(i) !a_serial.(i)
  done;
  close_out oc
