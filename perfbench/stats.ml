(* Raw-sample statistics.

   Every timing the benchmark reports is a percentile of the raw samples
   it collected, never a histogram bucket bound, and is printed next to
   its sample count.  Percentiles use the nearest-rank rule. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0. in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let count s = s.n
let append dst src = for i = 0 to src.n - 1 do add dst src.a.(i) done

let sum s =
  let acc = ref 0. in
  for i = 0 to s.n - 1 do acc := !acc +. s.a.(i) done;
  !acc

let mean s = if s.n = 0 then 0. else sum s /. float_of_int s.n

(* [q] in (0, 1]: the smallest sample with at least [q] of the samples at
   or below it.  0 when there are no samples. *)
let quantile s q =
  if s.n = 0 then 0.
  else begin
    let a = Array.sub s.a 0 s.n in
    Array.sort Float.compare a;
    let k = int_of_float (Float.ceil (q *. float_of_int s.n)) - 1 in
    a.(max 0 (min (s.n - 1) k))
  end

let median s = quantile s 0.5

(* Samples strictly above the [q] quantile's rank: the tail a percentile
   rests on.  A percentile is only reported when at least ten samples lie
   beyond it. *)
let beyond s q = s.n - int_of_float (Float.ceil (q *. float_of_int s.n))

let of_list l =
  let s = create () in
  List.iter (add s) l;
  s
