type site = int

module M = Map.Make (Int)

type t = int M.t

let empty = M.empty

let get c s = match M.find_opt s c with Some n -> n | None -> 0

let tick c s = M.add s (get c s + 1) c

let advance c s n = if get c s >= n then c else M.add s n c

let merge a b = M.union (fun _ x y -> Some (max x y)) a b

let meet a b =
  M.merge
    (fun _ x y -> match x, y with Some x, Some y -> Some (min x y) | _ -> None)
    a b

let leq a b = M.for_all (fun s n -> n <= get b s) a

let equal a b = leq a b && leq b a

let concurrent a b = (not (leq a b)) && not (leq b a)

let dominates_event c ~site ~count = get c site >= count

let sum c = M.fold (fun _ n acc -> acc + n) c 0

let to_list c = M.bindings c

let of_list l = List.fold_left (fun acc (s, n) -> M.add s n acc) M.empty l

let pp ppf c =
  Format.fprintf ppf "{@[%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (s, n) -> Format.fprintf ppf "%d:%d" s n))
    (to_list c)
