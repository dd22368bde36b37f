(* The benchmark's correctness gate must bite: the paper's Fig. 2 run
   (an insertion concurrent with its own revocation) converges under the
   secure algorithm and passes the gate, and diverges with
   [Controller.naive] features, which the gate must refuse. *)

open Dce_core
module Op = Dce_ot.Op
module Tdoc = Dce_ot.Tdoc

let fig2 features =
  let policy = Perfbench.Gen.open_policy [ 0; 1; 2 ] in
  let mk site =
    Controller.create ~features ~eq:Char.equal ~site ~admin:0 ~policy (Tdoc.of_string "abc")
  in
  let recv c m = fst (Controller.receive c m) in
  let a = mk 0 and u1 = mk 1 and u2 = mk 2 in
  let u1, q =
    match Controller.generate u1 (Op.ins 0 'x') with
    | u1, Controller.Accepted q -> (u1, q)
    | _, Controller.Denied e -> Alcotest.failf "insertion denied: %s" e
  in
  let a, r =
    match
      Controller.admin_update a
        (Admin_op.Add_auth
           (0, Auth.deny [ Subject.User 1 ] [ Dce_core.Docobj.Whole ] [ Right.Insert ]))
    with
    | Ok x -> x
    | Error e -> Alcotest.failf "revocation refused: %s" e
  in
  let a = recv a q in
  let u2 = recv (recv u2 q) r in
  let u1 = recv u1 r in
  [ a; u1; u2 ]

let passes sites =
  match Perfbench.Churn.check_sites ~oracle:true ~what:"fig2" sites with
  | () -> true
  | exception Perfbench.Util.Gate _ -> false

let () =
  Alcotest.run "perfbench"
    [
      ( "gate",
        [
          Alcotest.test_case "Fig. 2 under the secure algorithm passes" `Quick (fun () ->
              Alcotest.(check bool) "passes" true (passes (fig2 Controller.secure)));
          Alcotest.test_case "Fig. 2 with naive features fails" `Quick (fun () ->
              Alcotest.(check bool) "refused" false (passes (fig2 Controller.naive)));
        ] );
    ]
