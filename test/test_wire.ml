(* Tests for the wire format: primitive and domain roundtrips, framing
   integrity, hostile-input fuzzing, and full session save/restore. *)

open Dce_ot
open Dce_core
open Dce_wire
open Helpers

let adm = 0
let s1 = 1
let s2 = 2

(* ----- primitives ----- *)

let roundtrip put get v = Codec.of_string get (Codec.to_string put v)

let codec_tests =
  [
    qtest "varint roundtrip" ~count:1000
      QCheck2.Gen.(oneof [ int_range 0 1000; map abs int ])
      string_of_int
      (fun n -> roundtrip Codec.put_varint Codec.get_varint n = Ok n);
    qtest "zig-zag int roundtrip" ~count:1000 QCheck2.Gen.int string_of_int
      (fun n -> roundtrip Codec.put_int Codec.get_int n = Ok n);
    qtest "string roundtrip" ~count:500 QCheck2.Gen.(string_size (int_range 0 64))
      (Printf.sprintf "%S")
      (fun s -> roundtrip Codec.put_string Codec.get_string s = Ok s);
    qtest "list roundtrip" ~count:500
      QCheck2.Gen.(list_size (int_range 0 20) int)
      (fun l -> Printf.sprintf "%d elems" (List.length l))
      (fun l ->
        roundtrip (Codec.put_list Codec.put_int) (Codec.get_list Codec.get_int) l = Ok l);
    Alcotest.test_case "option roundtrip" `Quick (fun () ->
        Alcotest.(check bool) "some" true
          (roundtrip (Codec.put_option Codec.put_int) (Codec.get_option Codec.get_int)
             (Some 42)
           = Ok (Some 42));
        Alcotest.(check bool) "none" true
          (roundtrip (Codec.put_option Codec.put_int) (Codec.get_option Codec.get_int)
             None
           = Ok None));
    Alcotest.test_case "negative varint rejected at encode" `Quick (fun () ->
        (try
           ignore (Codec.to_string Codec.put_varint (-1));
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ()));
    Alcotest.test_case "crc32 known vector" `Quick (fun () ->
        Alcotest.(check int32) "123456789" 0xCBF43926l (Codec.crc32 "123456789"));
    Alcotest.test_case "truncated input is an error, not an exception" `Quick (fun () ->
        let s = Codec.to_string Codec.put_string "hello world" in
        let t = String.sub s 0 (String.length s - 3) in
        Alcotest.(check bool) "error" true
          (Result.is_error (Codec.of_string Codec.get_string t)));
    Alcotest.test_case "trailing garbage is an error" `Quick (fun () ->
        let s = Codec.to_string Codec.put_varint 7 ^ "junk" in
        Alcotest.(check bool) "error" true
          (Result.is_error (Codec.of_string Codec.get_varint s)));
  ]

let framing_tests =
  [
    Alcotest.test_case "frame / unframe roundtrip" `Quick (fun () ->
        let payload = "the payload \x00\xff bytes" in
        Alcotest.(check bool) "ok" true (Codec.unframe (Codec.frame payload) = Ok payload));
    Alcotest.test_case "bit flip is detected" `Quick (fun () ->
        let framed = Bytes.of_string (Codec.frame "some payload") in
        let i = Bytes.length framed - 3 in
        Bytes.set framed i (Char.chr (Char.code (Bytes.get framed i) lxor 0x20));
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Codec.unframe (Bytes.to_string framed))));
    Alcotest.test_case "bad magic rejected" `Quick (fun () ->
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Codec.unframe "NOPE rest")));
    Alcotest.test_case "length mismatch rejected" `Quick (fun () ->
        let framed = Codec.frame "payload" in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Codec.unframe (framed ^ "x"))));
  ]

(* ----- domain roundtrips ----- *)

let gen_request =
  let open QCheck2.Gen in
  gen_tdoc >>= fun doc ->
  gen_valid_op ~pr:2 doc >>= fun op ->
  pair (int_range 1 5) (int_range 1 20) >>= fun (site, serial) ->
  list_size (int_range 0 4) (pair (int_range 1 5) (int_range 1 9)) >>= fun ctx ->
  pair (int_range 0 9) (oneofl [ Request.Tentative; Request.Valid; Request.Invalid ])
  >|= fun (v, flag) ->
  Request.make ~site ~serial ~op ~ctx:(Vclock.of_list ctx) ~policy_version:v ~flag ()

let request_equal (a : char Request.t) (b : char Request.t) =
  Request.id_equal a.Request.id b.Request.id
  && a.Request.dep = b.Request.dep
  && Op.equal Char.equal a.Request.op b.Request.op
  && Op.equal Char.equal a.Request.gen_op b.Request.gen_op
  && Vclock.equal a.Request.ctx b.Request.ctx
  && a.Request.policy_version = b.Request.policy_version
  && a.Request.flag = b.Request.flag

let domain_tests =
  [
    qtest "operation roundtrip" ~count:1000
      QCheck2.Gen.(gen_tdoc >>= fun d -> gen_valid_op ~pr:3 d)
      (Format.asprintf "%a" pp_char_op)
      (fun op ->
        match
          roundtrip (Proto.put_op Proto.char_codec) (Proto.get_op Proto.char_codec) op
        with
        | Ok op' -> Op.equal Char.equal op op'
        | Error _ -> false);
    qtest "request roundtrip (framed message)" ~count:500 gen_request
      (fun q -> Format.asprintf "%a" (Request.pp Fmt.char) q)
      (fun q ->
        match Proto.Char_proto.decode_message (Proto.Char_proto.encode_message (Controller.Coop q)) with
        | Ok (Controller.Coop q') -> request_equal q q'
        | _ -> false);
    Alcotest.test_case "policy roundtrip preserves decisions" `Quick (fun () ->
        let p =
          Policy.make ~users:[ 0; 1; 2 ]
            ~groups:[ ("editors", [ 1 ]) ]
            ~objects:[ ("intro", Docobj.zone 0 4) ]
            [
              Auth.deny [ Subject.Group "editors" ] [ Docobj.Named "intro" ] [ Right.Update ];
              Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all;
            ]
        in
        match roundtrip Proto.put_policy Proto.get_policy p with
        | Error e -> Alcotest.fail e
        | Ok p' ->
          List.iter
            (fun u ->
              List.iter
                (fun r ->
                  List.iter
                    (fun pos ->
                      Alcotest.(check bool) "same decision"
                        (Policy.check p ~user:u ~right:r ~pos)
                        (Policy.check p' ~user:u ~right:r ~pos))
                    [ None; Some 0; Some 2; Some 7 ])
                Right.all)
            [ 0; 1; 2; 9 ]);
    Alcotest.test_case "admin request roundtrip (all constructors)" `Quick (fun () ->
        List.iteri
          (fun i op ->
            let r =
              { Admin_op.admin = 0; version = i + 1; op; ctx = Vclock.of_list [ (1, i) ] }
            in
            match
              roundtrip Proto.put_admin_request Proto.get_admin_request r
            with
            | Ok r' ->
              Alcotest.(check string) "same printed form"
                (Format.asprintf "%a" Admin_op.pp_request r)
                (Format.asprintf "%a" Admin_op.pp_request r')
            | Error e -> Alcotest.fail e)
          [
            Admin_op.Add_user 4;
            Admin_op.Del_user 4;
            Admin_op.Add_to_group ("g", 2);
            Admin_op.Del_from_group ("g", 2);
            Admin_op.Add_obj ("o", Docobj.zone 1 3);
            Admin_op.Del_obj "o";
            Admin_op.Add_auth (0, Auth.grant [ Subject.User 1 ] [ Docobj.Whole ] [ Right.Insert ]);
            Admin_op.Del_auth 0;
            Admin_op.Validate { Request.site = 1; serial = 7 };
            Admin_op.Transfer_admin 2;
          ]);
  ]

(* ----- fuzzing: hostile bytes never raise ----- *)

(* A session that has exchanged a few edits: an administrator and a
   user that have integrated site 1's first edits, and the frames site 1
   and the administrator would send next — honest traffic the receivers
   have not seen, so a corrupted copy lands close to the real log,
   document and policy history. *)
let live_session =
  lazy
    (let policy =
       Policy.make ~users:[ adm; s1; s2 ]
         [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]
     in
     let mk site =
       Controller.create ~eq:Char.equal ~site ~admin:adm ~policy (Tdoc.of_string "abcdef")
     in
     let gen c op =
       match Controller.generate c op with
       | c, Controller.Accepted m -> (c, m)
       | _, Controller.Denied r -> failwith r
     in
     let deliver c ms = List.fold_left (fun c m -> fst (Controller.receive c m)) c ms in
     let u1, m1 = gen (mk s1) (Op.ins 1 'x') in
     let u1, m2 = gen u1 (Op.del 3 'c') in
     let admin, validations =
       List.fold_left
         (fun (c, out) m ->
           let c, emitted = Controller.receive c m in
           (c, out @ emitted))
         (mk adm, []) [ m1; m2 ]
     in
     let user = deliver (mk s2) ([ m1; m2 ] @ validations) in
     let u1 = deliver u1 validations in
     let n = Tdoc.model_length (Controller.document u1) in
     let coop =
       List.concat
         (List.init n (fun p ->
              let elt = (Tdoc.cell (Controller.document u1) p).Tdoc.elt in
              [ Op.ins p 'y'; Op.del p elt; Op.up p elt 'z' ]))
     in
     let coop = List.map (fun op -> snd (gen u1 op)) (Op.ins n 'y' :: coop) in
     let admin_ops =
       [
         Admin_op.Add_auth
           (0, Auth.deny [ Subject.User s1 ] [ Docobj.Whole ] [ Right.Insert ]);
         Admin_op.Add_user 7;
         Admin_op.Del_auth 0;
         Admin_op.Transfer_admin s2;
       ]
     in
     let admin_msgs =
       List.filter_map
         (fun op ->
           match Controller.admin_update admin op with
           | Ok (_, m) -> Some m
           | Error _ -> None)
         admin_ops
     in
     ([ admin; user ], coop @ admin_msgs))

let live_receivers = lazy (fst (Lazy.force live_session))

let live_frames =
  lazy (List.map Proto.Char_proto.encode_message (snd (Lazy.force live_session)))

let fuzz_tests =
  [
    qtest "decode_message never raises on random bytes" ~count:2000
      QCheck2.Gen.(string_size (int_range 0 200))
      (fun s -> Printf.sprintf "%d bytes" (String.length s))
      (fun s ->
        match Proto.Char_proto.decode_message s with Ok _ | Error _ -> true);
    qtest "decode_state never raises on random bytes" ~count:2000
      QCheck2.Gen.(string_size (int_range 0 300))
      (fun s -> Printf.sprintf "%d bytes" (String.length s))
      (fun s -> match Proto.Char_proto.decode_state s with Ok _ | Error _ -> true);
    (* a frame that survives corruption and still decodes is fed to live
       controllers through the checked entry point: it may be refused,
       but nothing reachable from the wire may raise *)
    qtest "decode_message never raises on corrupted valid frames" ~count:20000
      QCheck2.Gen.(
        oneof
          [
            ( gen_request >|= fun q ->
              Proto.Char_proto.encode_message (Controller.Coop q) );
            oneofl (Lazy.force live_frames);
          ]
        >>= fun frame ->
        pair bool
          (list_size (int_range 1 3) (pair (int_range 0 10_000) (int_range 0 255)))
        >|= fun (hostile, edits) ->
        let corrupt s =
          let b = Bytes.of_string s in
          List.iter
            (fun (at, c) -> Bytes.set b (at mod Bytes.length b) (Char.chr c))
            edits;
          Bytes.to_string b
        in
        (* line noise breaks the CRC; a hostile sender re-frames the
           mutated payload, so the decoder and the controller see it *)
        match Codec.unframe frame with
        | Ok payload when hostile -> Codec.frame (corrupt payload)
        | _ -> corrupt frame)
      (fun s -> Printf.sprintf "%S" s)
      (fun s ->
        match Proto.Char_proto.decode_message s with
        | Error _ -> true
        | Ok m ->
          List.for_all
            (fun c -> match Controller.try_receive c m with Ok _ | Error _ -> true)
            (Lazy.force live_receivers));
  ]

(* ----- session save / restore ----- *)

let all_rights users =
  Policy.make ~users [ Auth.grant [ Subject.Any ] [ Docobj.Whole ] Right.all ]

let persistence_tests =
  [
    Alcotest.test_case "a mid-session controller survives the wire" `Quick (fun () ->
        (* run a small session with tentative requests, queues, policy
           changes; then dump/encode/decode/load and compare *)
        let policy = all_rights [ adm; s1; s2 ] in
        let a = Controller.create ~eq:Char.equal ~site:adm ~admin:adm ~policy (Tdoc.of_string "abc") in
        let u1 = Controller.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy (Tdoc.of_string "abc") in
        let u1, m1 =
          match Controller.generate u1 (Op.ins 0 'x') with
          | c, Controller.Accepted m -> (c, m)
          | _ -> Alcotest.fail "denied"
        in
        let a, _ = Controller.receive a m1 in
        let a, m2 =
          match Controller.admin_update a (Admin_op.Add_user 9) with
          | Ok (a, m) -> (a, m)
          | Error e -> Alcotest.fail e
        in
        let u1, _ = Controller.receive u1 m2 in
        (* round-trip u1 *)
        let encoded = Proto.Char_proto.encode_state (Controller.dump u1) in
        (match Proto.Char_proto.decode_state encoded with
         | Error e -> Alcotest.fail e
         | Ok state -> (
             match Controller.load ~eq:Char.equal state with
             | Error e -> Alcotest.fail e
             | Ok u1' ->
               Alcotest.(check string) "document"
                 (Tdoc.visible_string (Controller.document u1))
                 (Tdoc.visible_string (Controller.document u1'));
               Alcotest.(check bool) "model equal" true
                 (Tdoc.equal_model Char.equal (Controller.document u1)
                    (Controller.document u1'));
               Alcotest.(check int) "version" (Controller.version u1)
                 (Controller.version u1');
               Alcotest.(check int) "tentative preserved"
                 (List.length (Controller.tentative u1))
                 (List.length (Controller.tentative u1'));
               (* the restored site keeps working: next edit converges *)
               let u1', m3 =
                 match
                   Controller.generate u1'
                     (Tdoc.ins_visible (Controller.document u1') 0 'y')
                 with
                 | c, Controller.Accepted m -> (c, m)
                 | _ -> Alcotest.fail "denied after restore"
               in
               let a, _ = Controller.receive a m3 in
               Alcotest.(check string) "peers still converge"
                 (Tdoc.visible_string (Controller.document a))
                 (Tdoc.visible_string (Controller.document u1')))));
    Alcotest.test_case "tampered administrative history is rejected on load" `Quick
      (fun () ->
        let policy = all_rights [ adm; s1 ] in
        let a = Controller.create ~eq:Char.equal ~site:adm ~admin:adm ~policy (Tdoc.of_string "abc") in
        let a, _ =
          match Controller.admin_update a (Admin_op.Add_user 9) with
          | Ok x -> x
          | Error e -> Alcotest.fail e
        in
        let state = Controller.dump a in
        (* forge: replay the same version twice *)
        let forged =
          {
            state with
            Controller.st_admin_requests =
              state.Controller.st_admin_requests @ state.Controller.st_admin_requests;
          }
        in
        Alcotest.(check bool) "rejected" true
          (Result.is_error (Controller.load ~eq:Char.equal forged)));
    Alcotest.test_case "save / restore through a file" `Quick (fun () ->
        let policy = all_rights [ adm; s1 ] in
        let c = Controller.create ~eq:Char.equal ~site:s1 ~admin:adm ~policy (Tdoc.of_string "hello") in
        let c =
          match Controller.generate c (Op.ins 5 '!') with
          | c, Controller.Accepted _ -> c
          | _ -> Alcotest.fail "denied"
        in
        let path = Filename.temp_file "dce_state" ".bin" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Proto.Char_proto.save path c;
            match Proto.Char_proto.restore path with
            | Error e -> Alcotest.fail e
            | Ok c' ->
              Alcotest.(check string) "restored" "hello!"
                (Tdoc.visible_string (Controller.document c'))));
  ]

(* ----- a whole session through the wire ----- *)

let channel_tests =
  [
    Alcotest.test_case "every message of a session survives encode/decode" `Quick
      (fun () ->
        (* run the Fig.5-style exchange, but every broadcast literally
           crosses the byte channel *)
        let policy = all_rights [ adm; s1; s2 ] in
        let mk site =
          Controller.create ~eq:Char.equal ~site ~admin:adm ~policy
            (Tdoc.of_string "abc")
        in
        let sites = ref [ (adm, mk adm); (s1, mk s1); (s2, mk s2) ] in
        let set u c = sites := List.map (fun (v, c') -> if v = u then (v, c) else (v, c')) !sites in
        let rec broadcast src m =
          let bytes = Proto.Char_proto.encode_message m in
          List.iter
            (fun (u, _) ->
              if u <> src then begin
                match Proto.Char_proto.decode_message bytes with
                | Error e -> Alcotest.fail e
                | Ok m' ->
                  let c, out = Controller.receive (List.assoc u !sites) m' in
                  set u c;
                  List.iter (broadcast u) out
              end)
            !sites
        in
        let gen u op =
          match Controller.generate (List.assoc u !sites) op with
          | c, Controller.Accepted m ->
            set u c;
            broadcast u m
          | _, Controller.Denied r -> Alcotest.fail r
        in
        gen s1 (Op.ins 0 'x');
        gen s2 (Op.ins 4 'z');
        (match
           Controller.admin_update (List.assoc adm !sites)
             (Admin_op.Add_auth
                (0, Auth.deny [ Subject.User s2 ] [ Docobj.Whole ] [ Right.Insert ]))
         with
         | Ok (c, m) ->
           set adm c;
           broadcast adm m
         | Error e -> Alcotest.fail e);
        let docs = List.map (fun (_, c) -> Controller.document c) !sites in
        Alcotest.(check string) "content" "xabcz"
          (Tdoc.visible_string (List.hd docs));
        Alcotest.(check bool) "all equal" true
          (List.for_all (Tdoc.equal_model Char.equal (List.hd docs)) docs));
  ]

let () =
  Alcotest.run "dce_wire"
    [
      ("codec", codec_tests);
      ("framing", framing_tests);
      ("domain", domain_tests);
      ("fuzz", fuzz_tests);
      ("persistence", persistence_tests);
      ("channel", channel_tests);
    ]
