(* Tests for the live TCP transport: the wire codec (round-trip and
   strictness), stream reassembly under adversarial chunking, a real
   loopback server, and full live cluster runs — including surviving [t]
   genuine server kills mid-run with the history still atomic. *)

open Registers
open Transport

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let tag ts wid = { Tstamp.ts; wid }
let value ts wid payload = { Wire.tag = tag ts wid; payload }

(* ------------------------------------------------------------------ *)
(* Codec: deterministic round trips                                     *)
(* ------------------------------------------------------------------ *)

let sample_frames =
  [
    Codec.Request { rt = 0; client = 0; req = Wire.Query [] };
    Codec.Request
      { rt = 1; client = 7; req = Wire.Query [ Wire.initial_value_entry ] };
    Codec.Request
      {
        rt = max_int;
        client = 3;
        req = Wire.Update (value max_int 11 min_int);
      };
    Codec.Reply
      {
        rt = 42;
        client = 8;
        server = 4;
        rep = Wire.Write_ack { current = value 5 1 500 };
      };
    Codec.Reply
      {
        rt = 9;
        client = 12;
        server = 0;
        rep =
          Wire.Read_ack
            {
              current = value 3 2 303;
              vector =
                [
                  (Wire.initial_value_entry, [ 10; 11; 12 ]);
                  (value 1 0 101, []);
                  (value 3 2 303, [ 13 ]);
                ];
            };
      };
  ]

let test_codec_roundtrip_samples () =
  List.iter
    (fun f ->
      check bool "decode (encode f) = f" true (Codec.decode (Codec.encode f) = f);
      check bool "body round trip" true
        (Codec.decode_body (Codec.encode_body f) = f))
    sample_frames

let test_codec_large_vector () =
  (* A READACK carrying a big value vector with fat updated sets — the
     frame the codec must not choke on. *)
  let vector =
    List.init 5_000 (fun i ->
        (value i (i mod 5) (i * 17), List.init (i mod 20) (fun j -> j + 100)))
  in
  let f =
    Codec.Reply
      {
        rt = 1;
        client = 6;
        server = 2;
        rep = Wire.Read_ack { current = value 5_000 0 1; vector };
      }
  in
  let s = Codec.encode f in
  check bool "large frame survives" true (Codec.decode s = f);
  let q =
    Codec.Request
      { rt = 2; client = 9; req = Wire.Query (List.map fst vector) }
  in
  check bool "large query survives" true (Codec.decode (Codec.encode q) = q)

(* ------------------------------------------------------------------ *)
(* Codec: strictness                                                    *)
(* ------------------------------------------------------------------ *)

let rejects s =
  match Codec.decode s with
  | _ -> false
  | exception Codec.Decode_error _ -> true

let test_codec_rejects_truncation () =
  let full = Codec.encode (List.nth sample_frames 4) in
  for cut = 0 to String.length full - 1 do
    if not (rejects (String.sub full 0 cut)) then
      Alcotest.failf "truncation to %d bytes accepted" cut
  done

let test_codec_rejects_garbage () =
  let full = Codec.encode (List.hd sample_frames) in
  check bool "trailing byte" true (rejects (full ^ "\x00"));
  check bool "bad tag" true
    (rejects
       (let b = Bytes.of_string full in
        Bytes.set b 4 '\xff';
        Bytes.to_string b));
  check bool "absurd length prefix" true
    (rejects ("\xff\xff\xff\xff" ^ String.make 8 'x'));
  check bool "negative list length" true
    (* Request/Query with length -1. *)
    (rejects (Codec.encode (Codec.Request { rt = 0; client = 0; req = Wire.Query [] })
              |> fun s ->
              let b = Bytes.of_string s in
              Bytes.fill b (String.length s - 8) 8 '\xff';
              Bytes.to_string b))

(* ------------------------------------------------------------------ *)
(* Codec: qcheck round trip                                             *)
(* ------------------------------------------------------------------ *)

let frame_gen =
  let open QCheck.Gen in
  let any_int =
    frequency
      [ (4, small_signed_int); (2, int); (1, return max_int); (1, return min_int) ]
  in
  let tag_gen =
    let* ts = frequency [ (4, small_nat); (1, int) ] in
    let* wid = int_range (-1) 10 in
    return { Tstamp.ts; wid }
  in
  let value_gen =
    let* tag = tag_gen in
    let* payload = any_int in
    return { Wire.tag; payload }
  in
  let req_gen =
    frequency
      [
        (2, map (fun vs -> Wire.Query vs) (list_size (int_bound 12) value_gen));
        (2, map (fun v -> Wire.Update v) value_gen);
      ]
  in
  let rep_gen =
    frequency
      [
        (1, map (fun v -> Wire.Write_ack { current = v }) value_gen);
        ( 2,
          let* current = value_gen in
          let* vector =
            list_size (int_bound 12)
              (pair value_gen (list_size (int_bound 6) small_nat))
          in
          return (Wire.Read_ack { current; vector }) );
      ]
  in
  let* rt = small_nat and* peer = int_bound 1000 in
  let key_gen =
    map (fun s -> "k/" ^ s) (string_size ~gen:printable (int_bound 40))
  in
  frequency
    [
      (1, map (fun req -> Codec.Request { rt; client = peer; req }) req_gen);
      ( 1,
        let* client = int_bound 1000 in
        map (fun rep -> Codec.Reply { rt; client; server = peer; rep }) rep_gen
      );
      ( 1,
        let* key = key_gen in
        map
          (fun req -> Codec.Keyed_request { key; rt; client = peer; req })
          req_gen );
      ( 1,
        let* client = int_bound 1000 and* key = key_gen in
        map
          (fun rep ->
            Codec.Keyed_reply { key; rt; client; server = peer; rep })
          rep_gen );
    ]

let frame_print f =
  match f with
  | Codec.Request { rt; client; req } ->
    Format.asprintf "req rt=%d client=%d %a" rt client Wire.pp_req req
  | Codec.Reply { rt; client; server; rep } ->
    Format.asprintf "rep rt=%d client=%d server=%d %a" rt client server
      Wire.pp_rep rep
  | Codec.Keyed_request { key; rt; client; req } ->
    Format.asprintf "kreq key=%S rt=%d client=%d %a" key rt client Wire.pp_req
      req
  | Codec.Keyed_reply { key; rt; client; server; rep } ->
    Format.asprintf "krep key=%S rt=%d client=%d server=%d %a" key rt client
      server Wire.pp_rep rep

let codec_roundtrip_prop =
  QCheck.Test.make
    ~name:"codec round trip: decode (encode f) = f"
    ~count:500
    (QCheck.make ~print:frame_print frame_gen)
    (fun f -> Codec.decode (Codec.encode f) = f)

let codec_prefix_prop =
  QCheck.Test.make
    ~name:"codec rejects every strict prefix"
    ~count:100
    (QCheck.make ~print:frame_print frame_gen)
    (fun f ->
      let s = Codec.encode f in
      let cut = String.length s / 2 in
      rejects (String.sub s 0 cut))

let codec_encode_into_prop =
  (* The zero-allocation fast path must be byte-identical to [encode],
     the buffer must be cleared of stale content, and the sizing pass
     must predict the exact frame length. *)
  let b = Buffer.create 16 in
  QCheck.Test.make
    ~name:"encode_into = encode, frame_size exact, buffer reusable"
    ~count:500
    (QCheck.make ~print:frame_print frame_gen)
    (fun f ->
      Buffer.add_string b "stale bytes from the previous frame";
      Codec.encode_into b f;
      let s = Buffer.contents b in
      s = Codec.encode f && String.length s = Codec.frame_size f)

(* ------------------------------------------------------------------ *)
(* Stream reassembly                                                    *)
(* ------------------------------------------------------------------ *)

let test_stream_byte_at_a_time () =
  let frames = sample_frames in
  let wire = String.concat "" (List.map Codec.encode frames) in
  let st = Codec.Stream.create () in
  let out = ref [] in
  String.iter
    (fun ch ->
      Codec.Stream.feed st (Bytes.make 1 ch) 1;
      let rec drain () =
        match Codec.Stream.next st with
        | Some f ->
          out := f :: !out;
          drain ()
        | None -> ()
      in
      drain ())
    wire;
  check bool "all frames recovered in order" true (List.rev !out = frames);
  check bool "no residue" true (Codec.Stream.next st = None)

let test_stream_mixed_chunks () =
  let frames = List.concat [ sample_frames; sample_frames; sample_frames ] in
  let wire = String.concat "" (List.map Codec.encode frames) in
  let st = Codec.Stream.create () in
  let out = ref [] in
  let pos = ref 0 in
  let sizes = [ 1; 3; 7; 64; 2; 1024; 5 ] in
  let i = ref 0 in
  while !pos < String.length wire do
    let n = min (List.nth sizes (!i mod List.length sizes)) (String.length wire - !pos) in
    incr i;
    Codec.Stream.feed st (Bytes.of_string (String.sub wire !pos n)) n;
    pos := !pos + n;
    let rec drain () =
      match Codec.Stream.next st with
      | Some f ->
        out := f :: !out;
        drain ()
      | None -> ()
    in
    drain ()
  done;
  check int "frame count" (List.length frames) (List.length !out);
  check bool "order preserved" true (List.rev !out = frames)

(* ------------------------------------------------------------------ *)
(* A real loopback server                                               *)
(* ------------------------------------------------------------------ *)

let test_server_roundtrip () =
  let replica = Replica.create () in
  let server = Server.start ~id:0 ~replica () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let ep = Endpoint.create ~client:10 ~servers:[| addr |] ~quorum:1 () in
  let got = ref None in
  Endpoint.exec ep (Wire.Update (value 1 0 101)) (fun replies ->
      got := Some replies);
  (* Asserting one exact reply shape; every other wire message is a
     test failure, so the wildcard is deliberate. *)
  (match[@warning "-4"] !got with
  | Some [ (0, Wire.Write_ack { current }) ] ->
    check bool "server adopted the value" true
      (Tstamp.equal current.Wire.tag (tag 1 0))
  | Some _ | None -> Alcotest.fail "expected one write ack from server 0");
  let got = ref None in
  Endpoint.exec ep (Wire.Query []) (fun replies -> got := Some replies);
  (match[@warning "-4"] !got with
  | Some [ (0, Wire.Read_ack { current; vector }) ] ->
    check bool "query sees the update" true
      (Tstamp.equal current.Wire.tag (tag 1 0));
    check bool "vector records the writer" true
      (List.exists
         (fun (v, upd) ->
           Tstamp.equal v.Wire.tag (tag 1 0) && List.mem 10 upd)
         vector)
  | Some _ | None -> Alcotest.fail "expected one read ack from server 0");
  check int "two rounds completed" 2 (Endpoint.rounds_completed ep);
  Endpoint.close ep;
  Server.stop server

let test_server_survives_garbage () =
  (* A peer speaking garbage gets disconnected; the server keeps serving
     well-formed clients. *)
  let replica = Replica.create () in
  let server = Server.start ~id:0 ~replica () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let bad = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect bad addr;
  let junk = Bytes.of_string "\xff\xff\xff\xffnonsense" in
  Netio.write_all bad junk 0 (Bytes.length junk);
  let ep = Endpoint.create ~client:11 ~servers:[| addr |] ~quorum:1 () in
  let ok = ref false in
  Endpoint.exec ep (Wire.Update (value 2 1 202)) (fun _ -> ok := true);
  check bool "good client still served" true !ok;
  (try Unix.close bad with Unix.Unix_error _ -> ());
  Endpoint.close ep;
  Server.stop server

let test_server_reaps_handlers () =
  (* Connect/disconnect churn must not leak connection state: the
     reactor closes a connection the moment its socket reports EOF, so
     once every client is gone the live connection count returns to
     zero (no reaper tick to wait out — only the event-loop wakeup). *)
  let replica = Replica.create () in
  let server = Server.start ~id:0 ~replica () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  for round = 1 to 10 do
    let ep = Endpoint.create ~client:round ~servers:[| addr |] ~quorum:1 () in
    let ok = ref false in
    Endpoint.exec ep (Wire.Update (value round 0 (round * 3))) (fun _ ->
        ok := true);
    check bool "op served" true !ok;
    Endpoint.close ep
  done;
  let deadline = Clock.now () +. 5.0 in
  while Server.connection_count server > 0 && Clock.now () < deadline do
    Thread.delay 0.05
  done;
  check int "all connections closed" 0 (Server.connection_count server);
  Server.stop server

(* ------------------------------------------------------------------ *)
(* The reactor data path                                                *)
(* ------------------------------------------------------------------ *)

(* Raw-socket helpers for talking straight wire to a server, bypassing
   the client planes: the reactor's framing and fairness claims are
   about byte streams, so the tests speak bytes. *)
let raw_connect addr =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  fd

let raw_send fd s =
  let b = Bytes.of_string s in
  Netio.write_all fd b 0 (Bytes.length b)

let query_frame ~rt ~client =
  Codec.encode (Codec.Request { rt; client; req = Wire.Query [] })

(* Read complete frames off [fd] into [st] until [want] have arrived. *)
let raw_read_frames fd st buf want =
  let got = ref [] and n_got = ref 0 in
  while !n_got < want do
    let n = Netio.read fd buf 0 (Bytes.length buf) in
    if n = 0 then failwith "server closed a healthy connection";
    Codec.Stream.feed st buf n;
    let rec drain () =
      match Codec.Stream.next st with
      | Some f ->
        got := f :: !got;
        incr n_got;
        drain ()
      | None -> ()
    in
    drain ()
  done;
  List.rev !got

let test_reactor_interleaved_partial_frames () =
  (* Many connections, each receiving its frames one byte at a time,
     interleaved round-robin: at every instant the reactor holds
     [nconns] partial frames in per-connection streams.  Every frame
     must still be answered, in order, to the connection that sent it. *)
  let replica = Replica.create () in
  let server = Server.start ~id:0 ~replica () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let nconns = 8 and per = 5 in
  let conns = Array.init nconns (fun _ -> raw_connect addr) in
  let wires =
    Array.init nconns (fun i ->
        String.concat ""
          (List.init per (fun rt -> query_frame ~rt ~client:(100 + i))))
  in
  let maxlen = Array.fold_left (fun m w -> max m (String.length w)) 0 wires in
  let byte = Bytes.create 1 in
  for pos = 0 to maxlen - 1 do
    Array.iteri
      (fun i fd ->
        if pos < String.length wires.(i) then begin
          Bytes.set byte 0 wires.(i).[pos];
          Netio.write_all fd byte 0 1
        end)
      conns
  done;
  let buf = Bytes.create 8192 in
  Array.iteri
    (fun i fd ->
      let frames = raw_read_frames fd (Codec.Stream.create ()) buf per in
      List.iteri
        (fun k f ->
          match[@warning "-4"] f with
          | Codec.Reply { rt; client; server = sid; rep = Wire.Read_ack _ } ->
            check int "replies in request order" k rt;
            check int "client echoed" (100 + i) client;
            check int "server id echoed" 0 sid
          | _ -> Alcotest.fail "expected a read ack")
        frames)
    conns;
  Array.iter Unix.close conns;
  Server.stop server

let test_reactor_backpressure_slow_reader () =
  (* A peer that stops reading must cost the reactor a write-interest
     registration, not a blocked thread: while client A sits on
     thousands of unread replies (tiny SO_RCVBUF, nothing drained), a
     concurrent client B's operations keep completing.  Afterwards A
     reads everything it was owed, in order — buffered server-side under
     backpressure, not dropped. *)
  let replica = Replica.create () in
  let server = Server.start ~id:0 ~replica () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  (* Fatten the replies first: every distinct written tag adds a vector
     entry to each subsequent Read_ack, so the pipelined queries below
     overflow any kernel buffer pair and force EAGAIN on the server. *)
  let seed_ep = Endpoint.create ~client:50 ~servers:[| addr |] ~quorum:1 () in
  for w = 1 to 100 do
    let ok = ref false in
    Endpoint.exec seed_ep (Wire.Update (value w (w mod 8) (1000 + w)))
      (fun _ -> ok := true);
    check bool "seed write served" true !ok
  done;
  Endpoint.close seed_ep;
  let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
  Unix.connect a addr;
  let nq = 2000 in
  let reqs = Buffer.create (nq * 24) in
  for rt = 0 to nq - 1 do
    Buffer.add_string reqs (query_frame ~rt ~client:60)
  done;
  raw_send a (Buffer.contents reqs);
  (* A is now owed ~nq fat replies it is not reading.  B must not care. *)
  let b_ep = Endpoint.create ~client:61 ~servers:[| addr |] ~quorum:1 () in
  let t0 = Clock.now () in
  for _ = 1 to 20 do
    let ok = ref false in
    Endpoint.exec b_ep (Wire.Query []) (fun _ -> ok := true);
    check bool "B's op completed" true !ok
  done;
  let b_elapsed = Clock.now () -. t0 in
  Endpoint.close b_ep;
  check bool "B not stalled behind the slow reader" true (b_elapsed < 5.0);
  (* Now drain A: every reply arrives, in request order. *)
  let st = Codec.Stream.create () in
  let buf = Bytes.create 65536 in
  let got = ref 0 in
  while !got < nq do
    let n = Netio.read a buf 0 (Bytes.length buf) in
    if n = 0 then Alcotest.fail "server severed the slow reader";
    Codec.Stream.feed st buf n;
    let rec drain () =
      match Codec.Stream.next st with
      | Some (Codec.Reply { rt; client = _; server = _; rep = _ }) ->
        check int "A's replies in order" !got rt;
        incr got;
        drain ()
      | Some (Codec.Request _ | Codec.Keyed_request _ | Codec.Keyed_reply _)
        ->
        Alcotest.fail "server sent an unexpected frame"
      | None -> ()
    in
    drain ()
  done;
  Unix.close a;
  Server.stop server

let test_reactor_connection_churn () =
  (* 256 concurrent short-lived connections — the regime that used to
     cost a thread spawn + join each.  Every connection gets its reply,
     and the connection count returns to zero afterwards. *)
  let replica = Replica.create () in
  let server = Server.start ~id:0 ~replica () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let n = 256 in
  let failures = Array.make n None in
  let body i () =
    match
      let fd = raw_connect addr in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          raw_send fd (query_frame ~rt:0 ~client:(300 + i));
          let buf = Bytes.create 8192 in
          match[@warning "-4"]
            raw_read_frames fd (Codec.Stream.create ()) buf 1
          with
          | [ Codec.Reply { rt = 0; client; server = 0; rep = _ } ]
            when client = 300 + i ->
            ()
          | _ -> failwith "unexpected reply")
    with
    | () -> ()
    | exception Unix.Unix_error (e, fn, _) ->
      failures.(i) <- Some (fn ^ ": " ^ Unix.error_message e)
    | exception Failure msg -> failures.(i) <- Some msg
    | exception Codec.Decode_error msg -> failures.(i) <- Some msg
  in
  let threads = List.init n (fun i -> Thread.create (body i) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun i f ->
      match f with
      | Some msg -> Alcotest.failf "connection %d: %s" i msg
      | None -> ())
    failures;
  let deadline = Clock.now () +. 5.0 in
  while Server.connection_count server > 0 && Clock.now () < deadline do
    Thread.delay 0.02
  done;
  check int "every connection closed" 0 (Server.connection_count server);
  Server.stop server

let test_reactor_sharded_live () =
  (* shards > 1: connections dealt round-robin across per-domain event
     loops, kill + recover-restart mid-run, history still atomic. *)
  let cluster = Cluster.start ~shards:2 ~s:3 ~tol:1 () in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      let res =
        Session.run ~kill_at:[ (0.05, 2) ]
          ~restart_at:[ (0.3, 2, `Recover) ]
          ~rt_timeout:0.5 ~register:Registry.abd_mwmr ~cluster
          {
            Session.default_spec with
            writers = 2;
            readers = 2;
            writes_per_writer = 8;
            reads_per_reader = 12;
          }
      in
      check bool "history atomic under sharded reactor" true
        (Checker.Atomicity.is_atomic res.Session.history);
      check int "no client starved" 0 res.Session.unavailable)

let test_reactor_sharded_restart mode () =
  (* The deterministic crash-stop script against sharded reactors: the
     recover/fresh dichotomy must be exactly the single-shard one. *)
  let o = Chaos.restart_scenario ~server_shards:2 ~mode () in
  match mode with
  | `Recover ->
    check bool "recovered sharded restart atomic" true o.Chaos.atomic
  | `Fresh ->
    check bool "fresh sharded restart loses the write" false o.Chaos.atomic;
    check bool "checker produced a witness" true (o.Chaos.witness <> None)

(* ------------------------------------------------------------------ *)
(* Mux: the shared-connection client plane                              *)
(* ------------------------------------------------------------------ *)

let test_mux_interleaved_clients () =
  (* Many concurrent clients over ONE shared connection per server: the
     demux must route every reply to the mailbox that opened the round
     trip.  Any cross-client delivery would either strand an exec (its
     quorum never fills → Unavailable) or surface as a late/dropped
     frame, so "every op completes, exactly one round trip each, zero
     late replies" is a routing-correctness certificate. *)
  let replica = Replica.create () in
  let server = Server.start ~id:0 ~replica () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let mux = Mux.create ~servers:[| addr |] ~quorum:1 () in
  let n_clients = 8 and ops = 40 in
  let completed = Array.make n_clients 0 in
  let failures = Array.make n_clients None in
  let handles = Array.init n_clients (fun c -> Mux.client mux ~client:(100 + c)) in
  let body c () =
    let h = handles.(c) in
    try
      for n = 1 to ops do
        let ts = (c * 10_000) + n in
        let req =
          if n mod 3 = 0 then Wire.Query []
          else Wire.Update (value ts c ((ts * 7) + c))
        in
        Mux.exec h req (fun replies ->
            match replies with
            | [ (0, _) ] -> completed.(c) <- completed.(c) + 1
            | rs ->
              failures.(c) <-
                Some (Printf.sprintf "client %d: %d replies" c (List.length rs)))
      done
    with Mux.Unavailable msg -> failures.(c) <- Some msg
  in
  let threads = List.init n_clients (fun c -> Thread.create (body c) ()) in
  List.iter Thread.join threads;
  Array.iteri
    (fun c f ->
      match f with
      | Some msg -> Alcotest.failf "client %d failed: %s" c msg
      | None ->
        check int "every op completed" ops completed.(c);
        check int "one round trip per op" ops
          (Mux.rounds_completed handles.(c));
        check int "no stray deliveries" 0 (Mux.late_replies handles.(c)))
    failures;
  Array.iter Mux.release handles;
  Mux.shutdown mux;
  Server.stop server

let test_mux_quorum_with_dead_server () =
  (* Quorum semantics on the shared plane: with one of three servers
     never reachable, execs still complete on the surviving quorum. *)
  let replicas = Array.init 2 (fun _ -> Replica.create ()) in
  let servers =
    Array.mapi (fun i r -> Server.start ~id:i ~replica:r ()) replicas
  in
  let dead = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  (* Bound but never listening: connects are refused. *)
  let dead_port =
    match Unix.getsockname dead with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let addr p = Unix.ADDR_INET (Unix.inet_addr_loopback, p) in
  let addrs =
    [|
      addr (Server.port servers.(0));
      addr dead_port;
      addr (Server.port servers.(1));
    |]
  in
  let mux =
    Mux.create ~rt_timeout:0.2 ~servers:addrs ~quorum:2 ()
  in
  let h = Mux.client mux ~client:50 in
  let got = ref [] in
  Mux.exec h (Wire.Update (value 1 0 11)) (fun rs -> got := List.map fst rs);
  check bool "quorum from live servers" true
    (List.sort compare !got = [ 0; 2 ]);
  Mux.release h;
  Mux.shutdown mux;
  (try Unix.close dead with Unix.Unix_error _ -> ());
  Array.iter Server.stop servers

(* ------------------------------------------------------------------ *)
(* Live cluster runs                                                    *)
(* ------------------------------------------------------------------ *)

let atomic history =
  match Checker.Atomicity.check history with Ok () -> true | Error _ -> false

let run_live ?kill_at ?transport ?(rt_timeout = 0.5) ?max_rt_retries ~register
    ~s ~tol spec =
  let cluster = Cluster.start ~s ~tol () in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      Session.run ?kill_at ?transport ~rt_timeout ?max_rt_retries ~register
        ~cluster spec)

let test_live_ls97_atomic () =
  let res =
    run_live ~register:Registry.abd_mwmr ~s:3 ~tol:1
      {
        Session.default_spec with
        writers = 2;
        readers = 2;
        writes_per_writer = 15;
        reads_per_reader = 25;
      }
  in
  check bool "history atomic" true (atomic res.Session.history);
  check int "no client starved" 0 res.Session.unavailable;
  check bool "writes take two rounds" true (res.Session.write_rounds = 2.0);
  check bool "reads take two rounds" true (res.Session.read_rounds = 2.0)

let test_live_w2r1_fast_read () =
  (* S=5 t=1 R=2: inside the R < S/t − 2 regime, so W2R1 must be atomic
     with strictly one-round reads — the paper's headline, on sockets. *)
  let res =
    run_live ~register:Registry.fastread_w2r1 ~s:5 ~tol:1
      {
        Session.default_spec with
        writers = 2;
        readers = 2;
        writes_per_writer = 15;
        reads_per_reader = 25;
      }
  in
  check bool "history atomic" true (atomic res.Session.history);
  check bool "writes take two rounds" true (res.Session.write_rounds = 2.0);
  check bool "reads are one round" true (res.Session.read_rounds = 1.0)

let test_live_single_writer_guard () =
  let cluster = Cluster.start ~s:3 ~tol:1 () in
  Fun.protect
    ~finally:(fun () -> Cluster.shutdown cluster)
    (fun () ->
      check bool "SWMR rejects two writers" true
        (match
           Session.run ~register:Registry.abd_swmr ~cluster
             { Session.default_spec with writers = 2 }
         with
        | _ -> false
        | exception Invalid_argument _ -> true))

let test_live_ls97_sockets_path () =
  (* The baseline private-sockets plane stays a first-class citizen: the
     same workload must pass over [`Sockets] as over the default mux. *)
  let res =
    run_live ~transport:`Sockets ~register:Registry.abd_mwmr ~s:3 ~tol:1
      {
        Session.default_spec with
        writers = 2;
        readers = 2;
        writes_per_writer = 10;
        reads_per_reader = 15;
      }
  in
  check bool "history atomic" true (atomic res.Session.history);
  check int "no client starved" 0 res.Session.unavailable;
  check bool "writes take two rounds" true (res.Session.write_rounds = 2.0)

let test_live_survives_t_kills transport () =
  (* S=5 t=2: kill two real server processes mid-run.  The remaining
     quorum of 3 must keep completing operations and the history must
     still be atomic — the acceptance bar for the live transport, on
     both data planes. *)
  let res =
    run_live ~transport
      ~kill_at:[ (0.02, 0); (0.05, 3) ]
      ~register:Registry.abd_mwmr ~s:5 ~tol:2
      {
        Session.writers = 2;
        readers = 2;
        writes_per_writer = 20;
        reads_per_reader = 30;
        write_think = 0.004;
        read_think = 0.003;
      }
  in
  check (Alcotest.list int) "both targets down" [ 0; 3 ] res.Session.killed;
  check int "no client starved" 0 res.Session.unavailable;
  check bool "history atomic across the kills" true (atomic res.Session.history);
  check bool "all writes completed" true
    (List.for_all Histories.Op.is_complete
       (Histories.History.ops res.Session.history))

let test_rounds_accounting_under_overkill () =
  (* Kill MORE servers than the protocol tolerates, with a short timeout
     and no retries, so some clients abort mid-operation.  The rounds an
     aborted op burned before failing (e.g. the Query round of a
     two-round write whose Update found no quorum) must NOT leak into
     the per-op means: every completed LS97 write is exactly 2 rounds,
     so the mean over completed ops stays exactly 2.0 (or 0 if nothing
     completed) no matter where the crash landed. *)
  let res =
    run_live
      ~kill_at:[ (0.03, 0); (0.03, 1) ]
      ~rt_timeout:0.05 ~max_rt_retries:0 ~register:Registry.abd_mwmr ~s:3
      ~tol:1
      {
        Session.writers = 2;
        readers = 2;
        writes_per_writer = 50;
        reads_per_reader = 50;
        write_think = 0.002;
        read_think = 0.002;
      }
  in
  check bool "quorum genuinely lost" true (res.Session.unavailable > 0);
  check bool "completed writes average exactly two rounds" true
    (res.Session.write_rounds = 2.0 || res.Session.write_rounds = 0.0);
  check bool "completed reads average exactly two rounds" true
    (res.Session.read_rounds = 2.0 || res.Session.read_rounds = 0.0);
  (* The merged history may end with pending ops (the aborted ones) but
     everything that responded must still be atomic. *)
  check bool "history atomic" true (atomic res.Session.history)

let test_live_adaptive_atomic () =
  (* The adaptive register beyond the fast-read threshold, on sockets. *)
  let res =
    run_live ~register:Registry.adaptive ~s:3 ~tol:1
      {
        Session.default_spec with
        writers = 2;
        readers = 3;
        writes_per_writer = 10;
        reads_per_reader = 15;
      }
  in
  check bool "history atomic" true (atomic res.Session.history);
  check int "no client starved" 0 res.Session.unavailable

(* ------------------------------------------------------------------ *)
(* Chaos: fault injection, EINTR hardening, restart/recovery            *)
(* ------------------------------------------------------------------ *)

let test_clock_advances () =
  let a = Clock.now () in
  Thread.delay 0.01;
  let b = Clock.now () in
  check bool "clock advances" true (b > a);
  check bool "monotonic source available" true Clock.monotonic

let test_netio_eintr_retry () =
  (* OCaml installs signal handlers without SA_RESTART, so a blocking
     write interrupted by SIGALRM raises EINTR.  Storm the process with
     an interval timer while pushing megabytes through a socketpair with
     a deliberately slow consumer: Netio.write_all / Netio.read must
     retry through every interruption and deliver every byte. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let total = 4 * 1024 * 1024 in
  let received = ref 0 in
  let reader =
    Thread.create
      (fun () ->
        let buf = Bytes.create 65536 in
        let rec loop () =
          let n = Netio.read b buf 0 (Bytes.length buf) in
          if n > 0 then begin
            received := !received + n;
            (* Slow consumer: keeps the writer blocked inside Unix.write
               long enough for timer signals to land mid-call. *)
            Thread.delay 0.001;
            loop ()
          end
        in
        loop ())
      ()
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let timer v = { Unix.it_interval = v; it_value = v } in
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.002));
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0));
      Sys.set_signal Sys.sigalrm old)
    (fun () ->
      let chunk = Bytes.make 65536 'x' in
      let sent = ref 0 in
      while !sent < total do
        let len = min (Bytes.length chunk) (total - !sent) in
        Netio.write_all a chunk 0 len;
        sent := !sent + len
      done);
  Unix.close a;
  Thread.join reader;
  Unix.close b;
  check int "every byte arrived despite the signal storm" total !received

let test_faults_deterministic () =
  let probe p =
    List.init 400 (fun i ->
        Faults.deliveries p ~dir:Faults.To_server ~server:(i mod 5)
          ~client:(5 + (i mod 4)) ~rt:(i / 4) ~salt:(i mod 3))
  in
  let d1 = probe (Chaos.plan ~seed:7 ()) in
  check bool "same seed, same schedule" true
    (d1 = probe (Chaos.plan ~seed:7 ()));
  check bool "different seed, different schedule" true
    (d1 <> probe (Chaos.plan ~seed:8 ()));
  check bool "some frames dropped" true (List.exists (fun d -> d = []) d1);
  check bool "some frames duplicated" true
    (List.exists (fun d -> List.length d = 2) d1);
  check bool "retry salt redraws the decision" true
    (List.exists
       (fun i ->
         let p = Chaos.plan ~seed:7 () in
         let at salt =
           Faults.deliveries p ~dir:Faults.To_server ~server:0 ~client:5 ~rt:i
             ~salt
         in
         at 0 = [] && at 1 <> [])
       (List.init 100 Fun.id))

let test_dup_delay_independent_copies () =
  (* Duplicate + Delay composed: both copies of a frame must draw their
     own deadline (shared deadlines would make the duplicate invisible
     to reordering-sensitive code paths), stay within the rule's bound,
     and replay bit-identically from the seed. *)
  let mk () =
    Faults.create ~seed:11
      [ Faults.rule Faults.Duplicate; Faults.rule (Faults.Delay 0.05) ]
  in
  let probe plan i =
    Faults.deliveries plan ~dir:Faults.From_server ~server:(i mod 4)
      ~client:(4 + (i mod 3)) ~rt:(i / 3) ~salt:0
  in
  let ds = List.init 200 (probe (mk ())) in
  check bool "every frame staged twice" true
    (List.for_all (fun d -> List.length d = 2) ds);
  check bool "deadlines within the delay bound" true
    (List.for_all
       (List.for_all (fun d -> d.Faults.after >= 0.0 && d.Faults.after <= 0.05))
       ds);
  check bool "copies draw independent deadlines" true
    (List.exists
       (function
         | [ a; b ] -> a.Faults.after <> b.Faults.after
         | [] | [ _ ] | _ :: _ :: _ -> false)
       ds);
  check bool "replay is deterministic" true (ds = List.init 200 (probe (mk ())))

let staged_deliveries_prop =
  (* The determinism contract extended to staged (delayed + duplicated)
     deliveries: any (seed, link, rt) replays the same schedule on a
     fresh plan, both directions, every copy within bounds. *)
  QCheck.Test.make ~count:200 ~name:"staged deliveries replay deterministically"
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (seed, server, client, rt) ->
      let mk () =
        Faults.create ~seed
          [ Faults.rule Faults.Duplicate; Faults.rule (Faults.Delay 0.05) ]
      in
      let p1 = mk () and p2 = mk () in
      List.for_all
        (fun dir ->
          let d1 = Faults.deliveries p1 ~dir ~server ~client ~rt ~salt:0 in
          let d2 = Faults.deliveries p2 ~dir ~server ~client ~rt ~salt:0 in
          d1 = d2
          && List.length d1 = 2
          && List.for_all
               (fun d ->
                 d.Faults.after >= 0.0
                 && d.Faults.after <= 0.05
                 && not d.Faults.truncated)
               d1)
        [ Faults.To_server; Faults.From_server ])

let test_mux_hol_isolation () =
  (* Head-of-line regression: a staged (delayed) frame of one mux client
     must park on the shared connection's deadline queue, not sleep in
     the sender with the connection lock held.  Client 100's 0.4s-delayed
     op rides out its deadline while client 101 pushes ten ops through
     the same connection at full speed. *)
  let replica = Replica.create () in
  let server = Server.start ~id:0 ~replica () in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server) in
  let faults =
    Faults.create
      [
        Faults.rule ~dir:Faults.To_server ~clients:[ 100 ]
          (Faults.Latency { base = 0.4; jitter = 0.0 });
      ]
  in
  let mux = Mux.create ~faults ~servers:[| addr |] ~quorum:1 () in
  let slow = Mux.client mux ~client:100 in
  let fast = Mux.client mux ~client:101 in
  let slow_elapsed = ref 0.0 in
  let t =
    Thread.create
      (fun () ->
        let t0 = Clock.now () in
        Mux.exec slow (Wire.Update (value 1 0 1)) (fun _ -> ());
        slow_elapsed := Clock.now () -. t0)
      ()
  in
  Thread.delay 0.05;
  (* The slow op is now parked; the fast client must not feel it. *)
  let t0 = Clock.now () in
  for n = 1 to 10 do
    Mux.exec fast (Wire.Update (value (1000 + n) 1 n)) (fun _ -> ())
  done;
  let fast_elapsed = Clock.now () -. t0 in
  Thread.join t;
  check bool "fast client unaffected by the parked frame" true
    (fast_elapsed < 0.2);
  check bool "slow client actually delayed" true (!slow_elapsed >= 0.3);
  Mux.release slow;
  Mux.release fast;
  Mux.shutdown mux;
  Server.stop server

let test_endpoint_hol_across_servers () =
  (* Same regression on the private-socket plane: a delay on the link to
     server 0 must not push back the send time to servers 1 and 2 — the
     quorum completes on the undelayed majority in wire time. *)
  let replicas = Array.init 3 (fun _ -> Replica.create ()) in
  let servers =
    Array.mapi (fun i r -> Server.start ~id:i ~replica:r ()) replicas
  in
  let addrs =
    Array.map
      (fun s -> Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port s))
      servers
  in
  let faults =
    Faults.create
      [
        Faults.rule ~dir:Faults.To_server ~servers:[ 0 ]
          (Faults.Latency { base = 0.4; jitter = 0.0 });
      ]
  in
  let ep = Endpoint.create ~faults ~client:42 ~servers:addrs ~quorum:2 () in
  let t0 = Clock.now () in
  let got = ref [] in
  Endpoint.exec ep (Wire.Update (value 1 0 7)) (fun rs -> got := List.map fst rs);
  let elapsed = Clock.now () -. t0 in
  check bool "quorum from the undelayed servers" true
    (List.sort compare !got = [ 1; 2 ]);
  check bool "delay on server 0 does not block sends to 1,2" true
    (elapsed < 0.2);
  Endpoint.close ep;
  Array.iter Server.stop servers

(* A fake server that answers each of [rounds] keyed requests with a
   fixed script of junk around the one real reply, then hangs up.  Both
   planes read one connection's bytes in order, so every straggler of
   round r is classified before round r+1's real reply arrives. *)
let scripted_server ~rounds =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let serve () =
    let fd =
      match Netio.accept_nb listener with
      | Some fd -> fd
      | None -> failwith "accept returned without a connection"
    in
    let st = Codec.Stream.create () and buf = Bytes.create 4096 in
    let rec next_frame () =
      match Codec.Stream.next st with
      | Some f -> f
      | None ->
        let n = Netio.read fd buf 0 (Bytes.length buf) in
        if n = 0 then failwith "client closed early";
        Codec.Stream.feed st buf n;
        next_frame ()
    in
    let reply ~key ~rt ~client =
      Codec.encode
        (Codec.Keyed_reply
           { key; rt; client; server = 0;
             rep = Wire.Write_ack { current = Wire.initial_value_entry } })
    in
    for r = 1 to rounds do
      match next_frame () with
      | Codec.Keyed_request { key; rt; client; _ } ->
        if r < rounds then begin
          (* foreign: the open round's id, another register *)
          raw_send fd (reply ~key:(key ^ "-other") ~rt ~client);
          (* late: a round id this client is not waiting on *)
          raw_send fd (reply ~key ~rt:(rt + 100) ~client)
        end;
        raw_send fd (reply ~key ~rt ~client);
        (* late: a duplicate past the quorum *)
        if r < rounds then raw_send fd (reply ~key ~rt ~client)
      | Codec.Request _ | Codec.Reply _ | Codec.Keyed_reply _ ->
        failwith "expected a keyed request"
    done;
    Unix.close fd
  in
  (Unix.getsockname listener, listener, Thread.create serve ())

let test_planes_count_late_alike () =
  (* The same reply script against each plane: both must classify it
     through the same round machine, so their late counts agree — the
     wrong-key reply is foreign (a mux drop), never late. *)
  let rounds = 4 in
  let run_plane plane =
    let addr, listener, server = scripted_server ~rounds in
    let mux =
      match plane with
      | `Sockets -> None
      | `Mux -> Some (Mux.create ~servers:[| addr |] ~quorum:1 ())
    in
    let ep =
      match mux with
      | Some m -> Endpoint.of_mux (Mux.client m ~client:5)
      | None -> Endpoint.create ~client:5 ~servers:[| addr |] ~quorum:1 ()
    in
    (* Closing the client first also unblocks a server still waiting
       for a request, should a round fail. *)
    Fun.protect ~finally:(fun () ->
        Endpoint.close ep;
        Option.iter Mux.shutdown mux;
        Thread.join server;
        Unix.close listener)
    @@ fun () ->
    for _ = 1 to rounds do
      Endpoint.exec ~key:"k" ep (Wire.Update (value 1 5 1)) (fun rs ->
          check int "exactly the quorum delivered" 1 (List.length rs))
    done;
    (Endpoint.late_replies ep, Option.map Mux.dropped_replies mux)
  in
  let sockets_late, _ = run_plane `Sockets in
  let mux_late, mux_dropped = run_plane `Mux in
  check int "sockets: stale round + duplicate per round" (2 * (rounds - 1))
    sockets_late;
  check int "planes agree on late replies" sockets_late mux_late;
  check (Alcotest.option int) "mux drops the foreign replies" (Some (rounds - 1))
    mux_dropped

(* ------------------------------------------------------------------ *)
(* Geo profiles: one geography, two compilations                        *)
(* ------------------------------------------------------------------ *)

let test_geo_compilations_agree () =
  (* Every profile's two compilations — the simulator's latency model
     and the live fault rules — must place each (src, dst) delay in the
     same [base, base + jitter) band read off the same matrices. *)
  List.iter
    (fun p ->
      let s = 4 in
      let clients = [ 4; 5; 6 ] in
      let plan = Geo.plan p ~s ~clients in
      let model = Geo.latency_model p in
      let rng = Simulation.Rng.create ~seed:9 in
      let band ~src ~dst d what =
        let base = Geo.base p ~src ~dst in
        let j = Geo.jitter_bound p ~src ~dst in
        check bool
          (Printf.sprintf "%s %s %d->%d in band" (Geo.name p) what src dst)
          true
          (d >= base && d < base +. j)
      in
      List.iter
        (fun c ->
          for srv = 0 to s - 1 do
            (match
               Faults.deliveries plan ~dir:Faults.To_server ~server:srv
                 ~client:c ~rt:1 ~salt:0
             with
            | [ d ] -> band ~src:c ~dst:srv d.Faults.after "request leg"
            | [] | _ :: _ ->
              Alcotest.fail "geo rule must stage exactly one copy");
            (match
               Faults.deliveries plan ~dir:Faults.From_server ~server:srv
                 ~client:c ~rt:1 ~salt:0
             with
            | [ d ] -> band ~src:srv ~dst:c d.Faults.after "reply leg"
            | [] | _ :: _ ->
              Alcotest.fail "geo rule must stage exactly one copy");
            for _ = 1 to 10 do
              band ~src:c ~dst:srv
                (Simulation.Latency.sample model rng ~src:c ~dst:srv)
                "sim sample"
            done
          done)
        clients)
    Geo.profiles

let geo_symmetry_prop =
  (* The symmetric profiles must cost the same in both directions for
     any node pair; asym-updown must not whenever the pair crosses the
     edge/core boundary. *)
  QCheck.Test.make ~count:200 ~name:"geo profile (a)symmetry"
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let sym p =
        Geo.base p ~src:a ~dst:b = Geo.base p ~src:b ~dst:a
        && Geo.jitter_bound p ~src:a ~dst:b = Geo.jitter_bound p ~src:b ~dst:a
      in
      let cross =
        Geo.region_of Geo.asym_updown a <> Geo.region_of Geo.asym_updown b
      in
      sym Geo.lan
      && sym Geo.wan_3region
      && sym Geo.mixed_1ms_80ms
      &&
      if cross then
        Geo.base Geo.asym_updown ~src:a ~dst:b
        <> Geo.base Geo.asym_updown ~src:b ~dst:a
      else sym Geo.asym_updown)

let test_geo_wan3_live_atomic () =
  (* End to end: a live cluster under the wan-3region plan, streaming
     checker attached.  Atomicity must hold, nobody starves, and the
     cross-region quorum round trips must actually cost wire time. *)
  let profile = Geo.wan_3region in
  let s = 3 and tol = 1 in
  let w = 2 and r = 2 in
  let clients = List.init (w + r) (fun i -> s + i) in
  let faults = Geo.plan profile ~s ~clients in
  let cluster = Cluster.start ~faults ~s ~tol () in
  let res =
    Fun.protect
      ~finally:(fun () -> Cluster.shutdown cluster)
      (fun () ->
        Session.run ~faults
          ~rt_timeout:(Float.max 1.0 (8.0 *. Geo.max_rtt profile))
          ~live_check:true ~register:Registry.abd_mwmr ~cluster
          {
            Session.default_spec with
            writers = w;
            readers = r;
            writes_per_writer = 2;
            reads_per_reader = 3;
          })
  in
  check bool "atomic under wan-3region" true (atomic res.Session.history);
  (match res.Session.online with
  | None -> Alcotest.fail "live_check:true returned no online report"
  | Some rep ->
    check bool "streaming verdict agrees" true (Check_sink.atomic rep));
  check int "no client starved" 0 res.Session.unavailable;
  check bool "writes still two rounds" true (res.Session.write_rounds = 2.0);
  (* S=3 puts one server per region, so every quorum's second reply is
     a ~80ms-RTT cross-region trip: the run cannot be loopback-fast. *)
  check bool "cross-region rounds cost wire time" true
    (res.Session.duration > 0.2)

let test_chaos_soak transport () =
  (* Seeded drop/delay/duplicate storm plus a kill → recover-restart,
     inside a possible regime: the run must complete with the history
     atomic, lossy links showing up only as retries — and the Table-1
     rounds-per-completed-op contract intact. *)
  let sk =
    Chaos.soak ~transport ~seed:3 ~ops:6 ~register:Registry.abd_mwmr ()
  in
  check bool "regime is possible" true sk.Chaos.expected_atomic;
  check bool "atomic under chaos" true sk.Chaos.atomic;
  check int "no client starved" 0 sk.Chaos.result.Session.unavailable;
  check bool "lossy links cost retries" true
    (sk.Chaos.result.Session.retries > 0);
  check bool "completed writes still two rounds" true
    (sk.Chaos.result.Session.write_rounds = 2.0)

let test_live_check_session () =
  (* The streaming checker rides a healthy live session: the online
     report must agree with the batch verdict on the merged history,
     count every completed operation, and keep its window bounded. *)
  let cluster = Cluster.start ~s:3 ~tol:1 () in
  let res =
    Fun.protect
      ~finally:(fun () -> Cluster.shutdown cluster)
      (fun () ->
        Session.run ~rt_timeout:0.5 ~live_check:true
          ~register:Registry.abd_mwmr ~cluster
          {
            Session.default_spec with
            writers = 2;
            readers = 2;
            writes_per_writer = 15;
            reads_per_reader = 25;
          })
  in
  match res.Session.online with
  | None -> Alcotest.fail "live_check:true returned no online report"
  | Some r ->
    check bool "online atomic" true (Check_sink.atomic r);
    check bool "batch agrees" true (atomic res.Session.history);
    check int "every completed op checked" 80 r.Check_sink.checked;
    check int "single live key" 1 r.Check_sink.keys;
    check bool "window bounded well below history" true
      (r.Check_sink.peak_window > 0 && r.Check_sink.peak_window <= 80)

let test_live_check_chaos transport () =
  (* Same storm as [test_chaos_soak], with the streaming checker
     attached: verdicts must agree and throughput accounting must not
     lose operations (aborted in-flight ops are fed as pending). *)
  let sk =
    Chaos.soak ~transport ~seed:3 ~ops:6 ~live_check:true
      ~register:Registry.abd_mwmr ()
  in
  check bool "regime is possible" true sk.Chaos.expected_atomic;
  check bool "batch atomic under chaos" true sk.Chaos.atomic;
  match sk.Chaos.result.Session.online with
  | None -> Alcotest.fail "live_check:true returned no online report"
  | Some r ->
    check bool "online agrees with batch" true (Check_sink.atomic r);
    check bool "checked the whole stream" true (r.Check_sink.checked > 0);
    check bool "window bounded" true
      (r.Check_sink.peak_window <= r.Check_sink.checked)

let test_restart_recover transport () =
  let o = Chaos.restart_scenario ~transport ~mode:`Recover () in
  check bool "recovered restart preserves atomicity" true o.Chaos.atomic;
  check bool "read returns the acknowledged write" true
    (o.Chaos.read_value = Some (Histories.History.initial_value + 41))

let test_restart_fresh () =
  let o = Chaos.restart_scenario ~mode:`Fresh () in
  check bool "fresh restart loses the acknowledged write" false o.Chaos.atomic;
  check bool "checker produced a witness" true (o.Chaos.witness <> None);
  check bool "read returned the stale initial value" true
    (o.Chaos.read_value = Some Histories.History.initial_value)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "transport"
    [
      ( "codec",
        [
          Alcotest.test_case "sample round trips" `Quick
            test_codec_roundtrip_samples;
          Alcotest.test_case "large vectors" `Quick test_codec_large_vector;
          Alcotest.test_case "rejects truncation" `Quick
            test_codec_rejects_truncation;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          QCheck_alcotest.to_alcotest codec_roundtrip_prop;
          QCheck_alcotest.to_alcotest codec_prefix_prop;
          QCheck_alcotest.to_alcotest codec_encode_into_prop;
        ] );
      ( "stream",
        [
          Alcotest.test_case "byte at a time" `Quick test_stream_byte_at_a_time;
          Alcotest.test_case "mixed chunks" `Quick test_stream_mixed_chunks;
        ] );
      ( "server",
        [
          Alcotest.test_case "round trips" `Quick test_server_roundtrip;
          Alcotest.test_case "survives garbage peers" `Quick
            test_server_survives_garbage;
          Alcotest.test_case "reaps finished handlers" `Quick
            test_server_reaps_handlers;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "interleaved byte-at-a-time frames" `Quick
            test_reactor_interleaved_partial_frames;
          Alcotest.test_case "backpressure on a slow reader" `Quick
            test_reactor_backpressure_slow_reader;
          Alcotest.test_case "256 concurrent short-lived connections" `Quick
            test_reactor_connection_churn;
          Alcotest.test_case "sharded: live run with kill/restart" `Quick
            test_reactor_sharded_live;
          Alcotest.test_case "sharded: restart recover" `Quick
            (test_reactor_sharded_restart `Recover);
          Alcotest.test_case "sharded: restart fresh" `Quick
            (test_reactor_sharded_restart `Fresh);
        ] );
      ( "mux",
        [
          Alcotest.test_case "interleaved clients, one shared conn" `Quick
            test_mux_interleaved_clients;
          Alcotest.test_case "quorum despite dead server" `Quick
            test_mux_quorum_with_dead_server;
          Alcotest.test_case "delayed frame does not block other clients"
            `Quick test_mux_hol_isolation;
          Alcotest.test_case "delayed link does not block other servers"
            `Quick test_endpoint_hol_across_servers;
          Alcotest.test_case "both planes count late replies alike" `Quick
            test_planes_count_late_alike;
        ] );
      ( "live",
        [
          Alcotest.test_case "LS97 atomic (mux)" `Quick test_live_ls97_atomic;
          Alcotest.test_case "LS97 atomic (private sockets)" `Quick
            test_live_ls97_sockets_path;
          Alcotest.test_case "W2R1 one-round reads" `Quick
            test_live_w2r1_fast_read;
          Alcotest.test_case "single-writer guard" `Quick
            test_live_single_writer_guard;
          Alcotest.test_case "survives t kills (mux)" `Quick
            (test_live_survives_t_kills `Mux);
          Alcotest.test_case "survives t kills (sockets)" `Quick
            (test_live_survives_t_kills `Sockets);
          Alcotest.test_case "rounds accounting under overkill" `Quick
            test_rounds_accounting_under_overkill;
          Alcotest.test_case "adaptive atomic" `Quick test_live_adaptive_atomic;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "EINTR storm during writes" `Quick
            test_netio_eintr_retry;
          Alcotest.test_case "fault plans are deterministic" `Quick
            test_faults_deterministic;
          Alcotest.test_case "duplicate+delay: independent copy deadlines"
            `Quick test_dup_delay_independent_copies;
          QCheck_alcotest.to_alcotest staged_deliveries_prop;
          Alcotest.test_case "soak atomic under faults (mux)" `Quick
            (test_chaos_soak `Mux);
          Alcotest.test_case "soak atomic under faults (sockets)" `Quick
            (test_chaos_soak `Sockets);
          Alcotest.test_case "live checker on healthy session" `Quick
            test_live_check_session;
          Alcotest.test_case "live checker rides the storm" `Quick
            (test_live_check_chaos `Mux);
          Alcotest.test_case "restart with recovery is atomic (mux)" `Quick
            (test_restart_recover `Mux);
          Alcotest.test_case "restart with recovery is atomic (sockets)" `Quick
            (test_restart_recover `Sockets);
          Alcotest.test_case "fresh restart yields a witness" `Quick
            test_restart_fresh;
        ] );
      ( "geo",
        [
          Alcotest.test_case "both compilations read the same matrices"
            `Quick test_geo_compilations_agree;
          QCheck_alcotest.to_alcotest geo_symmetry_prop;
          Alcotest.test_case "wan-3region live session atomic" `Quick
            test_geo_wan3_live_atomic;
        ] );
    ]
