(* Tests for the register protocols: the replica (Algorithm 2), the
   admissible predicate, and the behaviour of each protocol under both
   benign and adversarial schedules. *)

open Protocol
open Registers

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let tag ts wid = { Tstamp.ts; wid }
let value ts wid payload = { Wire.tag = tag ts wid; payload }

(* ------------------------------------------------------------------ *)
(* Tstamp                                                               *)
(* ------------------------------------------------------------------ *)

let test_tstamp_order () =
  check bool "ts dominates" true (Tstamp.compare (tag 1 9) (tag 2 0) < 0);
  check bool "wid breaks ties" true (Tstamp.compare (tag 2 0) (tag 2 1) < 0);
  check bool "initial smallest" true
    (Tstamp.compare Tstamp.initial (tag 0 0) < 0);
  check bool "max" true (Tstamp.equal (Tstamp.max (tag 1 0) (tag 1 1)) (tag 1 1));
  check bool "next" true (Tstamp.equal (Tstamp.next (tag 3 7) ~wid:2) (tag 4 2))

(* ------------------------------------------------------------------ *)
(* Replica (Algorithm 2)                                                *)
(* ------------------------------------------------------------------ *)

let test_replica_update_monotone () =
  let rep = Replica.create () in
  ignore (Replica.handle rep ~client:10 (Wire.Update (value 1 0 101)));
  check bool "current is v1" true
    (Tstamp.equal (Replica.current rep).Wire.tag (tag 1 0));
  ignore (Replica.handle rep ~client:11 (Wire.Update (value 3 1 103)));
  ignore (Replica.handle rep ~client:12 (Wire.Update (value 2 0 102)));
  check bool "older update does not regress current" true
    (Tstamp.equal (Replica.current rep).Wire.tag (tag 3 1));
  check int "all values retained" 4 (Replica.vector_size rep)

let test_replica_updated_sets () =
  let rep = Replica.create () in
  ignore (Replica.handle rep ~client:10 (Wire.Update (value 1 0 101)));
  ignore (Replica.handle rep ~client:11 (Wire.Update (value 1 0 101)));
  check (Alcotest.list int) "both updaters recorded" [ 10; 11 ]
    (Replica.updated_set rep (value 1 0 101))

let test_replica_query_folds_queue () =
  let rep = Replica.create () in
  let rep_ack = Replica.handle rep ~client:20 (Wire.Query [ value 2 1 102 ]) in
  (match rep_ack with
  | Wire.Read_ack { current; vector } ->
    check bool "queued value became current" true
      (Tstamp.equal current.Wire.tag (tag 2 1));
    check bool "vector carries it" true
      (List.exists (fun (v, _) -> Tstamp.equal v.Wire.tag (tag 2 1)) vector)
  | Wire.Write_ack _ -> Alcotest.fail "expected read ack");
  check (Alcotest.list int) "client enrolled" [ 20 ]
    (Replica.updated_set rep (value 2 1 102))

let test_replica_enrolls_reader_in_current () =
  (* The Lemma-8 rule: replying to a query adds the client to the
     *current* value's updated set even when the client didn't carry it. *)
  let rep = Replica.create () in
  ignore (Replica.handle rep ~client:10 (Wire.Update (value 1 0 101)));
  ignore (Replica.handle rep ~client:33 (Wire.Query []));
  check (Alcotest.list int) "reader enrolled in current" [ 10; 33 ]
    (Replica.updated_set rep (value 1 0 101))

let test_replica_initial_state () =
  let rep = Replica.create () in
  check bool "initial current" true
    (Tstamp.equal (Replica.current rep).Wire.tag Tstamp.initial);
  check int "initial vector" 1 (Replica.vector_size rep)

let test_replica_vector_pruned () =
  (* The valuevector is a recency window: past [max_vector] entries the
     smallest tags are evicted, and [current] (the largest) survives. *)
  let rep = Replica.create () in
  let n = Replica.max_vector + 10 in
  for ts = 1 to n do
    ignore (Replica.handle rep ~client:0 (Wire.Update (value ts 0 (100 + ts))))
  done;
  check int "window size" Replica.max_vector (Replica.vector_size rep);
  check bool "current retained" true
    (Tstamp.equal (Replica.current rep).Wire.tag (tag n 0));
  check (Alcotest.list int) "oldest evicted" []
    (Replica.updated_set rep (value 1 0 101));
  (* A pruned value a client still tracks is resurrected for the reply
     that echoes it — with the client enrolled — before the window is
     re-enforced (the certificate regeneration the bound relies on). *)
  match Replica.handle rep ~client:7 (Wire.Query [ value 1 0 101 ]) with
  | Wire.Read_ack { vector; _ } ->
    let _, updated =
      List.find (fun (v, _) -> Tstamp.equal v.Wire.tag (tag 1 0)) vector
    in
    check bool "echoed value certified in reply" true (List.mem 7 updated);
    check bool "window re-enforced after reply" true
      (Replica.vector_size rep <= Replica.max_vector)
  | Wire.Write_ack _ -> Alcotest.fail "expected read ack"

let test_replica_wire_updated_truncated () =
  (* READACKs carry at most [max_wire_updated] ids per entry, and the
     querying client is always among them; the replica's own set stays
     complete (recovery and the lemma tests need it). *)
  let rep = Replica.create () in
  let n = Replica.max_wire_updated + 20 in
  for c = 1 to n do
    ignore (Replica.handle rep ~client:c (Wire.Update (value 1 0 101)))
  done;
  let querier = n + 5 in
  (match Replica.handle rep ~client:querier (Wire.Query []) with
  | Wire.Read_ack { vector; _ } ->
    let _, updated =
      List.find (fun (v, _) -> Tstamp.equal v.Wire.tag (tag 1 0)) vector
    in
    check bool "wire set capped" true
      (List.length updated <= Replica.max_wire_updated);
    check bool "querier included" true (List.mem querier updated)
  | Wire.Write_ack _ -> Alcotest.fail "expected read ack");
  check int "replica set complete" (n + 1)
    (List.length (Replica.updated_set rep (value 1 0 101)))

let test_bound_queue () =
  let vs = List.init (Client_core.max_queue + 9) (fun i -> value (i + 1) 0 i) in
  let q = Client_core.bound_queue vs in
  check int "queue capped" Client_core.max_queue (List.length q);
  (match q with
  | hd :: _ ->
    check bool "largest first" true
      (Tstamp.equal hd.Wire.tag (tag (Client_core.max_queue + 9) 0))
  | [] -> Alcotest.fail "empty queue");
  check bool "descending" true
    (List.for_all2
       (fun (a : Wire.value) b -> Wire.compare_value a b > 0)
       (List.filteri (fun i _ -> i < List.length q - 1) q)
       (List.tl q))

(* ------------------------------------------------------------------ *)
(* The admissible predicate                                             *)
(* ------------------------------------------------------------------ *)

(* Build a READACK reply carrying [vector] entries (value, updated). *)
let ack server entries =
  let current =
    List.fold_left
      (fun acc (v, _) -> Wire.value_max acc v)
      Wire.initial_value_entry entries
  in
  (server, Wire.Read_ack { current; vector = entries })

let v1 = value 1 0 101

let test_admissible_degree1 () =
  (* All S−t = 4 replies carry v1 with a common updater: degree 1. *)
  let replies = List.init 4 (fun s -> ack s [ (v1, [ 10 ]) ]) in
  check bool "admissible a=1" true
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:1)

let test_admissible_needs_enough_messages () =
  let replies = [ ack 0 [ (v1, [ 10 ]) ]; ack 1 []; ack 2 []; ack 3 [] ] in
  check bool "one message is not S-t" false
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:1)

let test_admissible_needs_common_updaters () =
  (* Four messages with v1 but disjoint updated sets: no client is
     common to any large-enough subset, at any degree. *)
  let replies = List.init 4 (fun s -> ack s [ (v1, [ 10 + s ]) ]) in
  check bool "no common client at degree 1" false
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:1);
  check bool "no common pair at degree 2" false
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:2);
  (* Adding one shared client fixes degree 1. *)
  let shared = List.init 4 (fun s -> ack s [ (v1, [ 10 + s; 99 ]) ]) in
  check bool "shared client admissible" true
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies:shared ~degree:1)

let test_admissible_subset_choice () =
  (* Degree 2 allows dropping t messages: 3 of 4 messages share {10,11}. *)
  let replies =
    [
      ack 0 [ (v1, [ 10; 11 ]) ];
      ack 1 [ (v1, [ 10; 11 ]) ];
      ack 2 [ (v1, [ 10; 11 ]) ];
      ack 3 [ (v1, [ 12 ]) ];
    ]
  in
  check bool "subset with shared pair" true
    (Client_core.admissible ~s:5 ~t:1 ~value:v1 ~replies ~degree:2)

let test_admissible_degenerate_regime () =
  (* S − a·t <= 0: vacuously admissible — the unsafe-regime behaviour the
     threshold experiment relies on. *)
  check bool "degenerate true" true
    (Client_core.admissible ~s:4 ~t:2 ~value:v1 ~replies:[] ~degree:2)

let test_admissible_exact_threshold () =
  (* S=4, t=1: degree 3 needs only 1 message but 3 common updaters. *)
  let replies = [ ack 0 [ (v1, [ 10; 11; 12 ]) ] ] in
  check bool "one block server, 3 updaters, degree 3" true
    (Client_core.admissible ~s:4 ~t:1 ~value:v1 ~replies ~degree:3);
  let replies' = [ ack 0 [ (v1, [ 10; 11 ]) ] ] in
  check bool "only 2 updaters fails" false
    (Client_core.admissible ~s:4 ~t:1 ~value:v1 ~replies:replies' ~degree:3)

(* ------------------------------------------------------------------ *)
(* Protocol runs                                                        *)
(* ------------------------------------------------------------------ *)

let mixed_plans =
  [
    Runtime.write_plan ~writer:0 ~think:15.0 4;
    Runtime.write_plan ~writer:1 ~start_at:4.0 ~think:21.0 4;
    Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:9.0 8;
    Runtime.read_plan ~reader:1 ~start_at:2.0 ~think:13.0 8;
  ]

let run_register ?(s = 5) ?(t = 1) ?(w = 2) ?(r = 2) ?(seed = 1) ?adversary
    ?(plans = mixed_plans) register =
  let env =
    Env.make ~seed ~latency:(Simulation.Latency.uniform ~lo:1.0 ~hi:8.0) ~s ~t
      ~w ~r ()
  in
  Runtime.run ~register ~env ~plans ?adversary ()

let assert_atomic_run name out =
  let h = out.Runtime.history in
  check bool (name ^ ": well-formed") true (Histories.History.well_formed h = Ok ());
  check bool (name ^ ": wait-free") true
    (List.for_all Histories.Op.is_complete (Histories.History.ops h));
  (match Checker.Atomicity.check h with
  | Ok () -> ()
  | Error w -> Alcotest.failf "%s: atomicity violated: %s" name (Checker.Witness.to_string w));
  match Checker.Mw_properties.check_ok out.Runtime.tagged with
  | Ok () -> ()
  | Error w -> Alcotest.failf "%s: MWA violated: %s" name (Checker.Witness.to_string w)

let test_abd_mwmr_atomic () =
  for seed = 1 to 10 do
    assert_atomic_run "LS97" (run_register ~seed Registry.abd_mwmr)
  done

let test_fastread_atomic_safe_regime () =
  (* S=5, t=1, R=2 < S/t − 2 = 3: proven-correct regime. *)
  for seed = 1 to 10 do
    assert_atomic_run "W2R1" (run_register ~seed Registry.fastread_w2r1)
  done

(* A writer's first round must not enroll it in other writers' values:
   a certificate may name only a value's writer and the readers told
   about it, or its degree outgrows the R + 1 the predicate allows. *)
let test_writer_round_one_does_not_enroll () =
  let replicas = Array.init 5 (fun _ -> Replica.create ()) in
  let v = { Wire.tag = Tstamp.next Tstamp.initial ~wid:0; payload = 1 } in
  Array.iter (fun rep -> ignore (Replica.handle rep ~client:5 (Wire.Update v))) replicas;
  let ep =
    {
      Client_core.exec =
        (fun req k ->
          k (List.init 4 (fun i -> (i, Replica.handle replicas.(i) ~client:6 req))));
    }
  in
  let ctx = { Client_core.writer_ep = (fun _ -> ep); reader_ep = (fun _ -> ep); s = 5; t = 1; r = 2 } in
  let tag = ref None in
  Client_core.two_round_write ctx ~writer:1 ~payload:2
    ~last_written:(ref Wire.initial_value_entry) ~k:(fun t -> tag := t);
  check bool "the write learned the maximum" true
    (match !tag with Some t -> Tstamp.compare t v.Wire.tag > 0 | None -> false);
  check (Alcotest.list Alcotest.int) "writer 1 not enrolled in writer 0's value" [ 5 ]
    (Replica.updated_set replicas.(0) v)

(* A seeded random-skip run in the safe regime that used to end in a
   new/old inversion: writer 1's first-round query enrolled it in writer
   0's in-flight value, reader 0 certified that value with degree 3 from
   two servers, and reader 1 — needing degree 4 > R + 1 — fell back to
   the older value. *)
let test_fastread_writer_enrollment_seed () =
  let seed = 301092566 and w = 2 and r = 2 and ops = 3 in
  let env =
    Env.make ~seed ~latency:(Simulation.Latency.exponential ~mean:4.0) ~s:5 ~t:1 ~w ~r ()
  in
  let adversary =
    Workload.Adversary.random_skips ~seed ~topology:env.Env.topology ~t_budget:1
      ~window:30.0
  in
  let plans =
    List.init w (fun i ->
        Runtime.write_plan ~writer:i ~start_at:(float_of_int (3 * i))
          ~think:(10.0 +. float_of_int (7 * i)) ops)
    @ List.init r (fun i ->
          Runtime.read_plan ~reader:i ~start_at:(1.0 +. float_of_int i)
            ~think:(8.0 +. float_of_int (5 * i)) (2 * ops))
  in
  assert_atomic_run "W2R1 seed 301092566"
    (Runtime.run ~register:Registry.fastread_w2r1 ~env ~plans
       ~adversary:(Workload.Adversary.apply adversary) ())

let test_abd_swmr_atomic () =
  let plans =
    [
      Runtime.write_plan ~writer:0 ~think:10.0 6;
      Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:7.0 8;
      Runtime.read_plan ~reader:1 ~start_at:2.0 ~think:11.0 8;
    ]
  in
  for seed = 1 to 10 do
    assert_atomic_run "ABD-SW" (run_register ~seed ~w:1 ~plans Registry.abd_swmr)
  done

let test_dglv_atomic_safe_regime () =
  let plans =
    [
      Runtime.write_plan ~writer:0 ~think:10.0 6;
      Runtime.read_plan ~reader:0 ~start_at:1.0 ~think:7.0 8;
      Runtime.read_plan ~reader:1 ~start_at:2.0 ~think:11.0 8;
    ]
  in
  (* S=6, t=1, R=2 < 4: DGLV's safe regime. *)
  for seed = 1 to 10 do
    assert_atomic_run "DGLV" (run_register ~seed ~s:6 ~w:1 ~plans Registry.dglv_w1r1)
  done

let test_single_writer_protocols_reject_multi () =
  check bool "abd_swmr rejects" true
    (try ignore (run_register ~w:2 Registry.abd_swmr); false
     with Invalid_argument _ -> true);
  check bool "dglv rejects" true
    (try ignore (run_register ~w:2 Registry.dglv_w1r1); false
     with Invalid_argument _ -> true)

(* The deterministic writer-inversion schedule: the higher-id writer
   writes first; a naive fast write gives the later write a smaller
   timestamp, and the read then returns stale data. *)
let inversion_plans =
  [
    Runtime.write_plan ~writer:1 ~start_at:0.0 1;
    Runtime.write_plan ~writer:0 ~start_at:100.0 1;
    Runtime.read_plan ~reader:0 ~start_at:200.0 1;
  ]

let test_naive_w1r2_violates () =
  let out = run_register ~plans:inversion_plans Registry.naive_w1r2 in
  check bool "naive fast write not atomic" false
    (Checker.Atomicity.is_atomic out.Runtime.history);
  (match Checker.Atomicity.check out.Runtime.history with
  | Error w -> check Alcotest.string "stale read" "stale-read" (Checker.Witness.short w)
  | Ok () -> Alcotest.fail "expected violation");
  let report = Checker.Mw_properties.check out.Runtime.tagged in
  check bool "MWA0 violated too" true (report.Checker.Mw_properties.mwa0 <> None)

let test_naive_w1r1_violates () =
  let out = run_register ~plans:inversion_plans Registry.naive_w1r1 in
  check bool "naive W1R1 not atomic" false
    (Checker.Atomicity.is_atomic out.Runtime.history)

let test_slow_protocols_survive_inversion_schedule () =
  assert_atomic_run "LS97 inversion"
    (run_register ~plans:inversion_plans Registry.abd_mwmr);
  assert_atomic_run "W2R1 inversion"
    (run_register ~plans:inversion_plans Registry.fastread_w2r1)

let test_atomic_under_crash () =
  let adversary ctl engine =
    Simulation.Engine.schedule_at engine ~time:30.0 (fun () ->
        ctl.Control.crash_server 2)
  in
  for seed = 1 to 5 do
    assert_atomic_run "LS97 + crash"
      (run_register ~seed ~adversary Registry.abd_mwmr);
    assert_atomic_run "W2R1 + crash"
      (run_register ~seed ~adversary Registry.fastread_w2r1)
  done

let test_registry () =
  check int "eight protocols" 8 (List.length Registry.all);
  check int "four multi-writer" 4 (List.length Registry.multi_writer);
  check bool "find by substring" true
    (match Registry.find "ls97" with
    | Some r -> Registry.name r = Registry.name Registry.abd_mwmr
    | None -> false);
  check bool "find missing" true (Registry.find "zzz-nothing" = None);
  List.iter
    (fun r ->
      let dp = Registry.design_point r in
      check bool (Registry.name r ^ " has a design point") true
        (List.mem dp Quorums.Bounds.all_design_points))
    Registry.all

let test_design_points () =
  check bool "abd_mwmr W2R2" true
    (Registry.design_point Registry.abd_mwmr = Quorums.Bounds.W2R2);
  check bool "fastread W2R1" true
    (Registry.design_point Registry.fastread_w2r1 = Quorums.Bounds.W2R1);
  check bool "naive_w1r2 W1R2" true
    (Registry.design_point Registry.naive_w1r2 = Quorums.Bounds.W1R2);
  check bool "dglv W1R1" true
    (Registry.design_point Registry.dglv_w1r1 = Quorums.Bounds.W1R1)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "registers"
    [
      ("tstamp", [ tc "lexicographic order" test_tstamp_order ]);
      ( "replica",
        [
          tc "update monotone" test_replica_update_monotone;
          tc "updated sets" test_replica_updated_sets;
          tc "query folds queue" test_replica_query_folds_queue;
          tc "enrolls reader in current" test_replica_enrolls_reader_in_current;
          tc "initial state" test_replica_initial_state;
          tc "vector pruned to window" test_replica_vector_pruned;
          tc "wire updated sets truncated" test_replica_wire_updated_truncated;
          tc "valQueue bounded" test_bound_queue;
        ] );
      ( "admissible",
        [
          tc "degree 1" test_admissible_degree1;
          tc "needs messages" test_admissible_needs_enough_messages;
          tc "needs common updaters" test_admissible_needs_common_updaters;
          tc "subset choice" test_admissible_subset_choice;
          tc "degenerate regime" test_admissible_degenerate_regime;
          tc "exact threshold" test_admissible_exact_threshold;
        ] );
      ( "protocols",
        [
          tc "LS97 atomic" test_abd_mwmr_atomic;
          tc "W2R1 atomic in safe regime" test_fastread_atomic_safe_regime;
          tc "writer round 1 does not enroll" test_writer_round_one_does_not_enroll;
          tc "W2R1 writer-enrollment seed" test_fastread_writer_enrollment_seed;
          tc "ABD-SW atomic" test_abd_swmr_atomic;
          tc "DGLV atomic in safe regime" test_dglv_atomic_safe_regime;
          tc "single-writer guards" test_single_writer_protocols_reject_multi;
          tc "naive W1R2 violates" test_naive_w1r2_violates;
          tc "naive W1R1 violates" test_naive_w1r1_violates;
          tc "slow protocols survive inversion" test_slow_protocols_survive_inversion_schedule;
          tc "atomic under crash" test_atomic_under_crash;
          tc "registry" test_registry;
          tc "design points" test_design_points;
        ] );
    ]
