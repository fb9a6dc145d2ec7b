(* Tests of the benchmark harness's own logic: the percentile rule,
   due-time latency and failure accounting of the client loop, /proc
   parsing, metric-name syntax, and every correctness check firing on a
   bad input. *)

open Perfbench
open Histories
open Registers

let check_float msg want got = Alcotest.(check (float 1e-9)) msg want got

(* ---- percentiles ---- *)

let sample_of xs =
  let s = Sample.create () in
  List.iter (Sample.add s) xs;
  s

let test_nearest_rank () =
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  let s = sample_of xs in
  check_float "p50 of 1..100" 50.0 (Sample.percentile s ~pct:50);
  check_float "p99 of 1..100" 99.0 (Sample.percentile s ~pct:99);
  check_float "p100 is the max" 100.0 (Sample.percentile s ~pct:100);
  check_float "p1 is the min" 1.0 (Sample.percentile s ~pct:1);
  let big = sample_of (List.init 1000 (fun i -> float_of_int (i + 1))) in
  check_float "p99 of 1..1000 has ten samples beyond it" 990.0 (Sample.percentile big ~pct:99);
  check_float "one sample" 7.0 (Sample.percentile (sample_of [ 7.0 ]) ~pct:99);
  (* exact order statistics: two runs whose medians differ by less than
     a histogram bin still read differently *)
  let a = sample_of [ 1.000; 1.010; 1.020 ] and b = sample_of [ 1.000; 1.011; 1.020 ] in
  Alcotest.(check bool) "no binning" true (Sample.percentile a ~pct:50 <> Sample.percentile b ~pct:50)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Sample.percentile: no samples") (fun () ->
      ignore (Sample.percentile (Sample.create ()) ~pct:50));
  Alcotest.check_raises "pct 0" (Invalid_argument "Sample.percentile: pct not in 1..100")
    (fun () -> ignore (Sample.percentile (sample_of [ 1.0 ]) ~pct:0))

let test_growth_and_median () =
  let s = sample_of (List.init 5000 float_of_int) in
  Alcotest.(check int) "length" 5000 (Sample.length s);
  check_float "mean" 2499.5 (Sample.mean s);
  check_float "odd median" 2.0 (Sample.median_of [ 3.0; 1.0; 2.0 ]);
  check_float "even median" 2.5 (Sample.median_of [ 4.0; 1.0; 2.0; 3.0 ])

let test_slice_figure () =
  let xs = [ 5.0; 1.0; 4.0; 2.0; 3.0; 9.0; 7.0; 8.0 ] in
  check_float "a cost takes the lower quartile" 2.0 (Sample.slice_figure `Cost xs);
  check_float "a rate takes the upper quartile" 7.0 (Sample.slice_figure `Rate xs);
  check_float "one slice" 6.0 (Sample.slice_figure `Cost [ 6.0 ])

(* ---- host-speed calibration ---- *)

let test_calibration () =
  let a = Calib.create () in
  check_float "no unit ran: reference speed" 1.0 (Calib.slowdown a);
  a.Calib.time <- 3.0 *. Calib.reference_s *. 4.0;
  a.Calib.units <- 4;
  check_float "units three times slower than the reference" 3.0 (Calib.slowdown a);
  check_float "a time at the reference speed" 2.0 (Calib.time_at_reference ~slowdown:3.0 6.0);
  let b = Calib.create () in
  Calib.run b 2;
  Alcotest.(check int) "units counted" 2 b.Calib.units;
  Alcotest.(check bool) "units timed" true (b.Calib.time > 0.0 && b.Calib.cpu >= 0.0);
  Calib.add a b;
  Alcotest.(check int) "slices merge" 6 a.Calib.units;
  (* the unit's work is fixed: the same answer every time *)
  Alcotest.(check int) "deterministic unit" (Calib.unit_work ()) (Calib.unit_work ())

let test_meter () =
  check_float "no record: reference speed" 1.0 (Calib.meter_slowdown []);
  check_float "mean CPU over the reference" 2.0
    (Calib.meter_slowdown [ (0.0, Calib.meter_reference_s); (1.0, 3.0 *. Calib.meter_reference_s) ]);
  let m = Calib.start_meter () in
  Unix.sleepf 0.2;
  let recs = Calib.stop_meter m in
  Alcotest.(check bool) "units recorded" true (List.length recs >= 2);
  Alcotest.(check bool) "CPU times positive" true (List.for_all (fun (_, c) -> c > 0.0) recs);
  Alcotest.(check (list (pair (float 0.0) (float 0.0)))) "stopping twice is a no-op" [] (Calib.stop_meter m);
  Alcotest.(check bool) "child reaped" true
    (match Unix.waitpid [ Unix.WNOHANG ] m.Calib.pid with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false)

(* ---- the client loop: due-time latency and accounting ---- *)

let win ~t_end =
  { Live.t_start = 0.0; t_meas = 0.0; t_trace = t_end; t_end; slices = 1; slice_len = t_end }

(* A fake clock: [issue] advances it by the op's service time. *)
let fake_loop ~service ~fail_at =
  let clock = ref 0.0 in
  let now () = !clock and sleep d = clock := !clock +. d in
  let w = win ~t_end:10.0 in
  let st = Live.new_st ~win:w 0 in
  let issue _st n =
    if Some n = fail_at then raise (Transport.Endpoint.Unavailable "no quorum");
    let start = !clock in
    clock := !clock +. service n;
    (`Read, start, !clock)
  in
  let sched = Live.Open { period = 1.0; offset = 0.0 } in
  Live.run_client ~now ~sleep ~win:w ~sched st issue;
  (st, w, sched)

let test_due_time_latency () =
  (* op 3 stalls for 3.5s; op 4 is due at 4 but can start only at 6.5 *)
  let st, _, _ = fake_loop ~service:(fun n -> if n = 3 then 3.5 else 0.2) ~fail_at:None in
  let lats = Sample.to_array st.Live.lat_r.(0) in
  Alcotest.(check int) "all ten ops ran" 10 (Array.length lats);
  check_float "stalled op" 3.5 lats.(3);
  check_float "the next op is charged its wait from its due time" 2.7 lats.(4);
  check_float "and so is the one after" 1.9 lats.(5);
  check_float "caught up" 0.2 lats.(8);
  let late = Sample.to_array st.Live.late in
  check_float "generator lateness of op 4" 2.5 late.(4)

let test_failed_ops_counted () =
  let st, w, sched = fake_loop ~service:(fun _ -> 0.2) ~fail_at:(Some 5) in
  Alcotest.(check bool) "client aborted" true st.Live.aborted;
  let attempted, failed = Live.accounting ~win:w ~sched:[ sched ] [ st ] in
  Alcotest.(check int) "attempted keeps the ops never issued" 10 attempted;
  Alcotest.(check int) "failed = the aborted op and every op after it" 5 failed

let test_due_in_window () =
  let w = { Live.t_start = 0.0; t_meas = 1.0; t_trace = 3.0; t_end = 3.0; slices = 1; slice_len = 2.0 } in
  Alcotest.(check int) "due at 1.0, 1.5, 2.0, 2.5" 4 (Live.due_in_window ~win:w ~period:0.5 ~offset:0.0);
  Alcotest.(check int) "offset half a period" 4 (Live.due_in_window ~win:w ~period:0.5 ~offset:0.5)

(* ---- /proc parsing ---- *)

let test_proc_stat () =
  let line = "42 (a (b) c) S 1 1 1 0 -1 4194304 100 0 0 0 250 30 0 0 20 0 1 0 12345\n" in
  Alcotest.(check (option int)) "utime+stime after a name with spaces and parens" (Some 280)
    (Procfs.stat_cpu_ticks line);
  Alcotest.(check (option int)) "truncated" None (Procfs.stat_cpu_ticks "42 (x) S 1 2");
  Alcotest.(check (option int)) "schedstat" (Some 123456789) (Procfs.schedstat_ns "123456789 1000 42\n")

let test_proc_status_io () =
  let status = "Name:\tmwreg.exe\nVmHWM:\t    5120 kB\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n" in
  Alcotest.(check (option int)) "VmHWM" (Some 5120) (Procfs.field status "VmHWM");
  Alcotest.(check (option int)) "ctx switches" (Some 15) (Procfs.ctxsw status);
  Alcotest.(check (option int)) "absent" None (Procfs.field status "VmRSS");
  let io = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 4\n" in
  Alcotest.(check (option int)) "syscalls" (Some 13) (Procfs.io_syscalls io)

let test_proc_host () =
  let text = "cpu  100 5 50 800 20 0 3 7 0 0\ncpu0 50 2 25 400 10 0 1 3 0 0\n" in
  Alcotest.(check (option (triple int int int))) "steal, idle+iowait, total" (Some (7, 820, 985))
    (Procfs.host_ticks text);
  Alcotest.(check (option (triple int int int))) "not a stat file" None (Procfs.host_ticks "intr 1 2")

let test_proc_self () =
  let s = Procfs.self () in
  Alcotest.(check bool) "peak RSS read" true (s.Procfs.hwm_kb > 0);
  Alcotest.(check bool) "syscalls read" true (s.Procfs.syscalls > 0)

(* ---- metric names ---- *)

let test_metric_names () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "setup_s"; "mux.rt_p50_us"; "0x"; "a-b.c_d" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Metric.valid_name n))
    [ ""; ".x"; "_x"; "a b"; "a/b"; String.make 65 'a' ];
  let names = List.map (fun d -> d.Metric.name) Metric.catalogue in
  List.iter
    (fun d ->
      Alcotest.(check bool) ("valid name " ^ d.Metric.name) true (Metric.valid_name d.Metric.name);
      Alcotest.(check bool) ("valid unit " ^ d.Metric.unit_) true (Metric.valid_unit d.Metric.unit_))
    Metric.catalogue;
  Alcotest.(check int) "names used once" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is end to end" true
    (List.mem "setup_s" (Metric.names Metric.End_to_end))

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_render () =
  let full = List.map (fun n -> (n, 1.5)) (Metric.names Metric.End_to_end) in
  let r = { Metric.correct = true; attempted = 3; failed = 0; values = full } in
  Alcotest.(check bool) "complete result stays correct" true
    (contains (Metric.render ~scope:Metric.End_to_end r) "\"correct\": true");
  let missing = { r with Metric.values = List.tl full } in
  Alcotest.(check bool) "a missing metric makes it incorrect" true
    (contains (Metric.render ~scope:Metric.End_to_end missing) "\"correct\": false");
  let nan = { r with Metric.values = ("setup_s", Float.nan) :: List.tl full } in
  Alcotest.(check bool) "a non-finite value makes it incorrect" true
    (contains (Metric.render ~scope:Metric.End_to_end nan) "\"correct\": false")

(* ---- correctness checks ---- *)

let is_error = function Error _ -> true | Ok () -> false

let value ts wid payload = { Wire.tag = { Tstamp.ts; wid }; payload }

let test_fresh_servers () =
  let init = Wire.initial_value_entry in
  let fresh = [ (0, Wire.Read_ack { current = init; vector = [ (init, []) ] }) ] in
  Alcotest.(check bool) "fresh" false (is_error (Checks.fresh_replies fresh));
  let v = value 3 1 77 in
  let stale = (1, Wire.Read_ack { current = v; vector = [ (init, []); (v, [ 6 ]) ] }) :: fresh in
  Alcotest.(check bool) "a server holding an earlier run's write" true
    (is_error (Checks.fresh_replies stale))

let w id proc v inv resp = Op.write ~id ~proc:(Op.Writer proc) ~value:v ~inv ~resp:(Some resp)

let r id proc res inv resp = Op.read ~id ~proc:(Op.Reader proc) ~inv ~resp:(Some resp) ~result:(Some res)

let test_stale_history () =
  (* what a run against left-over servers records: its first read
     returns a value written by an earlier run *)
  let ops = [ r 0 0 424242 0.0 1.0; w 1 0 1 2.0 3.0; r 2 0 1 4.0 5.0 ] in
  Alcotest.(check bool) "batch" true (is_error (Checks.atomic (History.of_ops ops)));
  Alcotest.(check bool) "streaming" true (is_error (Checks.online ops));
  let good = [ w 0 0 1 0.0 1.0; r 1 0 1 2.0 3.0; w 2 1 2 2.5 4.0; r 3 1 2 5.0 6.0 ] in
  Alcotest.(check bool) "atomic batch" false (is_error (Checks.atomic (History.of_ops good)));
  Alcotest.(check bool) "atomic streaming" false (is_error (Checks.online good))

let test_prefix () =
  let ops = [ w 0 0 1 0.0 1.0; r 1 0 1 0.5 6.0; w 2 1 2 2.0 3.0; r 3 0 2 4.0 5.0 ] in
  let p = Checks.prefix ops ~n:2 in
  Alcotest.(check int) "ops invoked before the cut" 2 (List.length p);
  let read = List.find Op.is_read p in
  Alcotest.(check bool) "running at the cut becomes pending" true (read.Op.resp = None);
  Alcotest.(check bool) "prefix of an atomic history is atomic" false
    (is_error (Checks.atomic (History.of_ops p)));
  let bad = [ w 0 0 1 0.0 1.0; w 1 1 2 2.0 3.0; r 2 0 1 4.0 5.0; r 3 0 2 6.0 7.0 ] in
  Alcotest.(check bool) "a stale read inside the prefix is caught" true
    (is_error (Checks.atomic (History.of_ops (Checks.prefix bad ~n:3))))

let test_table1_cell () =
  let cell possible broken = Checks.table1_cell ~name:"cell" ~possible ~runs:33 ~broken in
  Alcotest.(check bool) "possible, all atomic" false (is_error (cell true 0));
  Alcotest.(check bool) "impossible, broken" false (is_error (cell false 4));
  Alcotest.(check bool) "possible but broken" true (is_error (cell true 1));
  Alcotest.(check bool) "impossible but never broken" true (is_error (cell false 0))

let test_rounds () =
  let dp = Quorums.Bounds.W2R1 in
  Alcotest.(check bool) "Table 1" false (is_error (Checks.rounds ~design_point:dp ~writes:[ 2 ] ~reads:[ 1 ]));
  Alcotest.(check bool) "a two-round read" true
    (is_error (Checks.rounds ~design_point:dp ~writes:[ 2 ] ~reads:[ 1; 2 ]));
  Alcotest.(check bool) "LS97 reads take two" false
    (is_error (Checks.rounds ~design_point:Quorums.Bounds.W2R2 ~writes:[ 2 ] ~reads:[ 2 ]))

let test_failures_retries_balance () =
  Alcotest.(check bool) "failed op" true (is_error (Checks.no_failures ~failed:1));
  Alcotest.(check bool) "retry" true (is_error (Checks.no_retries ~retries:2));
  Alcotest.(check bool) "clean" false (is_error (Checks.no_retries ~retries:0));
  let bal op_mean = Checks.span_balance ~self_per_op:10.0 ~rounds_per_op:1.5 ~rt_mean:60.0 ~op_mean () in
  Alcotest.(check bool) "spans add up" false (is_error (bal 101.0));
  Alcotest.(check bool) "spans off by 10%" true (is_error (bal 110.0));
  Alcotest.(check bool) "too few samples" true (is_error (Checks.samples ~kind:"read" ~min:1000 999))

(* ---- spans and replays ---- *)

let test_self_time () =
  let sp = Spans.create ~thread:0 in
  Spans.rt sp ~t0:1.0 ~t1:3.0;
  Spans.rt sp ~t0:4.0 ~t1:8.0;
  Spans.op sp ~kind:`Write ~t0:0.0 ~t1:10.0 ~rts:2;
  Spans.rt sp ~t0:11.0 ~t1:12.0;
  Spans.op sp ~kind:`Read ~t0:10.5 ~t1:12.5 ~rts:1;
  let self = Spans.self_times sp in
  check_float "write self time" 4.0 self.(0);
  check_float "read self time" 1.0 self.(1);
  Alcotest.(check int) "round trips" 3 (Sample.length (Spans.rt_durations sp))

let test_codec_replay () =
  let v = value 2 1 9 in
  let caps =
    [
      {
        Replay.key = "k";
        client = 5;
        group = 0;
        at = 0.0;
        req = Wire.Query [ v ];
        reps = [ (0, Wire.Read_ack { current = v; vector = [ (v, [ 5; 6 ]) ] }) ];
      };
      { Replay.key = "k"; client = 6; group = 0; at = 1.0; req = Wire.Update v; reps = [] };
    ]
  in
  let c = Replay.codec caps in
  Alcotest.(check bool) "frames round-trip" true c.Replay.codec_ok;
  Alcotest.(check bool) "reply bigger than request" true (c.Replay.rep_bytes > c.Replay.req_bytes);
  let k = Replay.keyspace ~group:0 caps in
  Alcotest.(check int) "one key, resident" 0 k.Replay.parked_keys;
  Alcotest.(check bool) "vector seen" true (k.Replay.vector_size >= 1.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "errors" `Quick test_percentile_errors;
          Alcotest.test_case "growth and median" `Quick test_growth_and_median;
          Alcotest.test_case "slice figure" `Quick test_slice_figure;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "slowdown and reference speed" `Quick test_calibration;
          Alcotest.test_case "speed meter" `Quick test_meter;
        ] );
      ( "client loop",
        [
          Alcotest.test_case "due-time latency" `Quick test_due_time_latency;
          Alcotest.test_case "failed ops counted" `Quick test_failed_ops_counted;
          Alcotest.test_case "due in window" `Quick test_due_in_window;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "stat and schedstat" `Quick test_proc_stat;
          Alcotest.test_case "status and io" `Quick test_proc_status_io;
          Alcotest.test_case "host" `Quick test_proc_host;
          Alcotest.test_case "self" `Quick test_proc_self;
        ] );
      ( "metric",
        [
          Alcotest.test_case "names" `Quick test_metric_names;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "checks",
        [
          Alcotest.test_case "fresh servers" `Quick test_fresh_servers;
          Alcotest.test_case "stale history" `Quick test_stale_history;
          Alcotest.test_case "prefix" `Quick test_prefix;
          Alcotest.test_case "table1 cell" `Quick test_table1_cell;
          Alcotest.test_case "rounds" `Quick test_rounds;
          Alcotest.test_case "failures, retries, span balance" `Quick test_failures_retries_balance;
        ] );
      ( "spans and replays",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "codec and keyspace replay" `Quick test_codec_replay;
        ] );
    ]
