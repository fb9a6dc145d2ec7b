(* The two live workloads: client threads in this process drive
   [Registry.client_algo] protocols over [Endpoint.keyed_endpoint] on
   [Mux.create] planes, against [mwreg serve] children spawned fresh for
   every set-up.

   A run has one schedule: a warm-up, then the measured window.  With
   tracing on, the window's first half runs untraced (the baseline for
   the trace overhead) and its second half records spans and captures
   frames; the per-layer figures come from that second half. *)

open Histories
open Registers
open Transport

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

type schedule =
  | Open of { period : float; offset : float }
      (** op [n] is due at [t_start + (n + offset) * period] *)
  | Closed  (** the next op is issued when the previous one completes *)

(* The untraced part of the window, [t_meas, t_trace), is cut into
   [slices] equal slices of about [slice_s] seconds. *)
type window = {
  t_start : float;
  t_meas : float;
  t_trace : float;
  t_end : float;
  slices : int;
  slice_len : float;
}

let slice_s = 5.0

let window ?(slice_s = slice_s) ~now ~warm ~seconds ~trace () =
  let t_start = now +. 0.01 in
  let t_meas = t_start +. warm in
  let t_end = t_meas +. seconds in
  let t_trace = if trace then t_meas +. (seconds /. 2.0) else t_end in
  let slices = max 1 (int_of_float ((t_trace -. t_meas) /. slice_s)) in
  { t_start; t_meas; t_trace; t_end; slices; slice_len = (t_trace -. t_meas) /. float_of_int slices }

let slice_of win t =
  min (win.slices - 1) (max 0 (int_of_float ((t -. win.t_meas) /. win.slice_len)))

let slice_starts win = List.init win.slices (fun k -> win.t_meas +. (float_of_int k *. win.slice_len))

let due ~win ~period ~offset n = win.t_start +. ((float_of_int n +. offset) *. period)

(* Ops an open-loop client was due to issue inside the measured window:
   the denominator of its failure ratio, whatever the client managed. *)
let due_in_window ~win ~period ~offset =
  let rec count n acc =
    let d = due ~win ~period ~offset n in
    if d >= win.t_end then acc else count (n + 1) (if d >= win.t_meas then acc + 1 else acc)
  in
  count 0 0

(* ------------------------------------------------------------------ *)
(* Per-thread state                                                    *)
(* ------------------------------------------------------------------ *)

type st = {
  mutable traced : bool;
  mutable rts : int;  (** round trips the current op has started *)
  mutable total_rts : int;
  spans : Spans.t;
  mutable captured : Replay.capture list;
  mutable n_captured : int;
  lat_r : Sample.t array;
      (** untraced measured reads per slice, from due (open) or issue (closed) *)
  lat_w : Sample.t array;
  slice_ops : int array;
  slice_last : float array;  (** completion time of the slice's last op *)
  lat_traced : Sample.t;
  late : Sample.t;  (** generator lateness: issue time minus due time *)
  mutable w_rounds : int list;  (** distinct round counts seen per kind *)
  mutable r_rounds : int list;
  mutable measured_ops : int;
  mutable traced_ops : int;
  mutable traced_rts : int;
  mutable service_sum : float;
  mutable service_n : int;
  mutable aborted : bool;
  mutable never_issued : int;  (** closed loop: ops an aborted client would have issued *)
  mutable history : Op.t list;
}

let new_st ~win idx =
  {
    traced = false;
    rts = 0;
    total_rts = 0;
    spans = Spans.create ~thread:idx;
    captured = [];
    n_captured = 0;
    lat_r = Array.init win.slices (fun _ -> Sample.create ());
    lat_w = Array.init win.slices (fun _ -> Sample.create ());
    slice_ops = Array.make win.slices 0;
    slice_last = Array.make win.slices 0.0;
    lat_traced = Sample.create ();
    late = Sample.create ();
    w_rounds = [];
    r_rounds = [];
    measured_ops = 0;
    traced_ops = 0;
    traced_rts = 0;
    service_sum = 0.0;
    service_n = 0;
    aborted = false;
    never_issued = 0;
    history = [];
  }

(* Requests are captured for the whole traced half (the keyspace
   replay needs one server's full request stream); replies only for the
   first [max_capture_reps] round trips of a thread, enough for the
   codec means without holding megabytes of value vectors live while
   the run is still being timed. *)
let max_capture = 50_000

let max_capture_reps = 1_000

(* The endpoint a protocol instance runs over: counts its round trips
   and, while the thread is traced, records each as a child span of the
   current op and captures its request and replies for the replays. *)
let wrap st ~key ~group ~node (ep : Endpoint.t) : Client_core.endpoint =
  let plain = Endpoint.keyed_endpoint ep ~key in
  {
    Client_core.exec =
      (fun req k ->
        st.rts <- st.rts + 1;
        if not st.traced then plain.Client_core.exec req k
        else begin
          let t0 = Clock.now () in
          plain.Client_core.exec req (fun reps ->
              let t1 = Clock.now () in
              Spans.rt st.spans ~t0 ~t1;
              if st.n_captured < max_capture then begin
                let reps = if st.n_captured < max_capture_reps then reps else [] in
                st.captured <- { Replay.key; client = node; group; at = t0; req; reps } :: st.captured;
                st.n_captured <- st.n_captured + 1
              end;
              k reps)
        end);
  }

let note_rounds st kind n =
  match kind with
  | `Write -> if not (List.mem n st.w_rounds) then st.w_rounds <- n :: st.w_rounds
  | `Read -> if not (List.mem n st.r_rounds) then st.r_rounds <- n :: st.r_rounds

(* One client's loop.  [issue st n] runs op [n] to completion and
   returns its kind with its issue and completion times; it raises
   [Endpoint.Unavailable] when no quorum answers, which ends the client.
   Open-loop latency runs from the due time, so a stall is charged to
   every op it delays, not only to the op that stalled. *)
let run_client ~now ~sleep ~win ~sched st issue =
  let n = ref 0 and stop = ref false in
  while not !stop do
    let due =
      match sched with
      | Open { period; offset } -> due ~win ~period ~offset !n
      | Closed -> now ()
    in
    if due >= win.t_end then stop := true
    else begin
      (match sched with
      | Open _ ->
        let t = now () in
        if due > t then sleep (due -. t)
      | Closed -> ());
      st.traced <- due >= win.t_trace;
      st.rts <- 0;
      match issue st !n with
      | kind, start, fin ->
        note_rounds st kind st.rts;
        st.total_rts <- st.total_rts + st.rts;
        st.service_sum <- st.service_sum +. (fin -. start);
        st.service_n <- st.service_n + 1;
        if due >= win.t_meas then begin
          let origin = match sched with Open _ -> due | Closed -> start in
          let lat = fin -. origin in
          if st.traced then begin
            Sample.add st.lat_traced lat;
            Spans.op st.spans ~kind ~t0:start ~t1:fin ~rts:st.rts;
            st.traced_ops <- st.traced_ops + 1;
            st.traced_rts <- st.traced_rts + st.rts
          end
          else begin
            let k = slice_of win origin in
            Sample.add (match kind with `Read -> st.lat_r.(k) | `Write -> st.lat_w.(k)) lat;
            st.slice_ops.(k) <- st.slice_ops.(k) + 1;
            st.slice_last.(k) <- Float.max st.slice_last.(k) fin;
            (match sched with Open _ -> Sample.add st.late (start -. due) | Closed -> ());
            st.measured_ops <- st.measured_ops + 1
          end
        end
      | exception Endpoint.Unavailable _ ->
        st.aborted <- true;
        stop := true;
        (match sched with
        | Open _ -> ()
        | Closed ->
          (* the ops this client would have issued in the rest of the
             window at its own pace still count as attempted *)
          let mean = if st.service_n = 0 then 1e-3 else st.service_sum /. float_of_int st.service_n in
          let from = Float.max (now ()) win.t_meas in
          st.never_issued <-
            (if due >= win.t_meas then 1 else 0)
            + int_of_float (Float.ceil (Float.max 0.0 (win.t_end -. from) /. Float.max mean 1e-6)))
    end;
    incr n
  done

let completed st = st.measured_ops + st.traced_ops

(* Attempted and failed ops in the measured window, over all clients. *)
let accounting ~win ~sched sts =
  let attempted =
    List.fold_left
      (fun acc (st, sched) ->
        match sched with
        | Open { period; offset } -> acc + due_in_window ~win ~period ~offset
        | Closed -> acc + completed st + st.never_issued)
      0 (List.combine sts sched)
  in
  let done_ = List.fold_left (fun acc st -> acc + completed st) 0 sts in
  (max attempted 1, max 0 (attempted - done_))

(* ------------------------------------------------------------------ *)
(* Server planes                                                       *)
(* ------------------------------------------------------------------ *)

type plane = { children : Servers.child list; muxes : Mux.t array }

let teardown p =
  Array.iter Mux.shutdown p.muxes;
  List.iter Servers.reap p.children

(* One set-up: spawn [groups * s] fresh servers, dial one mux plane per
   group, and complete one round trip on every group ([probe]). *)
let setup_once ~mwreg ~groups ~s ~t ~probe =
  let t0 = Clock.now () in
  let children =
    Servers.spawn ~mwreg (List.concat (List.init groups (fun _ -> List.init s Fun.id)))
  in
  let muxes =
    Array.init groups (fun g ->
        let addrs =
          List.filteri (fun i _ -> i / s = g) children |> List.map Servers.addr |> Array.of_list
        in
        Mux.create ~servers:addrs ~quorum:(s - t) ())
  in
  let verdicts = Array.to_list (Array.mapi probe muxes) in
  let dt = Clock.now () -. t0 in
  ({ children; muxes }, dt, verdicts)

let setup_reps = 5

(* Set up [setup_reps] times, keep the last plane; the set-up time is
   the median. *)
let setup ~mwreg ~groups ~s ~t ~probe =
  let rec go i times verdicts =
    let plane, dt, v = setup_once ~mwreg ~groups ~s ~t ~probe in
    let times = dt :: times and verdicts = v @ verdicts in
    if i = setup_reps then (plane, Sample.median_of times, verdicts)
    else begin
      teardown plane;
      go (i + 1) times verdicts
    end
  in
  go 1 [] []

(* The first query of a fresh server's key: answers must carry nothing
   but the initial value. *)
let probe_key ~node ~key mux =
  let h = Mux.client mux ~client:node in
  let replies = ref [] in
  Mux.exec ~key h (Wire.Query []) (fun r -> replies := r);
  Mux.release h;
  Checks.fresh_replies !replies

(* ------------------------------------------------------------------ *)
(* Running the clients                                                 *)
(* ------------------------------------------------------------------ *)

type gate = { m : Mutex.t; c : Condition.t; mutable finished : int; mutable released : bool }

type snaps = { self : Procfs.snapshot; servers : Procfs.snapshot list; gc : Gc.stat }

let snap plane =
  {
    self = Procfs.self ();
    servers = List.map (fun (c : Servers.child) -> Procfs.child c.Servers.pid) plane.children;
    gc = Gc.quick_stat ();
  }

let sleep_until t =
  let d = t -. Clock.now () in
  if d > 0.0 then Thread.delay d

(* Run every client until the window closes.  Returns process snapshots
   taken at each of [marks] and after the last op, all while every
   client thread is still alive. *)
let drive ~plane ~win ~marks ~clients =
  let gate = { m = Mutex.create (); c = Condition.create (); finished = 0; released = false } in
  let body (st, sched, issue) =
    run_client ~now:Clock.now ~sleep:Thread.delay ~win ~sched st issue;
    Mutex.protect gate.m (fun () ->
        gate.finished <- gate.finished + 1;
        Condition.broadcast gate.c;
        while not gate.released do
          Condition.wait gate.c gate.m
        done)
  in
  let threads = List.map (Thread.create body) clients in
  let at_marks =
    List.map
      (fun t ->
        sleep_until t;
        snap plane)
      marks
  in
  let n = List.length clients in
  Mutex.protect gate.m (fun () ->
      while gate.finished < n do
        Condition.wait gate.c gate.m
      done);
  let last = snap plane in
  Mutex.protect gate.m (fun () ->
      gate.released <- true;
      Condition.broadcast gate.c);
  List.iter Thread.join threads;
  at_marks @ [ last ]

(* ------------------------------------------------------------------ *)
(* Metrics shared by both live workloads                               *)
(* ------------------------------------------------------------------ *)

let us x = x *. 1e6

let mb kb = float_of_int kb /. 1024.0

let alloc_words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

type outcome = {
  values : (string * float) list;
  attempted : int;
  failed : int;
  errors : string list;
  info : string list;  (** human lines printed before the result *)
  traces : Spans.t list;
}

(* Samples per op kind: over the window, ten beyond a p99; in every
   slice, ten beyond a p90 (and fifty beyond its p50). *)
let min_samples = 1000

let min_slice_samples = 100

let cpu_between a b =
  (Procfs.diff a.self b.self).Procfs.cpu_s
  +. List.fold_left2 (fun acc x y -> acc +. (Procfs.diff x y).Procfs.cpu_s) 0.0 a.servers b.servers

(* End-to-end figures of an untraced window.  [snaps] holds one
   snapshot per slice start and one after the last op.  Each figure is
   computed per slice, at the reference speed of [Calib] by the slice's
   [speed] meter records, and the run reports [Sample.slice_figure] of
   them; [setup_s] is taken to the reference speed by the records
   before the window.  Throughput is a CPU-bound rate only in a
   [closed] loop; in the open loop it is the offered rate and stays as
   measured. *)
let end_to_end ~setup_s ~win ~sts ~snaps ~speed ~closed =
  let per_slice f = List.init win.slices f in
  let slow =
    Array.of_list
      (per_slice (fun k ->
           Calib.meter_slowdown
             (List.filter (fun (t, _) -> t >= win.t_meas && t < win.t_trace && slice_of win t = k) speed)))
  in
  let at_ref k x = Calib.time_at_reference ~slowdown:slow.(k) x in
  let slice get k = Sample.concat (List.map (fun st -> (get st).(k)) sts) in
  let reads st = st.lat_r and writes st = st.lat_w in
  let pct s p = if Sample.length s = 0 then 0.0 else us (Sample.percentile s ~pct:p) in
  let lat get p = per_slice (fun k -> at_ref k (pct (slice get k) p)) in
  let ops k = List.fold_left (fun a st -> a + st.slice_ops.(k)) 0 sts in
  let snaps = Array.of_list snaps in
  (* ops completed over the time they took: from the slice's start to
     the completion of its last op *)
  let throughput =
    per_slice (fun k ->
        let start = win.t_meas +. (float_of_int k *. win.slice_len) in
        let last = List.fold_left (fun a st -> Float.max a st.slice_last.(k)) start sts in
        let time = Float.max (last -. start) 1e-3 in
        float_of_int (ops k) /. if closed then at_ref k time else time)
  in
  let cpu =
    per_slice (fun k -> at_ref k (us (cpu_between snaps.(k) snaps.(k + 1))) /. float_of_int (max 1 (ops k)))
  in
  let setup_s =
    Calib.time_at_reference
      ~slowdown:(Calib.meter_slowdown (List.filter (fun (t, _) -> t < win.t_meas) speed))
      setup_s
  in
  let last = snaps.(Array.length snaps - 1) in
  let rss = last.self.Procfs.hwm_kb + (Procfs.sum last.servers).Procfs.hwm_kb in
  let cost xs = Sample.slice_figure `Cost xs in
  let values =
    [
      ("setup_s", setup_s);
      ("throughput_ops_s", Sample.slice_figure `Rate throughput);
      ("read_p50_us", cost (lat reads 50));
      ("write_p50_us", cost (lat writes 50));
      ("cpu_us_per_op", cost cpu);
      ("peak_rss_mb", mb rss);
    ]
  in
  let show xs = String.concat " " (List.map (Printf.sprintf "%.0f") xs) in
  let fewest get = List.fold_left min max_int (per_slice (fun k -> Sample.length (slice get k))) in
  let pooled get = Sample.concat (List.concat_map (fun st -> Array.to_list (get st)) sts) in
  let n_reads = Sample.length (pooled reads) and n_writes = Sample.length (pooled writes) in
  let info =
    [
      Printf.sprintf "%d slices of %.2f s, at least %d reads and %d writes each" win.slices
        win.slice_len (fewest reads) (fewest writes);
      Printf.sprintf "at the reference speed, slice read p50 / p90 us: [%s] / [%s]" (show (lat reads 50))
        (show (lat reads 90));
      Printf.sprintf "at the reference speed, slice write p50 / p90 us: [%s] / [%s]" (show (lat writes 50))
        (show (lat writes 90));
      Printf.sprintf "slice ops/s%s: [%s]; at the reference speed, cpu us/op: [%s]"
        (if closed then " at the reference speed" else "")
        (show throughput) (show cpu);
      Printf.sprintf "slice host slowdown: [%s] (%d meter units)"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") slow)))
        (List.length speed);
      Printf.sprintf "as measured, window read p99 %.0f us (n=%d), write p99 %.0f us (n=%d)"
        (pct (pooled reads) 99) n_reads (pct (pooled writes) 99) n_writes;
    ]
  in
  let errors =
    Checks.all
      [
        Checks.samples ~kind:"read" ~min:min_samples n_reads;
        Checks.samples ~kind:"write" ~min:min_samples n_writes;
        Checks.samples ~kind:"read-per-slice" ~min:min_slice_samples (fewest reads);
        Checks.samples ~kind:"write-per-slice" ~min:min_slice_samples (fewest writes);
      ]
  in
  (values, info, errors)

let per_layer ~sts ~snaps ~servers_per_rt ~muxes ~handles =
  let s1, s2 =
    match List.rev snaps with last :: at_trace :: _ -> (at_trace, last) | _ -> assert false
  in
  let spans = List.map (fun st -> st.spans) sts in
  let ops = List.fold_left (fun a st -> a + st.traced_ops) 0 sts in
  let rts = List.fold_left (fun a st -> a + st.traced_rts) 0 sts in
  let fops = float_of_int (max ops 1) and frts = float_of_int (max rts 1) in
  let self = List.concat_map (fun sp -> Array.to_list (Spans.self_times sp)) spans in
  let self_mean = List.fold_left ( +. ) 0.0 self /. fops in
  let op_span_mean =
    List.fold_left
      (fun a sp ->
        let s = ref a in
        for i = 0 to sp.Spans.ops - 1 do
          s := !s +. (sp.Spans.op_end.Sample.data.(i) -. sp.Spans.op_start.Sample.data.(i))
        done;
        !s)
      0.0 spans
    /. fops
  in
  let rt = Sample.concat (List.map Spans.rt_durations spans) in
  let rounds kind =
    let total = ref 0 and n = ref 0 in
    List.iter
      (fun sp ->
        for i = 0 to sp.Spans.ops - 1 do
          if Buffer.nth sp.Spans.op_kind i = kind then begin
            total := !total + int_of_float sp.Spans.op_rts.Sample.data.(i);
            incr n
          end
        done)
      spans;
    if !n = 0 then 0.0 else float_of_int !total /. float_of_int !n
  in
  let dself = Procfs.diff s1.self s2.self in
  let dservers = List.map2 Procfs.diff s1.servers s2.servers |> Procfs.sum in
  let server_reqs = frts *. float_of_int servers_per_rt in
  let total_rts = List.fold_left (fun a st -> a + st.total_rts) 0 sts in
  let late = List.fold_left (fun a h -> a + Mux.late_replies h) 0 handles in
  let pct p = if Sample.length rt = 0 then 0.0 else us (Sample.percentile rt ~pct:p) in
  let rt_mean = Sample.mean rt in
  let values =
    [
      ("client_core.self_us_per_op", us self_mean);
      ("client_core.op_mean_us", us op_span_mean);
      ("client_core.rounds_per_write", rounds 'w');
      ("client_core.rounds_per_read", rounds 'r');
      ("mux.rt_p50_us", pct 50);
      ("mux.rt_p99_us", pct 99);
      ("mux.rt_mean_us", us rt_mean);
      ("mux.retries", float_of_int (List.fold_left (fun a h -> a + Mux.retries h) 0 handles));
      ("mux.dropped_replies", float_of_int (Array.fold_left (fun a m -> a + Mux.dropped_replies m) 0 muxes));
      ("mux.late_per_rt", float_of_int late /. float_of_int (max total_rts 1));
      ("client.cpu_us_per_op", us dself.Procfs.cpu_s /. fops);
      ("client.syscalls_per_rt", float_of_int dself.Procfs.syscalls /. frts);
      ("client.ctxsw_per_rt", float_of_int dself.Procfs.ctx_switches /. frts);
      ("client.alloc_words_per_op", (alloc_words s2.gc -. alloc_words s1.gc) /. fops);
      ( "client.major_gcs_per_kop",
        float_of_int (s2.gc.Gc.major_collections - s1.gc.Gc.major_collections) *. 1000.0 /. fops );
      ("server.cpu_us_per_rt", us dservers.Procfs.cpu_s /. server_reqs);
      ("server.syscalls_per_rt", float_of_int dservers.Procfs.syscalls /. server_reqs);
      ("server.ctxsw_per_rt", float_of_int dservers.Procfs.ctx_switches /. server_reqs);
      ("server.peak_rss_mb", mb (Procfs.sum s2.servers).Procfs.hwm_kb);
    ]
  in
  let rounds_per_op = frts /. fops in
  let balance =
    Checks.span_balance ~self_per_op:self_mean ~rounds_per_op ~rt_mean ~op_mean:op_span_mean ()
  in
  let untraced =
    Sample.concat (List.concat_map (fun st -> Array.to_list st.lat_r @ Array.to_list st.lat_w) sts)
  in
  let traced = Sample.concat (List.map (fun st -> st.lat_traced) sts) in
  (* the untraced half's tail, pooled over its slices *)
  let tail get =
    let s = Sample.concat (List.concat_map (fun st -> Array.to_list (get st)) sts) in
    if Sample.length s = 0 then 0.0 else us (Sample.percentile s ~pct:99)
  in
  let overhead =
    if Sample.length untraced = 0 || Sample.length traced = 0 then 0.0
    else Sample.percentile traced ~pct:50 /. Sample.percentile untraced ~pct:50
  in
  let info =
    [
      Printf.sprintf
        "span balance: self %.2f us + %.3f rounds x rt %.2f us = %.2f us vs op mean %.2f us"
        (us self_mean) rounds_per_op (us rt_mean)
        (us self_mean +. (rounds_per_op *. us rt_mean))
        (us op_span_mean);
      Printf.sprintf "mux.rt_p50_us %.1f mux.rt_p99_us %.1f (n=%d)" (pct 50) (pct 99) (Sample.length rt);
    ]
  in
  ( values
    @ [
        ("tail.read_p99_us", tail (fun st -> st.lat_r));
        ("tail.write_p99_us", tail (fun st -> st.lat_w));
        ("bench.trace_overhead", overhead);
      ],
    info,
    Checks.all [ balance ] )

let captures sts = List.concat_map (fun st -> List.rev st.captured) sts

let replays ~group sts =
  let caps = captures sts in
  let c = Replay.codec caps in
  let k = Replay.keyspace ~group caps in
  ( [
      ("codec.req_bytes", c.Replay.req_bytes);
      ("codec.rep_bytes", c.Replay.rep_bytes);
      ("codec.encode_ns", c.Replay.encode_ns);
      ("codec.decode_ns", c.Replay.decode_ns);
      ("keyspace.handle_ns", k.Replay.handle_ns);
      ("keyspace.parked_keys", float_of_int k.Replay.parked_keys);
      ("replica.vector_size", k.Replay.vector_size);
    ],
    if c.Replay.codec_ok then [] else [ "codec replay: a captured frame did not round-trip" ] )

let zero names = List.map (fun n -> (n, 0.0)) names

(* ------------------------------------------------------------------ *)
(* reg-w2r1-open                                                       *)
(* ------------------------------------------------------------------ *)

type cfg = { mwreg : string; seed : int; seconds : float; trace : bool }

let warm = 1.0

let client_seed ~seed i = (seed * 1_000_003) + ((i + 1) * 7919)

(* Written values are unique per run: client [i] owns a block, whose
   top part from [preload_base] is for the kv preload. *)
let value_of ~client n = History.initial_value + 1 + (client * 100_000_000) + n

let preload_base = 90_000_000

let reg_w2r1_open cfg =
  let speed = Calib.start_meter () in
  let s = 5 and t = 1 and w = 2 and r = 2 and rate = 1000.0 and key = "reg" in
  let register = Registry.fastread_w2r1 in
  let algo = Registry.client_algo register in
  let plane, setup_s, fresh =
    setup ~mwreg:cfg.mwreg ~groups:1 ~s ~t ~probe:(fun _ mux -> probe_key ~node:(s + w) ~key mux)
  in
  let mux = plane.muxes.(0) in
  let win = window ~now:(Clock.now ()) ~warm ~seconds:cfg.seconds ~trace:cfg.trace () in
  let handles = ref [] in
  let client i =
    let st = new_st ~win i in
    let handle node =
      let h = Mux.client mux ~client:node in
      handles := h :: !handles;
      wrap st ~key ~group:0 ~node (Endpoint.of_mux h)
    in
    let wep = handle (s + i) and rep = handle (s + w + i) in
    let ctx = { Client_core.writer_ep = (fun _ -> wep); reader_ep = (fun _ -> rep); s; t; r } in
    let write = algo.Client_core.new_writer ctx ~writer:i in
    let read = algo.Client_core.new_reader ctx ~reader:i in
    let rng = Simulation.Rng.create ~seed:(client_seed ~seed:cfg.seed i) in
    let issue st n =
      let start = Clock.now () in
      let fin = ref start in
      if Simulation.Rng.bool rng then begin
        let value = value_of ~client:i n in
        let pending () = Op.write ~id:0 ~proc:(Op.Writer i) ~value ~inv:start ~resp:None in
        (try write ~payload:value ~k:(fun _ -> fin := Clock.now ())
         with Endpoint.Unavailable _ as e ->
           st.history <- pending () :: st.history;
           raise e);
        st.history <- Op.write ~id:0 ~proc:(Op.Writer i) ~value ~inv:start ~resp:(Some !fin) :: st.history;
        (`Write, start, !fin)
      end
      else begin
        let result = ref None in
        read ~k:(fun v _ ->
            fin := Clock.now ();
            result := Some v);
        st.history <- Op.read ~id:0 ~proc:(Op.Reader i) ~inv:start ~resp:(Some !fin) ~result:!result :: st.history;
        (`Read, start, !fin)
      end
    in
    (st, Open { period = 2.0 /. rate; offset = float_of_int i /. 2.0 }, issue)
  in
  let clients = List.init w client in
  let marks = slice_starts win @ if cfg.trace then [ win.t_trace ] else [] in
  let snaps = drive ~plane ~win ~marks ~clients in
  let speed = Calib.stop_meter speed in
  let sts = List.map (fun (st, _, _) -> st) clients in
  let scheds = List.map (fun (_, sc, _) -> sc) clients in
  let attempted, failed = accounting ~win ~sched:scheds sts in
  (* The whole history, warm-up included, is checked off the latency
     path: all of it by the streaming checker, and its first
     [Checks.batch_prefix] ops by the batch checker too, whose cost
     grows with the square of the history. *)
  let ops =
    List.concat_map (fun st -> st.history) sts
    |> List.sort (fun (a : Op.t) b -> compare (a.Op.inv, a.Op.proc) (b.Op.inv, b.Op.proc))
    |> List.mapi (fun id (o : Op.t) -> { o with Op.id })
  in
  let online = Checks.online ops in
  let prefix = Checks.prefix ops ~n:Checks.batch_prefix in
  let t_check, atomic = Replay.time (fun () -> Checks.atomic (History.of_ops prefix)) in
  let retries = List.fold_left (fun a h -> a + Mux.retries h) 0 !handles in
  let dp = Quorums.Bounds.W2R1 in
  let checks =
    fresh
    @ [
        online;
        atomic;
        Checks.rounds ~design_point:dp
          ~writes:(List.concat_map (fun st -> st.w_rounds) sts)
          ~reads:(List.concat_map (fun st -> st.r_rounds) sts);
        Checks.no_failures ~failed;
        Checks.no_retries ~retries;
      ]
  in
  let result =
    if not cfg.trace then begin
      let values, info, errs = end_to_end ~setup_s ~win ~sts ~snaps ~speed ~closed:false in
      { values; attempted; failed; errors = Checks.all checks @ errs; info; traces = [] }
    end
    else begin
      let values, info, errs =
        per_layer ~sts ~snaps ~servers_per_rt:s ~muxes:plane.muxes ~handles:!handles
      in
      let rvalues, rerrs = replays ~group:0 sts in
      let late = Sample.concat (List.map (fun st -> st.late) sts) in
      let done_ = List.fold_left (fun a st -> a + completed st) 0 sts in
      let values =
        values @ rvalues
        @ [
            ("atomicity.check_us_per_op", us t_check /. float_of_int (max 1 (List.length prefix)));
            ( "bench.gen_late_p99_us",
              if Sample.length late = 0 then 0.0 else us (Sample.percentile late ~pct:99) );
            ("bench.achieved_over_offered", float_of_int done_ /. (rate *. cfg.seconds));
          ]
        @ zero
            [
              "online.checker_ops_s"; "online.busy_share"; "online.peak_window";
              "runtime.events_per_run"; "runtime.ns_per_event"; "runtime.share";
              "atomicity.share"; "threshold.share";
            ]
      in
      { values; attempted; failed; errors = Checks.all checks @ errs @ rerrs; info; traces = List.map (fun st -> st.spans) sts }
    end
  in
  teardown plane;
  result

(* ------------------------------------------------------------------ *)
(* kv-zipf-closed                                                      *)
(* ------------------------------------------------------------------ *)

(* 10,000 keys per shard group: more than the 4,096-replica hot set of
   each server, yet few enough to write them all before the window
   ([preload]) in a few seconds. *)
let kv_keys = 20_000

(* Besides the vCPUs' speed, which the speed meter takes out, a
   saturated kv run is hurt by the host taking its vCPUs away: every op
   wakes processes on both vCPUs, so a stretch of steal cuts throughput
   by far more than its share of CPU (a run with 17% steal fell from
   4,000 to 1,300 ops/s per second in its second half, while a fixed CPU
   loop slowed by a fifth).  Such stretches last seconds to minutes, so
   the run is cut into one-second slices and reports their better
   quartile, which holds while the host was calm for a quarter of the
   run. *)
let kv_slice_s = 1.0

(* Every key is written once, by the client that owns it
   ([rank mod clients]), before the window opens: the servers'
   keyspaces and the checker's per-key state start at full size.
   Otherwise they grow with the distinct keys a run happens to touch,
   and a zipfian run keeps reaching new keys, so peak memory would
   follow how many ops the host let the run complete (158-206 MB over
   runs of the same code).  Each client writes its keys with fresh
   writer instances on mux handles it releases afterwards.  Returns
   errors and the handles' retries. *)
let preload ~algo ~plane ~placement ~ports ~s ~t =
  let nclients = Array.length ports in
  let errors = Array.make nclients [] and retries = Array.make nclients 0 in
  let body i =
    let port = ports.(i) and node = s + i in
    let hs = Array.map (fun mux -> Mux.client mux ~client:node) plane.muxes in
    let eps = Array.map Endpoint.of_mux hs in
    (try
       let rank = ref i in
       while !rank < kv_keys do
         let key = Workload.Ycsb.key_name !rank in
         let ep = Endpoint.keyed_endpoint eps.(Kv.Placement.group_of placement key) ~key in
         let ctx = { Client_core.writer_ep = (fun _ -> ep); reader_ep = (fun _ -> ep); s; t; r = nclients } in
         let write = algo.Client_core.new_writer ctx ~writer:i in
         let value = value_of ~client:i (preload_base + !rank) in
         let start = Check_sink.invoked port in
         let fin = ref start in
         (try write ~payload:value ~k:(fun _ -> fin := Clock.now ())
          with Endpoint.Unavailable _ as e ->
            Check_sink.completed port ~key (Op.write ~id:0 ~proc:(Op.Writer i) ~value ~inv:start ~resp:None);
            raise e);
         Check_sink.completed port ~key
           (Op.write ~id:0 ~proc:(Op.Writer i) ~value ~inv:start ~resp:(Some !fin));
         rank := !rank + nclients
       done
     with Endpoint.Unavailable _ -> errors.(i) <- [ Printf.sprintf "preload: client %d lost its quorum" i ]);
    retries.(i) <- Array.fold_left (fun a h -> a + Mux.retries h) 0 hs;
    Array.iter Mux.release hs
  in
  List.iter Thread.join (List.init nclients (Thread.create body));
  (List.concat (Array.to_list errors), Array.fold_left ( + ) 0 retries)

let kv_zipf_closed cfg =
  let speed = Calib.start_meter () in
  let groups = 2 and s = 3 and t = 1 and nclients = 2 in
  let register = Registry.abd_mwmr in
  let algo = Registry.client_algo register in
  let ycsb = Workload.Ycsb.create ~dist:(Workload.Ycsb.Zipfian Workload.Ycsb.default_theta) ~keys:kv_keys in
  let placement = Kv.Placement.make ~groups () in
  let hottest g =
    let rec go rank =
      let k = Workload.Ycsb.key_name rank in
      if Kv.Placement.group_of placement k = g then k else go (rank + 1)
    in
    go 0
  in
  let plane, setup_s, fresh =
    setup ~mwreg:cfg.mwreg ~groups ~s ~t ~probe:(fun g mux -> probe_key ~node:s ~key:(hottest g) mux)
  in
  let sink = Check_sink.create ~now:Clock.now () in
  let ports = Array.init nclients (fun _ -> Check_sink.port sink) in
  Check_sink.start sink;
  let sink_t0 = Clock.now () in
  let preload_errors, preload_retries = preload ~algo ~plane ~placement ~ports ~s ~t in
  let win = window ~slice_s:kv_slice_s ~now:(Clock.now ()) ~warm ~seconds:cfg.seconds ~trace:cfg.trace () in
  let handles = ref [] in
  let client i =
    let st = new_st ~win i in
    let node = s + i in
    let port = ports.(i) in
    let eps =
      Array.map
        (fun mux ->
          let h = Mux.client mux ~client:node in
          handles := h :: !handles;
          Endpoint.of_mux h)
        plane.muxes
    in
    let ctx_of key =
      let g = Kv.Placement.group_of placement key in
      let ep = wrap st ~key ~group:g ~node eps.(g) in
      { Client_core.writer_ep = (fun _ -> ep); reader_ep = (fun _ -> ep); s; t; r = nclients }
    in
    let writers = Hashtbl.create 4096 and readers = Hashtbl.create 4096 in
    let memo tbl key make =
      match Hashtbl.find_opt tbl key with
      | Some f -> f
      | None ->
        let f = make (ctx_of key) in
        Hashtbl.replace tbl key f;
        f
    in
    let writer key = memo writers key (fun ctx -> algo.Client_core.new_writer ctx ~writer:i) in
    let reader key = memo readers key (fun ctx -> algo.Client_core.new_reader ctx ~reader:i) in
    (* every key's instances up front, so the client's memory does not
       grow with the keys the run touches either *)
    for rank = 0 to kv_keys - 1 do
      let key = Workload.Ycsb.key_name rank in
      let (_ : Client_core.writer_fn) = writer key and (_ : Client_core.reader_fn) = reader key in
      ()
    done;
    let rng = Simulation.Rng.create ~seed:(client_seed ~seed:cfg.seed i) in
    let issue _st n =
      let key = Workload.Ycsb.key_name (Workload.Ycsb.next_key ycsb rng) in
      match Workload.Ycsb.next_op Workload.Ycsb.A rng with
      | `Write ->
        let write = writer key in
        let value = value_of ~client:i n in
        let start = Check_sink.invoked port in
        let fin = ref start in
        (try write ~payload:value ~k:(fun _ -> fin := Clock.now ())
         with Endpoint.Unavailable _ as e ->
           Check_sink.completed port ~key
             (Op.write ~id:0 ~proc:(Op.Writer i) ~value ~inv:start ~resp:None);
           raise e);
        Check_sink.completed port ~key
          (Op.write ~id:0 ~proc:(Op.Writer i) ~value ~inv:start ~resp:(Some !fin));
        (`Write, start, !fin)
      | `Read ->
        let read = reader key in
        let start = Check_sink.invoked port in
        let fin = ref start and result = ref None in
        (try
           read ~k:(fun v _ ->
               fin := Clock.now ();
               result := Some v)
         with Endpoint.Unavailable _ as e ->
           Check_sink.completed port ~key (Op.read ~id:0 ~proc:(Op.Reader i) ~inv:start ~resp:None ~result:None);
           raise e);
        Check_sink.completed port ~key
          (Op.read ~id:0 ~proc:(Op.Reader i) ~inv:start ~resp:(Some !fin) ~result:!result);
        (`Read, start, !fin)
    in
    (st, Closed, issue)
  in
  let clients = List.init nclients client in
  let marks = slice_starts win @ if cfg.trace then [ win.t_trace ] else [] in
  let snaps = drive ~plane ~win ~marks ~clients in
  let speed = Calib.stop_meter speed in
  let report = Check_sink.stop sink in
  let sink_time = Clock.now () -. sink_t0 in
  let sts = List.map (fun (st, _, _) -> st) clients in
  let scheds = List.map (fun (_, sc, _) -> sc) clients in
  let attempted, failed = accounting ~win ~sched:scheds sts in
  let retries = preload_retries + List.fold_left (fun a h -> a + Mux.retries h) 0 !handles in
  let checks =
    fresh
    @ List.map Result.error preload_errors
    @ [
        (if Check_sink.atomic report then Ok ()
         else
           Error
             (Printf.sprintf "streaming checker: %d keys not atomic"
                (List.length (List.filter (fun (_, v) -> Result.is_error v) report.Check_sink.verdicts)
                + List.length report.Check_sink.violations)));
        Checks.rounds ~design_point:Quorums.Bounds.W2R2
          ~writes:(List.concat_map (fun st -> st.w_rounds) sts)
          ~reads:(List.concat_map (fun st -> st.r_rounds) sts);
        Checks.no_failures ~failed;
        Checks.no_retries ~retries;
      ]
  in
  let info =
    [ Printf.sprintf "streaming checker: %d ops over %d keys" report.Check_sink.checked report.Check_sink.keys ]
  in
  let result =
    if not cfg.trace then begin
      let values, i, errs = end_to_end ~setup_s ~win ~sts ~snaps ~speed ~closed:true in
      { values; attempted; failed; errors = Checks.all checks @ errs; info = info @ i; traces = [] }
    end
    else begin
      let values, i, errs = per_layer ~sts ~snaps ~servers_per_rt:s ~muxes:plane.muxes ~handles:!handles in
      let rvalues, rerrs = replays ~group:0 sts in
      let values =
        values @ rvalues
        @ [
            ("online.checker_ops_s", report.Check_sink.checker_ops_per_sec);
            ("online.busy_share", report.Check_sink.busy /. sink_time);
            ("online.peak_window", float_of_int report.Check_sink.peak_window);
          ]
        @ zero
            [
              "atomicity.check_us_per_op"; "runtime.events_per_run"; "runtime.ns_per_event";
              "runtime.share"; "atomicity.share"; "threshold.share"; "bench.gen_late_p99_us";
              "bench.achieved_over_offered";
            ]
      in
      { values; attempted; failed; errors = Checks.all checks @ errs @ rerrs; info = info @ i; traces = List.map (fun st -> st.spans) sts }
    end
  in
  teardown plane;
  result
