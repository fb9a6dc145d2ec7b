(* sim-table1: the paper's Table-1 sweep in one domain, with no
   transport at all.  Every multi-writer protocol runs on the four
   (S, t, W, R) configurations under benign, random-skip, crash and
   writer-inversion schedules, plus the certificate-starvation attack,
   and every cell's verdicts must agree with [Quorums.Bounds.possible].

   The register modules are wrapped so that each simulated operation is
   timed on the wall clock from its invocation to its response: the
   time the simulator spends playing that operation out, interleaved
   with the others of its run. *)

open Protocol
open Transport

let configs = [ (5, 1, 2, 2); (7, 3, 2, 2); (6, 1, 3, 3); (9, 2, 2, 2) ]

let shapes = [ `Benign; `Skips; `Crash; `Inversion ]

(* A multiple of 3, so every visit of a cell runs each of the three
   latency models (chosen by seed mod 3) equally often whatever the base
   seed: the sweep's mix of work does not depend on --seed. *)
let seeds_per_shape = 9

type lat = { reads : Sample.t; writes : Sample.t; on : bool }

let timed (register : Register_intf.t) lat : Register_intf.t =
  let module R = (val register) in
  (module struct
    include R

    let write c ~writer ~value ~k =
      let t0 = Clock.now () in
      R.write c ~writer ~value ~k:(fun tag ->
          if lat.on then Sample.add lat.writes (Clock.now () -. t0);
          k tag)

    let read c ~reader ~k =
      let t0 = Clock.now () in
      R.read c ~reader ~k:(fun v tag ->
          if lat.on then Sample.add lat.reads (Clock.now () -. t0);
          k v tag)
  end)

let mixed_plans ~w ~r ~ops =
  List.init w (fun i ->
      Runtime.write_plan ~writer:i ~start_at:(float_of_int (3 * i))
        ~think:(10.0 +. float_of_int (7 * i))
        ops)
  @ List.init r (fun i ->
        Runtime.read_plan ~reader:i ~start_at:(1.0 +. float_of_int i)
          ~think:(8.0 +. float_of_int (5 * i))
          (2 * ops))

(* One run under a seeded schedule shape. *)
let run_once ~register ~s ~t ~w ~r ~seed ~shape =
  let latency =
    match seed mod 3 with
    | 0 -> Simulation.Latency.constant 2.0
    | 1 -> Simulation.Latency.uniform ~lo:1.0 ~hi:10.0
    | _ -> Simulation.Latency.exponential ~mean:4.0
  in
  let env = Env.make ~seed ~latency ~s ~t ~w ~r () in
  let topology = env.Env.topology in
  let adversary =
    match shape with
    | `Benign | `Inversion -> Workload.Adversary.none
    | `Skips -> Workload.Adversary.random_skips ~seed ~topology ~t_budget:t ~window:30.0
    | `Crash -> Workload.Adversary.crash_random ~seed ~t ~at:20.0 ~s
  in
  let plans =
    match shape with
    | `Inversion ->
      [
        Runtime.write_plan ~writer:(w - 1) ~start_at:0.0 1;
        Runtime.write_plan ~writer:0 ~start_at:100.0 1;
        Runtime.read_plan ~reader:0 ~start_at:200.0 1;
      ]
    | `Benign | `Skips | `Crash -> mixed_plans ~w ~r ~ops:3
  in
  Runtime.run ~register ~env ~plans ~adversary:(Workload.Adversary.apply adversary) ()

type cell = { register : Register_intf.t; s : int; t : int; w : int; r : int }

let cells () =
  List.concat_map
    (fun register -> List.map (fun (s, t, w, r) -> { register; s; t; w; r }) configs)
    Registers.Registry.multi_writer

let cell_name c =
  Printf.sprintf "%s S=%d t=%d W=%d R=%d" (Registers.Registry.name c.register) c.s c.t c.w c.r

type totals = {
  mutable runs : int;
  mutable ops : int;
  mutable events : int;
  mutable checked : int;  (** operations through the batch checker *)
  mutable sweep_t : float;
  mutable runtime_t : float;
  mutable atomicity_t : float;
  mutable threshold_t : float;
}

let new_totals () =
  { runs = 0; ops = 0; events = 0; checked = 0; sweep_t = 0.0; runtime_t = 0.0; atomicity_t = 0.0; threshold_t = 0.0 }

(* One visit of a cell: [seeds_per_shape] fresh seeds per shape plus the
   attack where it applies.  Returns the visit's verdict. *)
let visit ~base ~lat ~(tot : totals) ~spans c =
  let module R = (val c.register : Register_intf.S) in
  let register = timed c.register lat in
  let broken = ref 0 and runs = ref 0 in
  let t_visit = Clock.now () in
  List.iteri
    (fun si shape ->
      for j = 0 to seeds_per_shape - 1 do
        let seed = base + (si * seeds_per_shape) + j in
        let t0 = Clock.now () in
        let out = run_once ~register ~s:c.s ~t:c.t ~w:c.w ~r:c.r ~seed ~shape in
        let t1 = Clock.now () in
        let atomic = Checker.Atomicity.is_atomic out.Runtime.history in
        let t2 = Clock.now () in
        Option.iter (fun sp -> sp := (t0, t1, t2) :: !sp) spans;
        let ops = Histories.History.ops out.Runtime.history in
        tot.runtime_t <- tot.runtime_t +. (t1 -. t0);
        tot.atomicity_t <- tot.atomicity_t +. (t2 -. t1);
        tot.events <- tot.events + out.Runtime.events;
        tot.checked <- tot.checked + List.length ops;
        tot.ops <- tot.ops + List.length (List.filter Histories.Op.is_complete ops);
        incr runs;
        if not atomic then incr broken
      done)
    shapes;
  (match R.design_point with
  | Quorums.Bounds.W2R1 | Quorums.Bounds.W1R1 | Quorums.Bounds.W2R2 ->
    let t0 = Clock.now () in
    let v = Workload.Threshold.attack ~register:c.register ~s:c.s ~t:c.t ~r:c.r in
    tot.threshold_t <- tot.threshold_t +. (Clock.now () -. t0);
    incr runs;
    if not v.Workload.Threshold.atomic then incr broken
  | Quorums.Bounds.W1R2 -> ());
  tot.runs <- tot.runs + !runs;
  tot.sweep_t <- tot.sweep_t +. (Clock.now () -. t_visit);
  let possible = Quorums.Bounds.possible R.design_point ~s:c.s ~t:c.t ~w:c.w ~r:c.r in
  Checks.table1_cell ~name:(cell_name c) ~possible ~runs:!runs ~broken:!broken


(* Set-up is everything before the first run has a verdict: building
   the cell table and playing out the first run. *)
let setup_once () =
  let t0 = Clock.now () in
  let cs = Array.of_list (cells ()) in
  let c = cs.(0) in
  let out = run_once ~register:c.register ~s:c.s ~t:c.t ~w:c.w ~r:c.r ~seed:1 ~shape:`Benign in
  ignore (Checker.Atomicity.is_atomic out.Runtime.history);
  (Clock.now () -. t0, cs)

type cfg = { seed : int; seconds : float; trace : bool }

let us x = x *. 1e6

let warm = 0.5

(* One round visits every cell once, in order, so every round has the
   same mix of work.  A slice is the whole rounds that fill
   [Live.slice_s], like the live workloads' slices; it keeps only its
   summary once closed, so the harness's memory does not grow with the
   run.  The run reports [Sample.slice_figure] of the per-slice
   figures. *)
type open_slice = {
  mutable time : float;
  mutable ops : int;
  mutable runs : int;
  mutable cpu : float;
  lat : lat;
  cal : Calib.acc;
}

type slice = {
  s_time : float;  (** at the reference speed, like every figure below *)
  s_raw_time : float;  (** as measured *)
  s_ops : int;
  s_runs : int;
  s_cpu : float;
  s_slow : float;  (** [Calib.slowdown] over the slice *)
  n_reads : int;
  n_writes : int;
  pcts : (string * float) list;  (** read/write p50/p90/p99 in us *)
}

let summarize o =
  let slowdown = Calib.slowdown o.cal in
  let at_ref = Calib.time_at_reference ~slowdown in
  let pct s p = if Sample.length s = 0 then 0.0 else at_ref (us (Sample.percentile s ~pct:p)) in
  {
    s_time = at_ref o.time;
    s_raw_time = o.time;
    s_ops = o.ops;
    s_runs = o.runs;
    s_cpu = at_ref o.cpu;
    s_slow = slowdown;
    n_reads = Sample.length o.lat.reads;
    n_writes = Sample.length o.lat.writes;
    pcts =
      [
        ("read_p50_us", pct o.lat.reads 50);
        ("read_p90_us", pct o.lat.reads 90);
        ("read_p99_us", pct o.lat.reads 99);
        ("write_p50_us", pct o.lat.writes 50);
        ("write_p90_us", pct o.lat.writes 90);
        ("write_p99_us", pct o.lat.writes 99);
      ];
  }

let new_slice ~on =
  { time = 0.0; ops = 0; runs = 0; cpu = 0.0; lat = { reads = Sample.create (); writes = Sample.create (); on }; cal = Calib.create () }

let op_p50 o = Sample.percentile (Sample.concat [ o.lat.reads; o.lat.writes ]) ~pct:50

(* Set-up takes about a millisecond, so one finishes in a single host
   speed regime; it is repeated before every round of the run, taken to
   the reference speed with the round's calibration, and [setup_s] is
   the median over the repetitions. *)
let run cfg =
  let first, cs = setup_once () in
  let first_cal = Calib.create () in
  Calib.run first_cal 4;
  let at_ref cal t = Calib.time_at_reference ~slowdown:(Calib.slowdown cal) t in
  let setup_times = ref [ at_ref first_cal first ] in
  let t_meas = Clock.now () +. warm in
  let t_end = t_meas +. cfg.seconds in
  let t_trace = if cfg.trace then t_meas +. (cfg.seconds /. 2.0) else t_end in
  let traced = new_totals () in
  let spans = ref [] and errors = ref [] and slices = ref [] in
  (* per-round op p50s, untraced and traced, for the trace overhead *)
  let untraced_p50 = Sample.create () and traced_p50 = Sample.create () in
  let current = ref None in
  let close () =
    Option.iter (fun o -> slices := summarize o :: !slices) !current;
    current := None
  in
  let trace_start = ref None in
  let k = ref 0 in
  while Clock.now () < t_end do
    let t0 = Clock.now () in
    let phase = if t0 < t_meas then `Warm else if t0 < t_trace then `Measure else `Trace in
    if phase = `Trace && !trace_start = None then begin
      close ();
      trace_start := Some (Procfs.self (), Gc.quick_stat ())
    end;
    let o =
      match (phase, !current) with
      | `Measure, Some o -> o
      | (`Warm | `Measure | `Trace), _ -> new_slice ~on:(phase <> `Warm)
    in
    let setup_t = fst (setup_once ()) in
    let round = new_slice ~on:(phase <> `Warm) in
    let tot = if phase = `Trace then traced else new_totals () in
    let cpu0 = Procfs.self_cpu () in
    Array.iter
      (fun c ->
        let base = (cfg.seed * 1_000_003) + (!k * 64) in
        incr k;
        let sp = if phase = `Trace then Some spans else None in
        Calib.run round.cal 1;
        match visit ~base ~lat:round.lat ~tot ~spans:sp c with
        | Ok () -> ()
        | Error e -> errors := e :: !errors)
      cs;
    setup_times := at_ref round.cal setup_t :: !setup_times;
    let p50 = if Sample.length round.lat.reads = 0 then 0.0 else op_p50 round in
    match phase with
    | `Warm -> ()
    | `Trace -> Sample.add traced_p50 p50
    | `Measure ->
      Sample.add untraced_p50 p50;
      o.time <- o.time +. (Clock.now () -. t0 -. round.cal.Calib.time);
      o.cpu <- o.cpu +. (Procfs.self_cpu () -. cpu0 -. round.cal.Calib.cpu);
      Calib.add o.cal round.cal;
      o.ops <- o.ops + tot.ops;
      o.runs <- o.runs + tot.runs;
      Array.iter (Sample.add o.lat.reads) (Sample.to_array round.lat.reads);
      Array.iter (Sample.add o.lat.writes) (Sample.to_array round.lat.writes);
      current := Some o;
      if o.time >= Live.slice_s then close ()
  done;
  let setup_s = Sample.median_of !setup_times in
  (* a trailing partial slice counts only when no slice filled up *)
  if !slices = [] then close ();
  let slices = List.rev !slices in
  let per f = List.map f slices in
  let fewest f = List.fold_left min max_int (per f) in
  let checks =
    Checks.all
      [
        (if slices = [] then Error "no complete round in the measured window" else Ok ());
        Checks.samples ~kind:"read-per-slice" ~min:Live.min_samples (fewest (fun s -> s.n_reads));
        Checks.samples ~kind:"write-per-slice" ~min:Live.min_samples (fewest (fun s -> s.n_writes));
      ]
  in
  let show xs = String.concat " " (List.map (Printf.sprintf "%.0f") xs) in
  let values, info, attempted =
    if not cfg.trace then begin
      let pct name = per (fun s -> List.assoc name s.pcts) in
      let throughput = per (fun s -> float_of_int s.s_ops /. s.s_time) in
      let cpu = per (fun s -> us s.s_cpu /. float_of_int (max 1 s.s_ops)) in
      let cost xs = Sample.slice_figure `Cost xs in
      ( [ ("setup_s", setup_s); ("throughput_ops_s", Sample.slice_figure `Rate throughput) ]
        @ List.map (fun n -> (n, cost (pct n))) [ "read_p50_us"; "write_p50_us" ]
        @ [
            ("cpu_us_per_op", cost cpu);
            ("peak_rss_mb", float_of_int (Procfs.self ()).Procfs.hwm_kb /. 1024.0);
          ],
        [
          Printf.sprintf "%d slices of whole %d-cell rounds, at least %d reads and %d writes each"
            (List.length slices) (Array.length cs)
            (fewest (fun s -> s.n_reads))
            (fewest (fun s -> s.n_writes));
          Printf.sprintf "at the reference speed, slice read p50 / p90 / p99 us: [%s] / [%s] / [%s]" (show (pct "read_p50_us"))
            (show (pct "read_p90_us")) (show (pct "read_p99_us"));
          Printf.sprintf "slice simulated ops/s: [%s]; sim runs/s: [%s]" (show throughput)
            (show (per (fun s -> float_of_int s.s_runs /. s.s_time)));
          Printf.sprintf "slice host slowdown: [%s]; simulated ops/s as measured: [%s]"
            (String.concat " " (per (fun s -> Printf.sprintf "%.3f" s.s_slow)))
            (show (per (fun s -> float_of_int s.s_ops /. s.s_raw_time)));
        ],
        List.fold_left (fun a s -> a + s.s_runs) 0 slices )
    end
    else begin
      let self0, gc0 = Option.value !trace_start ~default:(Procfs.self (), Gc.quick_stat ()) in
      let self1 = Procfs.self () and gc1 = Gc.quick_stat () in
      let fops = float_of_int (max 1 traced.ops) in
      let overhead =
        if Sample.length untraced_p50 = 0 || Sample.length traced_p50 = 0 then 0.0
        else Sample.percentile traced_p50 ~pct:50 /. Sample.percentile untraced_p50 ~pct:50
      in
      let share x = x /. traced.sweep_t in
      let alloc (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
      let measured =
        [
          ("runtime.events_per_run", float_of_int traced.events /. float_of_int (max 1 (List.length !spans)));
          ("runtime.ns_per_event", traced.runtime_t *. 1e9 /. float_of_int (max 1 traced.events));
          ("runtime.share", share traced.runtime_t);
          ("atomicity.share", share traced.atomicity_t);
          ("threshold.share", share traced.threshold_t);
          ("atomicity.check_us_per_op", us traced.atomicity_t /. float_of_int (max 1 traced.checked));
          ("client.cpu_us_per_op", us (Procfs.diff self0 self1).Procfs.cpu_s /. fops);
          ("client.alloc_words_per_op", (alloc gc1 -. alloc gc0) /. fops);
          ( "client.major_gcs_per_kop",
            float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) *. 1000.0 /. fops );
          ("bench.trace_overhead", overhead);
        ]
        (* the untraced half's tail: the median of its slices' p99 *)
        @ List.map
            (fun (n, k) ->
              (n, if slices = [] then 0.0 else Sample.median_of (per (fun s -> List.assoc k s.pcts))))
            [ ("tail.read_p99_us", "read_p99_us"); ("tail.write_p99_us", "write_p99_us") ]
      in
      let others =
        List.filter (fun n -> not (List.mem_assoc n measured)) (Metric.names Metric.Per_layer)
      in
      ( measured @ Live.zero others,
        [
          Printf.sprintf
            "traced sim runs %d: runtime %.1f%%, atomicity %.1f%%, threshold %.1f%% of sweep time"
            traced.runs (100.0 *. share traced.runtime_t) (100.0 *. share traced.atomicity_t)
            (100.0 *. share traced.threshold_t);
        ],
        traced.runs )
    end
  in
  ( {
      Live.values;
      attempted = max 1 attempted;
      failed = 0;
      errors = List.rev !errors @ checks;
      info;
      traces = [];
    },
    List.rev !spans )
