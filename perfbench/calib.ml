(* Host-speed calibration for CPU-bound figures.

   On a shared virtual machine the speed of a vCPU changes from second
   to second and between regimes lasting minutes, with the load on the
   physical cores underneath: a fixed loop reads anywhere from ~230 to
   ~400 ms, and sim-table1's simulated ops/s per 5 s slice from 16k to
   30k.  Every figure of the benchmark's workloads tracks that speed, so
   two runs of the same code can differ by more than any useful
   regression bound.

   [unit_ ()] times a fixed piece of OCaml work, about half a
   millisecond, that calls nothing in the program under test: a small
   discrete-event simulation (a binary heap of timed events whose
   handlers update per-node maps and a string-keyed table and schedule
   follow-ups), the same shape of work as the simulator it calibrates.
   sim-table1 interleaves units with its measured work; over a slice,
   the mean unit time over [reference_s] is how many times slower than
   the reference the host ran, and the slice's times are reported at
   the reference speed by dividing it out.  Measured on sim-table1, the
   per-slice spread fell from about +-22% as measured to about +-4% at
   the reference speed; a plain arithmetic loop or a cache-missing walk
   tracked it about half as well.  Because the units never touch
   program code, a change to the program moves the figures at the
   reference speed just as it moves the measured ones. *)

(* A unit's time at the reference speed: a little under what it takes
   on a 2-vCPU virtual machine in its fastest regime.  Only a scale;
   any fixed value gives the same ratios between runs. *)
let reference_s = 0.5e-3

module IM = Map.Make (Int)

let ev_time = Array.make 4096 0.0

let ev_node = Array.make 4096 0

let unit_work () =
  let n = ref 0 in
  let push t v =
    let i = ref !n in
    incr n;
    while !i > 0 && ev_time.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      ev_time.(!i) <- ev_time.(p);
      ev_node.(!i) <- ev_node.(p);
      i := p
    done;
    ev_time.(!i) <- t;
    ev_node.(!i) <- v
  in
  let pop () =
    let t = ev_time.(0) and v = ev_node.(0) in
    decr n;
    let lt = ev_time.(!n) and lv = ev_node.(!n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !n then fin := true
      else begin
        let c = if l + 1 < !n && ev_time.(l + 1) < ev_time.(l) then l + 1 else l in
        if ev_time.(c) < lt then begin
          ev_time.(!i) <- ev_time.(c);
          ev_node.(!i) <- ev_node.(c);
          i := c
        end
        else fin := true
      end
    done;
    ev_time.(!i) <- lt;
    ev_node.(!i) <- lv;
    (t, v)
  in
  let states = Array.make 16 IM.empty in
  let names = Hashtbl.create 64 in
  let seed = ref 12345 in
  let rand () =
    seed := ((!seed * 1103515245) + 12345) land 0x3fffffff;
    (!seed lsr 4) land 0xffff
  in
  for v = 0 to 15 do
    push (float_of_int v) v
  done;
  for _ = 1 to 600 do
    let t, v = pop () in
    let k = rand () land 255 in
    states.(v) <-
      IM.update k
        (function None -> Some [ t ] | Some l -> Some (t :: List.filteri (fun i _ -> i < 3) l))
        states.(v);
    let name = Printf.sprintf "n%d/k%d" v (k land 31) in
    Hashtbl.replace names name (IM.cardinal states.(v));
    let fan = 1 + (rand () mod 2) in
    for j = 1 to fan do
      if !n < 4000 then push (t +. float_of_int (1 + (rand () land 15))) ((v + j) land 15)
    done
  done;
  Hashtbl.fold (fun _ c a -> a + c) names 0

(* Run one unit; returns its wall-clock time. *)
let unit_ () =
  let t0 = Transport.Clock.now () in
  ignore (Sys.opaque_identity (unit_work ()));
  Transport.Clock.now () -. t0

(* Accumulated units: their wall-clock time, and the CPU time of this
   process while they ran, which a workload takes out of its own. *)
type acc = { mutable time : float; mutable cpu : float; mutable units : int }

let create () = { time = 0.0; cpu = 0.0; units = 0 }

let run a n =
  let cpu0 = Procfs.self_cpu () in
  for _ = 1 to n do
    a.time <- a.time +. unit_ ();
    a.units <- a.units + 1
  done;
  a.cpu <- a.cpu +. (Procfs.self_cpu () -. cpu0)

let add a b =
  a.time <- a.time +. b.time;
  a.cpu <- a.cpu +. b.cpu;
  a.units <- a.units + b.units

(* How many times slower than the reference speed the host ran while
   [a]'s units did; 1.0 when no unit ran. *)
let slowdown a = if a.units = 0 then 1.0 else a.time /. float_of_int a.units /. reference_s

(* A time measured while the host ran [slowdown] times slower than the
   reference, at the reference speed. *)
let time_at_reference ~slowdown t = t /. slowdown


(* ---- A speed meter, for workloads that cannot stop to calibrate ---- *)

(* The live workloads cannot interleave units with their work: their
   time is spent in client threads and server processes, not in one
   loop the harness controls.  Instead a child process, forked before
   the workload starts any thread, runs one unit every [meter_period]
   seconds at nice 19 and records when each started and the CPU time it
   took.  CPU time, not wall time, so that waiting behind the
   workload's processes for a vCPU does not count; what remains is how
   fast the vCPUs execute.  Over ten runs of each live workload the
   meter's slowdown correlated with read p50 at 0.95-0.99 and with CPU
   per op at 0.92-0.95.  The child exits when its command pipe closes,
   at [stop_meter] or when this process dies, after writing back its
   records. *)
let meter_period = 0.02

(* A unit's CPU time at the reference speed in the meter, where it runs
   with cold caches between the workload's processes: about twice the
   in-loop [reference_s]. *)
let meter_reference_s = 1.0e-3

type meter = { pid : int; to_child : Unix.file_descr; from_child : Unix.file_descr; mutable stopped : bool }

let meter_child ~cmd ~out =
  (try ignore (Unix.nice 19) with Unix.Unix_error _ -> ());
  let recs = Buffer.create 65536 in
  let rec loop () =
    match Unix.select [ cmd ] [] [] meter_period with
    | [], _, _ ->
      let t0 = Transport.Clock.now () and c0 = Procfs.self_cpu () in
      ignore (Sys.opaque_identity (unit_work ()));
      Printf.bprintf recs "%.6f %.9f\n" t0 (Procfs.self_cpu () -. c0);
      loop ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  let b = Buffer.to_bytes recs in
  let rec write off =
    if off < Bytes.length b then write (off + Unix.write out b off (Bytes.length b - off))
  in
  (try write 0 with Unix.Unix_error _ -> ());
  Unix._exit 0

(* Stop the meter, wait for it to end, and return its records: (start,
   CPU seconds) per unit.  Idempotent; also run at exit. *)
let stop_meter m =
  if m.stopped then []
  else begin
    m.stopped <- true;
    Unix.close m.to_child;
    let ic = Unix.in_channel_of_descr m.from_child in
    let recs =
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.filter_map (fun l -> Scanf.sscanf_opt l "%f %f" (fun t c -> (t, c)))
    in
    close_in ic;
    let rec wait () =
      match Unix.waitpid [] m.pid with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ();
    recs
  end

(* Call before the workload creates any thread: the child is a fork. *)
let start_meter () =
  let cmd, to_child = Unix.pipe ~cloexec:true () in
  let from_child, out = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close to_child;
    Unix.close from_child;
    meter_child ~cmd ~out
  | pid ->
    Unix.close cmd;
    Unix.close out;
    let m = { pid; to_child; from_child; stopped = false } in
    at_exit (fun () -> ignore (stop_meter m));
    m

(* The slowdown over some of a meter's records; 1.0 for none. *)
let meter_slowdown recs =
  match recs with
  | [] -> 1.0
  | _ ->
    List.fold_left (fun a (_, c) -> a +. c) 0.0 recs
    /. float_of_int (List.length recs)
    /. meter_reference_s
