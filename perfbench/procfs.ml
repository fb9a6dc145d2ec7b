(* Per-process counters from /proc, for the client (self) and each
   [mwreg serve] child.  The parsers take file contents, so the tests
   can feed them fixed text. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* /proc/<pid>/stat: the command name sits in parentheses and may hold
   spaces, so fields are counted from the last ')'.  utime and stime are
   fields 14 and 15 of the whole line, 12 and 13 after the name. *)
let stat_cpu_ticks text =
  match String.rindex_opt text ')' with
  | None -> None
  | Some i ->
    let rest = String.sub text (i + 2) (String.length text - i - 2) in
    let fields = String.split_on_char ' ' rest |> Array.of_list in
    if Array.length fields < 13 then None
    else
      match (int_of_string_opt fields.(11), int_of_string_opt fields.(12)) with
      | Some u, Some s -> Some (u + s)
      | _ -> None

(* /proc/<pid>/task/<tid>/schedstat: "<ns on cpu> <ns waiting> <slices>". *)
let schedstat_ns text =
  match String.split_on_char ' ' (String.trim text) with
  | ns :: _ -> int_of_string_opt ns
  | [] -> None

(* A "Name: value [unit]" line of /proc/<pid>/status or /proc/<pid>/io. *)
let field text name =
  let prefix = name ^ ":" in
  let plen = String.length prefix in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if String.length line > plen && String.sub line 0 plen = prefix then
           let v = String.sub line plen (String.length line - plen) in
           match String.split_on_char ' ' (String.trim v) with
           | n :: _ -> int_of_string_opt (String.trim n)
           | [] -> None
         else None)

let io_syscalls text =
  match (field text "syscr", field text "syscw") with
  | Some r, Some w -> Some (r + w)
  | _ -> None

let ctxsw text =
  match
    (field text "voluntary_ctxt_switches", field text "nonvoluntary_ctxt_switches")
  with
  | Some v, Some n -> Some (v + n)
  | _ -> None

type snapshot = {
  cpu_s : float;  (** user + sys, all threads *)
  syscalls : int;  (** syscr + syscw *)
  ctx_switches : int;  (** voluntary + involuntary, summed over live threads *)
  hwm_kb : int;  (** VmHWM: peak resident set *)
}

let ticks_per_s = 100.0

let tasks pid =
  let dir = Printf.sprintf "/proc/%s/task" pid in
  try Array.to_list (Sys.readdir dir) with Sys_error _ -> []

let sum_tasks pid file parse =
  List.fold_left
    (fun acc tid ->
      match
        Option.bind
          (read_file (Printf.sprintf "/proc/%s/task/%s/%s" pid tid file))
          parse
      with
      | Some n -> acc + n
      | None -> acc)
    0 (tasks pid)

(* CPU time of a process: the per-thread nanosecond schedstat sums when
   the kernel exposes them, else the 10 ms-tick utime + stime.  Only
   live threads count, so callers sample while every thread that did the
   measured work is still running. *)
let cpu_s pid =
  let ns = sum_tasks pid "schedstat" schedstat_ns in
  if ns > 0 then float_of_int ns *. 1e-9
  else
    match Option.bind (read_file (Printf.sprintf "/proc/%s/stat" pid)) stat_cpu_ticks with
    | Some t -> float_of_int t /. ticks_per_s
    | None -> 0.0

let snapshot_of pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let io = read_file (Printf.sprintf "/proc/%s/io" pid) in
  {
    cpu_s = cpu_s pid;
    syscalls = Option.value ~default:0 (Option.bind io io_syscalls);
    ctx_switches = sum_tasks pid "status" ctxsw;
    hwm_kb = Option.value ~default:0 (Option.bind status (fun s -> field s "VmHWM"));
  }

(* The harness process itself: CPU from getrusage, which also counts
   threads that have already exited. *)
let self_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let self () = { (snapshot_of "self") with cpu_s = self_cpu () }

let child pid = snapshot_of (string_of_int pid)

let diff a b =
  {
    cpu_s = b.cpu_s -. a.cpu_s;
    syscalls = b.syscalls - a.syscalls;
    ctx_switches = b.ctx_switches - a.ctx_switches;
    hwm_kb = b.hwm_kb;
  }

let sum = function
  | [] -> { cpu_s = 0.0; syscalls = 0; ctx_switches = 0; hwm_kb = 0 }
  | x :: xs ->
    List.fold_left
      (fun a b ->
        {
          cpu_s = a.cpu_s +. b.cpu_s;
          syscalls = a.syscalls + b.syscalls;
          ctx_switches = a.ctx_switches + b.ctx_switches;
          hwm_kb = a.hwm_kb + b.hwm_kb;
        })
      x xs

(* The host's "cpu" line of /proc/stat: (steal, idle, total) ticks.  A
   run prints the steal share of its wall time, the one source of noise
   on a shared virtual machine that no process of the run controls. *)
let host_ticks text =
  match String.split_on_char '\n' text with
  | first :: _ -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' first) with
    | "cpu" :: fields ->
      let f = Array.of_list (List.filter_map int_of_string_opt fields) in
      if Array.length f < 8 then None
      else Some (f.(7), f.(3) + f.(4), Array.fold_left ( + ) 0 f)
    | _ -> None)
  | [] -> None

let host () = Option.bind (read_file "/proc/stat") host_ticks
