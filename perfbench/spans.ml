(* In-memory spans recorded around the calls into the client layers:
   one span per operation and one child span per round trip ([exec]
   call) carrying its operation's id.  Each client thread owns one
   recorder, so recording takes no lock; the recorders are merged and
   written out after the run. *)

type t = {
  thread : int;
  mutable ops : int;  (** operations recorded so far: the next op id *)
  op_kind : Buffer.t;  (** 'w' or 'r' per op *)
  op_start : Sample.t;
  op_end : Sample.t;
  op_rts : Sample.t;  (** child spans per op *)
  rt_op : Sample.t;  (** parent op id per round trip *)
  rt_start : Sample.t;
  rt_end : Sample.t;
}

let create ~thread =
  {
    thread;
    ops = 0;
    op_kind = Buffer.create 1024;
    op_start = Sample.create ();
    op_end = Sample.create ();
    op_rts = Sample.create ();
    rt_op = Sample.create ();
    rt_start = Sample.create ();
    rt_end = Sample.create ();
  }

(* A round trip of the op in flight: its id is the next op id, since
   ops are recorded when they complete. *)
let rt t ~t0 ~t1 =
  Sample.add t.rt_op (float_of_int t.ops);
  Sample.add t.rt_start t0;
  Sample.add t.rt_end t1

let op t ~kind ~t0 ~t1 ~rts =
  Buffer.add_char t.op_kind (match kind with `Write -> 'w' | `Read -> 'r');
  Sample.add t.op_start t0;
  Sample.add t.op_end t1;
  Sample.add t.op_rts (float_of_int rts);
  t.ops <- t.ops + 1

(* A layer's self time: the op span minus the part its round-trip
   children cover.  Children of one op never overlap (an op's rounds
   run one after another in its thread), so the covered part is the sum
   of their durations. *)
let self_times t =
  let self = Array.init t.ops (fun i -> t.op_end.Sample.data.(i) -. t.op_start.Sample.data.(i)) in
  for j = 0 to Sample.length t.rt_op - 1 do
    let op = int_of_float t.rt_op.Sample.data.(j) in
    if op < t.ops then
      self.(op) <- self.(op) -. (t.rt_end.Sample.data.(j) -. t.rt_start.Sample.data.(j))
  done;
  self

let rt_durations t =
  let d = Sample.create () in
  for j = 0 to Sample.length t.rt_op - 1 do
    if int_of_float t.rt_op.Sample.data.(j) < t.ops then
      Sample.add d (t.rt_end.Sample.data.(j) -. t.rt_start.Sample.data.(j))
  done;
  d

(* JSON lines, times in microseconds from [origin]; at most [limit]
   operations per thread with their round trips. *)
let write oc ~origin ~limit ts =
  let us x = (x -. origin) *. 1e6 in
  List.iter
    (fun t ->
      let n = min limit t.ops in
      for i = 0 to n - 1 do
        Printf.fprintf oc
          "{\"span\": \"op\", \"thread\": %d, \"op\": %d, \"kind\": \"%s\", \
           \"start_us\": %.3f, \"end_us\": %.3f}\n"
          t.thread i
          (if Buffer.nth t.op_kind i = 'w' then "write" else "read")
          (us t.op_start.Sample.data.(i))
          (us t.op_end.Sample.data.(i))
      done;
      for j = 0 to Sample.length t.rt_op - 1 do
        let op = int_of_float t.rt_op.Sample.data.(j) in
        if op < n then
          Printf.fprintf oc
            "{\"span\": \"rt\", \"thread\": %d, \"op\": %d, \"start_us\": %.3f, \
             \"end_us\": %.3f}\n"
            t.thread op
            (us t.rt_start.Sample.data.(j))
            (us t.rt_end.Sample.data.(j))
      done)
    ts
