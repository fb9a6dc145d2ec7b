open Registers

exception Unavailable of string

(* All deadlines, ticker gates and backoff gates run on the monotonic
   clock: a wall time step must not fire or stall every timeout at
   once. *)
let now = Clock.now

(* A server crashing mid-write must surface as EPIPE on that write, not
   kill the client process. *)
let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

type conn = {
  index : int; (* server index: the authoritative reply label *)
  addr : Unix.sockaddr;
  lock : Mutex.t; (* guards fd, attempts, and the outgoing buffer *)
  (* The write-combining path (flat combining, no dedicated sender
     thread): an enqueuer appends its frame to [out] under [lock]; if
     no flush is in progress it becomes the flusher, swapping the
     accumulated bytes into [staging] and issuing one [write] per
     batch.  Concurrent enqueuers find [flushing] set, append and
     return without a syscall or a thread handoff — their frames ride
     the current flusher's next iteration, arrive at the server as one
     read, are replica-handled as a batch and answered in one reply
     write. *)
  out : Buffer.t;
  mutable flushing : bool;
  mutable staging : Bytes.t; (* flusher-owned swap space, reused *)
  (* Frames a fault plan scheduled for later delivery on this link:
     (payload copy, truncated), guarded by [lock].  Senders park here
     and move on — a delay scoped to one (client, server) link must
     never stall another client's batch or the rest of a fan-out.  Due
     entries are merged into the next flush and swept by the ticker (at
     sub-tick granularity when the plan has delay rules); there are no
     delayer threads, mirroring the server reactor's timer queue. *)
  mutable delayed : (Bytes.t * bool) Deadline_queue.t;
  mutable fd : Unix.file_descr option;
  mutable attempts : int; (* consecutive failed connects *)
  mutable next_attempt : float; (* wall-clock gate for the next connect *)
}

type mailbox = {
  client : int;
  mb_lock : Mutex.t;
  mb_cond : Condition.t;
  (* This client's round trips (one open at a time) and their
     counters, guarded by [mb_lock]: the demux threads offer replies,
     the ticker reads the deadline, the client thread opens, retries and
     closes. *)
  mutable mb_round : Wire.rep Protocol.Round.t;
  (* Reused send path: the frame is encoded once per operation into
     [enc], blitted into [out], and the same bytes go to every
     connection — allocation-free once both have reached steady size. *)
  mb_enc : Buffer.t;
  mutable mb_out : Bytes.t;
}

type t = {
  conns : conn array;
  quorum : int;
  rt_timeout : float;
  max_rt_retries : int;
  connect_retries : int;
  connect_backoff : float;
  faults : Faults.t option;
  (* The armed plan can schedule late deliveries: the ticker then runs
     at millisecond granularity so staged deadlines (geo profiles go
     down to sub-millisecond bases) do not quantise to the timeout
     tick. *)
  sub_tick : bool;
  routes : (int, mailbox) Hashtbl.t;
  routes_lock : Mutex.t;
  (* Replies that matched no open round trip at all: unknown client
     (handle released, or a peer inventing ids) or a key mismatch on the
     open round ({!Protocol.Round.Foreign}).  Distinct from late replies
     — a late reply belongs to a round this client really ran; a dropped
     one could never have been delivered anywhere. *)
  dropped : int Atomic.t;
  mutable demuxers : Thread.t list; (* joined on shutdown *)
  mutable ticker : Thread.t option;
  stopping : bool Atomic.t;
}

type handle = { mux : t; mb : mailbox }

(* ------------------------------------------------------------------ *)
(* Reply routing (demux threads)                                       *)
(* ------------------------------------------------------------------ *)

let route t ~server_index ~client ~rt ~key rep =
  let mb =
    Mutex.protect t.routes_lock (fun () -> Hashtbl.find_opt t.routes client)
  in
  match mb with
  | None ->
    (* Client released its handle (or the peer invented an id): there is
       no mailbox this could ever belong to. *)
    Atomic.incr t.dropped
  | Some mb ->
    Mutex.protect mb.mb_lock (fun () ->
        let verdict, round =
          Protocol.Round.offer mb.mb_round ~server:server_index ~rt ~key rep
        in
        mb.mb_round <- round;
        match verdict with
        | Protocol.Round.Quorum ->
          (* Quorum-gated wake-up: replies below the quorum cannot
             unblock the waiter, so signalling them would only burn a
             scheduler pass per straggler.  The ticker covers timeout
             detection for rounds that never get there. *)
          Condition.signal mb.mb_cond
        | Protocol.Round.Foreign -> Atomic.incr t.dropped
        | Protocol.Round.Counted | Protocol.Round.Late -> ())

(* The demux thread owns [fd] for the life of one connection: it is the
   only reader, and on any failure it severs the connection — but only
   if the conn still points at its own fd (a reconnect may already have
   replaced it). *)
let disconnect c fd =
  Mutex.protect c.lock (fun () ->
      match c.fd with
      | Some cur when cur == fd -> c.fd <- None
      | _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let demux t c fd () =
  let stream = Codec.Stream.create () in
  let buf = Bytes.create 65536 in
  (try
     let stop = ref false in
     while not !stop do
       match Netio.read fd buf 0 (Bytes.length buf) with
       | 0 -> stop := true
       | n ->
         Codec.Stream.feed stream buf n;
         let rec drain () =
           match Codec.Stream.next stream with
           | Some (Codec.Reply { rt; client; server = _; rep }) ->
             (* Route by (client, rt); the connection's own index is the
                authoritative server label, as in the private path. *)
             route t ~server_index:c.index ~client ~rt ~key:None rep;
             drain ()
           | Some (Codec.Keyed_reply { key; rt; client; server = _; rep }) ->
             route t ~server_index:c.index ~client ~rt ~key:(Some key) rep;
             drain ()
           | Some (Codec.Request _) | Some (Codec.Keyed_request _) ->
             (* Servers never send requests; cut the broken peer off. *)
             stop := true
           | None -> ()
         in
         drain ()
       | exception Unix.Unix_error _ -> stop := true
     done
   with Codec.Decode_error _ -> ());
  disconnect c fd

(* ------------------------------------------------------------------ *)
(* Connecting and sending                                              *)
(* ------------------------------------------------------------------ *)

(* Bounded, exponentially backed-off reconnect; [c.lock] must be held.
   A fresh connection gets a fresh demux thread.  Every failure mode —
   including [socket] itself (EMFILE under fd pressure) and a failed
   [Thread.create] — lands in the backoff path rather than escaping:
   an exception thrown past a caller holding [c.lock] would poison the
   connection (and wedge [shutdown]) forever. *)
let backoff t c =
  c.attempts <- c.attempts + 1;
  c.next_attempt <-
    now () +. (t.connect_backoff *. float_of_int (1 lsl min c.attempts 6))

let try_connect t c =
  match c.fd with
  | Some fd -> Some fd
  | None ->
    if
      Atomic.get t.stopping || c.attempts > t.connect_retries
      || now () < c.next_attempt
    then None
    else begin
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ ->
        backoff t c;
        None
      | fd -> (
        match
          Unix.connect fd c.addr;
          Unix.setsockopt fd Unix.TCP_NODELAY true
        with
        | () -> (
          c.fd <- Some fd;
          c.attempts <- 0;
          match Thread.create (demux t c fd) () with
          | th ->
            Mutex.protect t.routes_lock (fun () ->
                t.demuxers <- th :: t.demuxers);
            Some fd
          | exception _ ->
            (* No demux thread was created, so this thread is the fd's
               only owner and may close it directly. *)
            c.fd <- None;
            (try Unix.close fd with Unix.Unix_error _ -> ());
            backoff t c;
            None)
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          backoff t c;
          None)
    end

(* Send [len] bytes on the shared connection.  The caller appends under
   [c.lock]; if no flush is in progress it becomes the flusher and
   drains the queue itself — uncontended, that is one inline [write]
   with no thread handoff.  While a flush is running, other enqueuers
   just append and return; the flusher's loop re-checks the queue after
   every batch, so their bytes go out in the next combined write.  On a
   write error the link is severed ([shutdown], not [close] — the demux
   thread is the fd's sole closer) and the staged batch is dropped; the
   round-trip retry loop re-broadcasts after reconnect.  Frames that
   other clients appended to [c.out] while the failing write ran
   unlocked are NOT part of that batch and stay queued: the next
   flusher sends them once the link is back. *)
let enqueue t c bytes len =
  Mutex.lock c.lock;
  match try_connect t c with
  | exception e ->
    (* [try_connect] contains its own failures; this is pure defence —
       a leaked [c.lock] would deadlock every later rider and
       [shutdown] itself. *)
    Mutex.unlock c.lock;
    raise e
  | None ->
    Mutex.unlock c.lock;
    false
  | Some _ ->
    Buffer.add_subbytes c.out bytes 0 len;
    if c.flushing then begin
      (* A flusher is active: it will carry these bytes.  No syscall,
         no signal, no context switch on this path. *)
      Mutex.unlock c.lock;
      true
    end
    else begin
      c.flushing <- true;
      let ok = ref true in
      while !ok && Buffer.length c.out > 0 do
        (* Merge staged deliveries that have come due into this batch —
           the flush-time half of the delay drain (the ticker sweeps
           quiet links).  Truncated entries stay for the ticker: they
           sever the link after sending and cannot ride a batch. *)
        let t_now = now () in
        let rec merge () =
          match Deadline_queue.pop_due c.delayed ~now:t_now with
          | Some ((payload, false), rest) ->
            Buffer.add_bytes c.out payload;
            c.delayed <- rest;
            merge ()
          | Some ((_, true), _) | None -> ()
        in
        merge ();
        let blen = Buffer.length c.out in
        if blen > Bytes.length c.staging then
          c.staging <- Bytes.create (max blen (2 * Bytes.length c.staging));
        Buffer.blit c.out 0 c.staging 0 blen;
        Buffer.clear c.out;
        match c.fd with
        | None -> ok := false (* link died since the append: drop *)
        | Some fd -> (
          Mutex.unlock c.lock;
          (match Netio.write_all fd c.staging 0 blen with
          | () -> Mutex.lock c.lock
          | exception Unix.Unix_error _ ->
            (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
            Mutex.lock c.lock;
            (match c.fd with
            | Some cur when cur == fd -> c.fd <- None
            | _ -> ());
            (* Only the staging batch is lost with the link.  [c.out]
               may have gained other clients' frames while the write
               ran unlocked — clearing it here would silently discard
               them; they stay for the post-reconnect flusher. *)
            ok := false))
      done;
      c.flushing <- false;
      Mutex.unlock c.lock;
      !ok
    end

(* Truncation fault: the torn frame has gone out on the shared
   connection, so the whole stream is poisoned — sever it and let every
   rider reconnect and retry, exactly what a corrupting link costs on
   this plane. *)
let sever c =
  Mutex.protect c.lock (fun () ->
      match c.fd with
      | Some fd -> (
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      | None -> ())

(* Deliver every staged frame whose deadline has passed.  Entries are
   popped under [c.lock] but sent outside it ([enqueue] takes the lock
   itself); a truncated delivery sends its prefix then severs the link,
   as in the immediate path. *)
let rec drain_delayed t c t_now =
  let due =
    Mutex.protect c.lock (fun () ->
        match Deadline_queue.pop_due c.delayed ~now:t_now with
        | Some (entry, rest) ->
          c.delayed <- rest;
          Some entry
        | None -> None)
  in
  match due with
  | None -> ()
  | Some (payload, truncated) ->
    let len = Bytes.length payload in
    if truncated then begin
      ignore (enqueue t c payload (max 1 (len / 2)));
      sever c
    end
    else ignore (enqueue t c payload len);
    drain_delayed t c t_now

(* Nearest staged deadline across every link; [infinity] when idle. *)
let next_delayed_due t =
  Array.fold_left
    (fun acc c ->
      Mutex.protect c.lock (fun () ->
          Float.min acc (Deadline_queue.next_due c.delayed)))
    infinity t.conns

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Timeouts are detected on wake-up, and the stdlib condvar has no timed
   wait — one ticker thread per mux broadcasts every few tens of
   milliseconds so blocked operations re-check their deadline.  Normal
   completions never wait for a tick: every routed reply signals its
   mailbox directly. *)
let tick_period t = Float.max 0.005 (Float.min 0.05 (t.rt_timeout /. 4.0))

let ticker_body t () =
  (* The timeout scan keeps its own cadence (tick_period) even when the
     delay drain shortens the sleep below it: sub-tick wake-ups must
     not drag every blocked mailbox through the scheduler hundreds of
     times a second. *)
  let next_scan = ref (now () +. tick_period t) in
  while not (Atomic.get t.stopping) do
    let sleep =
      let tick = tick_period t in
      if not t.sub_tick then tick
      else
        (* Delay-capable plan armed: sleep to the nearest staged
           deadline (0.5 ms floor), or 1 ms when the queues are idle so
           a freshly staged short deadline is picked up promptly. *)
        let due = next_delayed_due t in
        if due = infinity then Float.min tick 0.001
        else Float.max 0.0005 (Float.min tick (due -. now ()))
    in
    Thread.delay sleep;
    let t_now = now () in
    if t.sub_tick then Array.iter (fun c -> drain_delayed t c t_now) t.conns;
    if t_now >= !next_scan then begin
      next_scan := t_now +. tick_period t;
      let mbs =
        Mutex.protect t.routes_lock (fun () ->
            Hashtbl.fold (fun _ mb acc -> mb :: acc) t.routes [])
      in
      List.iter
        (fun mb ->
          Mutex.protect mb.mb_lock (fun () ->
              (* Wake a waiter only when its round has actually timed
                 out; broadcasting every tick would drag every blocked
                 client through the scheduler 20 times a second for
                 nothing. *)
              if t_now >= Protocol.Round.deadline mb.mb_round then
                Condition.broadcast mb.mb_cond))
        mbs
    end
  done

let create ?(rt_timeout = 1.0) ?(max_rt_retries = 3) ?(connect_retries = 8)
    ?(connect_backoff = 0.02) ?faults ~servers ~quorum () =
  Lazy.force ignore_sigpipe;
  let n = Array.length servers in
  if quorum <= 0 || quorum > n then
    invalid_arg "Mux.create: quorum out of range";
  let t =
    {
      conns =
        Array.mapi
          (fun index addr ->
            {
              index;
              addr;
              lock = Mutex.create ();
              out = Buffer.create 4096;
              flushing = false;
              staging = Bytes.create 4096;
              delayed = Deadline_queue.empty;
              fd = None;
              attempts = 0;
              next_attempt = 0.0;
            })
          servers;
      quorum;
      rt_timeout;
      max_rt_retries;
      connect_retries;
      connect_backoff;
      faults;
      sub_tick =
        (match faults with Some p -> Faults.has_delays p | None -> false);
      routes = Hashtbl.create 16;
      routes_lock = Mutex.create ();
      dropped = Atomic.make 0;
      demuxers = [];
      ticker = None;
      stopping = Atomic.make false;
    }
  in
  (* Optimistic first dial; failures just leave the conn in backoff. *)
  Array.iter
    (fun c -> Mutex.protect c.lock (fun () -> ignore (try_connect t c)))
    t.conns;
  t.ticker <- Some (Thread.create (ticker_body t) ());
  t

let client t ~client =
  let mb =
    {
      client;
      mb_lock = Mutex.create ();
      mb_cond = Condition.create ();
      mb_round =
        Protocol.Round.create ~client ~quorum:t.quorum ~timeout:t.rt_timeout
          ~max_retries:t.max_rt_retries;
      mb_enc = Buffer.create 256;
      mb_out = Bytes.create 256;
    }
  in
  Mutex.protect t.routes_lock (fun () -> Hashtbl.replace t.routes client mb);
  { mux = t; mb }

let release h =
  Mutex.protect h.mux.routes_lock (fun () ->
      match Hashtbl.find_opt h.mux.routes h.mb.client with
      | Some mb when mb == h.mb -> Hashtbl.remove h.mux.routes h.mb.client
      | _ -> ())

let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Severing the sockets pops every demux thread out of [read] and
       fails any in-flight flusher's write. *)
    Array.iter
      (fun c ->
        Mutex.protect c.lock (fun () ->
            match c.fd with
            | Some fd -> (
              try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
            | None -> ()))
      t.conns;
    let demuxers =
      Mutex.protect t.routes_lock (fun () ->
          let ds = t.demuxers in
          t.demuxers <- [];
          ds)
    in
    List.iter Thread.join demuxers;
    (match t.ticker with
    | Some th ->
      Thread.join th;
      t.ticker <- None
    | None -> ())
  end

(* ------------------------------------------------------------------ *)
(* The round trip                                                      *)
(* ------------------------------------------------------------------ *)

let exec ?key h req k =
  let t = h.mux and mb = h.mb in
  let rt =
    Mutex.protect mb.mb_lock (fun () ->
        let rt, round = Protocol.Round.open_ mb.mb_round ~now:(now ()) ~key in
        mb.mb_round <- round;
        rt)
  in
  (* Encode once; the same bytes go out on all S shared connections. *)
  let frame =
    match key with
    | None -> Codec.Request { rt; client = mb.client; req }
    | Some key -> Codec.Keyed_request { key; rt; client = mb.client; req }
  in
  Codec.encode_into mb.mb_enc frame;
  let len = Buffer.length mb.mb_enc in
  if len > Bytes.length mb.mb_out then
    mb.mb_out <- Bytes.create (max len (2 * Bytes.length mb.mb_out));
  Buffer.blit mb.mb_enc 0 mb.mb_out 0 len;
  let broadcast ~salt =
    (* A snapshot of the round: a server that replies while the fan-out
       runs gets a duplicate request, and replica operations are
       idempotent. *)
    let round = Mutex.protect mb.mb_lock (fun () -> mb.mb_round) in
    Array.iter
      (fun c ->
        if not (Protocol.Round.replied round c.index) then
          match t.faults with
          | None -> ignore (enqueue t c mb.mb_out len)
          | Some plan ->
            (* Salted by the attempt number: a frame dropped now draws
               afresh on the next re-broadcast. *)
            let ds =
              Faults.deliveries plan ~dir:Faults.To_server ~server:c.index
                ~client:mb.client ~rt ~salt
            in
            List.iter
              (fun { Faults.after; truncated } ->
                if after > 0.0 then
                  (* Park on the link's deadline queue — never sleep in
                     the sender: a delay scoped to this link must not
                     stall other clients' batches or the rest of this
                     fan-out.  The payload is copied because [mb.mb_out]
                     is reused by the next operation. *)
                  let entry = (Bytes.sub mb.mb_out 0 len, truncated) in
                  Mutex.protect c.lock (fun () ->
                      c.delayed <-
                        Deadline_queue.add c.delayed ~due:(now () +. after) entry)
                else if truncated then begin
                  ignore (enqueue t c mb.mb_out (max 1 (len / 2)));
                  sever c
                end
                else ignore (enqueue t c mb.mb_out len))
              ds)
      t.conns
  in
  broadcast ~salt:0;
  let give_up = ref false in
  Mutex.lock mb.mb_lock;
  while not (Protocol.Round.complete mb.mb_round || !give_up) do
    Condition.wait mb.mb_cond mb.mb_lock;
    let step, round = Protocol.Round.expire mb.mb_round ~now:(now ()) in
    mb.mb_round <- round;
    match step with
    | Protocol.Round.Wait -> ()
    | Protocol.Round.Give_up -> give_up := true
    | Protocol.Round.Retry salt ->
      (* Round-trip timed out: re-broadcast to the servers still
         missing (reconnecting dropped links). *)
      Mutex.unlock mb.mb_lock;
      broadcast ~salt;
      Mutex.lock mb.mb_lock
  done;
  let replies, round = Protocol.Round.close mb.mb_round in
  mb.mb_round <- round;
  Mutex.unlock mb.mb_lock;
  match replies with
  | Ok replies -> k replies
  | Error msg -> raise (Unavailable msg)

let with_round h f = Mutex.protect h.mb.mb_lock (fun () -> f h.mb.mb_round)
let rounds_started h = with_round h Protocol.Round.started
let rounds_completed h = with_round h Protocol.Round.completed
let late_replies h = with_round h Protocol.Round.late
let retries h = with_round h Protocol.Round.retried

let dropped_replies t = Atomic.get t.dropped
