open Registers

(* A non-blocking reactor replaces the old thread-per-connection design:
   each shard runs one event loop over an epoll/poll {!Netio.Poller},
   owns a disjoint set of connections, and is the only thread that ever
   touches them — connection state needs no locks at all.  The replica
   stays shared behind [replica_lock] (the model's one-message-at-a-time
   server), so shards scale the *socket* work, not the state machine. *)

(* Per-connection outbound queue: a flat byte window [off, off+len) that
   replies are appended to and the flush path consumes from the front.
   Batched writes coalesce here — everything a wakeup produced leaves in
   one write — and when the peer stops reading, the queue simply grows
   while write interest keeps backpressure visible to the poller. *)
module Outq = struct
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let create n = { buf = Bytes.create n; off = 0; len = 0 }

  let is_empty q = q.len = 0

  let ensure q extra =
    let need = q.len + extra in
    if q.off + need > Bytes.length q.buf then
      if need <= Bytes.length q.buf then begin
        (* Enough total room: slide the window back to the start. *)
        Bytes.blit q.buf q.off q.buf 0 q.len;
        q.off <- 0
      end
      else begin
        let cap = ref (max 4096 (2 * Bytes.length q.buf)) in
        while !cap < need do
          cap := 2 * !cap
        done;
        let nb = Bytes.create !cap in
        Bytes.blit q.buf q.off nb 0 q.len;
        q.buf <- nb;
        q.off <- 0
      end

  let add_buffer q b =
    let n = Buffer.length b in
    ensure q n;
    Buffer.blit b 0 q.buf (q.off + q.len) n;
    q.len <- q.len + n

  let add_string q s =
    let n = String.length s in
    ensure q n;
    Bytes.blit_string s 0 q.buf (q.off + q.len) n;
    q.len <- q.len + n

  let consume q n =
    q.off <- q.off + n;
    q.len <- q.len - n;
    if q.len = 0 then q.off <- 0
end

type conn = {
  cfd : Unix.file_descr;
  ckey : int; (* fd number: the shard's connection-table key *)
  stream : Codec.Stream.t;
  outq : Outq.t;
  mutable want_write : bool; (* write interest registered *)
  mutable sever : bool; (* close once the out-queue drains *)
  mutable frames : int; (* reply frames decided; salts the fault plan *)
}

(* A delayed reply delivery (fault plan): encoded bytes parked on the
   owning shard's timer queue instead of a delayer thread's stack.  The
   shard's poll timeout shrinks to the nearest deadline, and a timer
   whose connection died meanwhile just drops the frame — also a legal
   behaviour of the link being modelled. *)
type timer = { tkey : int; payload : string }

type shard = {
  snum : int;
  poller : Netio.Poller.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  lock : Mutex.t; (* guards [inbox] only *)
  mutable inbox : Unix.file_descr list; (* conns handed over by shard 0 *)
  conns : (int, conn) Hashtbl.t; (* shard-thread private *)
  mutable timers : timer Deadline_queue.t; (* shard-thread private *)
  rbuf : Bytes.t;
  reply_buf : Buffer.t;
  frame_buf : Buffer.t;
}

type runner = T of Thread.t | D of unit Domain.t

type t = {
  id : int;
  listen_fd : Unix.file_descr;
  port : int;
  replica : Replica.t;
  keyspace : Keyspace.t; (* named registers, same lock as [replica] *)
  replica_lock : Mutex.t;
  faults : Faults.t option;
  shards : shard array;
  stopping : bool Atomic.t;
  live_conns : int Atomic.t;
  mutable rr : int; (* round-robin shard cursor; shard 0's thread only *)
  mutable runners : runner list;
}

(* A peer closing its socket mid-write must surface as EPIPE on that
   write, not kill the whole process. *)
let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

(* The idle tick: an upper bound on how long a shard sleeps when nothing
   is ready and no timer is due, and therefore on [stop]'s worst-case
   latency if a wakeup byte were ever lost. *)
let tick = 0.2

(* Backpressure ceiling for one connection's out-queue.  A peer that
   stops reading (or reads far slower than it asks) would otherwise grow
   its queue without bound — the quorum keeps completing on the other
   replicas, so nothing upstream ever slows down for it.  Severing the
   link is a behaviour the model already covers: the client sees a
   dropped connection and re-broadcasts after reconnecting. *)
let outq_limit = 4 * 1024 * 1024

let port t = t.port

let replica t = t.replica

let keyspace t = t.keyspace

let connection_count t = Atomic.get t.live_conns

let close_conn t sh c =
  if Hashtbl.mem sh.conns c.ckey then begin
    Hashtbl.remove sh.conns c.ckey;
    (* Unregister before close: the fd number is reusable the instant
       close returns, and the poller must never see it secondhand. *)
    Netio.Poller.remove sh.poller c.cfd;
    (try Unix.close c.cfd with Unix.Unix_error _ -> ());
    Atomic.decr t.live_conns
  end

(* Flush the out-queue: write until drained or the kernel pushes back.
   EAGAIN registers write interest — the poller re-invokes us when the
   peer drains its side — and a drained queue clears it, so a slow
   reader costs exactly one interest toggle, never a blocked thread. *)
let rec flush t sh c =
  if Outq.is_empty c.outq then begin
    if c.want_write then begin
      c.want_write <- false;
      Netio.Poller.set_write sh.poller c.cfd false
    end;
    if c.sever then close_conn t sh c
  end
  else
    match Netio.write_nb c.cfd c.outq.Outq.buf c.outq.Outq.off c.outq.Outq.len with
    | Some n ->
      Outq.consume c.outq n;
      flush t sh c
    | None ->
      if not c.want_write then begin
        c.want_write <- true;
        Netio.Poller.set_write sh.poller c.cfd true
      end
    | exception Unix.Unix_error _ -> close_conn t sh c

(* Run one wakeup's worth of decoded requests through the replica under
   a single lock acquisition (the batch fast path for multiplexed client
   connections), decide each reply frame's fate under the fault plan,
   and coalesce every immediate delivery into one flush.  Keyed requests
   dispatch to the keyspace's per-key replica under the same lock — the
   model's one-message-at-a-time server, per register. *)
let process_requests t sh c requests =
  let reps =
    Mutex.protect t.replica_lock (fun () ->
        List.map
          (fun (rt, client, key, req) ->
            let rep =
              match key with
              | None -> Replica.handle t.replica ~client req
              | Some key -> Keyspace.handle t.keyspace ~key ~client req
            in
            (rt, client, key, rep))
          requests)
  in
  Buffer.clear sh.reply_buf;
  List.iter
    (fun (rt, client, key, rep) ->
      let frame =
        match key with
        | None -> Codec.Reply { rt; client; server = t.id; rep }
        | Some key -> Codec.Keyed_reply { key; rt; client; server = t.id; rep }
      in
      match t.faults with
      | None ->
        Codec.encode_into sh.frame_buf frame;
        Buffer.add_buffer sh.reply_buf sh.frame_buf
      | Some plan ->
        if not c.sever then begin
          c.frames <- c.frames + 1;
          let ds =
            Faults.deliveries plan ~dir:Faults.From_server ~server:t.id
              ~client ~rt ~salt:c.frames
          in
          List.iter
            (fun { Faults.after; truncated } ->
              if truncated then begin
                (* A torn frame: ship a prefix, then sever (once the
                   queue drains).  The client's strict decoder rejects
                   the stream and reconnects. *)
                Codec.encode_into sh.frame_buf frame;
                let prefix = max 1 (Buffer.length sh.frame_buf / 2) in
                Buffer.add_string sh.reply_buf
                  (Buffer.sub sh.frame_buf 0 prefix);
                c.sever <- true
              end
              else if after > 0.0 then
                sh.timers <-
                  Deadline_queue.add sh.timers ~due:(Clock.now () +. after)
                    { tkey = c.ckey; payload = Codec.encode frame }
              else begin
                Codec.encode_into sh.frame_buf frame;
                Buffer.add_buffer sh.reply_buf sh.frame_buf
              end)
            ds
        end)
    reps;
  if Buffer.length sh.reply_buf > 0 then Outq.add_buffer c.outq sh.reply_buf;
  if c.outq.Outq.len > outq_limit then close_conn t sh c else flush t sh c

let rec fire_timers t sh now =
  match Deadline_queue.pop_due sh.timers ~now with
  | None -> ()
  | Some (tm, rest) ->
    sh.timers <- rest;
    (match Hashtbl.find_opt sh.conns tm.tkey with
    | None -> () (* the connection died while the frame was in flight *)
    | Some c ->
      if not c.sever then begin
        Outq.add_string c.outq tm.payload;
        if c.outq.Outq.len > outq_limit then close_conn t sh c
        else flush t sh c
      end);
    fire_timers t sh now

(* Readable event: drain the socket to EAGAIN through the incremental
   decoder, then process every complete frame as one batch.  Frames
   decoded before an error still get answers; the error still severs. *)
let handle_readable t sh c =
  let closed = ref false in
  (try
     let more = ref true in
     while !more do
       match Netio.read_nb c.cfd sh.rbuf 0 (Bytes.length sh.rbuf) with
       | None -> more := false
       | Some 0 ->
         more := false;
         closed := true
       | Some n ->
         Codec.Stream.feed c.stream sh.rbuf n;
         (* A short read means the socket buffer is (currently) empty:
            skip the confirming EAGAIN syscall. *)
         if n < Bytes.length sh.rbuf then more := false
     done
   with Unix.Unix_error _ -> closed := true);
  let requests = ref [] in
  (try
     let rec go () =
       match Codec.Stream.next c.stream with
       | None -> ()
       | Some (Codec.Reply _) | Some (Codec.Keyed_reply _) ->
         (* Only servers speak replies; a confused peer is cut off. *)
         closed := true
       | Some (Codec.Request { rt; client; req }) ->
         requests := (rt, client, None, req) :: !requests;
         go ()
       | Some (Codec.Keyed_request { key; rt; client; req }) ->
         requests := (rt, client, Some key, req) :: !requests;
         go ()
     in
     go ()
   with Codec.Decode_error _ -> closed := true);
  if !requests <> [] then process_requests t sh c (List.rev !requests);
  if !closed then close_conn t sh c

let register_conn sh fd =
  let c =
    {
      cfd = fd;
      ckey = Netio.fd_int fd;
      stream = Codec.Stream.create ();
      outq = Outq.create 4096;
      want_write = false;
      sever = false;
      frames = 0;
    }
  in
  Hashtbl.replace sh.conns c.ckey c;
  Netio.Poller.add sh.poller fd ~want_write:false

(* Accept runs in shard 0 and deals connections round-robin; a foreign
   shard gets the fd through its locked inbox plus a wakeup byte.  Any
   unexpected accept failure (e.g. EMFILE) just ends this round — the
   level-triggered poller re-reports the backlog next tick. *)
let do_accept t sh0 =
  let more = ref true in
  while !more do
    match Netio.accept_nb t.listen_fd with
    | None -> more := false
    | exception Unix.Unix_error _ -> more := false
    | Some fd ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Netio.set_nonblock fd;
      let sh = t.shards.(t.rr mod Array.length t.shards) in
      t.rr <- t.rr + 1;
      Atomic.incr t.live_conns;
      if sh == sh0 then register_conn sh fd
      else begin
        Mutex.protect sh.lock (fun () -> sh.inbox <- fd :: sh.inbox);
        Netio.notify sh.wake_w
      end
  done

let drain_inbox t sh =
  let fds =
    Mutex.protect sh.lock (fun () ->
        let l = sh.inbox in
        sh.inbox <- [];
        List.rev l)
  in
  List.iter
    (fun fd ->
      if Atomic.get t.stopping then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Atomic.decr t.live_conns
      end
      else register_conn sh fd)
    fds

let shard_loop t sh =
  let wake_key = Netio.fd_int sh.wake_r in
  let listen_key = if sh.snum = 0 then Netio.fd_int t.listen_fd else -1 in
  while not (Atomic.get t.stopping) do
    let timeout =
      Float.max 0.0
        (Float.min tick (Deadline_queue.next_due sh.timers -. Clock.now ()))
    in
    ignore
      (Netio.Poller.wait sh.poller ~timeout
         (fun fd ~readable ~writable ->
           let k = Netio.fd_int fd in
           if k = wake_key then begin
             if readable then Netio.drain_wake sh.wake_r
           end
           else if k = listen_key then begin
             if readable && not (Atomic.get t.stopping) then do_accept t sh
           end
           else
             match Hashtbl.find_opt sh.conns k with
             | None -> () (* closed earlier in this same dispatch round *)
             | Some c ->
               if writable then flush t sh c;
               (* The flush may have severed the connection. *)
               if readable && Hashtbl.mem sh.conns k then
                 handle_readable t sh c));
    drain_inbox t sh;
    fire_timers t sh (Clock.now ())
  done;
  (* Teardown on the owning thread: close every connection (clients see
     the crash as EOF/reset) and refuse late inbox handovers. *)
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) sh.conns [] in
  List.iter (fun c -> close_conn t sh c) remaining;
  drain_inbox t sh

let start ?(host = "127.0.0.1") ?(port = 0) ?(id = 0) ?(shards = 1) ?faults
    ?keyspace ~replica () =
  let keyspace =
    match keyspace with Some ks -> ks | None -> Keyspace.create ()
  in
  if shards < 1 then invalid_arg "Server.start: shards must be >= 1";
  Lazy.force ignore_sigpipe;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  (try Unix.bind fd addr
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (* A reactor accepts thousands of near-simultaneous connects (the
     high-C sweep opens them in a burst): give the backlog headroom. *)
  Unix.listen fd 1024;
  Netio.set_nonblock fd;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let mk_shard snum =
    let wake_r, wake_w = Unix.pipe () in
    Netio.set_nonblock wake_r;
    Netio.set_nonblock wake_w;
    let poller = Netio.Poller.create () in
    Netio.Poller.add poller wake_r ~want_write:false;
    {
      snum;
      poller;
      wake_r;
      wake_w;
      lock = Mutex.create ();
      inbox = [];
      conns = Hashtbl.create 64;
      timers = Deadline_queue.empty;
      rbuf = Bytes.create 65536;
      reply_buf = Buffer.create 4096;
      frame_buf = Buffer.create 512;
    }
  in
  let shard_a = Array.init shards mk_shard in
  let t =
    {
      id;
      listen_fd = fd;
      port;
      replica;
      keyspace;
      replica_lock = Mutex.create ();
      faults;
      shards = shard_a;
      stopping = Atomic.make false;
      live_conns = Atomic.make 0;
      rr = 0;
      runners = [];
    }
  in
  Netio.Poller.add shard_a.(0).poller fd ~want_write:false;
  (* One shard rides a plain thread; more get a domain each, so shards
     actually run in parallel instead of time-slicing one runtime lock. *)
  t.runners <-
    (if shards = 1 then
       [ T (Thread.create (fun () -> shard_loop t shard_a.(0)) ()) ]
     else
       Array.to_list
         (Array.map (fun sh -> D (Domain.spawn (fun () -> shard_loop t sh)))
            shard_a));
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Array.iter (fun sh -> Netio.notify sh.wake_w) t.shards;
    List.iter (function T th -> Thread.join th | D d -> Domain.join d)
      t.runners;
    t.runners <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Array.iter
      (fun sh ->
        Netio.Poller.close sh.poller;
        (try Unix.close sh.wake_r with Unix.Unix_error _ -> ());
        (try Unix.close sh.wake_w with Unix.Unix_error _ -> ()))
      t.shards
  end
