open Registers

(* One exception for both data planes, so callers catch quorum loss the
   same way whichever path is active. *)
exception Unavailable = Mux.Unavailable

(* ------------------------------------------------------------------ *)
(* The private per-client-socket path                                 *)
(*                                                                    *)
(* Each client owns S sockets and polls them (poll(2) via Netio)      *)
(* inside every operation.  Kept as the baseline the multiplexed      *)
(* plane is measured against: bench `live` records both.              *)
(* ------------------------------------------------------------------ *)

type conn = {
  addr : Unix.sockaddr;
  mutable fd : Unix.file_descr option;
  mutable stream : Codec.Stream.t;
  mutable attempts : int; (* consecutive failed connects *)
  mutable next_attempt : float; (* wall-clock gate for the next connect *)
}

type sockets = {
  client : int;
  conns : conn array;
  connect_retries : int;
  connect_backoff : float;
  faults : Faults.t option;
  mutable round : Wire.rep Protocol.Round.t;
  read_buf : Bytes.t;
  enc : Buffer.t; (* reused encode buffer *)
  mutable out : Bytes.t; (* reused write staging *)
  (* Fault-plan deliveries scheduled for later: (payload copy, server
     index, truncated).  The op's poll loop drains due entries and
     shrinks its timeout to the nearest one; the sender never sleeps, so
     a delay on one link cannot push back the sends to the rest of the
     fan-out.  One client thread owns the endpoint, so no lock. *)
  mutable staged : (Bytes.t * int * bool) Deadline_queue.t;
}

type t =
  | Sockets of sockets
  | Shared of Mux.handle

(* All deadlines and backoff gates run on the monotonic clock: a wall
   time step must not fire or stall every timeout at once. *)
let now = Clock.now

(* A server crashing mid-write must surface as EPIPE on that write, not
   kill the client process. *)
let ignore_sigpipe =
  lazy
    (if Sys.os_type = "Unix" then
       try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

let drop c =
  (match c.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  c.fd <- None;
  c.stream <- Codec.Stream.create ()

(* Bounded, exponentially backed-off reconnect.  Loopback connects to a
   dead port fail fast (ECONNREFUSED), so killed servers cost little. *)
let try_connect t c =
  match c.fd with
  | Some fd -> Some fd
  | None ->
    if c.attempts > t.connect_retries || now () < c.next_attempt then None
    else begin
      let fail () =
        c.attempts <- c.attempts + 1;
        c.next_attempt <-
          now () +. (t.connect_backoff *. float_of_int (1 lsl min c.attempts 6));
        None
      in
      (* [socket] itself can fail (EMFILE under fd pressure): that must
         land in the same backoff path as a refused connect, not escape
         and kill the client thread with a non-protocol exception. *)
      match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> fail ()
      | fd -> (
        match
          Unix.connect fd c.addr;
          Unix.setsockopt fd Unix.TCP_NODELAY true
        with
        | () ->
          c.fd <- Some fd;
          c.stream <- Codec.Stream.create ();
          c.attempts <- 0;
          Some fd
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          fail ())
    end

let create ?(rt_timeout = 1.0) ?(max_rt_retries = 3) ?(connect_retries = 8)
    ?(connect_backoff = 0.02) ?faults ~client ~servers ~quorum () =
  Lazy.force ignore_sigpipe;
  let n = Array.length servers in
  if quorum <= 0 || quorum > n then
    invalid_arg "Endpoint.create: quorum out of range";
  let t =
    {
      client;
      conns =
        Array.map
          (fun addr ->
            {
              addr;
              fd = None;
              stream = Codec.Stream.create ();
              attempts = 0;
              next_attempt = 0.0;
            })
          servers;
      connect_retries;
      connect_backoff;
      faults;
      round =
        Protocol.Round.create ~client ~quorum ~timeout:rt_timeout
          ~max_retries:max_rt_retries;
      read_buf = Bytes.create 65536;
      enc = Buffer.create 256;
      out = Bytes.create 256;
      staged = Deadline_queue.empty;
    }
  in
  (* Optimistic first dial; failures just leave the conn in backoff. *)
  Array.iter (fun c -> ignore (try_connect t c)) t.conns;
  Sockets t

let of_mux h = Shared h

(* [Netio.write_all] retries EINTR internally: only a real link failure
   reaches the handler and severs the connection. *)
let send_bytes c bytes len =
  match c.fd with
  | None -> false
  | Some fd -> (
    try
      Netio.write_all fd bytes 0 len;
      true
    with Unix.Unix_error _ ->
      drop c;
      false)

(* Send a torn frame — [prefix] bytes of it — then sever the link, so
   the server's strict decoder rejects the stream (fault injection). *)
let send_truncated c bytes len =
  (match c.fd with
  | None -> ()
  | Some fd -> (
    let prefix = max 1 (len / 2) in
    try Netio.write_all fd bytes 0 prefix with Unix.Unix_error _ -> ()));
  drop c

(* Deliver every staged frame whose deadline has passed.  Frames may
   outlive the round (or even the operation) that sent them — the
   asynchrony being modelled; the replies they draw count as late. *)
let rec drain_staged t =
  match Deadline_queue.pop_due t.staged ~now:(now ()) with
  | None -> ()
  | Some ((payload, i, truncated), rest) ->
    t.staged <- rest;
    let c = t.conns.(i) in
    if truncated then send_truncated c payload (Bytes.length payload)
    else ignore (send_bytes c payload (Bytes.length payload));
    drain_staged t

(* One round trip on the private sockets: {!Protocol.Round} decides
   which replies count and when to re-broadcast or give up; this loop
   moves the frames.  One endpoint serves one client thread, so the
   round needs no lock. *)
let sockets_exec ?key t req k =
  let rt, round = Protocol.Round.open_ t.round ~now:(now ()) ~key in
  t.round <- round;
  let sent = Array.make (Array.length t.conns) false in
  let attempt = ref 0 in
  (* Encode once into the reused buffer; the same bytes go to every
     server. *)
  let frame =
    match key with
    | None -> Codec.Request { rt; client = t.client; req }
    | Some key -> Codec.Keyed_request { key; rt; client = t.client; req }
  in
  Codec.encode_into t.enc frame;
  let len = Buffer.length t.enc in
  if len > Bytes.length t.out then
    t.out <- Bytes.create (max len (2 * Bytes.length t.out));
  Buffer.blit t.enc 0 t.out 0 len;
  (* Label replies with the connection's server index — it is
     authoritative, unlike the peer-reported field. *)
  let offer i rt key rep =
    t.round <- snd (Protocol.Round.offer t.round ~server:i ~rt ~key rep)
  in
  let handle_frame i = function
    | Codec.Request _ | Codec.Keyed_request _ ->
      (* Servers never send requests; treat as a broken peer. *)
      drop t.conns.(i)
    | Codec.Reply { rt; client = _; server = _; rep } -> offer i rt None rep
    | Codec.Keyed_reply { key; rt; client = _; server = _; rep } ->
      offer i rt (Some key) rep
  in
  let broadcast () =
    Array.iteri
      (fun i c ->
        if (not (Protocol.Round.replied t.round i)) && not sent.(i) then
          match try_connect t c with
          | None -> ()
          | Some _ -> (
            match t.faults with
            | None -> sent.(i) <- send_bytes c t.out len
            | Some plan ->
              (* The attempt number salts the plan's per-frame draw: a
                 request dropped on this attempt gets a fresh decision
                 on the next re-broadcast, so lossy links slow rounds
                 down instead of wedging them. *)
              let ds =
                Faults.deliveries plan ~dir:Faults.To_server ~server:i
                  ~client:t.client ~rt ~salt:!attempt
              in
              if ds = [] then sent.(i) <- true (* lost on the wire *)
              else
                List.iter
                  (fun { Faults.after; truncated } ->
                    if after > 0.0 then begin
                      (* Park it and keep fanning out: a delay on this
                         link must not push back the send time to the
                         later servers of the round.  Copied because
                         [t.out] is reused by the next operation. *)
                      t.staged <-
                        Deadline_queue.add t.staged ~due:(now () +. after)
                          (Bytes.sub t.out 0 len, i, truncated);
                      sent.(i) <- true
                    end
                    else if truncated then begin
                      send_truncated c t.out len;
                      sent.(i) <- true
                    end
                    else sent.(i) <- send_bytes c t.out len)
                  ds))
      t.conns
  in
  let read_ready fds =
    Array.iteri
      (fun i c ->
        match c.fd with
        | Some fd when List.memq fd fds -> (
          match Netio.read fd t.read_buf 0 (Bytes.length t.read_buf) with
          | 0 -> drop c
          | nread -> (
            Codec.Stream.feed c.stream t.read_buf nread;
            try
              let rec drain () =
                match Codec.Stream.next c.stream with
                | Some f ->
                  handle_frame i f;
                  drain ()
                | None -> ()
              in
              drain ()
            with Codec.Decode_error _ -> drop c)
          | exception Unix.Unix_error _ -> drop c)
        | _ -> ())
      t.conns
  in
  broadcast ();
  let rec loop () =
    if not (Protocol.Round.complete t.round) then
      let step, round = Protocol.Round.expire t.round ~now:(now ()) in
      t.round <- round;
      match step with
      | Protocol.Round.Give_up -> ()
      | Protocol.Round.Retry n ->
        (* Round-trip timed out: re-broadcast to the servers that have
           not replied (reconnecting if their link dropped). *)
        attempt := n;
        Array.fill sent 0 (Array.length sent) false;
        broadcast ();
        loop ()
      | Protocol.Round.Wait ->
        (* Keep nudging reconnects whose backoff gate has opened, and
           fire any staged deliveries that have come due. *)
        broadcast ();
        drain_staged t;
        (* Wait no longer than the nearest staged deadline (0.5 ms
           floor), so parked frames go out on time instead of
           quantising to the 50 ms poll tick. *)
        let t_now = now () in
        let cap =
          Float.max 0.0 (Float.min (Protocol.Round.deadline t.round -. t_now) 0.05)
        in
        let due = Deadline_queue.next_due t.staged in
        let timeout =
          if due = infinity then cap
          else Float.max 0.0005 (Float.min cap (due -. t_now))
        in
        let live = Array.to_list t.conns |> List.filter_map (fun c -> c.fd) in
        (if live = [] then Thread.delay (Float.min 0.01 timeout)
         else
           (* poll(2) via Netio, not [Unix.select]: descriptor numbers
              pass 1024 routinely once hundreds of clients each hold S
              sockets, and select corrupts its fd_set beyond FD_SETSIZE.
              EINTR returns [[]]; a connection that died between listing
              and polling is reported ready, and the read path drops
              it. *)
           match Netio.wait_readable live timeout with
           | [] -> ()
           | fds -> read_ready fds);
        loop ()
  in
  loop ();
  let replies, round = Protocol.Round.close t.round in
  t.round <- round;
  match replies with
  | Ok replies -> k replies
  | Error msg -> raise (Unavailable msg)

(* ------------------------------------------------------------------ *)
(* The common face                                                     *)
(* ------------------------------------------------------------------ *)

let exec ?key t req k =
  match t with
  | Sockets s -> sockets_exec ?key s req k
  | Shared h -> Mux.exec ?key h req k

let endpoint t = { Client_core.exec = (fun req k -> exec t req k) }

(* The same endpoint viewed through one register of the keyspace: the
   protocol algorithms stay key-blind, the key rides every round trip. *)
let keyed_endpoint t ~key =
  { Client_core.exec = (fun req k -> exec ~key t req k) }

let rounds_started = function
  | Sockets s -> Protocol.Round.started s.round
  | Shared h -> Mux.rounds_started h

let rounds_completed = function
  | Sockets s -> Protocol.Round.completed s.round
  | Shared h -> Mux.rounds_completed h

let late_replies = function
  | Sockets s -> Protocol.Round.late s.round
  | Shared h -> Mux.late_replies h

let retries = function
  | Sockets s -> Protocol.Round.retried s.round
  | Shared h -> Mux.retries h

let close = function
  | Sockets s -> Array.iter drop s.conns
  | Shared h -> Mux.release h
