(** A multiplexed live data plane: one TCP connection per server per
    process, shared by every client endpoint.

    The per-client-socket transport ({!Endpoint.create}) opens [C × S]
    sockets for [C] clients against [S] servers and spins a fresh
    poll loop inside every operation.  At production client
    counts that drowns the paper's round-trip economics in transport
    overhead.  The mux replaces it with:

    - [S] shared connections, each written under a per-connection lock
      with a reused encode buffer (no per-frame allocation once warm);
    - one demux reader thread per connection that decodes [Reply] frames
      and routes them by [(client, rt)] into per-client mailboxes
      (mutex + condvar) — no poll loop, no per-iteration fd scans;
    - {!exec} = encode once, enqueue on the [S] shared connections,
      block on the caller's own mailbox until quorum or timeout.

    The round-trip contract is {!Protocol.Round}, the same machine
    {!Endpoint} drives: broadcast to all [S] servers, complete on the
    first [S − t] replies in arrival order, count stragglers late,
    re-broadcast on timeout a bounded number of times, raise
    {!Unavailable} when the retry budget is spent.  Crashed servers sever their connection (the demux thread
    sees EOF) and reconnects back off exponentially, so [t] real kills
    remain survivable.

    One {!handle} belongs to one client thread; operations are
    sequential per client, so a single in-flight round trip per mailbox
    suffices. *)

exception Unavailable of string
(** Raised by {!exec} when no quorum answered within the retry budget. *)

type t
(** The shared data plane: [S] connections plus their demux threads. *)

type handle
(** One client's view of the plane: a mailbox plus round-trip counters. *)

val create :
  ?rt_timeout:float ->
  ?max_rt_retries:int ->
  ?connect_retries:int ->
  ?connect_backoff:float ->
  ?faults:Faults.t ->
  servers:Unix.sockaddr array ->
  quorum:int ->
  unit ->
  t
(** Dial every server (tolerating failures) and start the demux
    threads.  Parameter meanings and defaults match {!Endpoint.create};
    [faults] subjects every outgoing request frame to the plan's
    [To_server] rules ({!Faults}) — note a truncated frame severs the
    {e shared} connection, so every rider reconnects and retries. *)

val client : t -> client:int -> handle
(** Register client [client] (its node id, {!Protocol.Topology}
    numbering) and return its handle.  Registering the same id again
    replaces the previous route. *)

val exec :
  ?key:string ->
  handle ->
  Registers.Wire.req ->
  ((int * Registers.Wire.rep) list -> unit) ->
  unit
(** One round trip over the shared connections.  The continuation
    receives [(server_index, reply)] pairs in arrival order and runs in
    the calling thread.  With [key] the request addresses that named
    register of each server's keyspace ([Codec.Keyed_request]); only
    replies echoing the same key count toward the quorum — a reply for
    any other key is dropped (see {!dropped_replies}), never delivered.
    @raise Unavailable when fewer than [quorum] servers answered. *)

val rounds_started : handle -> int
val rounds_completed : handle -> int

val late_replies : handle -> int
(** Replies classified {!Protocol.Round.Late}: for a round that was no
    longer open, duplicates, and stragglers past the quorum. *)

val retries : handle -> int
(** Re-broadcasts issued after a round-trip timeout. *)

val dropped_replies : t -> int
(** Replies that matched no open round trip at all and were discarded:
    an unknown (released or never-registered) client id, or a key that
    differs from the one the client's open round trip asked for.  Either
    way the reply could not have been delivered anywhere — it is counted
    here and dropped without touching any mailbox's quorum state. *)

val release : handle -> unit
(** Unregister the client's route.  Replies still in flight for it are
    dropped; the shared connections stay up for other clients. *)

val shutdown : t -> unit
(** Sever every connection, stop the demux and ticker threads, and join
    them.  Idempotent. *)
