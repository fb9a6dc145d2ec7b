(** A live client endpoint: the simulator's {!Protocol.Round_trip}
    contract over real TCP sockets.

    [exec] broadcasts a request to all [S] servers and completes on the
    first [S − t] replies *in arrival order*; replies that arrive after
    completion are counted late, exactly like the simulated endpoint.
    Each round trip has a timeout; on expiry the request is re-broadcast
    to the servers still missing (reconnecting dropped links) a bounded
    number of times before {!Unavailable} is raised.  Both planes
    delegate these decisions to {!Protocol.Round}, so they count the
    same replies the same way.  Connect failures
    back off exponentially and give up after a bounded number of
    consecutive attempts, so crashed servers cost a vanishing amount of
    effort — [t] real process kills are survivable as long as [S − t]
    servers keep answering.

    Two data planes satisfy this contract:

    - {!create} — the private path: this client owns [S] sockets and
      polls them with poll(2) inside each operation.  Simple, but
      [C × S] sockets and [C] poll loops at [C] clients.
    - {!of_mux} — the multiplexed path ({!Mux}): all clients in the
      process share one connection per server; replies are routed to
      per-client mailboxes by a demux thread per connection.  This is
      the production data plane.

    One endpoint belongs to one client thread; operations are issued
    sequentially (the CPS algorithms nest their rounds), so there is at
    most one round trip in flight per endpoint. *)

exception Unavailable of string
(** Raised by [exec] when no quorum answered within the retry budget.
    The same exception as {!Mux.Unavailable}, whichever plane raised
    it. *)

type t

val create :
  ?rt_timeout:float ->
  ?max_rt_retries:int ->
  ?connect_retries:int ->
  ?connect_backoff:float ->
  ?faults:Faults.t ->
  client:int ->
  servers:Unix.sockaddr array ->
  quorum:int ->
  unit ->
  t
(** [create ~client ~servers ~quorum ()] dials every server (tolerating
    failures) and returns a private-socket endpoint.  [client] is this
    client's node id as recorded in the servers' [updated] sets — use
    the same numbering as {!Protocol.Topology} (writer [i] ↦ [S + i],
    reader [j] ↦ [S + W + j]) so live and simulated certificates agree.
    [rt_timeout] (default 1s) bounds each round trip; [max_rt_retries]
    (default 3) bounds re-broadcasts; [connect_retries]/[connect_backoff]
    bound reconnect attempts per server.  [faults] subjects every
    outgoing request frame to the plan's [To_server] rules
    ({!Faults}). *)

val of_mux : Mux.handle -> t
(** An endpoint over a client handle of a shared {!Mux} plane. *)

val exec :
  ?key:string ->
  t ->
  Registers.Wire.req ->
  ((int * Registers.Wire.rep) list -> unit) ->
  unit
(** One round trip.  The continuation receives [(server_index, reply)]
    pairs in arrival order and runs in the calling thread.  With [key]
    the round trip addresses that named register of the servers'
    keyspaces; only replies echoing the same key count toward the
    quorum, on either plane.
    @raise Unavailable when fewer than [quorum] servers answered. *)

val endpoint : t -> Registers.Client_core.endpoint
(** The endpoint as the backend-agnostic capability consumed by the
    {!Registers.Client_core} algorithms. *)

val keyed_endpoint : t -> key:string -> Registers.Client_core.endpoint
(** The same capability pinned to one named register: every round trip
    it executes carries [key], so a key-blind protocol algorithm runs
    against that register unchanged. *)

val rounds_started : t -> int
val rounds_completed : t -> int

val late_replies : t -> int
(** Replies for a round trip that was no longer open, duplicates, and
    stragglers past the quorum ({!Protocol.Round.Late}) — the live
    analogue of the simulator's late-message count.  A reply with the
    open round's id but another register key is not late: the mux
    counts it in {!Mux.dropped_replies}. *)

val retries : t -> int
(** Re-broadcasts issued after a round-trip timeout — 0 on a clean run,
    and the visible cost of lossy links under a fault plan. *)

val close : t -> unit
(** Private path: drop every connection (the endpoint may be used again;
    it will redial).  Mux path: release this client's mailbox route —
    the shared connections stay up for other clients until the owning
    {!Mux.t} is {!Mux.shutdown}. *)
