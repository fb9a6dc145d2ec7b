(** A register server daemon: one {!Registers.Replica} behind a TCP
    listen socket, served by a non-blocking reactor.

    The daemon hosts exactly the replica state machine the simulator
    uses — [current] value plus the full-information value vector with
    [updated] sets — and answers Query/Update requests per the paper's
    server algorithm (Algorithm 2).  Instead of a thread per connection,
    an event loop (epoll where available, poll elsewhere) drives
    non-blocking sockets: each connection's bytes feed an incremental
    {!Codec.Stream}, every complete frame decoded by one wakeup is
    handled as a batch under a single replica-lock acquisition, and the
    batch's replies coalesce into one write from a per-connection
    out-queue.  A peer that stops reading costs a write-interest
    registration (backpressure), never a blocked thread — which is what
    lets one daemon hold 1000+ concurrent connections.

    With [shards > 1] the connections are dealt round-robin across that
    many event loops, one domain each; the replica itself stays behind
    one lock (the model's one-message-at-a-time server), so shards scale
    the socket work, not the state machine.

    Servers never talk to each other (the model's communication
    restriction is structural here: nothing ever dials out). *)

type t

val start :
  ?host:string ->
  ?port:int ->
  ?id:int ->
  ?shards:int ->
  ?faults:Faults.t ->
  ?keyspace:Registers.Keyspace.t ->
  replica:Registers.Replica.t ->
  unit ->
  t
(** Bind [host:port] (default [127.0.0.1:0] — port 0 picks an ephemeral
    port, see {!port}) and serve until {!stop}.  [id] is the server's
    index, echoed in every reply so clients can attribute messages.
    [shards] (default 1) is the number of reactor event loops.
    [faults] subjects every reply frame to the plan's [From_server]
    rules: drops and blackouts lose it, delays park it on the owning
    shard's timer queue and deliver it late, duplicates send it twice,
    truncation tears the frame mid-byte and severs the connection.
    [keyspace] (default fresh and empty) answers keyed requests: a
    [Codec.Keyed_request] dispatches to the named per-key replica, under
    the same lock as [replica], and is answered with a [Keyed_reply]
    echoing the key.  Unkeyed traffic is untouched. *)

val port : t -> int
(** The actual bound port. *)

val replica : t -> Registers.Replica.t
(** The hosted state machine (inspection/tests). *)

val keyspace : t -> Registers.Keyspace.t
(** The hosted named-register table (inspection/tests/recovery). *)

val connection_count : t -> int
(** Live connections across all shards.  Observability for tests: must
    return to 0 once every client has disconnected — the reactor closes
    a connection the moment its socket reports EOF, with no reaper tick
    in between. *)

val stop : t -> unit
(** Crash the server: stop accepting, close every client connection,
    join the shard loops.  Clients observe EOF/ECONNREFUSED — exactly
    the crash failures the [t]-tolerant quorum logic must survive.
    Idempotent. *)
