(** Deterministic, seeded fault plans for the live transport.

    The paper's model is crash-prone asynchrony: links may delay,
    reorder, duplicate or lose messages, and up to [t] of [S] servers
    may crash.  {!Cluster.kill} exercises only the crash half.  A fault
    plan makes the link half executable: a set of {e rules} describing
    which frames to drop, delay, duplicate or truncate on which
    client↔server links during which time windows, plus absolute
    connectivity faults (one-way link cuts, partitions, per-server
    reply blackouts).

    {2 Injection points}

    A plan is shared by a whole cluster and consulted at the frame
    level:

    - both client planes ({!Endpoint}, {!Mux}) consult the
      [To_server] direction before sending a request frame to each
      server;
    - the server ({!Server}) consults the [From_server] direction
      before sending each reply frame.  A delayed reply parks on the
      owning reactor shard's timer queue (there are no delayer threads):
      the shard's poll timeout shrinks to the nearest deadline, and the
      frame is appended to the connection's out-queue when it fires —
      or silently dropped if the connection died first, which is also a
      legal behaviour of the link being modelled.

    So a rule with [dir = Some To_server] faults the request leg only,
    [Some From_server] the reply leg only, and [None] both — the
    one-way cuts of the asynchronous model.

    {2 Determinism}

    Every per-frame decision is a pure hash of
    [(seed, rule, direction, server, client, rt, salt)] — no hidden
    PRNG state, no ordering sensitivity.  The [salt] is the sender's
    retry attempt (clients) or per-connection frame counter (servers),
    so a frame dropped on one attempt gets a fresh draw on the next:
    lossy links starve nothing as long as the retry budget holds, which
    is exactly the regime the quorum round-trip contract is built for.
    Time windows measure seconds since the plan was {!arm}ed, on the
    monotonic {!Clock}. *)

type dir =
  | To_server  (** request frames, client → server *)
  | From_server  (** reply frames, server → client *)

type kind =
  | Drop  (** lose the frame *)
  | Delay of float
      (** deliver late: a deterministic fraction of the given maximum
          delay, in seconds.  When a frame is also duplicated, each
          scheduled copy draws its own independent magnitude. *)
  | Duplicate  (** deliver the frame twice *)
  | Truncate
      (** deliver only a prefix of the frame's bytes, then sever the
          link — the receiver's strict decoder rejects the stream and
          the connection is re-established *)
  | Latency of { base : float; jitter : float }
      (** a modelled link, not a fault: every matching frame takes
          [base] seconds plus a uniform jitter in [\[0, jitter)] — the
          distribution {!Simulation.Latency} geo models draw from.
          {!Geo} compiles its region-pair matrices into rule sets of
          this kind, one per (client region, server region, direction).
          [base], [jitter] must be [>= 0] and not both zero. *)

type rule

val rule :
  ?dir:dir ->
  ?servers:int list ->
  ?clients:int list ->
  ?from_:float ->
  ?until:float ->
  ?prob:float ->
  kind ->
  rule
(** A probabilistic frame rule.  [servers]/[clients] restrict the links
    it applies to ([[]], the default, means all; clients are named by
    their {!Protocol.Topology} node ids).  [from_]/[until] bound the
    active window in seconds since {!arm} (defaults: always active).
    [prob] (default [1.0]) is the per-frame firing probability. *)

val cut :
  ?dir:dir ->
  ?servers:int list ->
  ?clients:int list ->
  ?from_:float ->
  ?until:float ->
  unit ->
  rule
(** An absolute link cut: [rule ~prob:1.0 Drop].  With [dir] this is a
    one-way cut — e.g. [cut ~dir:To_server ~clients:[c] ~servers:[i] ()]
    loses every request [c] sends to server [i] while replies (of
    earlier requests) still flow. *)

val blackout : server:int -> from_:float -> until:float -> rule
(** Server [server] receives and processes requests but none of its
    replies reach any client during the window — the "mute server"
    failure distinct from a crash (its state keeps advancing). *)

val partition : ?from_:float -> ?until:float -> int list list -> rule
(** Frames between nodes in different groups are lost, both directions.
    Nodes are {!Protocol.Topology} ids (servers [0..S-1], clients as
    numbered by {!Cluster.clients}); nodes absent from every group are
    unaffected. *)

type t
(** A fault plan: a seed plus a rule list.  Immutable but for the arm
    clock; safe to share across every thread of a cluster. *)

val create : ?seed:int -> rule list -> t

val none : t
(** The empty plan: every frame passes. *)

val seed : t -> int

val has_delays : t -> bool
(** Whether any rule can schedule late deliveries ({!Delay} or
    {!Latency}).  The client planes consult this once at creation to run
    their drain tickers at sub-tick granularity — without it a staged
    1 ms geo deadline would quantise to the 50 ms timeout tick. *)

val arm : t -> unit
(** (Re)start the plan clock: rule windows are measured from here.
    {!Session.run} arms the plan at session start; plans used without a
    session arm themselves at first consultation. *)

type delivery = { after : float; truncated : bool }
(** One scheduled copy of a frame: deliver [after] seconds from now
    ([0.0] = immediately); when [truncated], deliver only a prefix and
    sever the link. *)

val deliveries :
  t -> dir:dir -> server:int -> client:int -> rt:int -> salt:int -> delivery list
(** The fate of one frame: [[]] means dropped, one element is normal or
    faulted delivery, two elements a duplicate.  Pure in everything but
    the window clock. *)

val summary : t -> string
(** One-line human description ("seed 7, 3 rules: 2 frame, 1 partition"),
    for logs and bench output. *)
