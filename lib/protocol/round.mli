(** The round-trip contract of the model (§2.1), once, for every plane.

    A client sends its request to all [S] servers and completes on the
    first [quorum] distinct replies, in arrival order.  This module
    decides everything about that contract and nothing about how frames
    move: which replies count, when a round has timed out, whether to
    re-broadcast or give up, and what the round delivers.  The
    simulator's {!Round_trip}, the private-socket endpoint and the mux
    mailbox all drive it, each keeping the current value in a field it
    already owns (under its own lock, where it has one).

    A value is immutable: every step returns the next state.  At most
    one round is open at a time — a client's operations are sequential
    and the CPS algorithms nest their rounds — and opening a new round
    abandons any earlier one, so its stragglers count as late.

    A reply to the open round is classified, in this order:
    - {!Late} when its round id is not the open round's (a stale or
      unknown round, or no round is open);
    - {!Foreign} when the round id matches but the register key does
      not: it can never count toward this quorum;
    - {!Late} when its server has already answered this round, or the
      quorum has already been reached;
    - otherwise it is counted ({!Quorum} if it completes the quorum). *)

type 'rep t

type verdict =
  | Counted  (** accepted, quorum not yet reached *)
  | Quorum  (** accepted, and this reply completed the quorum *)
  | Late  (** for a round that is not open, a duplicate or a straggler *)
  | Foreign  (** the open round's id with another register key *)

type step =
  | Wait  (** the quorum is reached, or the deadline has not passed *)
  | Retry of int
      (** re-broadcast to the servers still missing; the payload is the
          attempt number, the salt of the fault plan's per-frame draw *)
  | Give_up  (** the retry budget is spent: {!close} fails the round *)

val create : client:int -> quorum:int -> timeout:float -> max_retries:int -> 'rep t
(** No round open.  [timeout] bounds each attempt ([infinity] for a
    plane without deadlines); [max_retries] bounds re-broadcasts.
    @raise Invalid_argument unless [quorum > 0]. *)

val open_ : 'rep t -> now:float -> key:string option -> int * 'rep t
(** Open the next round for register [key] ([None]: the default
    register) and return its id.  Resets the per-server dedup and the
    attempt count and sets the deadline to [now + timeout]. *)

val offer :
  'rep t -> server:int -> rt:int -> key:string option -> 'rep -> verdict * 'rep t
(** Classify one reply from [server]; only counted replies change the
    round. *)

val expire : 'rep t -> now:float -> step * 'rep t
(** Check the open round's deadline at [now].  {!Retry} arms the next
    attempt with a fresh deadline. *)

val close : 'rep t -> ((int * 'rep) list, string) result * 'rep t
(** Close the open round: [Ok] with the [(server, reply)] pairs in
    arrival order when the quorum was reached, else [Error] with the
    message a plane raises as its [Unavailable]. *)

val complete : 'rep t -> bool
(** The open round has its quorum. *)

val replied : 'rep t -> int -> bool
(** [server] has answered the open round (a re-broadcast skips it). *)

val deadline : 'rep t -> float
(** When the open round's current attempt times out; [infinity] when no
    round is open or the quorum is reached. *)

val started : 'rep t -> int
val completed : 'rep t -> int

val late : 'rep t -> int
(** Replies classified {!Late}. *)

val foreign : 'rep t -> int
(** Replies classified {!Foreign}. *)

val retried : 'rep t -> int
(** Re-broadcasts, over every round. *)
