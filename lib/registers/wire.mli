(** The wire protocol shared by every register implementation.

    All protocols in this repository exchange the same two request forms
    — a *query/propagate* ([Read]) carrying the client's value queue, and
    an *update* ([Write]) carrying one value — and the same replies.
    Following the paper's full-info model (§4.1), servers answer queries
    with their entire value vector (value → set of clients that updated
    it); each client protocol then uses as much or as little of that
    information as its algorithm needs.  This keeps one server
    implementation honest across all six protocols: they differ only in
    client logic and round counts. *)

type value = { tag : Tstamp.t; payload : int }
(** A register value: its timestamp identity and the stored integer. *)

val initial_value_entry : value
val compare_value : value -> value -> int
val value_max : value -> value -> value
val pp_value : Format.formatter -> value -> unit

type req =
  | Query of value list
      (** The reader's [(read, valQueue)] message: the server folds every
          carried value into its state and enrolls the reader in every
          value's [updated] set ({i before} replying — Algorithm 2, line
          20), then answers with a {!Read_ack}. *)
  | Update of value
      (** The [(write, val)] message, and the writer's [(read, maxTS)]
          message (its last written value); answered with a
          {!Write_ack} carrying the server's maximum. *)

type rep =
  | Read_ack of {
      current : value;             (** The server's [valᵢ]. *)
      vector : (value * int list) list;
          (** The full value vector: every value the server has seen with
              the client node ids in its [updated] set. *)
    }
  | Write_ack of { current : value }
      (** ACK; [current] lets best-effort writers learn timestamps. *)

val pp_req : Format.formatter -> req -> unit
val pp_rep : Format.formatter -> rep -> unit
