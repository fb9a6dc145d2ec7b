(** Length-prefixed binary codec for the register wire protocol.

    One frame = a 4-byte big-endian body length followed by the body,
    which opens with a tag byte:

    - [0] [Request]: round-trip id, client index, {!Registers.Wire.req};
    - [1] [Reply]: round-trip id, client index, server index,
      {!Registers.Wire.rep};
    - [2] [Keyed_request] and [3] [Keyed_reply]: the register key (an
      8-byte length, then at most {!max_key_len} bytes), then the same
      fields as tag [0] or [1].

    A reply payload carries the full value vector of a READACK, each
    value with its [updated] client set.  Integers travel as 8-byte
    little-endian two's-complement.

    Decoding is strict: short input, bad tags, negative or oversized
    lengths, and trailing bytes all raise {!Decode_error} — a TCP peer
    speaking anything else is disconnected rather than misread. *)

exception Decode_error of string

type frame =
  | Request of { rt : int; client : int; req : Registers.Wire.req }
  | Reply of { rt : int; client : int; server : int; rep : Registers.Wire.rep }
      (** Replies echo the requesting [client]: on a multiplexed
          connection shared by many clients, [(client, rt)] is the
          routing key that delivers the reply to the right mailbox. *)
  | Keyed_request of {
      key : string;
      rt : int;
      client : int;
      req : Registers.Wire.req;
    }
      (** A request addressed to one named register of a server's
          keyspace rather than its single default replica.  Unkeyed
          frames stay on the wire unchanged, so old clients and keyed
          clients share a connection. *)
  | Keyed_reply of {
      key : string;
      rt : int;
      client : int;
      server : int;
      rep : Registers.Wire.rep;
    }
      (** The keyed reply echoes the request's [key]: a client awaiting
          key [k] must drop a reply for any other key rather than count
          it toward its quorum. *)

val max_frame_len : int
(** Largest accepted body, in bytes (corrupt-length guard). *)

val max_key_len : int
(** Longest accepted register key, in bytes.  Encoding a longer key
    raises [Invalid_argument]; decoding one raises {!Decode_error}. *)

val frame_size : frame -> int
(** Exact wire size of [frame] (length prefix included), computed
    without encoding. *)

val encode : frame -> string
(** The full wire bytes: length prefix + body. *)

val encode_into : Buffer.t -> frame -> unit
(** [encode_into b frame] clears [b] and writes exactly the bytes of
    [encode frame] into it.  Reusing one buffer per connection makes the
    hot send path allocation-free once the buffer has grown to its
    steady-state size: [Buffer.contents] is never needed because callers
    blit the buffer straight into a reused [Bytes.t] staging area. *)

val encode_body : frame -> string
(** The body alone, without the length prefix. *)

val decode : string -> frame
(** Inverse of {!encode} on exactly one whole frame.
    @raise Decode_error on any malformation, including trailing bytes. *)

val decode_body : string -> frame
(** Inverse of {!encode_body}.
    @raise Decode_error on any malformation. *)

(** Reassembles frames from an arbitrarily-chunked byte stream (TCP reads
    need not align with frame boundaries). *)
module Stream : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> int -> unit
  (** [feed t buf n] appends the first [n] bytes of [buf]. *)

  val next : t -> frame option
  (** The next complete frame, if one has fully arrived.
      @raise Decode_error if the buffered data is malformed. *)
end
