module Iset = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* The execution backend abstraction                                    *)
(* ------------------------------------------------------------------ *)

type endpoint = { exec : Wire.req -> ((int * Wire.rep) list -> unit) -> unit }

type ctx = {
  writer_ep : int -> endpoint;
  reader_ep : int -> endpoint;
  s : int;
  t : int;
  r : int;
}

(* ------------------------------------------------------------------ *)
(* Reply plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let read_acks replies =
  List.filter_map
    (fun (server, rep) ->
      match rep with
      | Wire.Read_ack { current; vector } -> Some (server, current, vector)
      | Wire.Write_ack _ -> None)
    replies

let ack_currents replies =
  List.filter_map
    (fun (_, rep) ->
      match rep with
      | Wire.Write_ack { current } -> Some current
      | Wire.Read_ack { current; _ } -> Some current)
    replies

let max_current replies =
  List.fold_left Wire.value_max Wire.initial_value_entry (ack_currents replies)

(* The reader's valQueue is a recency window, mirroring the replica-side
   vector bound: only the [max_queue] largest values survive a merge.
   The queue's job — re-asserting certificates for values the reader may
   still return (Lemma 3 needs its maximum degree-1 admissible) — only
   concerns the newest values; carrying every value ever seen makes each
   QUERY grow with the length of the run. *)
let max_queue = 16

let bound_queue vs =
  let sorted = List.sort (fun a b -> Wire.compare_value b a) vs in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take max_queue sorted

(* All distinct values appearing in the READACK vectors, largest first. *)
let all_values replies =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (_, _, vector) ->
      List.iter
        (fun ((v : Wire.value), _) ->
          if not (Hashtbl.mem tbl v.Wire.tag) then Hashtbl.replace tbl v.Wire.tag v)
        vector)
    (read_acks replies);
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> Wire.compare_value b a)

(* ------------------------------------------------------------------ *)
(* The admissible predicate                                            *)
(* ------------------------------------------------------------------ *)

let admissible ~s ~t ~value ~replies ~degree =
  assert (degree >= 1);
  let need = s - (degree * t) in
  if need <= 0 then true
  else begin
    (* Replies whose vector carries [value], with the updated set each
       server recorded for it. *)
    let relevant =
      List.filter_map
        (fun (_, _, vector) ->
          List.find_opt
            (fun ((v : Wire.value), _) -> Tstamp.equal v.Wire.tag value.Wire.tag)
            vector)
        (read_acks replies)
      |> List.map (fun (_, updated) -> Iset.of_list updated)
    in
    let nmsg = List.length relevant in
    if nmsg < need then false
    else begin
      (* Does some set C of [degree] clients appear in the updated sets
         of at least [need] of the relevant messages?  Clients and reply
         counts are tiny, so an exact DFS over candidate clients works:
         each client maps to the bitmask of messages that recorded it. *)
      let masks = Array.of_list relevant in
      let clients =
        Array.fold_left (fun acc set -> Iset.union acc set) Iset.empty masks
        |> Iset.elements
      in
      let client_mask c =
        let m = ref 0 in
        Array.iteri (fun i set -> if Iset.mem c set then m := !m lor (1 lsl i)) masks;
        !m
      in
      let popcount m =
        let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
        go m 0
      in
      let cmasks = List.map client_mask clients in
      let rec search chosen mask = function
        | [] -> chosen >= degree && popcount mask >= need
        | cm :: rest ->
          if chosen >= degree then popcount mask >= need || search chosen mask rest
          else begin
            let mask' = mask land cm in
            (popcount mask' >= need && search (chosen + 1) mask' rest)
            || search chosen mask rest
          end
      in
      (* Start with the full-message mask (intersection over zero clients
         is "all relevant messages"). *)
      let full = (1 lsl nmsg) - 1 in
      search 0 full cmasks
    end
  end

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let vector_values = all_values

(* Round 1 is an UPDATE of the writer's last value, not a QUERY: the
   ACK's [current] is all the writer needs, and a QUERY would enroll the
   writer in the [updated] set of every value the server holds.  Only a
   value's own writer and the readers told about it may appear there —
   that is what bounds a certificate's degree by [R + 1].  A foreign
   writer in the set lets a fast read certify an in-flight value with a
   degree the next reader cannot reach, and the next read returns an
   older value (a new-old inversion in the safe regime). *)
let two_round_write ctx ~writer ~payload ~last_written ~k =
  let ep = ctx.writer_ep writer in
  ep.exec (Wire.Update !last_written) (fun replies ->
      let maxv = max_current replies in
      let tag = Tstamp.next maxv.Wire.tag ~wid:writer in
      let value = { Wire.tag; payload } in
      last_written := value;
      ep.exec (Wire.Update value) (fun _acks -> k (Some tag)))

let one_round_write ctx ~writer ~wid ~payload ~clock ~learn ~k =
  let ep = ctx.writer_ep writer in
  let tag = Tstamp.next !clock ~wid in
  clock := tag;
  let value = { Wire.tag; payload } in
  ep.exec (Wire.Update value) (fun acks ->
      if learn then
        List.iter
          (fun (c : Wire.value) -> clock := Tstamp.max !clock c.Wire.tag)
          (ack_currents acks);
      k (Some tag))

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

let two_round_read ctx ~reader ~k =
  let ep = ctx.reader_ep reader in
  ep.exec (Wire.Query []) (fun replies ->
      let maxv = max_current replies in
      ep.exec (Wire.Update maxv) (fun _acks ->
          k maxv.Wire.payload (Some maxv.Wire.tag)))

let one_round_read_max ctx ~reader ~k =
  let ep = ctx.reader_ep reader in
  ep.exec (Wire.Query []) (fun replies ->
      let maxv = max_current replies in
      k maxv.Wire.payload (Some maxv.Wire.tag))

type read_probe = {
  returned : Tstamp.t;
  max_seen : Tstamp.t;
  degree : int option;
  candidates_skipped : int;
  fallback : bool;
}

let fast_read ?probe ctx ~reader ~val_queue ~k =
  let ep = ctx.reader_ep reader in
  let s = ctx.s in
  let t = ctx.t in
  let r = ctx.r in
  ep.exec (Wire.Query !val_queue) (fun replies ->
      (* Fold everything seen into the queue for the next read. *)
      let seen = all_values replies in
      let merged =
        List.fold_left
          (fun acc (v : Wire.value) ->
            if
              List.exists
                (fun (u : Wire.value) -> Tstamp.equal u.Wire.tag v.Wire.tag)
                acc
            then acc
            else v :: acc)
          !val_queue seen
      in
      val_queue := bound_queue merged;
      let degrees = List.init (r + 1) (fun i -> i + 1) in
      let max_seen =
        List.fold_left Wire.value_max (max_current replies) seen
      in
      let observe ~returned ~degree ~skipped ~fallback =
        match probe with
        | None -> ()
        | Some f ->
          f
            {
              returned = returned.Wire.tag;
              max_seen = max_seen.Wire.tag;
              degree;
              candidates_skipped = skipped;
              fallback;
            }
      in
      let rec scan skipped = function
        | [] ->
          (* Unreachable when the protocol's invariants hold (Lemma 3):
             the valQueue maximum is admissible with degree 1. *)
          let maxv = max_current replies in
          observe ~returned:maxv ~degree:None ~skipped ~fallback:true;
          k maxv.Wire.payload (Some maxv.Wire.tag)
        | v :: rest -> (
          match
            List.find_opt
              (fun degree -> admissible ~s ~t ~value:v ~replies ~degree)
              degrees
          with
          | Some degree ->
            observe ~returned:v ~degree:(Some degree) ~skipped ~fallback:false;
            k v.Wire.payload (Some v.Wire.tag)
          | None -> scan (skipped + 1) rest)
      in
      scan 0 seen)

(* ------------------------------------------------------------------ *)
(* Whole-client algorithms, backend-agnostic                            *)
(* ------------------------------------------------------------------ *)

type writer_fn = payload:int -> k:(Checker.Mw_properties.tag option -> unit) -> unit

type reader_fn = k:(int -> Checker.Mw_properties.tag option -> unit) -> unit

type algo = {
  new_writer : ctx -> writer:int -> writer_fn;
  new_reader : ctx -> reader:int -> reader_fn;
}
