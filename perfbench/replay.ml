(* Offline replays of what a traced run captured: its frames through
   the codec, and one server's requests through a fresh keyspace.  Both
   run after the live phase, so they time one layer with nothing else
   on the cores. *)

open Registers
open Transport

type capture = {
  key : string;
  client : int;
  group : int;
  at : float;
  req : Wire.req;
  reps : (int * Wire.rep) list;
}

let time f =
  let t0 = Clock.now () in
  let x = f () in
  (Clock.now () -. t0, x)

let passes = 3

type codec = {
  req_bytes : float;
  rep_bytes : float;
  encode_ns : float;
  decode_ns : float;
  codec_ok : bool;  (** every frame decoded back to itself, at its frame_size *)
}

let frames captures =
  List.concat
    (List.mapi
       (fun rt c ->
         Codec.Keyed_request { key = c.key; rt; client = c.client; req = c.req }
         :: List.map
              (fun (server, rep) ->
                Codec.Keyed_reply { key = c.key; rt; client = c.client; server; rep })
              c.reps)
       captures)
  |> Array.of_list

let codec captures =
  let fs = frames captures in
  let n = Array.length fs in
  if n = 0 then { req_bytes = 0.0; rep_bytes = 0.0; encode_ns = 0.0; decode_ns = 0.0; codec_ok = true }
  else begin
    let is_req = function
      | Codec.Keyed_request _ | Codec.Request _ -> true
      | Codec.Keyed_reply _ | Codec.Reply _ -> false
    in
    let bytes sel =
      let total, count =
        Array.fold_left
          (fun (t, c) f -> if sel f then (t + Codec.frame_size f, c + 1) else (t, c))
          (0, 0) fs
      in
      if count = 0 then 0.0 else float_of_int total /. float_of_int count
    in
    let ok = ref true in
    let buf = Buffer.create 4096 in
    let encode () =
      Array.iter
        (fun f ->
          Codec.encode_into buf f;
          if Buffer.length buf <> Codec.frame_size f then ok := false)
        fs
    in
    let wire = Array.map (fun f -> Bytes.of_string (Codec.encode f)) fs in
    let decoded = Array.make n None in
    let decode () =
      let st = Codec.Stream.create () in
      Array.iteri
        (fun i b ->
          Codec.Stream.feed st b (Bytes.length b);
          decoded.(i) <- Codec.Stream.next st)
        wire
    in
    let per_frame f =
      Sample.median_of (List.init passes (fun _ -> fst (time f))) /. float_of_int n *. 1e9
    in
    let encode_ns = per_frame encode in
    let decode_ns = per_frame decode in
    Array.iteri (fun i f -> if decoded.(i) <> Some f then ok := false) fs;
    {
      req_bytes = bytes is_req;
      rep_bytes = bytes (fun f -> not (is_req f));
      encode_ns;
      decode_ns;
      codec_ok = !ok;
    }
  end

type keyspace = { handle_ns : float; parked_keys : int; vector_size : float }

(* Every request a server of [group] received, in the order the clients
   sent them: each round trip goes to every server of its group. *)
let keyspace ~group captures =
  let reqs =
    List.filter (fun c -> c.group = group) captures
    |> List.stable_sort (fun a b -> Float.compare a.at b.at)
    |> Array.of_list
  in
  let n = Array.length reqs in
  if n = 0 then { handle_ns = 0.0; parked_keys = 0; vector_size = 0.0 }
  else begin
    let last = ref (Keyspace.create ()) in
    let vec_total = ref 0 and vec_count = ref 0 in
    let pass () =
      let ks = Keyspace.create () in
      vec_total := 0;
      vec_count := 0;
      let dt, () =
        time (fun () ->
            Array.iter
              (fun c ->
                match Keyspace.handle ks ~key:c.key ~client:c.client c.req with
                | Wire.Read_ack { vector; _ } ->
                  vec_total := !vec_total + List.length vector;
                  incr vec_count
                | Wire.Write_ack _ -> ())
              reqs)
      in
      last := ks;
      dt
    in
    let dt = Sample.median_of (List.init passes (fun _ -> pass ())) in
    {
      handle_ns = dt /. float_of_int n *. 1e9;
      parked_keys = Keyspace.key_count !last - Keyspace.hot_count !last;
      vector_size =
        (if !vec_count = 0 then 0.0
         else float_of_int !vec_total /. float_of_int !vec_count);
    }
  end
