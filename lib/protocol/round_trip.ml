open Simulation

type ('req, 'rep) t = {
  net : ('req, 'rep) Message.t Network.t;
  node : int;
  servers : int array;
  mutable round : 'rep Round.t;
  mutable k : (int * 'rep) list -> unit; (* the open round's continuation *)
}

let on_delivery t (env : ('req, 'rep) Message.t Network.envelope) =
  match env.Network.payload with
  | Message.Request _ ->
    invalid_arg (Printf.sprintf "Round_trip: client node %d received a request" t.node)
  | Message.Reply { rt; server; payload } -> (
    let verdict, round = Round.offer t.round ~server ~rt ~key:None payload in
    t.round <- round;
    match verdict with
    | Round.Quorum -> (
      let replies, round = Round.close t.round in
      t.round <- round;
      match replies with Ok replies -> t.k replies | Error msg -> failwith msg)
    | Round.Counted | Round.Late | Round.Foreign -> ())

let create ~net ~node ~servers ~quorum =
  if quorum <= 0 || quorum > Array.length servers then
    invalid_arg "Round_trip.create: quorum out of range";
  (* No deadlines in virtual time: a round short of its quorum blocks,
     which is the model's behaviour. *)
  let t =
    {
      net;
      node;
      servers;
      round = Round.create ~client:node ~quorum ~timeout:infinity ~max_retries:0;
      k = ignore;
    }
  in
  Network.register net ~node (on_delivery t);
  t

let exec_skipping t ~skip payload k =
  let rt, round = Round.open_ t.round ~now:0.0 ~key:None in
  t.round <- round;
  t.k <- k;
  Array.iter
    (fun s ->
      if not (List.mem s skip) then
        Network.send t.net ~src:t.node ~dst:s
          (Message.Request { rt; client = t.node; payload }))
    t.servers

let exec t payload k = exec_skipping t ~skip:[] payload k

let rounds_started t = Round.started t.round
let rounds_completed t = Round.completed t.round
let late_replies t = Round.late t.round
