type verdict = Counted | Quorum | Late | Foreign

type step = Wait | Retry of int | Give_up

type config = { client : int; quorum : int; timeout : float; max_retries : int }

type 'rep t = {
  cfg : config;
  next_rt : int;
  rt : int; (* the open round's id; -1 when none is open *)
  key : string option;
  replies : (int * 'rep) list; (* newest first; doubles as the dedup set *)
  n : int;
  attempt : int;
  deadline : float;
  started : int;
  completed : int;
  late : int;
  foreign : int;
  retried : int;
}

let create ~client ~quorum ~timeout ~max_retries =
  if quorum <= 0 then invalid_arg "Round.create: quorum must be positive";
  {
    cfg = { client; quorum; timeout; max_retries };
    next_rt = 0;
    rt = -1;
    key = None;
    replies = [];
    n = 0;
    attempt = 0;
    deadline = infinity;
    started = 0;
    completed = 0;
    late = 0;
    foreign = 0;
    retried = 0;
  }

let open_ r ~now ~key =
  let rt = r.next_rt in
  ( rt,
    {
      r with
      next_rt = rt + 1;
      rt;
      key;
      replies = [];
      n = 0;
      attempt = 0;
      deadline = now +. r.cfg.timeout;
      started = r.started + 1;
    } )

let complete r = r.rt >= 0 && r.n >= r.cfg.quorum

let replied r server = List.exists (fun (s, _) -> s = server) r.replies

let offer r ~server ~rt ~key rep =
  if rt <> r.rt || r.rt < 0 then (Late, { r with late = r.late + 1 })
  else if key <> r.key then (Foreign, { r with foreign = r.foreign + 1 })
  else if complete r || replied r server then (Late, { r with late = r.late + 1 })
  else
    let n = r.n + 1 in
    ( (if n >= r.cfg.quorum then Quorum else Counted),
      { r with replies = (server, rep) :: r.replies; n } )

let expire r ~now =
  if r.rt < 0 || complete r || now < r.deadline then (Wait, r)
  else if r.attempt >= r.cfg.max_retries then (Give_up, r)
  else
    let attempt = r.attempt + 1 in
    ( Retry attempt,
      { r with attempt; retried = r.retried + 1; deadline = now +. r.cfg.timeout } )

let close r =
  let closed = { r with rt = -1; key = None; replies = []; deadline = infinity } in
  if complete r then (Ok (List.rev r.replies), { closed with completed = r.completed + 1 })
  else
    ( Error
        (Printf.sprintf "client %d: %d/%d replies after %d attempts of %.3fs"
           r.cfg.client r.n r.cfg.quorum (r.attempt + 1) r.cfg.timeout),
      closed )

let deadline r = if complete r then infinity else r.deadline

let started r = r.started
let completed r = r.completed
let late r = r.late
let foreign r = r.foreign
let retried r = r.retried
