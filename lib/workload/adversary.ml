open Protocol
open Simulation

type rule = src:int -> dst:int -> now:float -> Network.action option

type t = { rules : rule list; crashes : (float * int) list }

let none = { rules = []; crashes = [] }

let of_rules rules = { rules; crashes = [] }

let compose ts =
  {
    rules = List.concat_map (fun t -> t.rules) ts;
    crashes = List.concat_map (fun t -> t.crashes) ts;
  }

let apply t ctl engine =
  if t.rules <> [] then
    ctl.Control.set_route
      (Some
         (fun ~src ~dst ~now ->
           let rec go = function
             | [] -> Network.Deliver
             | r :: rest -> (
               match r ~src ~dst ~now with Some a -> a | None -> go rest)
           in
           go t.rules));
  List.iter
    (fun (time, srv) ->
      Engine.schedule_at engine ~time (fun () -> ctl.Control.crash_server srv))
    t.crashes

let crash_at crashes = { rules = []; crashes }

let crash_random ~seed ~t ~at ~s =
  let rng = Rng.create ~seed in
  let all = Array.init s (fun i -> i) in
  Rng.shuffle rng all;
  crash_at (List.init t (fun i -> (at, all.(i))))

let hold_route ?(from_time = 0.0) ~src ~dst () =
  of_rules
    [
      (fun ~src:s ~dst:d ~now ->
        if s = src && d = dst && now >= from_time then Some Network.Hold else None);
    ]

let delay_route ~delay ~src ~dst =
  of_rules
    [
      (fun ~src:s ~dst:d ~now:_ ->
        if s = src && d = dst then Some (Network.Delay delay) else None);
    ]

let random_skips ~seed ~topology ~t_budget ~window =
  of_rules
    [
      (fun ~src ~dst ~now ->
        (* Only shape client->server traffic; replies flow freely so a
           round-trip completes from the servers the request reached. *)
        if not (Topology.is_client topology src && Topology.is_server topology dst)
        then None
        else begin
          let epoch = int_of_float (now /. window) in
          (* Exactly the [t_budget] servers with the smallest pseudo-random
             rank are skipped by this client in this epoch, so no
             round-trip ever lacks its S − t quorum. *)
          let s = topology.Topology.servers in
          let rank d = (Hashtbl.hash (seed, src, d, epoch), d) in
          let mine = rank dst in
          let smaller = ref 0 in
          for d = 0 to s - 1 do
            if d <> dst && rank d < mine then incr smaller
          done;
          if !smaller < t_budget then Some Network.Hold else None
        end);
    ]

let partition ~groups ~from_time ~until =
  of_rules
    [
      (fun ~src ~dst ~now ->
        if now >= from_time && now < until && groups src <> groups dst then
          Some (Network.Delay (until -. now))
        else None);
    ]

(* ------------------------------------------------------------------ *)
(* The Fig. 9 experiment                                                *)
(* ------------------------------------------------------------------ *)

(* Timing constants for unit latency: a round-trip started at time T has
   its requests arriving at T+1 and replies at T+2; the next round's
   requests leave at T+2.  Writer 0's value reaches the block at 3. *)
let w0_start = 0.0
let ghost_start = 5.0
let reader_gap = 10.0
let readers_start = 30.0

let last_reader_start topology =
  readers_start +. (float_of_int topology.Topology.readers *. reader_gap) +. 50.0

let certificate_starvation ~topology ~t () =
  let block node = Topology.is_server topology node && node < t in
  let w0 = Topology.writer_node topology 0 in
  let last_reader =
    Topology.reader_node topology (topology.Topology.readers - 1)
  in
  of_rules
    [
      (* Writer 0's second round (messages sent after its first round
         returned, i.e. after time w0_start + 2 - epsilon) reaches only
         the certificate block. *)
      (fun ~src ~dst ~now ->
        if src = w0 && Topology.is_server topology dst && now > w0_start +. 1.5
           && not (block dst)
        then Some Network.Hold
        else None);
      (* The last reader's first read is a ghost on the block: its query
         lands there (enrolling it in v's updated set) but the block's
         replies are held, so it never learns v. *)
      (fun ~src ~dst ~now ->
        if block src && dst = last_reader && now < readers_start then
          Some Network.Hold
        else None);
      (* Its second read skips the block. *)
      (fun ~src ~dst ~now ->
        if src = last_reader && block dst && now >= readers_start then
          Some Network.Hold
        else None);
    ]

let threshold_plans ~topology =
  let open Runtime in
  let last = topology.Topology.readers - 1 in
  write_plan ~writer:0 ~start_at:w0_start 1
  :: List.init topology.Topology.readers (fun i ->
         if i = last then
           {
             proc = Histories.Op.Reader i;
             start_at = ghost_start;
             steps = [ Read; Think (last_reader_start topology -. ghost_start -. 2.0); Read ];
           }
         else read_plan ~reader:i ~start_at:(readers_start +. (float_of_int i *. reader_gap)) 1)
