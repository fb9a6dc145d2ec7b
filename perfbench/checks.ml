(* The correctness checks a run must pass.  Each returns [Ok ()] or a
   one-line reason; the harness prints every failed reason and marks
   the result incorrect. *)

open Registers

type verdict = (unit, string) result

(* A server that has served no earlier run answers the first query of
   a key with the initial value and nothing else in its vector.  A
   server left over from an earlier run would answer with that run's
   writes, and this run's history would start from them. *)
let fresh_replies (replies : (int * Wire.rep) list) : verdict =
  let initial v = Wire.compare_value v Wire.initial_value_entry = 0 in
  let stale =
    List.filter
      (fun (_, rep) ->
        match rep with
        | Wire.Read_ack { current; vector } ->
          not (initial current && List.for_all (fun (v, _) -> initial v) vector)
        | Wire.Write_ack _ -> true)
      replies
  in
  match stale with
  | [] -> Ok ()
  | (i, _) :: _ ->
    Error (Printf.sprintf "server %d already held writes before the run" i)

(* Every operation took exactly the round trips Table 1 fixes for its
   kind. *)
let rounds ~design_point ~writes ~reads : verdict =
  let want_w = Quorums.Bounds.write_rounds design_point in
  let want_r = Quorums.Bounds.read_rounds design_point in
  let bad kind want xs =
    List.find_opt (fun n -> n <> want) xs
    |> Option.map (fun n -> Printf.sprintf "a %s took %d round trips, Table 1 says %d" kind n want)
  in
  match (bad "write" want_w writes, bad "read" want_r reads) with
  | Some e, _ | None, Some e -> Error e
  | None, None -> Ok ()

let atomic history : verdict =
  match Checker.Atomicity.check history with
  | Ok () -> Ok ()
  | Error w -> Error (Format.asprintf "history not atomic: %a" Checker.Witness.pp w)

(* The streaming checker over a whole history, fed in invocation order
   (so each client's ops arrive in program order) with the watermark
   raised to each op's invocation as it is fed. *)
let online (ops : Histories.Op.t list) : verdict =
  let c = Checker.Online.create () in
  List.iteri
    (fun i (o : Histories.Op.t) ->
      if i mod 64 = 0 then Checker.Online.advance c ~watermark:o.Histories.Op.inv;
      Checker.Online.feed c o)
    ops;
  match Checker.Online.finalize c with
  | Ok () -> Ok ()
  | Error w -> Error (Format.asprintf "history not atomic (streaming checker): %a" Checker.Witness.pp w)

let batch_prefix = 2000

(* The first [n] ops by invocation, as the history an observer would
   have recorded at the [n]-th op's invocation time [cut]: ops still
   running at [cut] are pending.  Every complete read of the prefix then
   read a write that is also in it, and a linearization of the whole
   history restricted to the prefix linearizes the prefix, so an atomic
   history has atomic prefixes. *)
let prefix (ops : Histories.Op.t list) ~n =
  let open Histories in
  let sorted = List.sort (fun (a : Op.t) b -> Float.compare a.Op.inv b.Op.inv) ops in
  match List.nth_opt sorted n with
  | None -> sorted
  | Some (o : Op.t) ->
    let cut = o.Op.inv in
    List.filter_map
      (fun (o : Op.t) ->
        if o.Op.inv >= cut then None
        else
          match o.Op.resp with
          | Some r when r > cut -> Some { o with Op.resp = None; result = None }
          | Some _ | None -> Some o)
      sorted

(* A Table-1 cell agrees with its prediction when a possible design
   point stayed atomic in every run and an impossible one was broken by
   at least one. *)
let table1_cell ~name ~possible ~runs ~broken : verdict =
  if possible && broken > 0 then
    Error (Printf.sprintf "%s: predicted possible, %d of %d runs not atomic" name broken runs)
  else if (not possible) && broken = 0 then
    Error (Printf.sprintf "%s: predicted impossible, all %d runs atomic" name runs)
  else Ok ()

let no_failures ~failed : verdict =
  if failed = 0 then Ok () else Error (Printf.sprintf "%d operations failed" failed)

let no_retries ~retries : verdict =
  if retries = 0 then Ok ()
  else Error (Printf.sprintf "%d round-trip retries on a fault-free workload" retries)

(* The span identity: an operation's time is its own logic plus its
   round trips, so self time + rounds x mean round trip must give the
   mean operation time to within [tolerance]. *)
let span_balance ?(tolerance = 0.05) ~self_per_op ~rounds_per_op ~rt_mean ~op_mean () :
    verdict =
  let rebuilt = self_per_op +. (rounds_per_op *. rt_mean) in
  if op_mean > 0.0 && Float.abs (rebuilt -. op_mean) <= tolerance *. op_mean then Ok ()
  else
    Error
      (Printf.sprintf "spans do not add up: %.3f + %.3f x %.3f vs op mean %.3f"
         self_per_op rounds_per_op rt_mean op_mean)

let samples ~kind ~min n : verdict =
  if n >= min then Ok ()
  else Error (Printf.sprintf "%d %s samples, fewer than the %d a percentile needs" n kind min)

let all (vs : verdict list) = List.filter_map (function Ok () -> None | Error e -> Some e) vs
