(** WkR1 with k = 3: a three-round write with the fast read.

    §5.1 notes the fast-read impossibility "does not depend on how many
    round-trips a write operation has" — slowing writes down further buys
    nothing for readers.  This register makes that executable: writes
    take *three* rounds (query, update, and a redundant confirm round
    re-sending the same value), reads are the admissible fast read.  The
    threshold experiment shows it lives and dies at exactly the same
    [R < S/t − 2] boundary as the two-round-write version. *)

let name = "W3R1 (3-round write)"

let design_point = Quorums.Bounds.W2R1 (* reads fast; writes ≥ 2 rounds *)

let new_writer (ctx : Client_core.ctx) ~writer =
  let ep = ctx.Client_core.writer_ep writer in
  let last_written = ref Wire.initial_value_entry in
  fun ~payload ~k ->
    (* Round 1 as in {!Client_core.two_round_write}: an UPDATE, so the
       writer never joins other values' [updated] sets. *)
    ep.Client_core.exec (Wire.Update !last_written) (fun replies ->
        let maxv = Client_core.max_current replies in
        let tag = Tstamp.next maxv.Wire.tag ~wid:writer in
        let v = { Wire.tag; payload } in
        last_written := v;
        ep.Client_core.exec (Wire.Update v) (fun _ ->
            (* The redundant third round: re-announce the same value. *)
            ep.Client_core.exec (Wire.Update v) (fun _ -> k (Some tag))))

let algo =
  {
    Client_core.new_writer;
    new_reader =
      (fun ctx ~reader ->
        let val_queue = ref [ Wire.initial_value_entry ] in
        fun ~k -> Client_core.fast_read ctx ~reader ~val_queue ~k);
  }

type cluster = {
  base : Cluster_base.t;
  writers : Client_core.writer_fn array;
  readers : Client_core.reader_fn array;
}

let create env =
  let base = Cluster_base.create env in
  let ctx = Cluster_base.ctx base in
  {
    base;
    writers =
      Array.init (Protocol.Env.w env) (fun i ->
          algo.Client_core.new_writer ctx ~writer:i);
    readers =
      Array.init (Protocol.Env.r env) (fun i ->
          algo.Client_core.new_reader ctx ~reader:i);
  }

let control c = c.base.Cluster_base.ctl

let write c ~writer ~value ~k = c.writers.(writer) ~payload:value ~k

let read c ~reader ~k = c.readers.(reader) ~k
