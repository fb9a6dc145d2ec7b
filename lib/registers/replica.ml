module Iset = Set.Make (Int)

type entry = { payload : int; mutable updated : Iset.t }

type t = {
  mutable current : Wire.value;
  vector : (Tstamp.t, entry) Hashtbl.t;
}

(* The vector is a *window*, not an archive.  Entries below the
   [max_vector] largest tags are pruned: their certificates regenerate on
   demand, because every query folds the client's valQueue back into the
   vector before the reply snapshot is taken — a value any client still
   tracks is re-inserted (and the client re-enrolled) by that very query.
   Without the bound the vector grows with every write ever performed and
   a READACK serialises all of it, which is what melts the server at high
   client counts.  [t.current] always carries the maximum tag, so pruning
   can never evict it. *)
let max_vector = 32

(* Per-entry cap on the [updated] ids a READACK carries.  The replica
   keeps the full set (recovery and the Appendix-A certificates need it);
   only the wire snapshot truncates.  The querying client is always
   included — it was enrolled in every entry just before the reply, so
   any value present in [s − t] reply vectors stays degree-1 admissible
   through the client itself — and the smallest ids come first, so the
   subset is deterministic and coalitions survive across servers. *)
let max_wire_updated = 8

let create () =
  let t = { current = Wire.initial_value_entry; vector = Hashtbl.create 16 } in
  Hashtbl.replace t.vector Tstamp.initial
    { payload = Wire.initial_value_entry.Wire.payload; updated = Iset.empty };
  t

let prune t =
  let n = Hashtbl.length t.vector in
  if n > max_vector then begin
    let tags = Hashtbl.fold (fun tag _ acc -> tag :: acc) t.vector [] in
    let tags = List.sort Tstamp.compare tags in
    let drop = n - max_vector in
    List.iteri
      (fun i tag -> if i < drop then Hashtbl.remove t.vector tag)
      tags
  end

(* The raw insert, pruning deferred: the query path must snapshot the
   reply *before* pruning, or a below-window value the client just
   echoed would be evicted again before the reply certifies it. *)
let update_unpruned t (v : Wire.value) c =
  match Hashtbl.find_opt t.vector v.Wire.tag with
  | Some e ->
    e.updated <- Iset.add c e.updated;
    if Wire.compare_value v t.current > 0 then t.current <- v
  | None ->
    Hashtbl.replace t.vector v.Wire.tag
      { payload = v.Wire.payload; updated = Iset.singleton c };
    if Wire.compare_value v t.current > 0 then t.current <- v

let update t (v : Wire.value) c =
  update_unpruned t v c;
  prune t

let snapshot t =
  Hashtbl.fold
    (fun tag e acc ->
      (({ Wire.tag; payload = e.payload } : Wire.value), Iset.elements e.updated)
      :: acc)
    t.vector []
  |> List.sort (fun (a, _) (b, _) -> Wire.compare_value a b)

(* The truncated updated set a READACK carries for one entry: the
   querying client first, then the smallest other ids, [max_wire_updated]
   in total.  Elements are sorted, so every server that holds the same
   set serialises the same subset. *)
let wire_updated ~client u =
  if Iset.cardinal u <= max_wire_updated then Iset.elements u
  else begin
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    if Iset.mem client u then
      client :: take (max_wire_updated - 1) (Iset.elements (Iset.remove client u))
    else take max_wire_updated (Iset.elements u)
  end

let snapshot_wire t ~client =
  Hashtbl.fold
    (fun tag e acc ->
      ( ({ Wire.tag; payload = e.payload } : Wire.value),
        wire_updated ~client e.updated )
      :: acc)
    t.vector []
  |> List.sort (fun (a, _) (b, _) -> Wire.compare_value a b)

let handle t ~client req =
  match req with
  | Wire.Update v ->
    update t v client;
    Wire.Write_ack { current = t.current }
  | Wire.Query vq ->
    (* Echoed valQueue values are folded in unpruned: they must survive
       until this reply's snapshot, so the queue maximum always leaves
       with a fresh certificate (Lemma 3) even when it sits below the
       retention window.  The transient overshoot is bounded by the
       client-side queue cap; the window is re-enforced right after the
       snapshot. *)
    List.iter (fun v -> update_unpruned t v client) vq;
    (* Record that this reader is being told every value in the reply,
       before replying — the rule the Appendix-A proofs rely on ("every
       server which replies to r₂ adds r₂ to its updated set before
       replying", used for arbitrary values in Lemmas 5 and 8).  Without
       it, a completed write is not admissible with degree 2 (MWA2
       breaks) and one read's certificate is invisible to later reads
       (MWA4 breaks).  Writers never query: their first round is an
       Update, so they join only their own values' sets. *)
    Hashtbl.iter (fun _ e -> e.updated <- Iset.add client e.updated) t.vector;
    let rep =
      Wire.Read_ack { current = t.current; vector = snapshot_wire t ~client }
    in
    prune t;
    rep

(* The full durable state: enough to rebuild the replica exactly, as a
   plain (sorted, deterministic) value for recovery tests and tooling.
   Note the [updated] sets are part of it — the admissibility
   certificates of the fast protocols live there, so a recovery that
   dropped them would be no recovery at all. *)
type state = { s_current : Wire.value; s_vector : (Wire.value * int list) list }

let save t = { s_current = t.current; s_vector = snapshot t }

let load st =
  let t = create () in
  List.iter
    (fun ((v : Wire.value), updated) ->
      match Hashtbl.find_opt t.vector v.Wire.tag with
      | Some e -> e.updated <- Iset.union e.updated (Iset.of_list updated)
      | None ->
        Hashtbl.replace t.vector v.Wire.tag
          { payload = v.Wire.payload; updated = Iset.of_list updated })
    st.s_vector;
  t.current <- st.s_current;
  t

let current t = t.current

let vector_size t = Hashtbl.length t.vector

let updated_set t (v : Wire.value) =
  match Hashtbl.find_opt t.vector v.Wire.tag with
  | None -> []
  | Some e -> Iset.elements e.updated
