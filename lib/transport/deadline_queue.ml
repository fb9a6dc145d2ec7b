(* Keyed by (deadline, insertion number): the number breaks ties in
   arrival order and keeps keys unique. *)
module Key = struct
  type t = float * int

  let compare (d1, s1) (d2, s2) =
    match Float.compare d1 d2 with 0 -> Int.compare s1 s2 | c -> c
end

module M = Map.Make (Key)

type 'a t = { seq : int; entries : 'a M.t }

let empty = { seq = 0; entries = M.empty }

let add q ~due x = { seq = q.seq + 1; entries = M.add (due, q.seq) x q.entries }

let pop_due q ~now =
  match M.min_binding_opt q.entries with
  | Some (((due, _) as key), x) when due <= now ->
    Some (x, { q with entries = M.remove key q.entries })
  | Some _ | None -> None

let next_due q =
  match M.min_binding_opt q.entries with Some ((due, _), _) -> due | None -> infinity
