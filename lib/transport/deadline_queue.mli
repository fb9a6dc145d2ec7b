(** Frames parked until a deadline: the one queue behind every delay a
    fault plan injects — client request staging on both planes and the
    server reactor's reply timers.

    Pure: every operation returns the next queue, so a plane keeps it in
    a field it already guards.  Entries come out in deadline order,
    first-in first-out among equal deadlines; insert and pop are
    O(log n). *)

type 'a t

val empty : 'a t

val add : 'a t -> due:float -> 'a -> 'a t

val pop_due : 'a t -> now:float -> ('a * 'a t) option
(** The earliest entry and the rest of the queue, if its deadline is
    [<= now].  Dropping the returned queue leaves the entry in place. *)

val next_due : 'a t -> float
(** The earliest deadline; [infinity] when the queue is empty. *)
