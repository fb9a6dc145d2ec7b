(* Raw latency samples and their exact order statistics.

   Percentiles come from the sorted samples themselves, never from
   log-binned histograms: a ~3.7%-wide bin makes two medians of
   different runs read identical far too often for a pair comparison
   to resolve anything. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len

let to_array t = Array.sub t.data 0 t.len

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t = if t.len = 0 then 0.0 else sum t /. float_of_int t.len

let concat ts =
  let out = create () in
  List.iter (fun t -> for i = 0 to t.len - 1 do add out t.data.(i) done) ts;
  out

(* Nearest-rank percentile of [pct] (an integer percent in 1..100) over
   an already sorted array: the smallest sample with at least [pct]% of
   the samples at or below it, i.e. sorted.(ceil (pct * n / 100) - 1).
   Integer arithmetic keeps the rank exact. *)
let rank_of ~pct n = max 1 ((pct * n + 99) / 100)

let percentile_sorted sorted ~pct =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Sample.percentile: no samples";
  if pct < 1 || pct > 100 then invalid_arg "Sample.percentile: pct not in 1..100";
  sorted.(rank_of ~pct n - 1)

let sorted t =
  let a = to_array t in
  Array.sort Float.compare a;
  a

let percentile t ~pct = percentile_sorted (sorted t) ~pct

(* Median of a small list of per-repetition figures (set-up times,
   replay passes): the middle element, or the mean of the two middle
   ones. *)
let median_of = function
  | [] -> invalid_arg "Sample.median_of: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A run's figure from its per-slice values: the lower quartile of a
   cost, the upper quartile of a rate (nearest rank), i.e. what the run
   achieved in its better slices.  On a shared 2-vCPU virtual machine
   the CPU speed switches between regimes for seconds to minutes at a
   time (a fixed loop timed once a second reads ~20 ms or ~32 ms).
   Host interference only ever slows a slice down, so a better-quartile
   slice tracks the program as long as the host was fast for a quarter
   of the run, where the median slice tracks the share of the run the
   host was slow; unlike the single best slice it is not one lucky
   extreme. *)
let slice_figure dir xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile_sorted a ~pct:(match dir with `Cost -> 25 | `Rate -> 75)
