(* Validation for BENCH_results.json.

     dune exec bench/validate_results.exe [-- [--require-knee] [path]]

   CI runs this after every smoke bench and on the committed document.
   The shape of every section — required keys present with the right
   types, counters non-negative, durations positive — is checked by
   walking the field descriptors in bench_schema.ml, the same table the
   bench writer renders rows through.  This file holds only the gates
   that span rows or carry semantics.  Every (protocol, path) swept in
   live_scaling must include a steady row at >= 1024 total clients (the
   reactor server's headline capability).  Under [--require-knee] —
   used against the committed full-budget document, not the tiny-op CI
   smoke regeneration — the best steady throughput at >= 256 clients
   must also beat the thread-per-connection server's recorded C=16
   peak, per (protocol, path), and the kv grid, the million-op soak and
   the geo section must be present.  Exit status 0 on a conforming
   file, 1 with a diagnostic otherwise, 2 on a bad command line. *)

module S = Bench_schema

let errors = ref []
let err path msg = errors := Printf.sprintf "%s: %s" path msg :: !errors

(* The rows of a [Rows] section with their paths, plus typed getters
   that see a member only when it conforms to its descriptor (the shape
   walk has already reported every member that does not). *)
let rows path = function
  | S.List items ->
    List.mapi (fun i e -> (Printf.sprintf "%s[%d]" path i, e)) items
  | S.Null | S.Bool _ | S.Num _ | S.Str _ | S.Obj _ -> []

let num fields e key = S.to_num (S.get fields e key)
let str fields e key = S.to_str (S.get fields e key)
let flag fields e key = S.to_bool (S.get fields e key)

let member key = function
  | S.Obj members -> List.assoc_opt key members
  | S.Null | S.Bool _ | S.Num _ | S.Str _ | S.List _ -> None

(* The thread-per-connection server's sustained throughput at its
   contended peak (C=16 in old units: 16 writers + 16 readers = 32
   client threads), per (protocol, client path), measured on this
   repo's pre-reactor tree at the default op budget.  These are the
   knee floors for [--require-knee]: the reactor must hold at C >= 256
   steady clients at least the throughput the old server managed at 32
   — i.e. the scaling knee moved out by an order of magnitude, it did
   not just shift shape. *)
let threaded_c16_floor =
  [
    ("LS97 ABD-MW", "sockets", 89.6);
    ("LS97 ABD-MW", "mux", 315.6);
    ("naive fast-write", "sockets", 597.7);
    ("naive fast-write", "mux", 620.3);
    ("Huang et al. W2R1", "sockets", 158.6);
    ("Huang et al. W2R1", "mux", 284.5);
    ("naive fast-write/fast-read", "sockets", 535.3);
    ("naive fast-write/fast-read", "mux", 709.8);
  ]

let check_scaling ~require_knee path section =
  let f = S.live_scaling in
  (* (protocol, path, regime, clients, ops/s) per well-formed row, for
     the cross-row checks below. *)
  let rows =
    List.filter_map
      (fun (p, e) ->
        (match[@warning "-4"]
           (num f e "clients", num f e "writers", num f e "readers")
         with
        | Some c, Some w, Some r when c <> w +. r ->
          err (p ^ ".clients") "must equal writers + readers"
        | _ -> ());
        match[@warning "-4"]
          ( str f e "protocol",
            str f e "path",
            str f e "regime",
            num f e "clients",
            num f e "throughput_ops_per_s" )
        with
        | Some pr, Some pa, Some re, Some c, Some t -> Some (pr, pa, re, c, t)
        | _ -> None)
      (rows path section)
  in
  let groups =
    List.sort_uniq compare (List.map (fun (pr, pa, _, _, _) -> (pr, pa)) rows)
  in
  (* Every (protocol, path) swept must carry the high-concurrency
     evidence: a steady row at C >= 1024 is what "the reactor sustains
     a thousand concurrent clients" means in this document. *)
  List.iter
    (fun (pr, pa) ->
      let has_1024 =
        List.exists
          (fun (pr', pa', re, c, _) ->
            pr' = pr && pa' = pa && re = "steady" && c >= 1024.0)
          rows
      in
      if not has_1024 then
        err path
          (Printf.sprintf
             "%s/%s: no steady row with clients >= 1024 (reactor must \
              sustain C=1024 on both planes)"
             pr pa))
    groups;
  if require_knee then
    List.iter
      (fun (pr, pa, floor) ->
        if List.mem (pr, pa) groups then
          let best =
            List.fold_left
              (fun acc (pr', pa', re, c, t) ->
                if pr' = pr && pa' = pa && re = "steady" && c >= 256.0 then
                  Float.max acc t
                else acc)
              0.0 rows
          in
          if best < floor then
            err path
              (Printf.sprintf
                 "%s/%s: best steady throughput at clients >= 256 is %.1f \
                  ops/s, below the thread-per-connection C=16 peak of %.1f \
                  — the scaling knee did not move"
                 pr pa best floor))
      threaded_c16_floor

(* The kv_scaling section: the sharded keyspace sweep.  Verdict
   semantics always (a non-atomic sampled key means the per-key
   protocol broke under the KV plumbing — never acceptable); axis
   completeness and the scale-out knee only under [--require-knee],
   since the CI smoke regenerates a reduced sweep. *)

let kv_grid_groups = [ 1.0; 2.0; 4.0 ]
let kv_grid_clients = [ 64.0; 256.0 ]
let kv_grid_keys = [ 1_000.0; 100_000.0 ]
let kv_grid_dists = [ "zipfian"; "uniform" ]

let check_kv_scaling ~require_knee path section =
  let f = S.kv_scaling in
  (* (plane, regime, groups, clients, keys, dist, mix, ops/s) per
     well-formed row, for the cross-row checks below. *)
  let rows =
    List.filter_map
      (fun (p, e) ->
        if flag f e "atomic" = Some false then
          err p
            "a sampled key failed the atomicity checker: the per-key \
             protocol broke under the KV plumbing";
        (match S.get f e "group_ops" with
        | Some (S.List per_group) ->
          let counts = List.filter_map (fun v -> S.to_num (Some v)) per_group in
          (match num f e "groups" with
          | Some g when List.length per_group <> int_of_float g ->
            err (p ^ ".group_ops") "must have one entry per shard group"
          | Some _ | None -> ());
          (match num f e "ops" with
          | Some o when List.fold_left ( +. ) 0.0 counts < o ->
            err (p ^ ".group_ops")
              "attempted operations across groups below completed ops"
          | Some _ | None -> ())
        | Some (S.Null | S.Bool _ | S.Num _ | S.Str _ | S.Obj _) | None -> ());
        match[@warning "-4"]
          ( str f e "plane",
            str f e "regime",
            num f e "groups",
            num f e "clients",
            num f e "keys",
            str f e "dist",
            str f e "mix",
            num f e "throughput_ops_per_s" )
        with
        | Some pl, Some re, Some g, Some c, Some k, Some d, Some m, Some t ->
          Some (pl, re, g, c, k, d, m, t)
        | _ -> None)
      (rows path section)
  in
  if require_knee then begin
    (* Axis completeness: the committed full-budget document must carry
       the whole closed-loop mix-A grid on both planes. *)
    List.iter
      (fun pl ->
        List.iter
          (fun g ->
            List.iter
              (fun c ->
                List.iter
                  (fun k ->
                    List.iter
                      (fun d ->
                        let present =
                          List.exists
                            (fun (pl', re, g', c', k', d', m, _) ->
                              pl' = pl && re = "closed" && g' = g && c' = c
                              && k' = k && d' = d && m = "A")
                            rows
                        in
                        if not present then
                          err path
                            (Printf.sprintf
                               "missing closed mix-A row: plane=%s \
                                groups=%.0f clients=%.0f keys=%.0f dist=%s"
                               pl g c k d))
                      kv_grid_dists)
                  kv_grid_keys)
              kv_grid_clients)
          kv_grid_groups)
      [ "mux"; "sockets" ];
    (* The knee itself: in the scale-out regime (constant per-shard
       offered load) the 4-group aggregate must beat the 1-group
       baseline on every plane — capacity composes across shards. *)
    List.iter
      (fun pl ->
        let best g =
          List.fold_left
            (fun acc (pl', re, g', _, _, _, _, t) ->
              if pl' = pl && re = "scaleout" && g' = g then Float.max acc t
              else acc)
            0.0 rows
        in
        let t1 = best 1.0 and t4 = best 4.0 in
        if t1 = 0.0 || t4 = 0.0 then
          err path
            (Printf.sprintf "%s: scale-out rows at 1 and 4 groups are required"
               pl)
        else if t4 <= t1 then
          err path
            (Printf.sprintf
               "%s: 4-group scale-out throughput %.1f ops/s does not exceed \
                the 1-group baseline %.1f — shard capacity did not compose"
               pl t4 t1))
      [ "mux"; "sockets" ]
  end

(* The soak section: the streaming checker riding the million-op
   workloads.  Verdict semantics always (a violation in a regime where
   the theory promises atomicity means either the protocol or the
   online checker broke); volume and window-bound semantics only under
   [--require-knee], because the CI smoke regenerates the rows at a
   reduced op budget.  The window bound is the tentpole claim: peak
   resident operations must stay at least an order of magnitude below
   the stream length, or the checker is quietly holding history. *)

let check_soak ~require_knee path section =
  let f = S.soak in
  let rows = rows path section in
  List.iter
    (fun (p, e) ->
      let violations = num f e "violations" in
      (match (flag f e "atomic", flag f e "expected_atomic", violations) with
      | Some false, Some true, _ ->
        err p
          "live checker reported a violation in a regime where the theory \
           promises atomicity"
      | Some true, _, Some v when v > 0.0 ->
        err p "atomic=true is inconsistent with violations > 0"
      | (Some _ | None), (Some _ | None), (Some _ | None) -> ());
      (* The stream must be fully covered: the checker sees at least
         every completed operation (aborted clients may add a pending
         one on top). *)
      match (num f e "ops", num f e "checked") with
      | Some o, Some c when c < o ->
        err p
          "checked below completed ops: the live checker missed part of \
           the stream"
      | (Some _ | None), (Some _ | None) -> ())
    rows;
  (* Both recording planes must ride: the sink wires into the session
     runner and the KV driver alike. *)
  List.iter
    (fun pl ->
      if not (List.exists (fun (_, e) -> str f e "plane" = Some pl) rows) then
        err path (Printf.sprintf "missing soak row for plane %S" pl))
    [ "kv"; "session" ];
  if require_knee then begin
    let headline (_, e) =
      match (num f e "ops", num f e "checked", num f e "peak_window") with
      | Some o, Some c, Some w -> o >= 1_000_000.0 && c >= o && w <= o /. 10.0
      | (Some _ | None), (Some _ | None), (Some _ | None) -> false
    in
    if not (List.exists headline rows) then
      err path
        "no row with ops >= 1e6, full stream coverage, and peak_window <= \
         ops/10 — the million-op live-checked soak is the headline claim of \
         this section"
  end

(* The chaos section carries semantics, not just shape: the soak's
   verdicts must match the theory (atomic wherever the design point is
   possible) and the restart-fidelity script must show both halves of
   the crash-stop argument — recover atomic, fresh caught with a
   witness. *)

let check_chaos path chaos =
  let soak = S.chaos_soak and restart = S.chaos_restart in
  Option.iter
    (fun section ->
      List.iter
        (fun (p, e) ->
          match (flag soak e "atomic", flag soak e "expected_atomic") with
          | Some false, Some true ->
            err p "non-atomic in a possible regime: chaos broke the protocol"
          | (Some _ | None), (Some _ | None) -> ())
        (rows (path ^ ".soak") section))
    (member "soak" chaos);
  Option.iter
    (fun section ->
      List.iter
        (fun (p, e) ->
          let atomic = flag restart e "atomic" in
          match str restart e "mode" with
          | Some "recover" ->
            if atomic = Some false then
              err p "restart-with-recovery must preserve atomicity"
          | Some "fresh" ->
            if atomic = Some true then
              err p "fresh restart must lose the write and fail the checker";
            if S.get restart e "witness" = Some S.Null then
              err (p ^ ".witness") "fresh restart must record a checker witness"
          | Some _ | None -> ())
        (rows (path ^ ".restart") section))
    (member "restart" chaos)

(* The geo section is the WAN/geo acceptance grid: every registry
   protocol on both transports under at least three named profiles —
   all in possible regimes, so every verdict must be atomic — plus the
   region-outage scenario (a partition composed on top of the
   wan-3region delays) whose verdict must come from the streaming
   checker and also be atomic. *)

let check_geo path geo =
  let f = S.geo_rows and o = S.geo_outage in
  Option.iter
    (fun section ->
      let rows = rows (path ^ ".rows") section in
      List.iter
        (fun (p, e) ->
          if flag f e "atomic" = Some false then
            err p "non-atomic under a geo profile: delays broke the protocol")
        rows;
      let distinct key =
        List.sort_uniq compare (List.filter_map (fun (_, e) -> str f e key) rows)
      in
      let profiles = distinct "profile" and protocols = distinct "protocol" in
      let pairs =
        List.filter_map
          (fun (_, e) ->
            match (str f e "protocol", str f e "transport") with
            | Some proto, Some tr -> Some (proto, tr)
            | (Some _ | None), (Some _ | None) -> None)
          rows
      in
      if List.length profiles < 3 then
        err (path ^ ".rows")
          (Printf.sprintf "only %d named profile(s); the grid needs at least 3"
             (List.length profiles));
      if List.length protocols < 8 then
        err (path ^ ".rows")
          (Printf.sprintf
             "only %d protocol(s); the grid covers the whole registry (8)"
             (List.length protocols));
      List.iter
        (fun proto ->
          List.iter
            (fun tr ->
              if not (List.mem (proto, tr) pairs) then
                err (path ^ ".rows")
                  (Printf.sprintf "protocol %S missing on the %s transport"
                     proto tr))
            [ "mux"; "sockets" ])
        protocols)
    (member "rows" geo);
  Option.iter
    (fun section ->
      List.iter
        (fun (p, e) ->
          (match str o e "check" with
          | Some "live" | None -> ()
          | Some other ->
            err (p ^ ".check")
              (Printf.sprintf
                 "verdict must come from the streaming checker (\"live\"), \
                  got %S"
                 other));
          if flag o e "atomic" = Some false then
            err p "a region outage may cost retries, never atomicity")
        (rows (path ^ ".outage") section))
    (member "outage" geo)

let usage () =
  prerr_endline "usage: validate_results [--require-knee] [BENCH_results.json]";
  exit 2

let () =
  let options, paths =
    List.partition
      (fun a -> String.length a > 0 && a.[0] = '-')
      (List.tl (Array.to_list Sys.argv))
  in
  List.iter
    (fun o ->
      if o <> "--require-knee" then begin
        Printf.eprintf "validate_results: unknown option %s\n" o;
        usage ()
      end)
    options;
  let require_knee = options <> [] in
  let path =
    match paths with
    | [] -> "BENCH_results.json"
    | [ path ] -> path
    | _ :: _ :: _ ->
      prerr_endline "validate_results: more than one path";
      usage ()
  in
  let contents =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "cannot read %s: %s\n" path msg;
      exit 1
  in
  let doc =
    try S.parse contents
    with S.Parse_error msg ->
      Printf.eprintf "%s: JSON parse error %s\n" path msg;
      exit 1
  in
  S.check ~err "$" "$" (S.Record S.header) doc;
  let present =
    List.filter_map
      (fun (key, kind) ->
        Option.map
          (fun v ->
            S.check ~err ("$." ^ key) key kind v;
            (key, v))
          (member key doc))
      S.sections
  in
  let gate key checker =
    Option.iter (checker ("$." ^ key)) (List.assoc_opt key present)
  in
  gate "live_scaling" (check_scaling ~require_knee);
  gate "kv_scaling" (check_kv_scaling ~require_knee);
  gate "geo" check_geo;
  gate "soak" (check_soak ~require_knee);
  gate "chaos" check_chaos;
  if present = [] then
    err "$"
      (Printf.sprintf "no result section present (%s)"
         (String.concat " / " (List.map fst S.sections)));
  (* The committed full-budget document must carry the geo grid; a
     partial regeneration that dropped it is a regression, not a
     smaller doc. *)
  if require_knee && not (List.mem_assoc "geo" present) then
    err "$" "missing geo section (required with --require-knee)";
  match List.rev !errors with
  | [] ->
    Printf.printf "%s: schema OK (%d section(s))\n" path (List.length present);
    exit 0
  | es ->
    List.iter (fun e -> Printf.eprintf "%s: %s\n" path e) es;
    exit 1
