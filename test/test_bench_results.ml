(* Gate tests for bench/validate_results.exe, the schema and semantics
   check CI runs on BENCH_results.json.

   The committed document must pass [--require-knee].  Every gate the
   validator enforces is then pinned by one mutated copy of that
   document: the copy must fail with exit status 1 and exactly the
   gate's diagnostic on stderr.  The mutations are textual edits of the
   committed file, so the test does not depend on how the validator
   (or the bench writer) represents a row internally. *)

let validator = "../bench/validate_results.exe"
let committed = "../BENCH_results.json"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains hay pat =
  let n = String.length hay and m = String.length pat in
  let rec go i = i + m <= n && (String.sub hay i m = pat || go (i + 1)) in
  go 0

let find_from doc sub start =
  let n = String.length doc and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub doc i m = sub then Some i
    else go (i + 1)
  in
  go start

let find_exn doc sub start =
  match find_from doc sub start with
  | Some i -> i
  | None -> Alcotest.failf "anchor %S not found in the committed document" sub

(* End (exclusive) of the JSON string starting at [i] (a '"'). *)
let string_end doc i =
  let rec go j =
    match doc.[j] with
    | '\\' -> go (j + 2)
    | '"' -> j + 1
    | _ -> go (j + 1)
  in
  go (i + 1)

(* End (exclusive) of the object or array opening at [i]. *)
let container_end doc i =
  let rec go j depth =
    match doc.[j] with
    | '"' -> go (string_end doc j) depth
    | '{' | '[' -> go (j + 1) (depth + 1)
    | '}' | ']' -> if depth = 1 then j + 1 else go (j + 1) (depth - 1)
    | _ -> go (j + 1) depth
  in
  go i 0

(* End (exclusive) of the value starting at [i]. *)
let value_end doc i =
  match doc.[i] with
  | '"' -> string_end doc i
  | '{' | '[' -> container_end doc i
  | _ ->
    let rec go j =
      match doc.[j] with
      | ',' | '\n' | '}' | ']' -> j
      | _ -> go (j + 1)
    in
    go i

let splice doc ~from ~until by =
  String.sub doc 0 from ^ by ^ String.sub doc until (String.length doc - until)

(* Span of the first ["key": value] member after [anchor]. *)
let member_span doc ~after key =
  let start = find_exn doc (Printf.sprintf "%S: " key) (find_exn doc after 0) in
  let v = start + String.length key + 4 in
  (start, v, value_end doc v)

let set_field ~after key value doc =
  let _, v, e = member_span doc ~after key in
  splice doc ~from:v ~until:e value

(* Drops a member that is followed by a comma (not an object's last). *)
let drop_field ~after key doc =
  let start, _, e = member_span doc ~after key in
  if doc.[e] <> ',' then Alcotest.failf "%S is the last member" key;
  splice doc ~from:start ~until:(e + 1) ""

(* Removes [from, until) plus the comma that separated it from its
   successor (or, for a last element, from its predecessor). *)
let drop_element doc ~from ~until =
  let rec skip_ws j =
    match doc.[j] with ' ' | '\n' | '\t' | '\r' -> skip_ws (j + 1) | _ -> j
  in
  let rec back_ws j =
    match doc.[j] with ' ' | '\n' | '\t' | '\r' -> back_ws (j - 1) | _ -> j
  in
  let next = skip_ws until in
  if doc.[next] = ',' then splice doc ~from ~until:(next + 1) ""
  else
    let prev = back_ws (from - 1) in
    if doc.[prev] <> ',' then Alcotest.fail "element has no separating comma";
    splice doc ~from:prev ~until ""

(* Removes the innermost object that contains the end of the first
   [anchor]. *)
let drop_object_containing anchor doc =
  let target = find_exn doc anchor 0 + String.length anchor in
  let rec open_at j stack =
    if j >= target then
      match stack with
      | s :: _ -> s
      | [] -> Alcotest.fail "anchor is not inside an object"
    else
      match doc.[j] with
      | '"' -> open_at (string_end doc j) stack
      | '{' -> open_at (j + 1) (j :: stack)
      | '}' -> open_at (j + 1) (List.tl stack)
      | _ -> open_at (j + 1) stack
  in
  let from = open_at 0 [] in
  drop_element doc ~from ~until:(container_end doc from)

(* Removes a top-level member of the document. *)
let drop_top_level key doc =
  let from = find_exn doc (Printf.sprintf "\n  %S: " key) 0 + 3 in
  let v = from + String.length key + 4 in
  drop_element doc ~from ~until:(value_end doc v)

(* Runs the validator; returns (exit code, stdout ^ stderr). *)
let run_validator args =
  let out = Filename.temp_file "validate" ".out" in
  let code =
    Sys.command
      (Filename.quote_command validator ~stdout:out ~stderr:out args)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let with_doc doc f =
  let path = Filename.temp_file "bench_results" ".json" in
  write_file path doc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let committed_passes flags () =
  let code, text = run_validator (flags @ [ committed ]) in
  Alcotest.(check int) ("exit status\n" ^ text) 0 code;
  Alcotest.(check bool) "schema OK" true (contains text "schema OK")

let gate ?(flags = []) mutate diagnostic () =
  let doc = mutate (read_file committed) in
  with_doc doc (fun path ->
      let code, text = run_validator (flags @ [ path ]) in
      Alcotest.(check int) ("exit status\n" ^ text) 1 code;
      if not (contains text diagnostic) then
        Alcotest.failf "diagnostic %S missing from:\n%s" diagnostic text;
      (* One mutation, one finding: a gate must not drag others along. *)
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      Alcotest.(check int) ("one diagnostic\n" ^ text) 1 (List.length lines))

let knee = [ "--require-knee" ]

let gates =
  [
    ( "missing key",
      gate (drop_field ~after:"\"live\": [" "duration_s")
        "$.live[0]: missing key \"duration_s\"" );
    ( "wrong type",
      gate
        (set_field ~after:"\"live\": [" "ops" "\"many\"")
        "$.live[0].ops: expected a number" );
    ( "negative counter",
      gate
        (set_field ~after:"\"kv_scaling\": [" "retries" "-1")
        "$.kv_scaling[0].retries: must be >= 0" );
    ( "unknown enum",
      gate
        (set_field ~after:"\"live_scaling\": [" "path" "\"udp\"")
        "$.live_scaling[0].path: unknown path \"udp\"" );
    ( "clients = writers + readers",
      gate
        (set_field ~after:"\"live_scaling\": [" "clients" "3")
        "$.live_scaling[0].clients: must equal writers + readers" );
    ( "kv atomic false",
      gate
        (set_field ~after:"\"kv_scaling\": [" "atomic" "false")
        "$.kv_scaling[0]: a sampled key failed the atomicity checker" );
    ( "kv group_ops length",
      gate
        (set_field ~after:"\"kv_scaling\": [" "group_ops" "[640, 640]")
        "$.kv_scaling[0].group_ops: must have one entry per shard group" );
    ( "soak checked below ops",
      gate
        (set_field ~after:"\n  \"soak\": [" "checked" "999999")
        "$.soak[0]: checked below completed ops" );
    ( "chaos fresh restart without witness",
      gate
        (set_field ~after:"\"mode\": \"fresh\"" "witness" "null")
        "$.chaos.restart[1].witness: fresh restart must record a checker \
         witness" );
    ( "chaos recover non-atomic",
      gate
        (set_field ~after:"\"mode\": \"recover\"" "atomic" "false")
        "$.chaos.restart[0]: restart-with-recovery must preserve atomicity" );
    ( "geo row non-atomic",
      gate
        (set_field ~after:"\"geo\": {" "atomic" "false")
        "$.geo.rows[0]: non-atomic under a geo profile" );
    ( "geo outage check not live",
      gate
        (set_field ~after:"\"outage\": [" "check" "\"batch\"")
        "$.geo.outage[0].check: verdict must come from the streaming checker" );
    ( "knee: dropped C >= 1024 row",
      gate ~flags:knee
        (drop_object_containing "\"clients\": 1024,\n      \"regime\": \"steady\"")
        "no steady row with clients >= 1024" );
    ( "knee: missing kv grid row",
      gate ~flags:knee
        (drop_object_containing "\"kv_scaling\": [\n    {\n      \"plane\"")
        "$.kv_scaling: missing closed mix-A row: plane=mux groups=1 \
         clients=64 keys=1000 dist=zipfian" );
    ( "knee: missing geo section",
      gate ~flags:knee (drop_top_level "geo")
        "$: missing geo section (required with --require-knee)" );
  ]

(* A misspelled flag must not silently turn the knee gates off. *)
let rejects_command_line args () =
  let code, text = run_validator args in
  Alcotest.(check int) ("exit status\n" ^ text) 2 code

(* The bench driver checks its whole command line before running
   anything: exit 2, nothing on stdout. *)
let bench_rejects args () =
  let out = Filename.temp_file "bench" ".out" in
  let code =
    Sys.command
      (Filename.quote_command "../bench/main.exe" ~stdout:out
         ~stderr:Filename.null args)
  in
  let stdout = read_file out in
  Sys.remove out;
  Alcotest.(check int) "exit status" 2 code;
  Alcotest.(check string) "no experiment ran" "" stdout

module S = Bench_schema

let committed_doc () = S.parse (read_file committed)

let sections_of = function
  | S.Obj members ->
    List.filter_map
      (fun (k, kind) -> Option.map (fun v -> (k, kind, v)) (List.assoc_opt k members))
      S.sections
  | S.Null | S.Bool _ | S.Num _ | S.Str _ | S.List _ -> []

(* The descriptors agree with the committed document: rendering its
   sections (member order, decimals) changes nothing. *)
let render_is_identity () =
  List.iter
    (fun (k, kind, v) ->
      Alcotest.(check bool) (k ^ " unchanged by render") true (S.render kind v = v))
    (sections_of (committed_doc ()))

(* The printer's output parses back to the same value and still passes
   every gate: a bench run that keeps a section keeps it intact. *)
let print_round_trips () =
  let doc = committed_doc () in
  let text = S.to_string doc in
  Alcotest.(check bool) "parse (print doc) = doc" true (S.parse text = doc);
  with_doc text (fun path ->
      let code, out = run_validator [ "--require-knee"; path ] in
      Alcotest.(check int) ("exit status\n" ^ out) 0 code)

(* Deposits become sections in document order, rows in deposit order,
   members in descriptor order, floats at the descriptor's decimals. *)
let assemble_orders_and_rounds () =
  let wall_clock ?(order = Fun.id) ~runs ~parallel ~speedup () =
    S.Obj
      (order
         [
           ("experiment", S.Str "t1");
           ("runs", S.int runs);
           ("violations", S.int 0);
           ("sequential_s", S.Num 1.0);
           ("parallel_s", S.Num parallel);
           ("domains", S.int 2);
           ("speedup", S.Num speedup);
         ])
  in
  let deposits =
    [
      ( [ "wall_clock" ],
        wall_clock ~order:List.rev ~runs:1 ~parallel:0.1234567 ~speedup:1.234 ()
      );
      ([ "micro_ns_per_run" ], S.Obj [ ("x", S.Num 1.23456) ]);
      ([ "wall_clock" ], wall_clock ~runs:2 ~parallel:0.5 ~speedup:2.0 ());
    ]
  in
  Alcotest.(check bool) "assembled" true
    (S.assemble deposits
    = [
        ( "wall_clock",
          S.List
            [
              wall_clock ~runs:1 ~parallel:0.123457 ~speedup:1.23 ();
              wall_clock ~runs:2 ~parallel:0.5 ~speedup:2.0 ();
            ] );
        ("micro_ns_per_run", S.Obj [ ("x", S.Num 1.23) ]);
      ]);
  Alcotest.check_raises "a row missing a documented field"
    (Invalid_argument "bench row lacks field transport") (fun () ->
      ignore
        (S.render (S.Rows S.chaos_restart)
           (S.List [ S.Obj [ ("mode", S.Str "fresh") ] ])));
  Alcotest.check_raises "an undocumented field"
    (Invalid_argument "undocumented bench field extra") (fun () ->
      ignore (S.render (S.Record S.header) (S.Obj [ ("extra", S.Null) ])))

let () =
  Alcotest.run "bench-results"
    [
      ( "committed",
        [
          Alcotest.test_case "passes" `Quick (committed_passes []);
          Alcotest.test_case "passes --require-knee" `Quick
            (committed_passes knee);
        ] );
      ( "gates",
        List.map (fun (name, f) -> Alcotest.test_case name `Quick f) gates );
      ( "command line",
        [
          Alcotest.test_case "validator: misspelled flag" `Quick
            (rejects_command_line [ "--require-kne"; committed ]);
          Alcotest.test_case "validator: two paths" `Quick
            (rejects_command_line [ committed; committed ]);
          Alcotest.test_case "bench: unknown experiment" `Quick
            (bench_rejects [ "nosuch" ]);
          Alcotest.test_case "bench: malformed value" `Quick
            (bench_rejects [ "t1"; "--live-ops"; "x" ]);
          Alcotest.test_case "bench: out-of-range value" `Quick
            (bench_rejects [ "--soak-ops=0"; "t1" ]);
          Alcotest.test_case "bench: malformed domains" `Quick
            (bench_rejects [ "--domains"; "x"; "t1" ]);
        ] );
      ( "schema",
        [
          Alcotest.test_case "render is the identity on the committed file"
            `Quick render_is_identity;
          Alcotest.test_case "printer round-trips" `Quick print_round_trips;
          Alcotest.test_case "assemble orders and rounds" `Quick
            assemble_orders_and_rounds;
        ] );
    ]
