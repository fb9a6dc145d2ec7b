(* The BENCH_results.json schema, shared by the bench writer
   (bench/main.exe) and its validator (bench/validate_results.exe).

   One module, no dependencies beyond the stdlib: the JSON value type,
   a strict minimal parser, a printer, and — the point of the module —
   one table of field descriptors per section.  Each row field's key,
   JSON kind and range is written down once, here: the writer renders
   rows through the table (member order, decimals kept) and the
   validator walks the same table to check a document's shape.  Only
   the validator's cross-row gates (knee floors, grid coverage,
   verdicts) are written by hand. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Parse_error of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at byte %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "bad literal (wanted %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance ()
        | Some '/' -> Buffer.add_char buf '/'; advance ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance ()
        | Some 't' -> Buffer.add_char buf '\t'; advance ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
          | Some _ -> Buffer.add_char buf '?' (* non-ASCII: placeholder *)
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c when num_char c -> true | _ -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ] in array"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes after document";
  v

(* ------------------------------------------------------------------ *)
(* Printer                                                              *)
(* ------------------------------------------------------------------ *)

(* Integers print without a fraction; anything else in the fewest
   significant digits that read back as the same float. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 1

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec inline = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number f
  | Str s -> quote s
  | List [] -> "[]"
  | Obj [] -> "{}"
  | List items -> "[" ^ String.concat ", " (List.map inline items) ^ "]"
  | Obj members ->
    "{ "
    ^ String.concat ", "
        (List.map (fun (k, v) -> quote k ^ ": " ^ inline v) members)
    ^ " }"

let is_atom = function
  | Null | Bool _ | Num _ | Str _ -> true
  | List _ | Obj _ -> false

let is_num = function
  | Num _ -> true
  | Null | Bool _ | Str _ | List _ | Obj _ -> false

(* Two-space indentation, one member or element per line, except that
   an array of scalars and an object of numbers short enough for one
   line (the latency summaries) stay on one line. *)
let to_string doc =
  let buf = Buffer.create 65536 in
  let rec pp indent v =
    let pad = String.make (indent + 2) ' ' in
    let block opening closing items item =
      Buffer.add_string buf opening;
      List.iteri
        (fun i x ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          Buffer.add_string buf pad;
          item x)
        items;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ closing)
    in
    match v with
    | List items when not (List.for_all is_atom items) ->
      block "[" "]" items (pp (indent + 2))
    | Obj members
      when not
             (List.for_all (fun (_, x) -> is_num x) members
             && String.length (inline v) <= 80) ->
      block "{" "}" members (fun (k, x) ->
          Buffer.add_string buf (quote k ^ ": ");
          pp (indent + 2) x)
    | Null | Bool _ | Num _ | Str _ | List _ | Obj _ ->
      Buffer.add_string buf (inline v)
  in
  pp 0 doc;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Field descriptors                                                    *)
(* ------------------------------------------------------------------ *)

type range = Any | Non_negative | Positive | At_least_one

type kind =
  | String (* non-empty *)
  | Enum of string list
  | Int of range
  | Float of int * range (* decimals the writer keeps *)
  | Boolean
  | Nullable of kind
  | Array of kind
  | Rows of fields (* a non-empty array of objects *)
  | Record of fields
  | Map of kind (* a non-empty object with free keys *)

and fields = (string * kind) list

(* A latency summary in milliseconds. *)
let ms =
  Record
    (List.map
       (fun k -> (k, Float (4, Non_negative)))
       [ "mean"; "p50"; "p95"; "p99" ])

let plane = Enum [ "mux"; "sockets" ]
let duration = Float (6, Positive)
let throughput = Float (1, Positive)
let rounds = Float (2, Positive)

let header =
  [ ("generated_by", String); ("recommended_domain_count", Int Positive) ]

let wall_clock =
  [
    ("experiment", String);
    ("runs", Int Non_negative);
    ("violations", Int Non_negative);
    ("sequential_s", duration);
    ("parallel_s", duration);
    ("domains", Int Positive);
    (* Two decimals: the ratio is the median of paired rounds, so
       differences below the last digit are timer noise. *)
    ("speedup", Float (2, Positive));
  ]

let live =
  [
    ("protocol", String);
    ("design_point", String);
    ("s", Int Positive);
    ("t", Int Non_negative);
    ("writers", Int Non_negative);
    ("readers", Int Positive);
    ("ops", Int Positive);
    ("duration_s", duration);
    ("throughput_ops_per_s", throughput);
    ("write_rounds_per_op", rounds);
    ("read_rounds_per_op", rounds);
    ("write_ms", ms);
    ("read_ms", ms);
    ("atomic", Boolean);
  ]

let live_scaling =
  [
    ("protocol", String);
    ("path", plane);
    ("server", Enum [ "reactor" ]);
    ("clients", Int Positive); (* writers + readers *)
    (* amortised sessions, or setup-bound ones (2 writes per writer) *)
    ("regime", Enum [ "steady"; "short" ]);
    ("writers", Int Positive);
    ("readers", Int Positive);
    ("ops", Int Positive);
    ("duration_s", duration);
    ("throughput_ops_per_s", throughput);
    ("write_p50_ms", Float (4, Non_negative));
    ("read_p50_ms", Float (4, Non_negative));
  ]

let kv_scaling =
  [
    ("plane", plane);
    (* saturated closed loop, or constant per-shard load with think time *)
    ("regime", Enum [ "closed"; "scaleout" ]);
    ("think_s", Float (3, Non_negative));
    ("groups", Int At_least_one);
    ("clients", Int At_least_one);
    ("keys", Int At_least_one);
    ("dist", Enum [ "zipfian"; "uniform" ]);
    ("mix", Enum [ "A"; "B"; "C" ]);
    ("ops", Int Positive);
    ("duration_s", duration);
    ("throughput_ops_per_s", throughput);
    ("latency_ms", ms);
    ("read_ms", ms);
    ("write_ms", ms);
    ("sampled_keys", Int At_least_one);
    ("atomic", Boolean); (* every sampled key's verdict *)
    ("starved", Int Non_negative);
    ("late", Int Non_negative);
    ("retries", Int Non_negative);
    ("dropped_replies", Int Non_negative);
    ("keys_touched", Int Positive);
    ("group_ops", Array (Int Non_negative));
  ]

let geo_rows =
  [
    ("profile", String);
    ("protocol", String);
    ("design_point", String);
    ("transport", plane);
    ("s", Int Positive);
    ("t", Int Non_negative);
    ("writers", Int Positive);
    ("readers", Int Positive);
    ("ops", Int Positive);
    ("duration_s", duration);
    ("throughput_ops_per_s", throughput);
    ("write_rounds_per_op", rounds);
    ("read_rounds_per_op", rounds);
    ("write_ms", ms);
    ("read_ms", ms);
    ("atomic", Boolean);
  ]

let geo_outage =
  [
    ("profile", String);
    ("protocol", String);
    ("transport", plane);
    ("region", String);
    ("window_s", Float (3, Positive)); (* the partition's length *)
    ("ops", Int Positive);
    ("duration_s", duration);
    ("retries", Int Non_negative);
    ("unavailable", Int Non_negative);
    ("check", String); (* which checker gave the verdict *)
    ("atomic", Boolean);
  ]

let soak =
  [
    ("plane", Enum [ "kv"; "session" ]);
    ("label", String);
    ("ops", Int Positive); (* completed client operations *)
    ("duration_s", duration);
    ("throughput_ops_per_s", throughput); (* live checker attached *)
    ("throughput_nocheck_ops_per_s", throughput); (* same run, unchecked *)
    ("checked", Int Positive); (* operations fed through the checker *)
    ("keys", Int At_least_one);
    ("peak_window", Int At_least_one); (* peak resident operations *)
    ("checker_ops_per_s", throughput);
    ("batches", Int Positive);
    ("violations", Int Non_negative);
    ("atomic", Boolean);
    ("expected_atomic", Boolean);
  ]

let chaos_soak =
  [
    ("protocol", String);
    ("transport", plane);
    ("seed", Int Non_negative);
    ("drop", Float (3, Non_negative));
    ("delay_s", Float (3, Non_negative));
    ("duplicate", Float (3, Non_negative));
    ("restarted", Boolean);
    ("ops", Int Positive);
    ("duration_s", duration);
    ("write_rounds_per_op", rounds);
    ("read_rounds_per_op", rounds);
    ("retries", Int Non_negative);
    ("late", Int Non_negative);
    ("unavailable", Int Non_negative);
    ("atomic", Boolean);
    ("expected_atomic", Boolean); (* Bounds.possible at the soak's s,t,w,r *)
  ]

let chaos_restart =
  [
    ("mode", Enum [ "recover"; "fresh" ]);
    ("transport", plane);
    ("atomic", Boolean);
    ("read_value", Nullable (Int Any));
    ("witness", Nullable String);
  ]

(* Every result section, in document order.  Each is optional in a
   document; a bench run regenerates the ones it ran. *)
let sections =
  [
    ("wall_clock", Rows wall_clock);
    ("micro_ns_per_run", Map (Float (2, Positive)));
    ("live", Rows live);
    ("live_scaling", Rows live_scaling);
    ("kv_scaling", Rows kv_scaling);
    ("geo", Record [ ("rows", Rows geo_rows); ("outage", Rows geo_outage) ]);
    ("soak", Rows soak);
    ( "chaos",
      Record
        [
          ("base_seed", Int Non_negative);
          ("soak", Rows chaos_soak);
          ("restart", Rows chaos_restart);
        ] );
  ]

(* ------------------------------------------------------------------ *)
(* Checking a document against the descriptors                         *)
(* ------------------------------------------------------------------ *)

(* [check ~err path key kind v] reports every way [v], found at [path]
   under [key], departs from [kind] as [err path message]. *)
let rec check ~err path key kind v =
  let expected what = err path ("expected " ^ what) in
  let index i = Printf.sprintf "%s[%d]" path i in
  match (kind, v) with
  | String, Str "" -> err path "empty string"
  | Enum allowed, Str s ->
    if not (List.mem s allowed) then
      err path (Printf.sprintf "unknown %s %S" key s)
  | (String | Enum _), (Null | Bool _ | Num _ | List _ | Obj _) ->
    expected "a string"
  | (Int range | Float (_, range)), Num f -> (
    match range with
    | Any -> ()
    | Non_negative -> if f < 0.0 then err path "must be >= 0"
    | Positive -> if f <= 0.0 then err path "must be > 0"
    | At_least_one -> if f < 1.0 then err path "must be >= 1")
  | (Int _ | Float _), (Null | Bool _ | Str _ | List _ | Obj _) ->
    expected "a number"
  | Boolean, (Null | Num _ | Str _ | List _ | Obj _) -> expected "a bool"
  | Nullable kind, (Bool _ | Num _ | Str _ | List _ | Obj _) ->
    check ~err path key kind v
  | Array kind, List items ->
    List.iteri (fun i x -> check ~err (index i) key kind x) items
  | Rows fields, List items ->
    if items = [] then err path "empty";
    List.iteri (fun i x -> check ~err (index i) key (Record fields) x) items
  | (Array _ | Rows _), (Null | Bool _ | Num _ | Str _ | Obj _) ->
    expected "an array"
  | Record fields, Obj members ->
    List.iter
      (fun (k, kind) ->
        match List.assoc_opt k members with
        | Some x -> check ~err (path ^ "." ^ k) k kind x
        | None -> err path (Printf.sprintf "missing key %S" k))
      fields
  | Map kind, Obj members ->
    if members = [] then err path "empty";
    List.iter (fun (k, x) -> check ~err (path ^ "." ^ k) k kind x) members
  | (Record _ | Map _), (Null | Bool _ | Num _ | Str _ | List _) ->
    expected "an object"
  | String, Str _ | Boolean, Bool _ | Nullable _, Null -> ()

let conforms kind v =
  let ok = ref true in
  check ~err:(fun _ _ -> ok := false) "" "" kind v;
  !ok

(* [get fields row key]: the member [key] of [row] if it is present and
   conforms to its descriptor, for the validator's cross-row gates. *)
let get fields row key =
  match row with
  | Obj members -> (
    match List.assoc_opt key members with
    | Some v when conforms (List.assoc key fields) v -> Some v
    | Some _ | None -> None)
  | Null | Bool _ | Num _ | Str _ | List _ -> None

let to_num = function
  | Some (Num f) -> Some f
  | Some (Null | Bool _ | Str _ | List _ | Obj _) | None -> None

let to_str = function
  | Some (Str s) -> Some s
  | Some (Null | Bool _ | Num _ | List _ | Obj _) | None -> None

let to_bool = function
  | Some (Bool b) -> Some b
  | Some (Null | Num _ | Str _ | List _ | Obj _) | None -> None

(* ------------------------------------------------------------------ *)
(* Rendering the writer's rows                                          *)
(* ------------------------------------------------------------------ *)

let int n = Num (float_of_int n)

(* [render kind v] puts a value the bench built into its documented
   form: object members in descriptor order, floats rounded to the
   descriptor's decimals.  A member the descriptor does not list, or
   one it lists that [v] lacks, is a bug in the writer. *)
let rec render kind v =
  match (kind, v) with
  | Float (decimals, _), Num f ->
    let scale = 10.0 ** float_of_int decimals in
    Num (Float.round (f *. scale) /. scale)
  | Nullable kind, (Bool _ | Num _ | Str _ | List _ | Obj _) -> render kind v
  | Array kind, List items -> List (List.map (render kind) items)
  | Rows fields, List items -> List (List.map (render (Record fields)) items)
  | Map kind, Obj members ->
    Obj (List.map (fun (k, x) -> (k, render kind x)) members)
  | Record fields, Obj members ->
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k fields) then
          invalid_arg ("undocumented bench field " ^ k))
      members;
    Obj
      (List.map
         (fun (k, kind) ->
           match List.assoc_opt k members with
           | Some x -> (k, render kind x)
           | None -> invalid_arg ("bench row lacks field " ^ k))
         fields)
  | ( ( String | Enum _ | Int _ | Float _ | Boolean | Nullable _ | Array _ | Rows _
      | Record _ | Map _ ),
      (Null | Bool _ | Num _ | Str _ | List _ | Obj _) ) -> v

(* [assemble deposits] builds the sections a bench run regenerated from
   what its experiments deposited, oldest first: each value sits at its
   path in the document ([["geo"; "rows"]] for a geo row).  Deposits at
   a [Rows] path become that section's rows, in order; any other path
   keeps its latest deposit.  Sections come out rendered, in document
   order. *)
let assemble deposits =
  let rec collect path kind =
    match kind with
    | Rows _ -> (
      match List.filter (fun (p, _) -> p = path) deposits with
      | [] -> None
      | rows -> Some (List (List.map snd rows)))
    | Record fields -> (
      match
        List.filter_map
          (fun (k, kind) ->
            Option.map (fun v -> (k, v)) (collect (path @ [ k ]) kind))
          fields
      with
      | [] -> None
      | members -> Some (Obj members))
    | String | Enum _ | Int _ | Float _ | Boolean | Nullable _ | Array _ | Map _ ->
      List.fold_left
        (fun acc (p, v) -> if p = path then Some v else acc)
        None deposits
  in
  List.filter_map
    (fun (key, kind) ->
      Option.map (fun v -> (key, render kind v)) (collect [ key ] kind))
    sections
