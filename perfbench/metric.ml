(* The metric catalogue and the result line.

   Every metric the harness can print is declared here once, with its
   unit; [BENCHMARK.json] lists the same names and [run.py] refuses a
   result whose names or units disagree with it. *)

type scope = End_to_end | Per_layer

type def = { name : string; unit_ : string; scope : scope }

let e name unit_ = { name; unit_; scope = End_to_end }

let l name unit_ = { name; unit_; scope = Per_layer }

let catalogue =
  [
    e "setup_s" "s";
    e "throughput_ops_s" "ops/s";
    e "read_p50_us" "us";
    e "write_p50_us" "us";
    e "cpu_us_per_op" "us";
    e "peak_rss_mb" "MB";
    l "client_core.self_us_per_op" "us";
    l "client_core.op_mean_us" "us";
    l "client_core.rounds_per_write" "count";
    l "client_core.rounds_per_read" "count";
    l "mux.rt_p50_us" "us";
    l "mux.rt_p99_us" "us";
    l "mux.rt_mean_us" "us";
    l "mux.retries" "count";
    l "mux.dropped_replies" "count";
    l "mux.late_per_rt" "count";
    l "client.cpu_us_per_op" "us";
    l "client.syscalls_per_rt" "count";
    l "client.ctxsw_per_rt" "count";
    l "client.alloc_words_per_op" "words";
    l "client.major_gcs_per_kop" "count";
    l "server.cpu_us_per_rt" "us";
    l "server.syscalls_per_rt" "count";
    l "server.ctxsw_per_rt" "count";
    l "server.peak_rss_mb" "MB";
    l "codec.req_bytes" "bytes";
    l "codec.rep_bytes" "bytes";
    l "codec.encode_ns" "ns";
    l "codec.decode_ns" "ns";
    l "keyspace.handle_ns" "ns";
    l "keyspace.parked_keys" "count";
    l "replica.vector_size" "count";
    l "online.checker_ops_s" "ops/s";
    l "online.busy_share" "ratio";
    l "online.peak_window" "count";
    l "atomicity.check_us_per_op" "us";
    l "runtime.events_per_run" "count";
    l "runtime.ns_per_event" "ns";
    l "runtime.share" "ratio";
    l "atomicity.share" "ratio";
    l "threshold.share" "ratio";
    l "tail.read_p99_us" "us";
    l "tail.write_p99_us" "us";
    l "bench.gen_late_p99_us" "us";
    l "bench.achieved_over_offered" "ratio";
    l "bench.trace_overhead" "ratio";
  ]

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let is_alnum c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

(* A name starts with a letter or digit and has at most 64 letters,
   digits, '_', '.' and '-'. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0] && String.for_all is_name_char s

(* A unit has 1 to 16 letters, digits, '_', '/', '%', '.' and '-'. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all (fun c -> is_alnum c || String.contains "_/%.-" c) s

let names scope =
  List.filter_map
    (fun d -> if d.scope = scope then Some d.name else None)
    catalogue

let find name = List.find_opt (fun d -> d.name = name) catalogue

(* All digits a double carries, and never a non-JSON token. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

(* The result line: exactly [correct], [attempted], [failed] and
   [metrics], holding every metric of [scope] and no other.  A missing,
   uncatalogued or non-finite value makes the result incorrect instead
   of malformed. *)
let render ~scope r =
  let wanted = names scope in
  let ok = ref r.correct in
  let metrics =
    List.map
      (fun name ->
        let d = Option.get (find name) in
        let v =
          match List.assoc_opt name r.values with
          | Some v when Float.is_finite v -> v
          | Some _ | None ->
            ok := false;
            0.0
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
          d.unit_)
      wanted
  in
  if List.exists (fun (n, _) -> find n = None) r.values then ok := false;
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    !ok r.attempted r.failed
    (String.concat ", " metrics)
