(* The benchmark harness.  Run through perfbench/run.py, which builds
   it together with mwreg and checks the result line against
   BENCHMARK.json:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --mwreg PATH

   Prints a few human-readable lines, a JSON line describing the run's
   host and topology, and last the result line.  Exits 1 when a
   correctness check failed, 2 on bad arguments. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload reg-w2r1-open|kv-zipf-closed|sim-table1 --seed N \
     --seconds S --trace 0|1 --mwreg PATH";
  exit 2

let parse argv =
  let rec go acc = function
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list argv))

let workloads = [ "reg-w2r1-open"; "kv-zipf-closed"; "sim-table1" ]

let topology = function
  | "reg-w2r1-open" ->
    [ ("protocol", "\"W2R1\""); ("servers", "5"); ("t", "1"); ("shard_groups", "1");
      ("server_processes", "5"); ("server_reactor_shards", "1"); ("clients", "2");
      ("offered_ops_s", "1000") ]
  | "kv-zipf-closed" ->
    [ ("protocol", "\"LS97\""); ("servers", "3"); ("t", "1"); ("shard_groups", "2");
      ("server_processes", "6"); ("server_reactor_shards", "1"); ("clients", "2");
      ("keys", string_of_int Live.kv_keys);
      ("zipf_theta", "0.99"); ("offered_ops_s", "null") ]
  | _ -> [ ("server_processes", "0"); ("configs", "4"); ("seeds_per_shape", string_of_int Sim.seeds_per_shape) ]

let write_spans ~workload ~seed write =
  let dir = ".perfbench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir workload seed in
  Out_channel.with_open_text path write;
  Printf.printf "spans written to %s\n" path

let () =
  let args = parse Sys.argv in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  if (not (List.mem workload workloads)) || seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  let trace = trace = 1 in
  let seconds = float_of_int seconds in
  let mwreg = if workload = "sim-table1" then "" else get "mwreg" in
  if mwreg <> "" && not (Sys.file_exists mwreg) then begin
    Printf.eprintf "mwreg binary not found: %s\n" mwreg;
    exit 2
  end;
  let fields =
    [ ("workload", Printf.sprintf "%S" workload); ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds); ("trace", string_of_bool trace);
      ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
      ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ())) ]
    @ topology workload
  in
  Printf.printf "{\"run\": {%s}}\n%!"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields));
  let host0 = Procfs.host () in
  let outcome =
    match workload with
    | "reg-w2r1-open" -> Live.reg_w2r1_open { Live.mwreg; seed; seconds; trace }
    | "kv-zipf-closed" -> Live.kv_zipf_closed { Live.mwreg; seed; seconds; trace }
    | _ ->
      let o, run_spans = Sim.run { Sim.seed; seconds; trace } in
      if trace then
        write_spans ~workload ~seed (fun oc ->
            List.iteri
              (fun i (t0, t1, t2) ->
                Printf.fprintf oc
                  "{\"span\": \"run\", \"run\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n\
                   {\"span\": \"runtime\", \"run\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n\
                   {\"span\": \"atomicity\", \"run\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n"
                  i (t0 *. 1e6) (t2 *. 1e6) i (t0 *. 1e6) (t1 *. 1e6) i (t1 *. 1e6) (t2 *. 1e6))
              run_spans);
      o
  in
  if trace && outcome.Live.traces <> [] then begin
    let origin =
      List.fold_left
        (fun a sp -> if sp.Spans.ops > 0 then Float.min a sp.Spans.op_start.Sample.data.(0) else a)
        infinity outcome.Live.traces
    in
    write_spans ~workload ~seed (fun oc -> Spans.write oc ~origin ~limit:20_000 outcome.Live.traces)
  end;
  List.iter print_endline outcome.Live.info;
  (match (host0, Procfs.host ()) with
  | Some (s0, i0, t0), Some (s1, i1, t1) when t1 > t0 ->
    let share a b = 100.0 *. float_of_int (b - a) /. float_of_int (t1 - t0) in
    Printf.printf "host cpu during the run: steal %.1f%%, idle %.1f%%\n" (share s0 s1) (share i0 i1)
  | _ -> ());
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) outcome.Live.errors;
  let scope = if trace then Metric.Per_layer else Metric.End_to_end in
  let correct = outcome.Live.errors = [] in
  print_endline
    (Metric.render ~scope
       { Metric.correct; attempted = outcome.Live.attempted; failed = outcome.Live.failed;
         values = outcome.Live.values });
  exit (if correct then 0 else 1)
