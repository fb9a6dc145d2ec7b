(* Fresh [mwreg serve] child processes, one per server, and their
   reaping.  Every live child is in [live] until it is reaped; [reap_all]
   runs at exit and from the signal handlers, so no run leaves a server
   behind for the next run to talk to. *)

type child = { pid : int; id : int; port : int; out : Unix.file_descr }

let live : (int, child) Hashtbl.t = Hashtbl.create 16

let lock = Mutex.create ()

let with_lock f = Mutex.protect lock f

let reap c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  let rec wait () =
    match Unix.waitpid [] c.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  (try Unix.close c.out with Unix.Unix_error _ -> ());
  with_lock (fun () -> Hashtbl.remove live c.pid)

let reap_all () =
  let cs = with_lock (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) live []) in
  List.iter reap cs

let () =
  at_exit reap_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

(* "mwreg server 3 listening on 127.0.0.1:40211 (1 reactor shard)" *)
let parse_banner line =
  try Scanf.sscanf line "mwreg server %d listening on %[^:]:%d" (fun id _ port -> Some (id, port))
  with Scanf.Scan_failure _ | End_of_file | Failure _ -> None

exception Spawn_failed of string

(* Read one line from [fd] before [deadline] (Clock.now seconds). *)
let read_line fd ~deadline =
  let buf = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Transport.Clock.now () in
    if left <= 0.0 then raise (Spawn_failed "timed out waiting for the server banner");
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> go ()
    | _ -> (
      match Unix.read fd byte 0 1 with
      | 0 -> raise (Spawn_failed "server exited before printing its banner")
      | _ ->
        if Bytes.get byte 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_bytes buf byte;
          go ()
        end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

(* Start one server per id at once, then wait for each one's banner:
   the processes boot in parallel. *)
let spawn ~mwreg ids =
  let started =
    List.map (fun id ->
        let rd, wr = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process mwreg
            [| mwreg; "serve"; "--id"; string_of_int id; "--port"; "0" |]
            (Lazy.force devnull) wr Unix.stderr
        in
        Unix.close wr;
        let c = { pid; id; port = 0; out = rd } in
        with_lock (fun () -> Hashtbl.replace live pid c);
        c)
      ids
  in
  let deadline = Transport.Clock.now () +. 30.0 in
  List.map
    (fun c ->
      let line = read_line c.out ~deadline in
      match parse_banner line with
      | Some (id, port) when id = c.id ->
        let c = { c with port } in
        with_lock (fun () -> Hashtbl.replace live c.pid c);
        c
      | _ -> raise (Spawn_failed ("unexpected server banner: " ^ line)))
    started

let addr c = Unix.ADDR_INET (Unix.inet_addr_loopback, c.port)
