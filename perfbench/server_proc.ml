(* bin/serve as a child process and line-protocol connections to it.

   The server runs out of process: OCaml systhreads in one domain share
   the runtime lock, so a client living in the server's process would
   compete with the server's own workers for it. *)

type t = { pid : int; port : int; out : in_channel }

let live = ref []

(* A server still running when the benchmark exits (an exception, a
   failed check) is killed and reaped, never left behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Start [exe] serving [doc] as auction.xml in store "main", with two
   workers and serial query execution, and wait for its readiness line. *)
let start ~exe ~doc =
  Measure.unpin ();
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--workers"; "2"; "--jobs"; "1"; "--port"; "0";
         "-d"; "auction.xml=" ^ doc |]
      devnull w Unix.stderr
  in
  Unix.close w;
  Unix.close devnull;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> "" in
  match Scanf.sscanf_opt line "listening on %_s@:%d" Fun.id with
  | Some port -> { pid; port; out }
  | None -> failwith (Printf.sprintf "serve did not start (%S)" line)

(* Drain and reap: SIGTERM answers everything admitted, then exits. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] t.pid);
  live := List.filter (( <> ) t.pid) !live;
  close_in_noerr t.out

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect t =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
  { fd; buf = Buffer.create 65536; chunk = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c req =
  let s = Bytes.of_string (Server.Protocol.render_request req ^ "\n") in
  let rec go ofs =
    if ofs < Bytes.length s then
      go (ofs + Unix.write c.fd s ofs (Bytes.length s - ofs))
  in
  go 0

(* Read what the socket has; [Some line] once a whole response arrived.
   One request is in flight per connection, so nothing follows it. *)
let poll c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "serve closed the connection";
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let len = Buffer.length c.buf in
  if Buffer.nth c.buf (len - 1) <> '\n' then None
  else begin
    let line = Buffer.sub c.buf 0 (len - 1) in
    Buffer.clear c.buf;
    Some line
  end

let rec recv c = match poll c with Some l -> l | None -> recv c

let call c req =
  send c req;
  match Server.Protocol.parse_response (recv c) with
  | Ok r -> r
  | Error m -> failwith ("bad response: " ^ m)

(* The server's STATS counters. *)
let stats c =
  match call c Server.Protocol.Stats with
  | Server.Protocol.Resp_ok (_, f) ->
    Server.Protocol.payload_of f
    |> String.split_on_char ' '
    |> List.filter_map (fun kv ->
        match String.index_opt kv '=' with
        | Some i ->
          Some
            ( String.sub kv 0 i,
              String.sub kv (i + 1) (String.length kv - i - 1) )
        | None -> None)
  | _ -> failwith "STATS failed"

let stat_int kvs k =
  match List.assoc_opt k kvs with
  | Some v -> int_of_string v
  | None -> failwith ("STATS lacks " ^ k)
