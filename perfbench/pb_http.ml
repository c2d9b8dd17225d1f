(* A minimal HTTP/1.1 keep-alive client, independent of the server's own
   [Http] module so that a change to the server's message layer cannot
   change how the benchmark measures it.  Content-Length bodies only,
   which is all the session API sends. *)

type conn = {
  port : int;
  mutable fd : Unix.file_descr option;
  acc : Buffer.t;  (* bytes read past the previous response *)
  chunk : Bytes.t;
}

type response = { status : int; body : string }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e -> Unix.close fd; raise e);
  fd

let create port =
  { port; fd = None; acc = Buffer.create 65536; chunk = Bytes.create 65536 }

let close c =
  (match c.fd with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
                 | None -> ());
  c.fd <- None;
  Buffer.clear c.acc

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let read_more c fd =
  let n = Unix.read fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "connection closed by server";
  Buffer.add_subbytes c.acc c.chunk 0 n

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let lower = String.lowercase_ascii

(* One request on the persistent connection.  Raises [Failure] or
   [Unix.Unix_error] on a transport fault; HTTP error statuses are
   returned. *)
let request c ?(headers = []) ?(body = "") ~meth path =
  let fd =
    match c.fd with
    | Some fd -> fd
    | None ->
      let fd = connect c.port in
      c.fd <- Some fd;
      fd
  in
  let b = Buffer.create (256 + String.length body) in
  Printf.bprintf b "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n"
    meth path (String.length body);
  List.iter (fun (k, v) -> Printf.bprintf b "%s: %s\r\n" k v) headers;
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  write_all fd (Buffer.contents b) 0;
  let rec header_end () =
    match find_sub (Buffer.contents c.acc) "\r\n\r\n" with
    | Some i -> i
    | None -> read_more c fd; header_end ()
  in
  let he = header_end () in
  let head = Buffer.sub c.acc 0 he in
  let lines = String.split_on_char '\n' head |> List.map String.trim in
  let status =
    match lines with
    | l :: _ -> Scanf.sscanf l "HTTP/1.%_d %d" Fun.id
    | [] -> failwith "empty response"
  in
  let field name =
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when lower (String.sub l 0 i) = name ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
      lines
  in
  let len =
    match field "content-length" with Some v -> int_of_string v | None -> 0
  in
  let total = he + 4 + len in
  while Buffer.length c.acc < total do read_more c fd done;
  let resp = { status; body = Buffer.sub c.acc (he + 4) len } in
  let rest = Buffer.sub c.acc total (Buffer.length c.acc - total) in
  Buffer.clear c.acc;
  Buffer.add_string c.acc rest;
  (match field "connection" with
   | Some v when lower v = "close" -> close c
   | _ -> ());
  resp
