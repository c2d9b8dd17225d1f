(* A small JSON reader for the service's replies, owned by the benchmark
   so that checking a reply never runs the program's own parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\n' | '\r' | '\t' -> incr pos; ws ()
      | _ -> ()
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail "unexpected byte" in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 > n then fail "bad escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           Buffer.add_utf_8_uchar b (Uchar.of_int code)
         | c -> Buffer.add_char b c);
        go ()
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
          | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
          | _ -> false)
    do incr pos done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos; ws ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else begin
        let rec fields acc =
          ws ();
          let k = string_ () in
          ws (); expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
      end
    | '[' ->
      incr pos; ws ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else begin
        let rec items acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
      end
    | '"' -> Str (string_ ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (number ())
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function
  | Obj l -> (match List.assoc_opt k l with Some v -> v | None -> raise (Bad ("missing " ^ k)))
  | _ -> raise (Bad ("not an object looking up " ^ k))

let num = function Num f -> f | _ -> raise (Bad "not a number")
let str = function Str s -> s | _ -> raise (Bad "not a string")
let arr = function Arr l -> l | _ -> raise (Bad "not an array")
let bool = function Bool b -> b | _ -> raise (Bad "not a boolean")
