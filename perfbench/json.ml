(* A minimal JSON value with floats, for the benchmark's result lines,
   run ledgers and layer tables.  The library's [Export.json] carries no
   floats, and every number this benchmark reports is one. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Shortest round-tripping rendering: every digit the measurement has. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let b = Buffer.create 1024 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      (* JSON has no infinities: a metric that failed to resolve is null. *)
      Buffer.add_string b (if Float.is_finite f then float_repr f else "null")
    | Str s -> escape b s
    | List l ->
      Buffer.add_char b '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; go x) l;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_string b ", ";
          escape b k;
          Buffer.add_string b ": ";
          go x)
        kvs;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> incr pos; skip ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (pos := !pos + String.length word; v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (match peek () with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' when !pos + 4 < n ->
          Buffer.add_char b
            (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 1) 4) land 0xff));
          pos := !pos + 4
        | c -> Buffer.add_char b c);
        incr pos;
        go ()
      | '\000' -> fail "unterminated string"
      | c -> Buffer.add_char b c; incr pos; go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do incr pos done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i when not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit) -> Int i
    | _ -> (
      match float_of_string_opt lit with Some f -> Float f | None -> fail "bad number")
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          skip ();
          let k = str () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (incr pos; List [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
