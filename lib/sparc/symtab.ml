type location =
  | Absolute of int
  | Fp_offset of int
  | Data_label of string * int

type ctype =
  | Scalar
  | Pointer
  | Array of { elems : int }
  | Struct of { fields : (string * int) list }

type entry = {
  name : string;
  func : string option;
  location : location;
  size_words : int;
  ctype : ctype;
}

type t = { entries : entry list }

let of_list entries = { entries }

let entries t = t.entries

let same_scope func entry =
  match func, entry.func with
  | None, None -> true
  | Some f, Some g -> String.equal f g
  | None, Some _ | Some _, None -> false

let lookup t ?func name =
  List.find_opt
    (fun e -> String.equal e.name name && same_scope func e)
    t.entries

let globals t = List.filter (fun e -> e.func = None) t.entries

let size_bytes e = e.size_words * 4

let field_offset e field =
  match e.ctype with
  | Struct { fields } ->
    List.assoc_opt field fields
  | Scalar | Pointer | Array _ -> None

let resolve_data_labels ~addr_of_label t =
  let resolve e =
    match e.location with
    | Data_label (label, off) -> (
      match addr_of_label label with
      | Some a -> { e with location = Absolute (a + off) }
      | None -> e)
    | Absolute _ | Fp_offset _ -> e
  in
  { entries = List.map resolve t.entries }

let pp_location ppf = function
  | Absolute a -> Fmt.pf ppf "@0x%08x" (Word.to_unsigned a)
  | Fp_offset o -> Fmt.pf ppf "%%fp%+d" o
  | Data_label (l, 0) -> Fmt.pf ppf "&%s" l
  | Data_label (l, o) -> Fmt.pf ppf "&%s%+d" l o

let pp_entry ppf e =
  let scope = match e.func with None -> "global" | Some f -> f in
  Fmt.pf ppf "%s:%s %a (%d words)" scope e.name pp_location e.location
    e.size_words
