(* dbp-wire/1 codec.  See the interface for the frame model.  The
   implementation is a straight split-on-space tokenizer: commands and
   replies never contain empty fields (the escaper maps "" to "%z"),
   so [String.split_on_char ' '] is unambiguous, and every string
   field round-trips through {!escape}/{!unescape}. *)

let version = "dbp-wire/1"

(* --- token escaping --------------------------------------------------- *)

let needs_escape c =
  c = '%' || c = ' ' || Char.code c < 0x21 || Char.code c > 0x7e

let hex_digits = "0123456789ABCDEF"

(* Append [s] escaped: [%XX] for each byte that needs it, [%z] for the
   empty string. *)
let add_escaped b s =
  if s = "" then Buffer.add_string b "%z"
  else
    for i = 0 to String.length s - 1 do
      let c = s.[i] in
      if needs_escape c then begin
        Buffer.add_char b '%';
        Buffer.add_char b hex_digits.[Char.code c lsr 4];
        Buffer.add_char b hex_digits.[Char.code c land 15]
      end
      else Buffer.add_char b c
    done

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | _ -> None

let unescape s =
  if s = "%z" then Ok ""
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then Ok (Buffer.contents b)
      else if s.[i] <> '%' then begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
      else if i + 2 >= n then Error (Printf.sprintf "dangling escape in %S" s)
      else
        match (hex_val s.[i + 1], hex_val s.[i + 2]) with
        | Some h, Some l ->
          Buffer.add_char b (Char.chr ((h * 16) + l));
          go (i + 3)
        | _ -> Error (Printf.sprintf "bad escape %S in %S" (String.sub s i 3) s)
    in
    go 0
  end

(* --- commands --------------------------------------------------------- *)

type source = Workload of string | Program of string
type target = Var of string | Region of { lo : int; len : int }

type command =
  | Hello
  | Open of { sid : string; source : source; strategy : string; opt : string }
  | Arm of { sid : string; target : target }
  | Disarm of { sid : string; name : string }
  | Run of { sid : string; fuel : int }
  | Query_last_write of { sid : string; target : string }
  | Query_history of { sid : string; target : string; len : int }
  | Travel of { sid : string; insn : int }
  | Report of { sid : string }
  | Verify of { sid : string }
  | Close of { sid : string }

let command_sid = function
  | Hello -> None
  | Open { sid; _ }
  | Arm { sid; _ }
  | Disarm { sid; _ }
  | Run { sid; _ }
  | Query_last_write { sid; _ }
  | Query_history { sid; _ }
  | Travel { sid; _ }
  | Report { sid }
  | Verify { sid }
  | Close { sid } ->
    Some sid

let encode_command = function
  | Hello -> "hello"
  | Open { sid; source; strategy; opt } ->
    let kind, body =
      match source with
      | Workload w -> ("workload", w)
      | Program p -> ("program", p)
    in
    Printf.sprintf "open %s %s %s %s %s" (escape sid) kind (escape body)
      (escape strategy) (escape opt)
  | Arm { sid; target = Var v } ->
    Printf.sprintf "arm %s var %s" (escape sid) (escape v)
  | Arm { sid; target = Region { lo; len } } ->
    Printf.sprintf "arm %s region %d %d" (escape sid) lo len
  | Disarm { sid; name } ->
    Printf.sprintf "disarm %s %s" (escape sid) (escape name)
  | Run { sid; fuel } -> Printf.sprintf "run %s %d" (escape sid) fuel
  | Query_last_write { sid; target } ->
    Printf.sprintf "query %s last-write %s" (escape sid) (escape target)
  | Query_history { sid; target; len } ->
    Printf.sprintf "query %s history %s %d" (escape sid) (escape target) len
  | Travel { sid; insn } -> Printf.sprintf "travel %s %d" (escape sid) insn
  | Report { sid } -> Printf.sprintf "report %s" (escape sid)
  | Verify { sid } -> Printf.sprintf "verify %s" (escape sid)
  | Close { sid } -> Printf.sprintf "close %s" (escape sid)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let int_tok name s =
  let ok =
    s <> ""
    && (s.[0] <> '-' || String.length s > 1)
    && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s
    && (match String.index_from_opt s 1 '-' with None -> true | Some _ -> false)
  in
  match if ok then int_of_string_opt s else None with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad integer %S for %s" s name)

let decode_command line =
  match String.split_on_char ' ' line with
  | [ "hello" ] -> Ok Hello
  | "open" :: sid :: kind :: body :: strategy :: opt :: [] ->
    let* sid = unescape sid in
    let* body = unescape body in
    let* strategy = unescape strategy in
    let* opt = unescape opt in
    let* source =
      match kind with
      | "workload" -> Ok (Workload body)
      | "program" -> Ok (Program body)
      | k -> Error (Printf.sprintf "unknown open source kind %S" k)
    in
    Ok (Open { sid; source; strategy; opt })
  | [ "arm"; sid; "var"; v ] ->
    let* sid = unescape sid in
    let* v = unescape v in
    Ok (Arm { sid; target = Var v })
  | [ "arm"; sid; "region"; lo; len ] ->
    let* sid = unescape sid in
    let* lo = int_tok "lo" lo in
    let* len = int_tok "len" len in
    Ok (Arm { sid; target = Region { lo; len } })
  | [ "disarm"; sid; name ] ->
    let* sid = unescape sid in
    let* name = unescape name in
    Ok (Disarm { sid; name })
  | [ "run"; sid; fuel ] ->
    let* sid = unescape sid in
    let* fuel = int_tok "fuel" fuel in
    Ok (Run { sid; fuel })
  | [ "query"; sid; "last-write"; target ] ->
    let* sid = unescape sid in
    let* target = unescape target in
    Ok (Query_last_write { sid; target })
  | [ "query"; sid; "history"; target; len ] ->
    let* sid = unescape sid in
    let* target = unescape target in
    let* len = int_tok "len" len in
    Ok (Query_history { sid; target; len })
  | [ "travel"; sid; insn ] ->
    let* sid = unescape sid in
    let* insn = int_tok "insn" insn in
    Ok (Travel { sid; insn })
  | [ "report"; sid ] ->
    let* sid = unescape sid in
    Ok (Report { sid })
  | [ "verify"; sid ] ->
    let* sid = unescape sid in
    Ok (Verify { sid })
  | [ "close"; sid ] ->
    let* sid = unescape sid in
    Ok (Close { sid })
  | verb :: _ -> Error (Printf.sprintf "malformed %S command frame" verb)
  | [] -> Error "empty command frame"

(* --- replies ---------------------------------------------------------- *)

type reply_body =
  | Hello_ok
  | Opened of { name : string; strategy : string; opt : string }
  | Armed of { name : string; lo : int; len : int }
  | Disarmed of { name : string }
  | Running of { executed : int }
  | Exited of { code : int; executed : int; output : string }
  | Hit of {
      name : string;
      insn : int;
      pc : int;
      addr : int;
      value : int;
      func : string;
    }
  | Last_write of {
      target : string;
      addr : int;
      insn : int;
      pc : int;
      old_v : int;
      new_v : int;
      wtype : string;
      func : string;
    }
  | Never_written of { target : string; addr : int }
  | History of { count : int }
  | Write of {
      insn : int;
      pc : int;
      addr : int;
      old_v : int;
      new_v : int;
      wtype : string;
    }
  | Traveled of { insn : int; reexecuted : int; pc : int }
  | Report_json of string
  | Verified of { total : int; proved : int; refuted : int; unknown : int }
  | Closed
  | Error of string

type reply = { r_sid : string; r_seq : int; r_body : reply_body }

let terminal = function Hit _ | Write _ | History _ -> false | _ -> true

(* A frame is built in one buffer: each field after the first is a
   space and then a bare word, a decimal integer or an escaped
   string. *)
let word b w =
  Buffer.add_char b ' ';
  Buffer.add_string b w

(* [n] in decimal, as [%d] prints it; digits are taken off a
   non-positive value, so [min_int] needs no special case. *)
let int b n =
  Buffer.add_char b ' ';
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  in
  if n < 0 then Buffer.add_char b '-';
  digits (if n > 0 then -n else n)

let str b x =
  Buffer.add_char b ' ';
  add_escaped b x

let encode_reply r =
  let b = Buffer.create 64 in
  add_escaped b r.r_sid;
  int b r.r_seq;
  (match r.r_body with
  | Hello_ok ->
    word b "hello";
    word b version
  | Opened { name; strategy; opt } ->
    word b "opened";
    str b name;
    str b strategy;
    str b opt
  | Armed { name; lo; len } ->
    word b "armed";
    str b name;
    int b lo;
    int b len
  | Disarmed { name } ->
    word b "disarmed";
    str b name
  | Running { executed } ->
    word b "running";
    int b executed
  | Exited { code; executed; output } ->
    word b "exited";
    int b code;
    int b executed;
    str b output
  | Hit { name; insn; pc; addr; value; func } ->
    word b "hit";
    str b name;
    int b insn;
    int b pc;
    int b addr;
    int b value;
    str b func
  | Last_write { target; addr; insn; pc; old_v; new_v; wtype; func } ->
    word b "last-write";
    str b target;
    int b addr;
    int b insn;
    int b pc;
    int b old_v;
    int b new_v;
    str b wtype;
    str b func
  | Never_written { target; addr } ->
    word b "never-written";
    str b target;
    int b addr
  | History { count } ->
    word b "history";
    int b count
  | Write { insn; pc; addr; old_v; new_v; wtype } ->
    word b "write";
    int b insn;
    int b pc;
    int b addr;
    int b old_v;
    int b new_v;
    str b wtype
  | Traveled { insn; reexecuted; pc } ->
    word b "traveled";
    int b insn;
    int b reexecuted;
    int b pc
  | Report_json j ->
    word b "report";
    str b j
  | Verified { total; proved; refuted; unknown } ->
    word b "verified";
    int b total;
    int b proved;
    int b refuted;
    int b unknown
  | Closed -> word b "closed"
  | Error msg ->
    word b "error";
    str b msg);
  Buffer.contents b

let decode_body = function
  | [ "hello"; v ] when v = version -> Ok Hello_ok
  | [ "opened"; name; strategy; opt ] ->
    let* name = unescape name in
    let* strategy = unescape strategy in
    let* opt = unescape opt in
    Ok (Opened { name; strategy; opt })
  | [ "armed"; name; lo; len ] ->
    let* name = unescape name in
    let* lo = int_tok "lo" lo in
    let* len = int_tok "len" len in
    Ok (Armed { name; lo; len })
  | [ "disarmed"; name ] ->
    let* name = unescape name in
    Ok (Disarmed { name })
  | [ "running"; executed ] ->
    let* executed = int_tok "executed" executed in
    Ok (Running { executed })
  | [ "exited"; code; executed; output ] ->
    let* code = int_tok "code" code in
    let* executed = int_tok "executed" executed in
    let* output = unescape output in
    Ok (Exited { code; executed; output })
  | [ "hit"; name; insn; pc; addr; value; func ] ->
    let* name = unescape name in
    let* insn = int_tok "insn" insn in
    let* pc = int_tok "pc" pc in
    let* addr = int_tok "addr" addr in
    let* value = int_tok "value" value in
    let* func = unescape func in
    Ok (Hit { name; insn; pc; addr; value; func })
  | [ "last-write"; target; addr; insn; pc; old_v; new_v; wtype; func ] ->
    let* target = unescape target in
    let* addr = int_tok "addr" addr in
    let* insn = int_tok "insn" insn in
    let* pc = int_tok "pc" pc in
    let* old_v = int_tok "old" old_v in
    let* new_v = int_tok "new" new_v in
    let* wtype = unescape wtype in
    let* func = unescape func in
    Ok (Last_write { target; addr; insn; pc; old_v; new_v; wtype; func })
  | [ "never-written"; target; addr ] ->
    let* target = unescape target in
    let* addr = int_tok "addr" addr in
    Ok (Never_written { target; addr })
  | [ "history"; count ] ->
    let* count = int_tok "count" count in
    Ok (History { count })
  | [ "write"; insn; pc; addr; old_v; new_v; wtype ] ->
    let* insn = int_tok "insn" insn in
    let* pc = int_tok "pc" pc in
    let* addr = int_tok "addr" addr in
    let* old_v = int_tok "old" old_v in
    let* new_v = int_tok "new" new_v in
    let* wtype = unescape wtype in
    Ok (Write { insn; pc; addr; old_v; new_v; wtype })
  | [ "traveled"; insn; reexecuted; pc ] ->
    let* insn = int_tok "insn" insn in
    let* reexecuted = int_tok "reexecuted" reexecuted in
    let* pc = int_tok "pc" pc in
    Ok (Traveled { insn; reexecuted; pc })
  | [ "report"; j ] ->
    let* j = unescape j in
    Ok (Report_json j)
  | [ "verified"; total; proved; refuted; unknown ] ->
    let* total = int_tok "total" total in
    let* proved = int_tok "proved" proved in
    let* refuted = int_tok "refuted" refuted in
    let* unknown = int_tok "unknown" unknown in
    Ok (Verified { total; proved; refuted; unknown })
  | [ "closed" ] -> Ok Closed
  | [ "error"; msg ] ->
    let* msg = unescape msg in
    Ok (Error msg)
  | kind :: _ -> Stdlib.Error (Printf.sprintf "malformed %S reply frame" kind)
  | [] -> Stdlib.Error "empty reply frame"

let decode_reply line =
  match String.split_on_char ' ' line with
  | sid :: seq :: body when body <> [] ->
    let* r_sid = unescape sid in
    let* r_seq = int_tok "seq" seq in
    let* r_body = decode_body body in
    Ok { r_sid; r_seq; r_body }
  | _ -> Stdlib.Error "reply frame shorter than SID SEQ KIND"
