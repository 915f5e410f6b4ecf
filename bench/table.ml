(* The harness's one table type and its one printer.

   An experiment returns what it measured as data — rows of typed
   cells under headed columns — and [print] lays every table out the
   same way: a [== title ==] line, a header row, one line per row, then
   the note lines.  The first column is a left-aligned label; every
   other cell is right-aligned in its column's width. *)

type cell =
  | Pct of int * float  (* a percentage, with this many decimals *)
  | Float of int * float
  | Int of int
  | Str of string

type column = { header : string; width : int }

type t = {
  title : string;
  corner : string;  (* the label column's header *)
  label_width : int;
  columns : column list;
  rows : (string * cell list) list;
  notes : string list;
}

(* What an experiment prints, in order: its tables and the free text
   between them (JSON, folded stacks, per-workload summaries). *)
type part = Table of t | Text of string

let v ~title ?(corner = "Programs") ?(label_width = 18) ?(notes = []) columns
    rows =
  { title; corner; label_width; columns; rows; notes }

let col ?(width = 12) header = { header; width }
let columns = List.map (fun (header, width) -> { header; width })

let pct1 x = Pct (1, x)

let text = function
  | Pct (d, x) -> Printf.sprintf "%.*f%%" d x
  | Float (d, x) -> Printf.sprintf "%.*f" d x
  | Int n -> string_of_int n
  | Str s -> s

let print t =
  let line label cells =
    Printf.printf "%-*s" t.label_width label;
    List.iter2 (fun c s -> Printf.printf "%*s" c.width s) t.columns cells;
    print_char '\n'
  in
  Printf.printf "\n== %s ==\n" t.title;
  line t.corner (List.map (fun c -> c.header) t.columns);
  List.iter (fun (label, cells) -> line label (List.map text cells)) t.rows;
  List.iter print_endline t.notes

let print_parts = List.iter (function Table t -> print t | Text s -> print_string s)
