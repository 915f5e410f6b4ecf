type image = {
  text : Insn.t array;
  text_base : int;
  data_base : int;
  data_limit : int;
  data_init : (int * int) list;
  labels : (string, int) Hashtbl.t;
  entry : int;
  source : Asm.item list;
  insn_items : int array;
}

exception Error of string

let errorf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let default_text_base = 0x0001_0000
let default_data_base = 0x0040_0000

let align8 n = (n + 7) land lnot 7

let layout_data ~data_base data =
  let labels = ref [] in
  let init = ref [] in
  let addr = ref data_base in
  List.iter
    (fun { Asm.name; size; init = words } ->
      if size <= 0 then errorf "data %s: non-positive size %d" name size;
      if List.length words * 4 > size then
        errorf "data %s: %d init words exceed size %d" name (List.length words) size;
      labels := (name, !addr) :: !labels;
      List.iteri (fun i w -> init := (!addr + (4 * i), Word.norm w) :: !init) words;
      addr := align8 (!addr + size))
    data;
  (List.rev !labels, List.rev !init, !addr)

let assemble ?(text_base = default_text_base) ?(data_base = default_data_base)
    (program : Asm.program) =
  let labels = Hashtbl.create 97 in
  let add_label name addr =
    if Hashtbl.mem labels name then errorf "duplicate label %s" name
    else Hashtbl.add labels name addr
  in
  (* Pass 1: assign addresses to text labels. *)
  let pc = ref text_base in
  List.iter
    (fun item ->
      (match item with
      | Asm.Label name -> add_label name !pc
      | Asm.Insn _ | Asm.Set_label _ | Asm.Comment _ -> ());
      pc := !pc + Asm.item_size item)
    program.text;
  let data_labels, data_init, data_limit = layout_data ~data_base program.data in
  List.iter (fun (name, addr) -> add_label name addr) data_labels;
  let resolve_label name =
    match Hashtbl.find_opt labels name with
    | Some addr -> addr
    | None -> errorf "undefined label %s" name
  in
  let resolve_target = function
    | Insn.Sym name -> Insn.Abs (resolve_label name)
    | Insn.Abs _ as t -> t
  in
  (* Pass 2: emit instructions with resolved targets.  [insn_items.(k)]
     records the index in [program.text] that produced text word [k],
     letting clients map between source items and text addresses. *)
  let out = ref [] in
  let origins = ref [] in
  let emit item_idx insn =
    out := insn :: !out;
    origins := item_idx :: !origins
  in
  List.iteri
    (fun idx item ->
      match item with
      | Asm.Insn insn -> emit idx (Insn.map_target resolve_target insn)
      | Asm.Set_label { label; offset; rd } ->
        let v = Word.norm (resolve_label label + offset) in
        let u = Word.to_unsigned v in
        let hi = u lsr 10 and lo = u land 0x3FF in
        emit idx (Insn.Sethi { imm = hi; rd });
        emit idx (Asm.or_ rd (Insn.Imm lo) rd)
      | Asm.Label _ | Asm.Comment _ -> ())
    program.text;
  let text = Arr.of_list (List.rev !out) in
  let insn_items = Array.of_list (List.rev !origins) in
  let entry = resolve_label program.entry in
  {
    text;
    text_base;
    data_base;
    data_limit;
    data_init;
    labels;
    entry;
    source = program.text;
    insn_items;
  }

let addr_of_label image name =
  match Hashtbl.find_opt image.labels name with
  | Some a -> Some a
  | None -> None

let label_of_addr image addr =
  Hashtbl.fold
    (fun name a best ->
      if a = addr then
        match best with
        | Some b when String.compare b name <= 0 -> best
        | Some _ | None -> Some name
      else best)
    image.labels None

let text_limit image = image.text_base + (4 * Array.length image.text)

let in_text image addr = addr >= image.text_base && addr < text_limit image
