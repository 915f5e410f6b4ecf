(* Span tracer.  The open-span stack enforces bracketing; completed
   spans accumulate newest-first and are reversed on read. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_depth : int;
  sp_start : float;
  sp_dur : float;
  sp_args : (string * string) list;
}

type open_span = {
  o_name : string;
  o_cat : string;
  o_args : (string * string) list;
  o_start : float;
}

type t = {
  on : unit -> bool;
  clock : unit -> float;
  t_tid : int;
  mutable stack : open_span list;
  mutable done_ : span list;  (* newest first *)
}

let next_tid = Atomic.make 0

let create ?(enabled = fun () -> true) ?(clock = Sys.time) () =
  let t_tid = Atomic.fetch_and_add next_tid 1 in
  { on = enabled; clock; t_tid; stack = []; done_ = [] }

let begin_span t ?(cat = "pipeline") ?(args = []) name =
  if t.on () then
    t.stack <-
      { o_name = name; o_cat = cat; o_args = args; o_start = t.clock () }
      :: t.stack

let end_span t =
  match t.stack with
  | [] -> ()
  | o :: rest ->
    let now = t.clock () in
    t.stack <- rest;
    t.done_ <-
      {
        sp_name = o.o_name;
        sp_cat = o.o_cat;
        sp_tid = t.t_tid;
        sp_depth = List.length rest;
        sp_start = o.o_start;
        sp_dur = Float.max 0. (now -. o.o_start);
        sp_args = o.o_args;
      }
      :: t.done_

let with_span t ?cat ?args name f =
  if not (t.on ()) then f ()
  else begin
    begin_span t ?cat ?args name;
    Fun.protect ~finally:(fun () -> end_span t) f
  end

let spans t = List.rev t.done_

let span_set traces =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun t ->
      List.iter
        (fun s ->
          Hashtbl.replace tbl s.sp_name
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl s.sp_name)))
        (spans t))
    traces;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Chrome trace_event export: complete events ("ph":"X"), integer
   microseconds relative to the earliest span start.  Floor-rounding
   both endpoints through the same monotone map preserves nesting. *)
let to_chrome_json ?(pid = 1) ?(counters = []) traces =
  let all = List.concat_map spans traces in
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.sp_start) infinity all
  in
  let t0 =
    List.fold_left (fun acc (_, ts, _) -> Float.min acc ts) t0 counters
  in
  let us x = int_of_float (Float.floor ((x -. t0) *. 1e6)) in
  let event s =
    let ts = us s.sp_start in
    let te = us (s.sp_start +. s.sp_dur) in
    Export.Obj
      ([
         ("name", Export.Str s.sp_name);
         ("cat", Export.Str s.sp_cat);
         ("ph", Export.Str "X");
         ("ts", Export.Int ts);
         ("dur", Export.Int (te - ts));
         ("pid", Export.Int pid);
         ("tid", Export.Int s.sp_tid);
       ]
      @
      if s.sp_args = [] then []
      else
        [
          ( "args",
            Export.Obj
              (List.map (fun (k, v) -> (k, Export.Str v)) s.sp_args) );
        ])
  in
  (* Emit parents before children at equal timestamps so viewers that
     resolve ties by order nest correctly: sort by (tid, start, -depth). *)
  let ordered =
    List.sort
      (fun a b ->
        match compare a.sp_tid b.sp_tid with
        | 0 -> (
          match compare a.sp_start b.sp_start with
          | 0 -> compare a.sp_depth b.sp_depth
          | c -> c)
        | c -> c)
      all
  in
  (* Counter samples ("ph":"C") ride on a reserved tid after the spans;
     stable (name, ts) order keeps the export deterministic. *)
  let counter_events =
    List.stable_sort
      (fun (na, ta, _) (nb, tb, _) ->
        match String.compare na nb with 0 -> compare ta tb | c -> c)
      counters
    |> List.map (fun (name, ts, value) ->
           Export.Obj
             [
               ("name", Export.Str name);
               ("cat", Export.Str "profile");
               ("ph", Export.Str "C");
               ("ts", Export.Int (us ts));
               ("pid", Export.Int pid);
               ("tid", Export.Int 0);
               ("args", Export.Obj [ ("value", Export.Int value) ]);
             ])
  in
  Export.List (List.map event ordered @ counter_events)

let to_chrome_string ?pid ?counters traces =
  Export.json_to_string ~indent:1 (to_chrome_json ?pid ?counters traces)
