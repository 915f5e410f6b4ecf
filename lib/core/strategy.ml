type t =
  | Nocheck
  | Bitmap
  | Bitmap_inline
  | Bitmap_inline_registers
  | Cache
  | Cache_inline
  | Hash_table
  | Trap_check
  | Hardware_watch of int

let to_string = function
  | Nocheck -> "none"
  | Bitmap -> "Bitmap"
  | Bitmap_inline -> "BitmapInline"
  | Bitmap_inline_registers -> "BitmapInlineRegisters"
  | Cache -> "Cache"
  | Cache_inline -> "CacheInline"
  | Hash_table -> "HashTable"
  | Trap_check -> "TrapCheck"
  | Hardware_watch n -> Printf.sprintf "HardwareWatch%d" n

(* [HardwareWatch%d] parses for any positive register count — i386 has
   4, SPARC/R4000 have 1, and the CLI should not hard-code the list —
   but only all-digit suffixes with no sign, leading zeros allowed
   (["HardwareWatch007"] is 7; ["HardwareWatch+1"], ["HardwareWatch"],
   ["HardwareWatch0"] are rejected). *)
let hardware_watch_of_string s =
  let prefix = "HardwareWatch" in
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    let digits = String.sub s plen (String.length s - plen) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then
      match int_of_string_opt digits with
      | Some n when n >= 1 -> Some (Hardware_watch n)
      | _ -> None
    else None
  else None

let of_string = function
  | "none" -> Nocheck
  | "Bitmap" | "bitmap" -> Bitmap
  | "BitmapInline" | "bitmap-inline" -> Bitmap_inline
  | "BitmapInlineRegisters" | "bitmap-inline-registers" -> Bitmap_inline_registers
  | "Cache" | "cache" -> Cache
  | "CacheInline" | "cache-inline" -> Cache_inline
  | "HashTable" | "hash" -> Hash_table
  | "TrapCheck" | "trap" -> Trap_check
  | s -> (
    match hardware_watch_of_string s with
    | Some t -> t
    | None -> invalid_arg (Printf.sprintf "Strategy.of_string: %S" s))

(* Stable lowercase snake_case identifier for report tags and metric
   labels: unlike [to_string] it never needs quoting or sanitizing in
   the Prometheus exposition format. *)
let tag = function
  | Nocheck -> "none"
  | Bitmap -> "bitmap"
  | Bitmap_inline -> "bitmap_inline"
  | Bitmap_inline_registers -> "bitmap_inline_registers"
  | Cache -> "cache"
  | Cache_inline -> "cache_inline"
  | Hash_table -> "hash_table"
  | Trap_check -> "trap_check"
  | Hardware_watch n -> Printf.sprintf "hardware_watch_%d" n

let uses_segment_caches = function
  | Cache | Cache_inline -> true
  | Nocheck | Bitmap | Bitmap_inline | Bitmap_inline_registers | Hash_table
  | Trap_check | Hardware_watch _ ->
    false

let pp ppf t = Fmt.string ppf (to_string t)
