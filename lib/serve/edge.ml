(* One connection's framing and flow control, with no I/O: bytes in,
   frames out; replies in, bytes to write out.  {!Edge_io} moves the
   bytes between this and a socket. *)

type framing = Lines | Head

type t = {
  framing : framing;
  in_cap : int;
  out_cap : int;
  rbuf : Buffer.t;  (* input not yet framed *)
  mutable line : int;  (* [Head]: where the current line starts in [rbuf] *)
  wbuf : Buffer.t;  (* output accepted for write *)
  mutable woff : int;  (* [wbuf]'s prefix already written *)
  mutable deadline : float;
}

let create ?(deadline = infinity) framing ~in_cap ~out_cap =
  let rbuf = Buffer.create 256 and wbuf = Buffer.create 4096 in
  { framing; in_cap; out_cap; rbuf; line = 0; wbuf; woff = 0; deadline }

(* Only the [k] new bytes are scanned for newlines. *)
let feed t chunk k f =
  let rec go start i =
    if i = k then Buffer.add_subbytes t.rbuf chunk start (k - start)
    else if Bytes.get chunk i <> '\n' then go start (i + 1)
    else begin
      Buffer.add_subbytes t.rbuf chunk start (i + 1 - start);
      let len = Buffer.length t.rbuf in
      let cr = len - 1 > t.line && Buffer.nth t.rbuf (len - 2) = '\r' in
      let n = if cr then len - 2 else len - 1 in
      (match t.framing with
      | Head when n > t.line -> t.line <- len
      | Lines when n = 0 -> Buffer.clear t.rbuf
      | Lines | Head ->
        let frame = Buffer.sub t.rbuf 0 (if t.framing = Lines then n else t.line) in
        Buffer.clear t.rbuf;
        t.line <- 0;
        f frame);
      go (i + 1) (i + 1)
    end
  in
  go 0 0;
  Buffer.length t.rbuf <= t.in_cap
  || begin
       Buffer.reset t.rbuf;
       t.line <- 0;
       false
     end

let finish t = if t.line > 0 then Some (Buffer.sub t.rbuf 0 t.line) else None
let add t s = Buffer.add_string t.wbuf s

let add_line t s =
  Buffer.add_string t.wbuf s;
  Buffer.add_char t.wbuf '\n'

let pending t = Buffer.length t.wbuf - t.woff
let over t = pending t > t.out_cap

let stage t chunk =
  let n = min (pending t) (Bytes.length chunk) in
  Buffer.blit t.wbuf t.woff chunk 0 n;
  n

(* The written prefix is dropped once it outgrows what is left, so a
   slow reader's backlog costs time linear in its bytes. *)
let sent t k =
  t.woff <- t.woff + k;
  if t.woff > pending t then begin
    let rest = Buffer.sub t.wbuf t.woff (pending t) in
    Buffer.clear t.wbuf;
    Buffer.add_string t.wbuf rest;
    t.woff <- 0
  end

let drop t =
  Buffer.reset t.wbuf;
  t.woff <- 0

let set_deadline t d = t.deadline <- d
let deadline t = t.deadline
let expired t ~now = now >= t.deadline
