(** The analysis-and-patching tool (§2.1): the extra processing stage
    between the compiler and the assembler.

    Given a compiled program, inserts a write check after every store
    of every instrumented function; when optimization is on, first runs
    symbol-table matching ({!Symopt}) and loop analysis ({!Loopopt}) and
    instead emits, for each eliminated site, a labelled patch stub that
    the MRS can swing into place at runtime (Kessler fast breakpoints).
    Pre-header checks, frame-integrity calls (§4.2) and the monitor
    library are spliced into the same item stream. *)

type opt_level =
  | O0        (** check every write *)
  | O_symbol  (** + symbol-table pattern matching (§4.2) *)
  | O_full    (** + loop-invariant and monotonic elimination (§4.3) *)

type options = {
  strategy : Strategy.t;
  opt : opt_level;
  check_aliases : bool;
      (** guard loop-optimized loops with alias regions (§4.5); off by
          default, matching the paper's measurements *)
  layout : Layout.t;
  fortran_idiom : bool;  (** enable the BSS-VAR write type (§3.1) *)
  instrument_runtime : bool;
  nop_padding : int;
      (** >0: insert that many nops per store instead of checks — the
          cache-effects experiment of §3.3.1 *)
  exclude : string list;
      (** functions left unpatched, like the paper's standard libraries *)
  monitor_reads : bool;
      (** also check every load — the read-monitoring extension of §5,
          needed for access-anomaly detection; read hits raise
          {!Traps.read_hit} *)
  disabled_guard : bool;
      (** ablation: [false] drops §2.1's branch-around-when-disabled
          guard from every check *)
  single_cache : bool;
      (** ablation: one shared segment cache instead of §3.1's four
          per-write-type caches *)
}

val default_options : options
(** BitmapInlineRegisters, no optimization, 128-word segments. *)

type status =
  | Checked
  | Sym_eliminated of string  (** the matched pseudo (PreMonitor key) *)
  | Loop_eliminated of int    (** owning loop id *)

type site = {
  origin : int;  (** item index of the store in the original program *)
  slot : int;
      (** dense program-order index — the telemetry layer's per-site
          array slot, assigned at instrument time *)
  fn : string;
      (** the instrumented function holding the store (the audit
          journal's [fn]; also owns the site's patch stub) *)
  width : Sparc.Insn.width;
  write_type : Write_type.t;
  status : status;
  insn : Sparc.Insn.t;
}

type read_site = {
  r_origin : int;
  r_slot : int;  (** dense program-order index among read sites *)
  r_width : Sparc.Insn.width;
  r_write_type : Write_type.t;
}

type sym_stats = { matched_store_sites : int; matched_loads : int }

type t = {
  program : Sparc.Asm.program;
  options : options;
  sites : site list;
  read_sites : read_site list;
  sites_by_pseudo : (string * int list) list;
  loop_plans : Loopopt.loop_plan list;
  sym_stats : sym_stats;
  loop_stats : Loopopt.stats;
  control_checks : bool;
  functions : string list;
  symtab : Sparc.Symtab.t;
      (** the compiler's symbol table, pre-assembly — what §4.2
          matching consumed *)
  fn_inputs : Loopopt.fn_input list;
      (** per instrumented function: the post-symopt TAC and the raw
          item slice the analyses consumed, retained so an independent
          checker ({!Verify}) can re-derive every elimination from the
          plan alone *)
}

val run : ?audit:Audit.t -> ?trace:Trace.t -> options -> Minic.Codegen.output -> t
(** With [audit], the journal receives one provenance verdict per write
    site: [Sym_matched] decisions are emitted by {!Symopt.rewrite},
    loop decisions (with their bound expressions, lattice levels and
    the per-loop Figure-4 fixpoint) are recorded from the surviving
    loop plans after alias filtering, and every site is finalized with
    its slot, origin, enclosing function and write type.  With [trace],
    the pipeline stages are bracketed in spans:
    ["lift"], ["symopt"], ["loopopt"] (with per-function ["cfg-ssa"] /
    ["bounds"] children), ["plan"] and ["instrument"]. *)

(** Label naming scheme used to find sites after assembly: *)

val site_label : int -> string
(** Placed immediately before each original store. *)

val read_site_label : int -> string
(** Placed immediately before each original load (after its check). *)

val back_label : int -> string
(** Placed immediately after an eliminated store (patch return target). *)

val patch_label : int -> string
(** Start of an eliminated store's patch stub. *)

val exit_label : int -> string
(** Placed before the loop-exit traps at an alias-checked loop's exit
    point (an item index from {!Loopopt.loop_plan.exit_items}). *)

(** {1 The site map}

    Where every write site, patch stub, read site and function sits in
    one assembled image — the table of stopping points every runtime
    service reads.  It is resolved once per image from the labels above
    and sized by the sites and functions, not by the text. *)

type placed = {
  site : site;
  pc : int;  (** the store's own pc: its site label *)
  stub : int;  (** first pc of its patch stub; [-1] for a checked site *)
  stub_end : int;  (** pc of the stub's closing [ba]; [-1] without a stub *)
}

type map

val map : t -> Sparc.Assembler.image -> map
(** Resolve a plan's labels in the image it assembled to. *)

val write_sites : map -> placed array
(** Every write site, indexed by slot. *)

val read_sites : map -> (int * read_site) array
(** Every read site that resolves, with its pc, in pc order (which is
    slot order). *)

val functions : map -> (int * string) list
(** [_start] and the compiler's functions that resolve, as
    [(entry pc, name)] in plan order; the first name at a shared pc
    wins. *)

val find_site : map -> int -> placed option
(** The write site of an origin. *)

val write_site_at : map -> int -> placed option
(** The write site whose check a trap pc belongs to: the greatest site
    or stub pc at or below it (a check follows its store). *)

val read_site_at : map -> int -> read_site option
(** The read site whose check a trap pc belongs to: the least read-site
    pc at or above it (a read check precedes its load). *)

val store_type : map -> int -> Write_type.t option
(** The write type of the program store at exactly this pc — a site
    (inline store) or a stub's first pc (re-inserted check) — in O(1)
    and without allocating; [None] for any other pc. *)

val load_site : map -> int -> bool
(** Is this pc exactly a read site's load? *)

val function_at : map -> int -> string option
(** The function a pc belongs to: the greatest function start at or
    below it, except that a pc inside a patch stub (its first pc
    through its closing [ba]) belongs to its site's function. *)
