(* Domain-based worker pool for the benchmark harness.

   Every experiment in [Tables] is a list of independent cells (one per
   workload row, or per sweep point); [map] shards them across worker
   domains pulling indices from an atomic counter.  The simulator is
   deterministic and the library keeps no global mutable state, so the
   only cross-domain coordination the harness needs is [Runner]'s
   baseline cache (mutex-protected there).

   Results are returned in input order and exceptions are re-raised in
   input order, so output is byte-identical for every [-j] value. *)

(* --- per-domain telemetry sinks -------------------------------------------- *)

(* Each worker domain lazily creates one sink registry (via DLS) and
   registers it here; [Runner.instrumented] absorbs every session's
   report into its domain's sink.  [merged_report] folds the sinks into
   one report — counter addition is commutative, so the merge does not
   depend on which domain ran which cell and the harness output stays
   byte-identical across [-j] values. *)

let sinks_mu = Mutex.create ()
let sinks : Telemetry.t list ref = ref []

let sink_key =
  Domain.DLS.new_key (fun () ->
      let t = Telemetry.create () in
      (* Absorbed sample rings land here too; sized so no experiment's
         samples ever drop — a drop would make the merged multiset
         depend on which domain absorbed which cell. *)
      Telemetry.set_sample_capacity t 65536;
      Mutex.protect sinks_mu (fun () -> sinks := t :: !sinks);
      t)

let telemetry_sink () = Domain.DLS.get sink_key

let merged_report () =
  let regs = Mutex.protect sinks_mu (fun () -> !sinks) in
  Telemetry.merge (List.map Telemetry.report regs)

(* --- audit-summary sink ------------------------------------------------------- *)

(* Each instrumented session's provenance-verdict counts are absorbed
   here; [merged_audit_summary] is a pointwise sum in canonical verdict
   order, so it too is byte-identical for every [-j]. *)

let audit_mu = Mutex.create ()
let audit_summaries : (string * int) list list ref = ref []

let absorb_audit_summary s =
  Mutex.protect audit_mu (fun () -> audit_summaries := s :: !audit_summaries)

let merged_audit_summary () =
  Audit.merge_summaries (Mutex.protect audit_mu (fun () -> !audit_summaries))

(* --- folded-profile sink ----------------------------------------------------- *)

(* Profiled cells absorb their folded call stacks here;
   [merged_profile] is a multiset sum keyed by call path
   ([Profile.merge_folded] — commutative and sorted), so the merged
   flamegraph is byte-identical for every [-j]. *)

let profiles_mu = Mutex.create ()
let profiles : (string * int) list list ref = ref []

let absorb_profile folded =
  Mutex.protect profiles_mu (fun () -> profiles := folded :: !profiles)

let merged_profile () =
  Profile.merge_folded (Mutex.protect profiles_mu (fun () -> !profiles))

(* --- per-domain phase-span tracers --------------------------------------------- *)

(* One tracer per worker domain (same DLS pattern as the telemetry
   sinks); every instrumented cell's pipeline spans land in its
   domain's tracer.  Which spans land where depends on scheduling, but
   the multiset of span names ([Trace.span_set]) does not — the
   [-j]-parity diff rule asserts exactly that. *)

let traces_mu = Mutex.create ()
let traces : Trace.t list ref = ref []

let trace_key =
  Domain.DLS.new_key (fun () ->
      let t = Trace.create ~clock:Unix.gettimeofday () in
      Mutex.protect traces_mu (fun () -> traces := t :: !traces);
      t)

let trace_sink () = Domain.DLS.get trace_key

let tracers () = Mutex.protect traces_mu (fun () -> !traces)

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

(* 0 = not yet resolved; the [-j] flag (see [Main]) overrides
   [Domain.recommended_domain_count]. *)
let requested = ref 0

let set_jobs n = requested := max 1 n

let jobs () =
  if !requested = 0 then requested := Domain.recommended_domain_count ();
  !requested

let map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list =
 fun f xs ->
  let n = List.length xs in
  let j = min (jobs ()) n in
  if j <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (* Each slot is written by exactly one domain (the index comes
           from the shared counter), so plain array stores suffice; the
           joins below publish them to the parent. *)
        (results.(i) <-
           Some
             (match f input.(i) with
             | v -> Ok v
             | exception e -> Error (e, Printexc.get_raw_backtrace ())));
        worker ()
      end
    in
    let others = Array.init (j - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join others;
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)
  end

