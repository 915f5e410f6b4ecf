(* N-domain session shard pool — bench/pool.ml's per-domain
   commutative-sink pattern promoted into a reusable scheduler.

   Each shard owns one domain, one FIFO job queue and one telemetry
   sink registry.  Shard 0's domain is the one that created the pool
   (dbreakd's serving loop), which runs shard 0's jobs itself, one per
   {!run_local} call or all of them in {!drain}; shards 1..n-1 each get
   a spawned worker domain.  So n shards cost n domains: OCaml 5's
   minor collections stop every domain, and an extra, mostly idle
   serving domain on a busy host makes every collection wait for it.

   Sessions are hashed to a shard by their (client-chosen) session id,
   and every job posted under that key runs on that shard's domain, in
   post order — so a session's commands execute sequentially with no
   locking around the session itself, while different sessions proceed
   in parallel.  Fairness comes from the queue discipline: a
   long-running command (the daemon's [run] verb) executes one fuel
   slice and re-posts its continuation, which lands *behind* any other
   session's queued work on the same shard — round-robin, so one
   session cannot starve the loop.

   The sinks merge exactly as the bench harness merges its per-domain
   sinks: closed sessions' reports are absorbed into their shard's
   sink, and {!merged_report} folds the sinks with the commutative
   {!Telemetry.merge} — so the merged telemetry does not depend on the
   shard count, the property the service bench diffs across [-j]. *)

type shard = {
  mu : Mutex.t;
  cv : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable busy : bool;  (* a job is executing right now *)
  sink : Telemetry.t;
  mutable domain : unit Domain.t option;
}

type t = {
  shards : shard array;
  owner : Domain.id;  (* the creating domain, which runs shard 0 *)
  mutable running : bool;  (* writes under every shard's [mu] *)
  failures : int Atomic.t;
}

let shards t = Array.length t.shards

let shard_of t key = Hashtbl.hash key mod Array.length t.shards

let sink t ~shard = t.shards.(shard).sink

(* Run one popped job: [busy] covers it, so {!drain} waits for it. *)
let run_job t sh job =
  (try job ()
   with _ ->
     (* A job that escapes its own error handling must not kill the
        shard; the daemon wraps command execution in its own error-reply
        path, so this is a last-resort backstop. *)
     Atomic.incr t.failures);
  Mutex.lock sh.mu;
  sh.busy <- false;
  Condition.broadcast sh.cv;
  Mutex.unlock sh.mu

let worker t sh () =
  let rec loop () =
    Mutex.lock sh.mu;
    while t.running && Queue.is_empty sh.queue do
      Condition.wait sh.cv sh.mu
    done;
    if Queue.is_empty sh.queue then begin
      (* Shutdown: queue drained and [running] lowered. *)
      Mutex.unlock sh.mu
    end
    else begin
      let job = Queue.pop sh.queue in
      sh.busy <- true;
      Mutex.unlock sh.mu;
      run_job t sh job;
      loop ()
    end
  in
  loop ()

let check_owner t fn =
  if Domain.self () <> t.owner then
    invalid_arg (fn ^ ": shard 0 runs only on the domain that created the pool")

let run_local t =
  check_owner t "Sched.run_local";
  let sh = t.shards.(0) in
  Mutex.lock sh.mu;
  match Queue.take_opt sh.queue with
  | None ->
    Mutex.unlock sh.mu;
    false
  | Some job ->
    sh.busy <- true;
    Mutex.unlock sh.mu;
    run_job t sh job;
    true

let local_pending t =
  let sh = t.shards.(0) in
  Mutex.lock sh.mu;
  let pending = not (Queue.is_empty sh.queue) in
  Mutex.unlock sh.mu;
  pending

let create ?(shards = 1) () =
  let shards = max 1 shards in
  let mk _ =
    let sink = Telemetry.create () in
    (* Absorbed sample rings land here; sized like the bench pool's
       sinks so nothing ever drops (a drop would make the merged
       multiset depend on which shard absorbed which session). *)
    Telemetry.set_sample_capacity sink 65536;
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      queue = Queue.create ();
      busy = false;
      sink;
      domain = None;
    }
  in
  let t =
    {
      shards = Array.init shards mk;
      owner = Domain.self ();
      running = true;
      failures = Atomic.make 0;
    }
  in
  Array.iteri
    (fun i sh -> if i > 0 then sh.domain <- Some (Domain.spawn (worker t sh)))
    t.shards;
  t

let post t ~key job =
  let sh = t.shards.(shard_of t key) in
  Mutex.lock sh.mu;
  if not t.running then begin
    Mutex.unlock sh.mu;
    invalid_arg "Sched.post: pool is shut down"
  end;
  Queue.push job sh.queue;
  Condition.broadcast sh.cv;
  Mutex.unlock sh.mu

(* Shard 0 first, inline; then wait for the workers.  A worker job may
   post to shard 0 while we wait, so repeat until a full pass finds
   shard 0 empty. *)
let drain t =
  check_owner t "Sched.drain";
  let rec go () =
    while run_local t do () done;
    Array.iteri
      (fun i sh ->
        if i > 0 then begin
          Mutex.lock sh.mu;
          while not (Queue.is_empty sh.queue) || sh.busy do
            Condition.wait sh.cv sh.mu
          done;
          Mutex.unlock sh.mu
        end)
      t.shards;
    if local_pending t then go ()
  in
  go ()

let failures t = Atomic.get t.failures

let merged_report t =
  Telemetry.merge
    (Array.to_list (Array.map (fun sh -> Telemetry.report sh.sink) t.shards))

let shutdown t =
  if t.running then begin
    drain t;
    Array.iter
      (fun sh ->
        Mutex.lock sh.mu;
        t.running <- false;
        Condition.broadcast sh.cv;
        Mutex.unlock sh.mu)
      t.shards;
    Array.iter
      (fun sh ->
        match sh.domain with
        | Some d ->
          Domain.join d;
          sh.domain <- None
        | None -> ())
      t.shards
  end
