(* A closed-loop load generator for an in-process Pool: a fixed number of
   jobs in flight, each completion releasing the next submission.  Results
   come back through the pool's push-mode [deliver] hook, stamped on the
   worker that produced them. *)

module Job = Fpc_svc.Job
module Pool = Fpc_svc.Pool

type completion = { c_id : int; c_done_ns : int; c_result : Job.result }

type t = {
  pool : Pool.t;
  mu : Mutex.t;
  cond : Condition.t;
  done_ : completion Queue.t;
}

let create ~domains =
  let mu = Mutex.create () and cond = Condition.create () and done_ = Queue.create () in
  let deliver (r : Job.result) =
    let c = { c_id = r.id; c_done_ns = Host.now_ns (); c_result = r } in
    Mutex.lock mu;
    Queue.push c done_;
    Condition.signal cond;
    Mutex.unlock mu
  in
  { pool = Pool.create ~domains ~deliver (); mu; cond; done_ }

let shutdown t = Pool.shutdown t.pool

let next_completion t =
  Mutex.lock t.mu;
  while Queue.is_empty t.done_ do
    Condition.wait t.cond t.mu
  done;
  let c = Queue.pop t.done_ in
  Mutex.unlock t.mu;
  c

(* One sample of the timed window, taken on the driving thread. *)
type sample = {
  s_ns : int;
  s_completed : int;
  s_cpu_s : float;  (** CPU seconds of the system under test so far *)
  s_own_s : float;  (** CPU seconds of every process of the run so far *)
  s_ticks : Host.ticks;  (** the run's vCPU ticks so far *)
  s_rss_mb : float;  (** resident set of the system under test *)
}

let sample ~completed ~cpu ~own ~rss =
  {
    s_ns = Host.now_ns ();
    s_completed = completed;
    s_cpu_s = cpu;
    s_own_s = own;
    s_ticks = Host.ticks ();
    s_rss_mb = rss;
  }

type run = { completed : int; samples : sample list  (** oldest first *) }

(* Run whole rounds of jobs, [inflight] at a time.  [round r] gives the
   jobs of round [r]; rounds start while [continue ()] holds and each
   started round is finished, so every run attempts whole rounds.
   [on_done item submit_ns completion] sees every result.  With
   [sample_every_ns], the loop records a {!sample} at that spacing; it
   always records one at the start and one at the end. *)
let run t ~inflight ~(round : int -> 'a array) ~(spec : 'a -> Job.spec)
    ~(continue : unit -> bool) ~on_done ?(sample_every_ns = max_int) () =
  let pending = Hashtbl.create 16 in
  let r = ref 0 and cur = ref (round 0) and pos = ref 0 in
  let rec next () =
    if !pos < Array.length !cur then begin
      let item = !cur.(!pos) in
      incr pos;
      Some item
    end
    else if continue () then begin
      incr r;
      cur := round !r;
      pos := 0;
      next ()
    end
    else None
  in
  let submit item =
    let s = Host.now_ns () in
    let id = Pool.submit t.pool (spec item) in
    Hashtbl.replace pending id (item, s)
  in
  let take completed =
    let c = Host.self_cpu_s () in
    sample ~completed ~cpu:c ~own:c ~rss:(Host.rss_mb None)
  in
  let samples = ref [ take 0 ] in
  let next_sample = ref (Host.now_ns () + sample_every_ns) in
  let completed = ref 0 in
  let rec fill () =
    if Hashtbl.length pending < inflight then
      match next () with
      | Some item ->
        submit item;
        fill ()
      | None -> ()
  in
  fill ();
  while Hashtbl.length pending > 0 do
    let c = next_completion t in
    let item, s = Hashtbl.find pending c.c_id in
    Hashtbl.remove pending c.c_id;
    incr completed;
    fill ();
    on_done item s c;
    if c.c_done_ns >= !next_sample then begin
      samples := take !completed :: !samples;
      next_sample := c.c_done_ns + sample_every_ns
    end
  done;
  samples := take !completed :: !samples;
  { completed = !completed; samples = List.rev !samples }
