(* Summaries of a timed window.

   The end-to-end host figures are taken over the whole window.  The host
   is shared, and its speed for this workload moves by a quarter or more
   from one second to the next; a figure over the whole window averages
   those swings, where a median of per-second figures jumps between them.

   Other tenants' vCPUs also steal time from ours, from 1 % to over half
   of a run's window in back-to-back runs, and a closed loop's wall-clock
   figures move with it.  So the wall time of the window, and of each
   block of it, is taken less the seconds stolen meanwhile
   ({!Host.stolen_s}):

   - [jobs_per_s]: completed jobs over the window's wall seconds less the
     stolen seconds.
   - [p50_us]: the median latency of every job of the window, each less
     the stolen share of the block it completed in.
   - [cpu_us_per_job]: CPU time of the system under test over completed
     jobs, uncorrected: the guest kernel does not charge a task for time
     stolen from its vCPU.
   - [peak_rss_mb]: the largest resident set the samples saw.

   The window is cut into blocks at the load loop's samples; the plain
   wall-clock rate and median, the stolen seconds, and the blocks' spread
   and contention (the share of the host's CPU ticks stolen or spent
   outside the run) are printed beside the result, never gated, so that a
   run that disagrees with its neighbours can be traced to the host. *)

type block = {
  rate : float;  (** completions per second *)
  contention : float;  (** share of host ticks stolen or used outside the run *)
}

let wall (a : Inproc.sample) (b : Inproc.sample) = Host.s_of_ns (b.s_ns - a.s_ns)

let block (a : Inproc.sample) (b : Inproc.sample) =
  let t = Host.diff a.s_ticks b.s_ticks in
  let own = (b.s_own_s -. a.s_own_s) *. Host.ticks_per_s in
  let others = Float.max 0. (float_of_int (t.total - t.idle - t.steal) -. own) in
  {
    rate = float_of_int (b.s_completed - a.s_completed) /. wall a b;
    contention = (float_of_int t.steal +. others) /. float_of_int (max 1 t.total);
  }

type summary = {
  jobs_per_s : float;
  cpu_us_per_job : float;
  p50_us : float;
  peak_rss_mb : float;
  wall_jobs_per_s : float;  (** completed jobs over the window's wall seconds *)
  stolen_s : float;
  blocks : block array;
}

(* [samples] run oldest first, the first at the window's start and the
   last at its end; [done_lat] holds (completion time, latency) for every
   job of the window. *)
let summary (samples : Inproc.sample list) (done_lat : (int * float) array) =
  let s = Array.of_list samples in
  let first = s.(0) and last = s.(Array.length s - 1) in
  let jobs = float_of_int (max 1 (last.s_completed - first.s_completed)) in
  let w = wall first last in
  let stolen_s = Host.stolen_s first.s_ticks last.s_ticks ~wall:w in
  let share a b =
    let w = wall a b in
    if w > 0. then Host.stolen_s a.Inproc.s_ticks b.Inproc.s_ticks ~wall:w /. w else 0.
  in
  let lat = Array.copy done_lat in
  Array.sort compare lat;
  let k = ref 1 in
  let corrected =
    Array.map
      (fun (t, l) ->
        while !k < Array.length s - 1 && s.(!k).s_ns < t do
          incr k
        done;
        l *. (1. -. share s.(!k - 1) s.(!k)))
      lat
  in
  {
    jobs_per_s = jobs /. (w -. stolen_s);
    cpu_us_per_job = (last.s_cpu_s -. first.s_cpu_s) *. 1e6 /. jobs;
    p50_us = Host.median corrected;
    peak_rss_mb = Array.fold_left (fun m (x : Inproc.sample) -> Float.max m x.s_rss_mb) 0. s;
    wall_jobs_per_s = jobs /. w;
    stolen_s;
    blocks = Array.init (Array.length s - 1) (fun i -> block s.(i) s.(i + 1));
  }

let note s =
  let q p f = Host.percentile p (Array.map f s.blocks) in
  Printf.sprintf
    "# wall-clock jobs/s %.1f, %.2f s stolen; blocks: %d, jobs/s p10/p50/p90 %.0f/%.0f/%.0f, contention p50/p90 %.3f/%.3f"
    s.wall_jobs_per_s s.stolen_s (Array.length s.blocks) (q 10. (fun b -> b.rate)) (q 50. (fun b -> b.rate))
    (q 90. (fun b -> b.rate)) (q 50. (fun b -> b.contention)) (q 90. (fun b -> b.contention))
