(* The in-process workloads (calls-warm, sessions-xfer, cold-compile), each
   driven in a closed loop through one Pool, and the inputs of all four. *)

module Job = Fpc_svc.Job
module W = Workloads

let domains = 1
let inflight = 1

type size = {
  session_total : int;  (** sessions per sessions-xfer job *)
  cold_round : int;  (** distinct sources per cold-compile round *)
  cold_canonical : int;  (** sources in the fixed cold-compile meter pass *)
  cold_sources : int;  (** distinct generated sources the timed rounds cycle through, salted *)
  setup_reps : int;
  sample_ms : int;
}

let full =
  { session_total = 256; cold_round = 16; cold_canonical = 64; cold_sources = 256; setup_reps = 15; sample_ms = 1000 }

let smoke =
  { session_total = 24; cold_round = 8; cold_canonical = 8; cold_sources = 32; setup_reps = 1; sample_ms = 250 }

(* The fixed inputs the simulated meters are measured over.  They do not
   depend on the run's seed, so the meters are identical in every run of
   the same code. *)
let canonical_seed = 0x5eed

(* Timed cold-compile sources come from a stream of their own, so no seed
   makes them coincide with the canonical ones the set-up pass cached. *)
let cold_seed seed = (seed * 7919) + 1

type inputs = {
  round : int -> W.item array;  (** the timed rounds *)
  warm : W.item array;  (** the set-up pass *)
  canonical : W.item list;  (** the meter pass, default configuration *)
  variants : W.item -> W.item list;
      (** the same job under the configurations its result must agree with *)
}

let with_spec (it : W.item) spec = { it with W.spec; line = Job.request_of_spec spec }

let tier_variant (it : W.item) = [ with_spec it { it.spec with Job.tier = Job.Interp } ]

let inputs kind size ~seed =
  match kind with
  | W.Calls_warm ->
    let r = W.calls_round ~seed in
    let canonical = Array.to_list (W.calls_round ~seed:canonical_seed) in
    { round = (fun _ -> r); warm = r; canonical; variants = tier_variant }
  | W.Sessions_xfer ->
    let r = W.sessions_round ~seed ~total:size.session_total in
    let canonical =
      W.sessions_items (W.session_configs ~seed:canonical_seed ~total:size.session_total)
    in
    { round = (fun _ -> r); warm = r; canonical; variants = tier_variant }
  | W.Cold_compile ->
    let sources = W.cold_sources ~seed:(cold_seed seed) ~round:size.cold_round size.cold_sources in
    let canon = W.cold_sources ~seed:canonical_seed ~round:size.cold_round size.cold_canonical in
    let canonical = Array.to_list (W.cold_round canon ~size:size.cold_canonical 0) in
    (* every engine, both tiers, devirt on and off *)
    let variants (it : W.item) =
      List.concat_map
        (fun engine ->
          List.concat_map
            (fun tier ->
              List.map
                (fun devirt -> with_spec it { it.spec with Job.engine; tier; devirt = Some devirt })
                [ true; false ])
            [ Job.Compiled; Job.Interp ])
        (Array.to_list W.engines)
    in
    {
      round = W.cold_round sources ~size:size.cold_round;
      warm = Array.of_list (List.filteri (fun i _ -> i < size.cold_round) canonical);
      canonical;
      variants;
    }
  | W.Tcp_short ->
    let r = W.short_round ~seed in
    let canonical = Array.to_list (W.short_round ~seed:canonical_seed) in
    { round = (fun _ -> r); warm = r; canonical; variants = tier_variant }

(* Run [items] once, one at a time, and return the results in item order. *)
let pass d items =
  let items = Array.of_list (List.mapi (fun i it -> (i, it)) items) in
  let out = Array.make (Array.length items) None in
  let (_ : Inproc.run) =
    Inproc.run d ~inflight ~round:(fun _ -> items)
      ~spec:(fun (_, (it : W.item)) -> it.spec)
      ~continue:(fun () -> false)
      ~on_done:(fun (i, _) _ (c : Inproc.completion) -> out.(i) <- Some c.c_result)
      ()
  in
  Array.to_list (Array.map Option.get out)

let same_meters (a : Job.result) (b : Job.result) =
  Job.outcome_equal a.outcome b.outcome
  && a.stats.instructions = b.stats.instructions
  && a.stats.cycles = b.stats.cycles
  && a.stats.mem_refs = b.stats.mem_refs
  && a.stats.fastpath = b.stats.fastpath

let devirt_of (s : Job.spec) = Option.value s.devirt ~default:true

(* The meter pass and its checks: every canonical job meets its
   expectation; the interpreter and compiled tiers agree on every meter;
   generated programs give one output under every configuration. *)
let meter_pass d inp =
  let base = Array.of_list (pass d inp.canonical) in
  let canon = Array.of_list inp.canonical in
  let variant_items = Array.map inp.variants canon in
  let variants = Array.of_list (pass d (List.concat (Array.to_list variant_items))) in
  let problems = ref [] in
  let complain fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let k = ref 0 in
  Array.iteri
    (fun i (it : W.item) ->
      let r = base.(i) in
      if not (W.check it r) then complain "meter pass: %s failed its reference" it.line;
      List.iter
        (fun (v : W.item) ->
          let vr = variants.(!k) in
          incr k;
          if not (Job.outcome_equal r.outcome vr.outcome) then
            complain "disagreement: %s vs %s" it.line v.line
          else if
            v.spec.engine = it.spec.engine
            && devirt_of v.spec = devirt_of it.spec
            && not (same_meters r vr)
          then complain "tier meters differ: %s vs %s" it.line v.line)
        variant_items.(i))
    canon;
  let n = float_of_int (Array.length base) in
  let mean f = float_of_int (Array.fold_left (fun acc (r : Job.result) -> acc + f r) 0 base) /. n in
  (List.rev !problems, mean (fun r -> r.stats.cycles), mean (fun r -> r.stats.mem_refs))

type timed = {
  t_attempted : int;
  t_failed : int;
  t_wrong : string list;
  t_done : (int * float) array;  (** (completion time, latency in µs) per job *)
  t_queue_us : float array;  (** submit-to-deliver minus the job's own compile+run time *)
  t_minor_words : int;  (** minor-heap words allocated by the jobs *)
  t_to_agree : (W.item * Job.result) list;  (** the generated jobs {!verify_agreement} re-runs *)
  t_samples : Inproc.sample list;
}

(* Generated programs run once each in the window; every [agree_every]th
   of them is checked afterwards against another configuration.
   Re-running all of them would double the run.  [agree_every] is prime to
   the number of sources the rounds cycle through, so each source is
   re-run within its first [agree_every] passes, on every engine in turn. *)
let agree_every = 5

(* The timed window: whole rounds until [seconds] have passed.  Results
   are not kept beyond what the checks need, so the benchmark's own memory
   does not grow with the number of jobs done. *)
let timed d inp ~seconds ~sample_ms =
  let stop = Host.now_ns () + (seconds * 1_000_000_000) in
  let done_ = ref [] and queue = ref [] and failed = ref 0 and wrong = ref [] in
  let minor = ref 0 and generated = ref 0 and to_agree = ref [] in
  let run =
    Inproc.run d ~inflight ~round:inp.round ~spec:(fun (it : W.item) -> it.spec)
      ~continue:(fun () -> Host.now_ns () < stop)
      ~sample_every_ns:(sample_ms * 1_000_000)
      ~on_done:(fun (it : W.item) s (c : Inproc.completion) ->
        let r = c.c_result in
        let l = Host.us_of_ns (c.c_done_ns - s) in
        done_ := (c.c_done_ns, l) :: !done_;
        queue := (l -. ((r.stats.compile_s +. r.stats.run_s) *. 1e6)) :: !queue;
        if W.failed r then incr failed
        else if not (W.check it r) then wrong := it.line :: !wrong;
        minor := !minor + r.stats.minor_words;
        if it.expect = W.Agree then begin
          if !generated mod agree_every = 0 then to_agree := (it, r) :: !to_agree;
          incr generated
        end)
      ()
  in
  {
    t_attempted = run.completed;
    t_failed = !failed;
    t_wrong = !wrong;
    t_done = Array.of_list !done_;
    t_queue_us = Array.of_list !queue;
    t_minor_words = !minor;
    t_to_agree = !to_agree;
    t_samples = run.samples;
  }

(* Re-run each of [results] on the next engine, interpreter tier,
   devirtualization off, and name those whose output differs. *)
let verify_agreement d (results : (W.item * Job.result) list) =
  let shift e =
    let rec idx i = if W.engines.(i) = e then i else idx (i + 1) in
    W.engines.((idx 0 + 1) mod 4)
  in
  let checks =
    List.map
      (fun ((it : W.item), _) ->
        with_spec it { it.spec with Job.engine = shift it.spec.engine; tier = Job.Interp; devirt = Some false })
      results
  in
  let again = pass d checks in
  List.fold_left2
    (fun acc ((it : W.item), (r : Job.result)) (r' : Job.result) ->
      if Job.outcome_equal r.outcome r'.outcome then acc else it.line :: acc)
    [] results again
