(* The traced per-layer replay: one job at a time on this thread, composed
   from the same public functions the Pool calls, with a span around each
   call into a layer.  The per-layer metrics are medians of those spans and
   ratios of the exact meters the finished machine reports. *)

module Job = Fpc_svc.Job
module W = Workloads
module Interp = Fpc_interp.Interp
module State = Fpc_core.State

(* Counts summed over the traced jobs. *)
type acc = {
  mutable jobs : int;
  mutable instrs : int;
  mutable tier_ns : int;
  mutable tier_job_us : float list;
  mutable deopts : int;
  mutable fused : int;
  mutable lazy_translated : int;
  mutable fast : int;
  mutable slow : int;
  mutable rs_pushes : int;
  mutable rs_hits : int;
  mutable rs_flushes : int;
  mutable ff_hits : int;
  mutable ff_misses : int;
  mutable frame_allocs : int;
  mutable spilled : int;
  mutable sessions : int;
  mutable switch_xfers : int;
  mutable sched_rs_flushes : int;
  mutable dv_sites : int;
  mutable dv_rewritten : int;
  mutable images_with_sites : int;
  mutable images_abstained : int;
  mutable interp_instrs : int;
  mutable interp_ns : int;
  mutable problems : string list;
}

let acc () =
  {
    jobs = 0;
    instrs = 0;
    tier_ns = 0;
    tier_job_us = [];
    deopts = 0;
    fused = 0;
    lazy_translated = 0;
    fast = 0;
    slow = 0;
    rs_pushes = 0;
    rs_hits = 0;
    rs_flushes = 0;
    ff_hits = 0;
    ff_misses = 0;
    frame_allocs = 0;
    spilled = 0;
    sessions = 0;
    switch_xfers = 0;
    sched_rs_flushes = 0;
    dv_sites = 0;
    dv_rewritten = 0;
    images_with_sites = 0;
    images_abstained = 0;
    interp_instrs = 0;
    interp_ns = 0;
    problems = [];
  }

type ctx = {
  spans : Spans.t;
  cache : Fpc_svc.Image_cache.t;
      (** holds both tiers' images, which the service path never mixes *)
  arena : Fpc_svc.Arena.t;
  interp_arena : Fpc_svc.Arena.t;  (** kept apart so interp slots evict no compiled one *)
  framing : Fpc_net.Framing.t;  (** one long-lived connection's framing *)
  a : acc;
}

let create () =
  {
    spans = Spans.create ();
    cache = Fpc_svc.Image_cache.create ~capacity:256 ();
    arena = Fpc_svc.Arena.create ();
    interp_arena = Fpc_svc.Arena.create ();
    framing = Fpc_net.Framing.pushable ();
    a = acc ();
  }

let get = function Ok x -> x | Error m -> failwith m

(* The compile pipeline of [Compile.image], one span per layer. *)
let compile c ~convention ~devirt source =
  let sp name f = fst (Spans.span c.spans name f) in
  let prog, env =
    sp "lang.front_end" (fun () ->
        let prog = get (Fpc_lang.Parser.parse source) in
        (prog, get (Fpc_lang.Typecheck.check prog)))
  in
  let modules =
    sp "compiler.codegen" (fun () ->
        List.map
          (Fpc_compiler.Codegen.module_decl ~env ~convention ~devirt)
          (Fpc_compiler.Lower.program prog))
  in
  let image =
    sp "mesa.link" (fun () ->
        get (Fpc_mesa.Linker.link ~linkage:convention.Fpc_compiler.Convention.linkage ~devirt modules))
  in
  if devirt then ignore (sp "cfa.devirt" (fun () -> Fpc_cfa.Cfa.devirtualize image));
  image

let outcome_of (o : Interp.outcome) =
  match o.o_status with
  | State.Halted -> Job.Output o.o_output
  | State.Trapped r -> Job.Failed (Job.Trapped (State.trap_reason_to_string r), "machine trap")
  | State.Running -> Job.Failed (Job.Internal, "stopped while running")

(* Drive a booted machine with one tier's step function, under the
   scheduler when the job asks for it. *)
let drive c (spec : Job.spec) ~step st =
  match Job.effective_sched spec with
  | None ->
    step spec.fuel st;
    None
  | Some policy ->
    let stats, _ = Spans.span c.spans "sched.run" (fun () -> Fpc_sched.Sched.run ~policy ~step ~fuel:spec.fuel st) in
    Some stats

(* One job on the compiled tier, as the Pool runs it.  [fresh] keys the
   arena slot apart from every earlier job (a cold source misses the arena
   in the Pool too); [own_compile] compiles through the staged pipeline
   instead of the image cache.  Returns the job's wall time in ns. *)
let job c ~job_id ~(it : W.item) ~own_compile ~fresh =
  let sp name f = fst (Spans.span c.spans name f) in
  Spans.set_job c.spans job_id;
  let t0 = Host.now_ns () in
  let result =
    sp "job" (fun () ->
        let line =
          sp "net.frame" (fun () ->
              let bytes = it.line ^ "\n" in
              Fpc_net.Framing.feed c.framing bytes 0 (String.length bytes);
              match Fpc_net.Framing.poll c.framing with
              | Some (Fpc_net.Framing.Line l) -> l
              | _ -> failwith "framing lost a line")
        in
        let spec = sp "svc.parse" (fun () -> get (Job.parse_request line)) in
        let engine = get (Job.engine_of_name spec.engine) in
        let convention = Fpc_compiler.Convention.for_engine engine in
        let source = get (Job.source_text spec.source) in
        let devirt = Option.value spec.devirt ~default:true in
        let pristine, key =
          if own_compile then
            sp "svc.compile" (fun () -> (compile c ~convention ~devirt source, Digest.to_hex (Digest.string source)))
          else
            sp "svc.cache_lookup" (fun () ->
                let p, key, _, _ =
                  get (Fpc_svc.Image_cache.find_pristine c.cache ~tier:"compiled" ~devirt ~convention ~source)
                in
                (p, key))
        in
        let key = key ^ fresh in
        let slot, st =
          sp "svc.arena_reset" (fun () ->
              let slot =
                Fpc_svc.Arena.acquire c.arena ~key ~engine ~engine_name:spec.engine ~tier_name:"compiled"
                  ~pristine ()
              in
              let st = Fpc_svc.Arena.checkout slot in
              Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
              (slot, st))
        in
        let tr = sp "tier.attach" (fun () -> fst (Fpc_tier.Tier.of_image (Fpc_svc.Arena.image slot))) in
        let tier_ns = ref 0 in
        let step fuel st =
          let (), d = Spans.span c.spans "tier.run" (fun () -> Fpc_tier.Tier.run ~max_steps:fuel tr st) in
          tier_ns := !tier_ns + d
        in
        let sched = drive c spec ~step st in
        let r =
          sp "svc.outcome" (fun () ->
              let o = Interp.outcome st in
              let stats =
                {
                  Job.no_stats with
                  instructions = o.o_instructions;
                  cycles = o.o_cycles;
                  mem_refs = o.o_mem_refs;
                  fastpath = o.o_fastpath;
                }
              in
              let sched = Option.map (fun stats -> Fpc_sched.Sched.report ~stats st) sched in
              { Job.id = job_id; spec; outcome = outcome_of o; stats; profile = None; sched })
        in
        ignore (sp "svc.render" (fun () -> Fpc_util.Jsonout.to_string (Job.result_to_json ~times:false r)));
        (r, st, pristine, !tier_ns))
  in
  (result, Host.now_ns () - t0)

(* Fold a traced job's meters into the accumulator. *)
let record c ~(it : W.item) ((r : Job.result), (st : State.t), (pristine : Fpc_mesa.Image.t), tier_ns) =
  let a = c.a in
  if not (W.check it r) then a.problems <- ("traced replay: " ^ it.line) :: a.problems;
  let m = st.State.metrics and fp = r.stats.fastpath in
  a.jobs <- a.jobs + 1;
  a.instrs <- a.instrs + r.stats.instructions;
  a.tier_ns <- a.tier_ns + tier_ns;
  a.tier_job_us <- Host.us_of_ns tier_ns :: a.tier_job_us;
  a.deopts <- a.deopts + m.State.tier_deopts;
  a.fused <- a.fused + m.State.tier_fused_calls;
  a.lazy_translated <- a.lazy_translated + m.State.tier_lazy_translations;
  a.fast <- a.fast + fp.f_fast_transfers;
  a.slow <- a.slow + fp.f_slow_transfers;
  a.rs_pushes <- a.rs_pushes + fp.f_rs_pushes;
  a.rs_hits <- a.rs_hits + fp.f_rs_hits;
  a.rs_flushes <- a.rs_flushes + fp.f_rs_flushes;
  a.ff_hits <- a.ff_hits + fp.f_ff_hits;
  a.ff_misses <- a.ff_misses + fp.f_ff_misses;
  a.frame_allocs <- a.frame_allocs + fp.f_frame_allocs;
  a.spilled <- a.spilled + fp.f_bank_words_spilled;
  (match r.sched with
  | Some s ->
    a.sessions <- a.sessions + s.Fpc_sched.Sched.forked;
    a.switch_xfers <- a.switch_xfers + s.switch_xfers;
    a.sched_rs_flushes <- a.sched_rs_flushes + s.rs_flushes
  | None -> ());
  match pristine.Fpc_mesa.Image.dir.Fpc_mesa.Image.devirt with
  | Some d when d.dv_sites > 0 ->
    a.dv_sites <- a.dv_sites + d.dv_sites;
    a.dv_rewritten <- a.dv_rewritten + d.dv_rewritten;
    a.images_with_sites <- a.images_with_sites + 1;
    if d.dv_rewritten = 0 then a.images_abstained <- a.images_abstained + 1
  | _ -> ()

(* The same job on the interpreter tier: its run time per instruction,
   and its meters, which must equal the compiled tier's. *)
let interp_job c ~(it : W.item) ~(compiled : Job.result) ~pristine ~key =
  let spec = it.spec in
  let engine = get (Job.engine_of_name spec.engine) in
  let slot =
    Fpc_svc.Arena.acquire c.interp_arena ~key ~engine ~engine_name:spec.engine ~tier_name:"interp" ~pristine ()
  in
  let st = Fpc_svc.Arena.checkout slot in
  Fpc_core.Transfer.start st ~instance:"Main" ~proc:"main" ~args:[];
  let ns = ref 0 in
  let step fuel st =
    let (), d = Spans.span c.spans "interp.run" (fun () -> Interp.run ~max_steps:fuel st) in
    ns := !ns + d
  in
  ignore (drive c spec ~step st);
  let o = Interp.outcome st in
  c.a.interp_instrs <- c.a.interp_instrs + o.o_instructions;
  c.a.interp_ns <- c.a.interp_ns + !ns;
  if
    not
      (Job.outcome_equal (outcome_of o) compiled.outcome
      && o.o_cycles = compiled.stats.cycles
      && o.o_mem_refs = compiled.stats.mem_refs
      && o.o_fastpath = compiled.stats.fastpath)
  then c.a.problems <- ("interp and compiled tiers differ: " ^ it.line) :: c.a.problems

let find_pristine c ~tier (it : W.item) =
  Fpc_svc.Image_cache.find_pristine c.cache ~tier
    ~devirt:(Option.value it.spec.devirt ~default:true)
    ~convention:(Fpc_compiler.Convention.for_engine (get (Job.engine_of_name it.spec.engine)))
    ~source:(get (Job.source_text it.spec.source))

(* Compile every image the replay will look up, on both tiers, so the
   replay times cache hits as the warm workloads see them. *)
let warm c items =
  Array.iter
    (fun it -> List.iter (fun tier -> ignore (get (find_pristine c ~tier it))) [ "compiled"; "interp" ])
    items

type replay = { untraced_ns : int; traced_ns : int; executions : int }

(* Whole rounds while [continue ()] holds.  Each round runs twice, once
   with spans off and once on, in alternating order, so the difference is
   the tracing overhead and neither side always finds the other's warm
   slots.  Counts come from the traced pass only. *)
let replay c ~(round : int -> W.item array) ~own_compile ~continue =
  let untraced = ref 0 and traced = ref 0 and execs = ref 0 and next_id = ref 0 in
  let pass r ~on items =
    c.spans.enabled <- on;
    Array.iteri
      (fun k (it : W.item) ->
        let fresh = if own_compile then Printf.sprintf "#%d.%b" r on else "" in
        let ((res, _, pristine, _) as x), ns = job c ~job_id:!next_id ~it ~own_compile ~fresh in
        incr next_id;
        incr execs;
        if on then begin
          traced := !traced + ns;
          record c ~it x;
          let pristine, key =
            if own_compile then (pristine, Printf.sprintf "%d#%d" k r)
            else
              let p, key, _, _ = get (find_pristine c ~tier:"interp" it) in
              (p, key)
          in
          interp_job c ~it ~compiled:res ~pristine ~key;
          incr execs
        end
        else untraced := !untraced + ns)
      items
  in
  let rec go r =
    let items = round r in
    if r mod 2 = 0 then begin
      pass r ~on:false items;
      pass r ~on:true items
    end
    else begin
      pass r ~on:true items;
      pass r ~on:false items
    end;
    if continue () then go (r + 1)
  in
  go 0;
  c.spans.enabled <- true;
  { untraced_ns = !untraced; traced_ns = !traced; executions = !execs }

(* Median duration of the spans named [name], in microseconds; 0 when the
   layer was not on this workload's path. *)
let span_median_us (s : Spans.t) name =
  let xs = ref [] in
  for i = 0 to s.len - 1 do
    if s.names.(i) = name then xs := Host.us_of_ns (s.stops.(i) - s.starts.(i)) :: !xs
  done;
  match !xs with [] -> 0. | l -> Host.median (Array.of_list l)
