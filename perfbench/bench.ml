(* The repository benchmark: one workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
     bench.exe --references

   The last line of standard output is one JSON object: correct, attempted,
   failed, and the metrics (end-to-end with --trace 0, per-layer with
   --trace 1).  Lines before it start with '#' and carry what is printed
   but never gated: tail percentiles, host context, layer self times. *)

module W = Workloads

let print_references () =
  let open Fpc_util.Jsonout in
  List.iter
    (fun (p, _) ->
      print_endline
        (to_string (Obj [ ("program", String p); ("output", List (List.map (fun w -> Int w) (Reference.suite p))) ])))
    Reference.programs;
  List.iter
    (fun seed ->
      let c = { (Fpc_workload.Sessions.default ~total:256) with seed } in
      print_endline
        (to_string
           (Obj
              [
                ("sessions", Int c.total);
                ("window", Int c.window);
                ("seed", Int c.seed);
                ("output", List (List.map (fun w -> Int w) (Reference.sessions c)));
              ])))
    [ 0; 42; 996 ]

let e2e_metrics ~setup_s (b : Blocks.summary) ~cycles ~refs =
  let m = Measure.metric in
  [
    m "setup_s" "s" setup_s;
    m "jobs_per_s" "1/s" b.jobs_per_s;
    m "cpu_us_per_job" "us" b.cpu_us_per_job;
    m "p50_us" "us" b.p50_us;
    m "sim_cycles_per_job" "cycles" cycles;
    m "sim_refs_per_job" "refs" refs;
    m "peak_rss_mb" "MB" b.peak_rss_mb;
  ]

let pooled_e2e kind size ~seed ~seconds =
  let module P = Pooled in
  let inp = P.inputs kind size ~seed in
  let problems = ref [] in
  let d, setup_s =
    Measure.setup ~reps:size.P.setup_reps
      ~build:(fun () ->
        let d = Inproc.create ~domains:P.domains in
        let warm = Array.to_list inp.P.warm in
        List.iter2
          (fun (it : W.item) r -> if not (W.check it r) then problems := ("set-up: " ^ it.line) :: !problems)
          warm (P.pass d warm);
        d)
      ~teardown:Inproc.shutdown
  in
  let w = Host.window_start () in
  let t = P.timed d inp ~seconds ~sample_ms:size.P.sample_ms in
  Host.window_stop w;
  let b = Blocks.summary t.P.t_samples t.P.t_done in
  let meter_problems, cycles, refs = P.meter_pass d inp in
  let disagree = P.verify_agreement d t.P.t_to_agree in
  Inproc.shutdown d;
  let wrong = List.map (fun l -> "wrong output: " ^ l) t.P.t_wrong in
  let disagree = List.map (fun l -> "disagreement: " ^ l) disagree in
  let problems = List.rev !problems @ wrong @ meter_problems @ disagree in
  ( w,
    {
      Measure.correct = problems = [];
      attempted = t.P.t_attempted;
      failed = t.P.t_failed;
      metrics = e2e_metrics ~setup_s b ~cycles ~refs;
      notes =
        Measure.problem_notes problems @ [ Measure.tail_line "latency_us" (Array.map snd t.P.t_done); Blocks.note b ];
    } )

(* The in-process expectations for tcp-short: each request's result, run
   through a Pool exactly as the server would, checked against its host
   reference; plus the meter pass over the canonical round. *)
let tcp_references (inp : Pooled.inputs) =
  let d = Inproc.create ~domains:Pooled.domains in
  let items = inp.Pooled.round 0 in
  let results = Pooled.pass d (Array.to_list items) in
  let meter = Pooled.meter_pass d inp in
  Inproc.shutdown d;
  let wrong =
    List.concat
      (List.map2
         (fun (it : W.item) r -> if W.check it r then [] else [ "in-process reference: " ^ it.line ])
         (Array.to_list items) results)
  in
  (items, Array.of_list (List.map Tcp.expected_tail results), wrong, meter)

let tcp_e2e size ~seed ~seconds =
  let module P = Pooled in
  let inp = P.inputs W.Tcp_short size ~seed in
  let items, expected, ref_wrong, (meter_problems, cycles, refs) = tcp_references inp in
  let warm_wrong = ref [] in
  let server, setup_s =
    Measure.setup ~reps:size.P.setup_reps
      ~build:(fun () ->
        let s = Tcp.spawn () in
        warm_wrong := Tcp.wrong (Tcp.warm s ~items ~expected);
        s)
      ~teardown:Tcp.stop
  in
  let w = Host.window_start () in
  let win = Tcp.window server ~items ~expected ~seconds ~sample_ms:size.P.sample_ms in
  Host.window_stop w;
  Tcp.stop server;
  let b = Blocks.summary win.Tcp.samples (Tcp.done_lat win) in
  let lat = Array.map snd (Tcp.done_lat win) in
  let once = if Tcp.one_answer_each win.Tcp.conns then [] else [ "a request was not answered exactly once" ] in
  let problems = ref_wrong @ !warm_wrong @ meter_problems @ Tcp.wrong win @ once in
  ( w,
    {
      Measure.correct = problems = [];
      attempted = Tcp.attempted win;
      failed = 0;
      metrics = e2e_metrics ~setup_s b ~cycles ~refs;
      notes = Measure.problem_notes problems @ [ Measure.tail_line "round_trip_us" lat; Blocks.note b ];
    } )

(* The service path of the traced run: the workload as the untraced run
   drives it, for [seconds].  Returns the in-process window and, for
   tcp-short, the TCP round trips over the same requests. *)
let service_phase kind size ~seed ~seconds =
  let module P = Pooled in
  let inp = P.inputs kind size ~seed in
  let tcp =
    if kind <> W.Tcp_short then None
    else begin
      let items, expected, ref_wrong, (meter_problems, _, _) = tcp_references inp in
      let s = Tcp.spawn () in
      let warm = Tcp.warm s ~items ~expected in
      let win = Tcp.window s ~items ~expected ~seconds:(max 1 (seconds / 2)) ~sample_ms:size.P.sample_ms in
      Tcp.stop s;
      let once = if Tcp.one_answer_each win.Tcp.conns then [] else [ "a request was not answered exactly once" ] in
      Some (win, ref_wrong @ meter_problems @ Tcp.wrong warm @ Tcp.wrong win @ once)
    end
  in
  let d = Inproc.create ~domains:P.domains in
  ignore (P.pass d (Array.to_list inp.P.warm));
  let c0 = Fpc_svc.Image_cache.stats (Fpc_svc.Pool.cache d.Inproc.pool) in
  let secs = if tcp = None then seconds else max 1 (seconds / 2) in
  let t = P.timed d inp ~seconds:secs ~sample_ms:size.P.sample_ms in
  let c1 = Fpc_svc.Image_cache.stats (Fpc_svc.Pool.cache d.Inproc.pool) in
  let disagree = P.verify_agreement d t.P.t_to_agree in
  Inproc.shutdown d;
  let hits = c1.hits - c0.hits and misses = c1.misses - c0.misses in
  (inp, t, disagree, Host.ratio hits (hits + misses), tcp)

let traced kind size ~seed ~seconds ~out_dir =
  let module P = Pooled in
  let module L = Layers in
  let service_s = max 1 (seconds / 2) in
  let inp, t, disagree, hit_ratio, tcp = service_phase kind size ~seed ~seconds:service_s in
  let c = L.create () in
  let own_compile = kind = W.Cold_compile in
  if not own_compile then L.warm c (inp.P.round 0);
  let blits0 = (Fpc_svc.Arena.stats c.L.arena).pages_blitted in
  let stop = Host.now_ns () + ((seconds - service_s) * 1_000_000_000) in
  let rp = L.replay c ~round:inp.P.round ~own_compile ~continue:(fun () -> Host.now_ns () < stop) in
  let blits = (Fpc_svc.Arena.stats c.L.arena).pages_blitted - blits0 in
  let a = c.L.a and sp = c.L.spans in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let trace_file = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" (W.name kind) seed) in
  let written = Spans.write_chrome sp trace_file in
  let per_job x = float_of_int x /. float_of_int (max 1 a.L.jobs) in
  let med = L.span_median_us sp in
  let tcp_p50 = Option.map (fun (w, _) -> Host.median (Array.map snd (Tcp.done_lat w))) tcp in
  let inproc_p50 = Host.median (Array.map snd t.P.t_done) in
  let m name unit v = Measure.metric name unit v in
  let metrics =
    [
      m "lang.front_end_us" "us" (med "lang.front_end");
      m "compiler.codegen_us" "us" (med "compiler.codegen");
      m "mesa.link_us" "us" (med "mesa.link");
      m "cfa.devirt_us" "us" (med "cfa.devirt");
      m "cfa.rewritten_ratio" "ratio" (Host.ratio a.L.dv_rewritten a.L.dv_sites);
      m "cfa.abstained_image_ratio" "ratio" (Host.ratio a.L.images_abstained a.L.images_with_sites);
      m "svc.cache_hit_ratio" "ratio" hit_ratio;
      m "svc.cache_lookup_us" "us" (med "svc.cache_lookup");
      m "svc.parse_us" "us" (med "svc.parse");
      m "svc.render_us" "us" (med "svc.render");
      m "svc.queue_wait_us" "us" (Host.median t.P.t_queue_us);
      m "svc.arena_reset_us" "us" (med "svc.arena_reset");
      m "svc.pages_blitted_per_job" "pages" (per_job blits);
      m "svc.minor_words_per_job" "words" (float_of_int t.P.t_minor_words /. float_of_int (max 1 t.P.t_attempted));
      m "tier.attach_us" "us" (med "tier.attach");
      m "tier.procs_translated_per_job" "procs" (per_job a.L.lazy_translated);
      m "tier.run_us" "us" (Host.median (Array.of_list a.L.tier_job_us));
      m "tier.sim_minstr_per_s" "Minstr/s" (float_of_int a.L.instrs /. float_of_int (max 1 a.L.tier_ns) *. 1e3);
      m "tier.fused_calls_per_job" "calls" (per_job a.L.fused);
      m "tier.deopt_instr_ratio" "ratio" (Host.ratio a.L.deopts a.L.instrs);
      m "interp.run_ns_per_instr" "ns" (float_of_int a.L.interp_ns /. float_of_int (max 1 a.L.interp_instrs));
      m "core.fast_transfer_ratio" "ratio" (Host.ratio a.L.fast (a.L.fast + a.L.slow));
      m "ifu.rs_hit_ratio" "ratio" (Host.ratio a.L.rs_hits a.L.rs_pushes);
      m "ifu.rs_flushes_per_job" "flushes" (per_job a.L.rs_flushes);
      m "frames.ff_hit_ratio" "ratio" (Host.ratio a.L.ff_hits (a.L.ff_hits + a.L.ff_misses));
      m "frames.allocs_per_job" "frames" (per_job a.L.frame_allocs);
      m "regbank.spilled_words_per_job" "words" (per_job a.L.spilled);
      m "sched.switch_xfers_per_session" "xfers" (Host.ratio a.L.switch_xfers a.L.sessions);
      m "sched.rs_flush_rate" "ratio" (Host.ratio a.L.sched_rs_flushes a.L.switch_xfers);
      m "net.frame_us" "us" (med "net.frame");
      (* no socket on the in-process path, so no network overhead *)
      m "net.overhead_us" "us" (match tcp_p50 with Some p -> p -. inproc_p50 | None -> 0.);
    ]
  in
  let by_layer = Hashtbl.create 16 and layers = ref [] in
  List.iter
    (fun (name, ns) ->
      let layer = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> "bench" in
      if not (Hashtbl.mem by_layer layer) then layers := layer :: !layers;
      Hashtbl.replace by_layer layer (ns + Option.value (Hashtbl.find_opt by_layer layer) ~default:0))
    (Spans.self_times sp);
  let self_line =
    String.concat " "
      (List.rev_map
         (fun l -> Printf.sprintf "%s=%.1f" l (Host.us_of_ns (Hashtbl.find by_layer l) /. float_of_int (max 1 a.L.jobs)))
         !layers)
  in
  let tcp_problems, tcp_sent = match tcp with Some (w, p) -> (p, Tcp.attempted w) | None -> ([], 0) in
  let problems =
    a.L.problems
    @ List.map (fun l -> "wrong output: " ^ l) t.P.t_wrong
    @ List.map (fun l -> "disagreement: " ^ l) disagree
    @ tcp_problems
  in
  {
    Measure.correct = problems = [];
    attempted = t.P.t_attempted + tcp_sent + rp.L.executions;
    failed = t.P.t_failed;
    metrics;
    notes =
      Measure.problem_notes problems
      @ [
          "# self_us_per_job " ^ self_line;
          Printf.sprintf "# stage coverage of job wall time: median %.3f over %d jobs"
            (Host.median (Spans.coverage sp ~root:"job")) a.L.jobs;
          Printf.sprintf "# tracing overhead: %+.1f%% (traced %.1f ms vs untraced %.1f ms over the same jobs)"
            (100. *. (float_of_int rp.L.traced_ns /. float_of_int (max 1 rp.L.untraced_ns) -. 1.))
            (float_of_int rp.L.traced_ns /. 1e6) (float_of_int rp.L.untraced_ns /. 1e6);
          Printf.sprintf "# spans: %d of %d written to %s" written sp.Spans.len trace_file;
        ];
  }

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false and references = ref false and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of calls-warm, sessions-xfer, cold-compile, tcp-short");
      ("--seed", Arg.Set_int seed, "N seed the inputs derive from");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)");
      ("--smoke", Arg.Set smoke, " seconds-long sizes with the same checks");
      ("--commit", Arg.Set_string commit, "ID source revision, printed with the host context");
      ("--references", Arg.Set references, " print the host-side reference outputs and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  (* a peer that closes early must read as an error, not kill the run *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if !references then print_references ()
  else begin
    let kind =
      match List.assoc_opt !workload W.kinds with
      | Some k -> k
      | None ->
        prerr_endline ("bench: unknown workload " ^ !workload);
        exit 2
    in
    if !seconds < 1 || !seed < 0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "bench: --seconds must be positive, --seed non-negative, --trace 0 or 1";
      exit 2
    end;
    let size = if !smoke then Pooled.smoke else Pooled.full in
    let w, outcome =
      if !trace = 1 then begin
        let w = Host.window_start () in
        let o = traced kind size ~seed:!seed ~seconds:!seconds ~out_dir:"perfbench/_out" in
        Host.window_stop w;
        (w, o)
      end
      else
        match kind with
        | W.Tcp_short -> tcp_e2e size ~seed:!seed ~seconds:!seconds
        | _ -> pooled_e2e kind size ~seed:!seed ~seconds:!seconds
    in
    Measure.print ~host:(Host.context_json ~commit:!commit w) outcome
  end
