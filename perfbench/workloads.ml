(* The four workloads: what each job is, how its inputs derive from the
   seed, and what its result must be. *)

module Job = Fpc_svc.Job
module Prng = Fpc_util.Prng
module Sessions = Fpc_workload.Sessions

type kind = Calls_warm | Sessions_xfer | Cold_compile | Tcp_short

let kinds =
  [
    ("calls-warm", Calls_warm);
    ("sessions-xfer", Sessions_xfer);
    ("cold-compile", Cold_compile);
    ("tcp-short", Tcp_short);
  ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)
let engines = [| "i1"; "i2"; "i3"; "i4" |]

(* What a job's result must be.  [Words] comes from {!Reference}; a
   generated program has no reference, so its output must agree with the
   same source run under another configuration. *)
type expect = Words of int list | Agree

type item = { spec : Job.spec; line : string; expect : expect }

let item ?sched ~engine source expect =
  let spec = Job.spec ~engine ?sched source in
  { spec; line = Job.request_of_spec spec; expect }

let suite_item ~engine p = item ~engine (Job.Suite p) (Words (Reference.suite p))

let shuffled ~seed xs =
  let a = Array.of_list xs in
  Prng.shuffle (Prng.create ~seed) a;
  a

let suite_round programs =
  List.concat_map
    (fun p -> Array.to_list (Array.map (fun engine -> suite_item ~engine p) engines))
    programs

(* calls-warm: the call-intensive suite on every engine, one round in a
   seeded order. *)
let calls_round ~seed = shuffled ~seed (suite_round Fpc_workload.Programs.call_intensive)

(* tcp-short: programs that execute in tens of microseconds, so the serving
   path around execution dominates. *)
let short_programs = [ "processes"; "coroutine"; "bsearch"; "deep" ]
let short_round ~seed = shuffled ~seed (suite_round short_programs)

(* sessions-xfer: two seeded session configs of [total] sessions each, on
   every engine, half run-to-yield and half preempted. *)
let session_policies = [ Fpc_sched.Sched.Run_to_yield; Fpc_sched.Sched.Preempt { quantum = 1000 } ]

let session_configs ~seed ~total =
  let rng = Prng.create ~seed in
  List.init 2 (fun _ -> { (Sessions.default ~total) with Sessions.seed = Prng.int rng ~bound:997 })

let sessions_items configs =
  List.concat_map
    (fun c ->
      List.concat_map
        (fun sched ->
          Array.to_list
            (Array.map
               (fun engine -> item ~sched ~engine (Job.Sessions c) (Words (Reference.sessions c)))
               engines))
        session_policies)
    configs

let sessions_round ~seed ~total = shuffled ~seed (sessions_items (session_configs ~seed ~total))

(* cold-compile: generated programs with leaf and late-bound calls.  A
   share of them also store one array element at a computed index, which
   today makes the devirtualizer abstain on the whole image. *)
let store_share = 0.25
let late_bound_rate = 0.5
let leaf_call_rate = 0.3

(* [src] with [decl] inserted at the top of [main]. *)
let at_main_top decl src =
  let main = "PROC main() =\n" in
  let i =
    let rec find i =
      if String.sub src i (String.length main) = main then i else find (i + 1)
    in
    find 0
  in
  let j = i + String.length main in
  String.sub src 0 j ^ decl ^ String.sub src j (String.length src - j)

let with_store ~k src =
  at_main_top (Printf.sprintf "  VAR buf: ARRAY 8 OF INT;\n  VAR k: INT := %d;\n  buf[k MOD 8] := k;\n" k) src

(* [n] distinct sources drawn from [seed]; duplicates are redrawn so every
   job misses the image cache.  Each run of [round] consecutive sources
   holds exactly [store_share] of stores, at seeded positions. *)
let cold_sources ~seed ~round n =
  let rng = Prng.create ~seed in
  let seen = Hashtbl.create n in
  let stores = int_of_float (store_share *. float_of_int round) in
  let mask = Array.init round (fun i -> i < stores) in
  let rec draw store =
    let s =
      Fpc_workload.Synthetic.random_program ~leaf_call_rate ~late_bound_rate
        ~seed:(Prng.int rng ~bound:(1 lsl 30)) ()
    in
    let s = if store then with_store ~k:(Prng.int rng ~bound:64) s else s in
    if Hashtbl.mem seen s then draw store
    else begin
      Hashtbl.replace seen s ();
      s
    end
  in
  Array.init n (fun i ->
      if i mod round = 0 then Prng.shuffle rng mask;
      draw mask.(i mod round))

(* Round [r] of cold-compile: the next [size] sources, engines round-robin.
   The sources repeat every [Array.length sources] jobs, each time with a
   new [salt] local in [main], so every job's text, and so its image cache
   key, is new and no job can reuse another's compilation. *)
let cold_round sources ~size r =
  let n = Array.length sources in
  Array.init size (fun k ->
      let i = (r * size) + k in
      let src = sources.(i mod n) in
      let src = if i < n then src else at_main_top (Printf.sprintf "  VAR salt: INT := %d;\n" (i / n)) src in
      item ~engine:engines.(i mod 4) (Job.Inline src) Agree)

(* Check one result against its expectation; [Agree] results are checked
   later, against a run under another configuration. *)
let check item (r : Job.result) =
  match (item.expect, r.outcome) with
  | Words w, Job.Output o -> o = w
  | Agree, Job.Output _ -> true
  | _, Job.Failed _ -> false

let failed (r : Job.result) = match r.outcome with Job.Output _ -> false | Job.Failed _ -> true
