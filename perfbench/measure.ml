(* Shared pieces of one run: the metric list printed last, the tail
   percentiles printed beside it, and the set-up timing. *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* The highest of p50/p90/p99/p99.9 that still has ten samples beyond it;
   timings are printed with their sample count and never gated. *)
let tail_line label xs =
  let n = Array.length xs in
  let ps = [ 99.9; 99.; 90.; 50. ] in
  let p = List.find_opt (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.) ps in
  let head = Printf.sprintf "# %s: n=%d p50=%.1f" label n (Host.median xs) in
  match p with Some p when n > 0 -> Printf.sprintf "%s p%g=%.1f" head p (Host.percentile p xs) | _ -> head

(* Set-up is repeated and its median reported: one cold start is too short
   to time steadily on a shared host.  Each repetition's wall time is taken
   less the seconds stolen from the run's vCPU meanwhile, as
   {!Blocks.summary} does for the window.  Every repetition but the last
   tears down what it built; the last is kept for the timed window. *)
let setup ~reps ~build ~teardown =
  let times = Array.make reps 0. in
  let rec go i =
    let t0 = Host.now_ns () and k0 = Host.ticks () in
    let x = build () in
    let wall = Host.s_of_ns (Host.now_ns () - t0) in
    times.(i) <- wall -. Host.stolen_s k0 (Host.ticks ()) ~wall;
    if i + 1 < reps then begin
      teardown x;
      go (i + 1)
    end
    else x
  in
  let x = go 0 in
  (x, Host.median times)

(* The first twenty problems a run found, as comment lines. *)
let problem_notes problems = List.map (fun p -> "# problem: " ^ p) (List.filteri (fun i _ -> i < 20) problems)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** printed as comment lines before the result *)
}

let print ~host o =
  List.iter print_endline o.notes;
  print_endline ("# host " ^ Fpc_util.Jsonout.to_string host);
  let open Fpc_util.Jsonout in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool o.correct);
            ("attempted", Int o.attempted);
            ("failed", Int o.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m -> (m.m_name, Obj [ ("value", Float m.m_value); ("unit", String m.m_unit) ]))
                   o.metrics) );
          ]))
