(* Clocks, summary statistics and what the host says about itself. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 100]. *)
let percentile p xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let s = Array.copy xs in
    Array.sort compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let read_file path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

(* user+sys CPU seconds of this process, all domains and threads. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Linux reports /proc times in USER_HZ ticks, 100 per second on every
   architecture the kernel ABI fixes it for. *)
let ticks_per_s = 100.

(* user+sys CPU seconds of another process, from /proc/<pid>/stat.  The
   command field may hold spaces, so fields are counted after its ')'. *)
let proc_cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some s ->
    let after = String.rindex s ')' + 2 in
    let f = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
    (* fields 14 and 15 of the full line are utime and stime *)
    (float_of_string f.(11) +. float_of_string f.(12)) /. ticks_per_s

(* VmRSS, the resident set, in MB. *)
let rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match read_file path with
  | None -> nan
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmRSS"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
        | _ -> acc)
      nan (String.split_on_char '\n' s)

(* The one CPU this process may run on, if it is pinned to one: run.py
   pins the benchmark, and the server it spawns inherits the pinning. *)
let pinned_cpu =
  lazy
    (match read_file "/proc/self/status" with
    | None -> None
    | Some s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "Cpus_allowed_list"; v ] -> int_of_string_opt (String.trim v)
          | _ -> None)
        (String.split_on_char '\n' s))

(* The line of /proc/stat for the CPU the run is pinned to (the aggregate
   "cpu" line, summed over every CPU, when it is not pinned), in ticks:
   steal, idle (with iowait) and the total of all fields. *)
type ticks = { steal : int; idle : int; total : int }

let ticks () =
  let zero = { steal = 0; idle = 0; total = 0 } in
  let label = match Lazy.force pinned_cpu with Some n -> "cpu" ^ string_of_int n | None -> "cpu" in
  let is_ours line = String.length line > String.length label && String.sub line 0 (String.length label + 1) = label ^ " " in
  match Option.map (fun s -> List.find_opt is_ours (String.split_on_char '\n' s)) (read_file "/proc/stat") with
  | None | Some None -> zero
  | Some (Some line) -> (
    (* cpu user nice system idle iowait irq softirq steal guest guest_nice;
       guest time is already counted in user *)
    match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
    | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
      { steal; idle = idle + iowait; total = user + nice + system + idle + iowait + irq + softirq + steal }
    | _ -> zero)

let diff a b = { steal = b.steal - a.steal; idle = b.idle - a.idle; total = b.total - a.total }

(* Seconds the hypervisor stole from the run's vCPU between [a] and [b],
   [wall] seconds apart.  Ticks are counted in hundredths of a second, so
   the figure is capped at nine tenths of [wall] to keep what is left of
   it positive. *)
let stolen_s a b ~wall = Float.min (float_of_int (diff a b).steal /. ticks_per_s) (0.9 *. wall)

(* Host context for one run.  These explain a disagreement between two sets
   of runs; they are printed beside the metrics, never gated. *)
type window = { w_start : ticks; mutable w_ticks : ticks }

let window_start () = { w_start = ticks (); w_ticks = { steal = 0; idle = 0; total = 0 } }
let window_stop w = w.w_ticks <- diff w.w_start (ticks ())

let context_json ~commit w =
  Fpc_util.Jsonout.(
    Obj
      [
        ("steal_ticks", Int w.w_ticks.steal);
        ("idle_ticks", Int w.w_ticks.idle);
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("cpu", match Lazy.force pinned_cpu with Some n -> Int n | None -> String "any");
        ("ocaml", String Sys.ocaml_version);
        ("commit", String commit);
      ])
