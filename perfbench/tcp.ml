(* tcp-short: a spawned [fpc serve --tcp 0 -j 1 --no-times], driven over
   loopback by one closed-loop connection with one request in flight. *)

module Job = Fpc_svc.Job
module Client = Fpc_net.Client
module W = Workloads

let fpc_exe = "_build/default/bin/fpc.exe"
let host = "127.0.0.1"
let connections = 1

type server = { pid : int; port : int; err : in_channel }

(* Servers not yet stopped; an exception that ends the run early still
   kills and reaps them on the way out. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Start the server and read its port from the "serving on HOST:PORT" line
   it writes to standard error. *)
let spawn () =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let args = [| fpc_exe; "serve"; "--tcp"; "0"; "-j"; "1"; "--no-times" |] in
  let pid = Unix.create_process fpc_exe args null null w in
  live := pid :: !live;
  Unix.close w;
  Unix.close null;
  let err = Unix.in_channel_of_descr r in
  let rec port () =
    match input_line err with
    | line when contains ~sub:"serving on " line ->
      let after = List.nth (String.split_on_char ':' line) 2 in
      int_of_string (List.hd (String.split_on_char ' ' after))
    | _ -> port ()
    | exception End_of_file -> failwith "fpc serve exited before listening"
  in
  { pid; port = port (); err }

(* Drain the server with a 'shutdown' line and reap it; SIGKILL if it has
   not exited within ten seconds. *)
let stop s =
  (try
     let c = Client.connect ~host ~port:s.port () in
     Client.send_line c "shutdown";
     Client.close c
   with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      reap ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  reap ();
  live := List.filter (( <> ) s.pid) !live;
  (* the drain's stats table, read only so the pipe never fills *)
  (try
     while true do
       ignore (input_line s.err)
     done
   with End_of_file -> ());
  close_in_noerr s.err

(* The expected response to an item: [Job.result_to_json ~times:false] of
   the same request run in-process, with the id the server assigned.  The
   id is the first field, so the rest of the line is compared whole. *)
let tail_after_id line =
  if String.length line > 6 && String.sub line 0 6 = "{\"id\":" then
    match String.index_opt line ',' with
    | Some i -> Some (String.sub line 6 (i - 6), String.sub line (i + 1) (String.length line - i - 1))
    | None -> None
  else None

let expected_tail (r : Job.result) =
  match tail_after_id (Fpc_util.Jsonout.to_string (Job.result_to_json ~times:false r)) with
  | Some (_, tail) -> tail
  | None -> failwith "unexpected result rendering"

(* One connection's record of the window. *)
type conn = {
  fd : Unix.file_descr;
  framing : Fpc_net.Framing.t;
  mutable next : int;  (** position in the rotated round *)
  mutable in_flight : (int * int) option;  (** (item index, send time) *)
  mutable sent : int;
  mutable answered : int;
  mutable wrong : string list;
  mutable ids : int list;
  mutable lat_us : (int * float) list;  (** (answer time, round trip) *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  {
    fd;
    framing = Fpc_net.Framing.pushable ();
    next = 0;
    in_flight = None;
    sent = 0;
    answered = 0;
    wrong = [];
    ids = [];
    lat_us = [];
  }

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

type window = {
  conns : conn list;
  samples : Inproc.sample list;
}

(* Play whole rounds of [items] on [n] connections, one request in flight
   on each, from this one thread: a select loop sends a connection its
   next request as soon as its answer arrives, so no client thread waits
   on another for the runtime lock.  Connection [k] starts its round at
   item [k * len / n]; a connection starts another round while
   [continue ()] holds.  With [sample], a sample is taken every
   [sample_ms] and on the way out.  A server that stops answering for 60
   seconds is killed, so the run ends with a problem instead of hanging. *)
let play ?sample ~sample_ms ~port ~n ~items ~expected ~continue () =
  let len = Array.length items in
  let conns = Array.init n (fun _ -> connect port) in
  let completed = ref 0 in
  let samples = ref [] in
  let take () = match sample with Some f -> samples := f !completed :: !samples | None -> () in
  let send k c =
    let i = (c.next + (k * len / n)) mod len in
    c.next <- c.next + 1;
    let line = items.(i).W.line ^ "\n" in
    c.in_flight <- Some (i, Host.now_ns ());
    c.sent <- c.sent + 1;
    write_all c.fd (Bytes.unsafe_of_string line) 0 (String.length line)
  in
  let answer c line =
    match c.in_flight with
    | None -> c.wrong <- "an answer nobody asked for" :: c.wrong
    | Some (i, t0) -> (
      let t1 = Host.now_ns () in
      c.in_flight <- None;
      c.answered <- c.answered + 1;
      incr completed;
      c.lat_us <- (t1, Host.us_of_ns (t1 - t0)) :: c.lat_us;
      match tail_after_id line with
      | Some (id, tail) when tail = expected.(i) && int_of_string_opt id <> None ->
        c.ids <- int_of_string id :: c.ids
      | _ -> c.wrong <- ("response differs: " ^ items.(i).W.line) :: c.wrong)
  in
  (* a connection goes on while its round is unfinished or [continue] *)
  let more c = c.next mod len <> 0 || continue () in
  let buf = Bytes.create 65536 in
  take ();
  let next_sample = ref (Host.now_ns () + (sample_ms * 1_000_000)) in
  let last_progress = ref (Host.now_ns ()) in
  (try
     Array.iteri send conns;
     let waiting () = Array.to_list conns |> List.filter (fun c -> c.in_flight <> None) in
     while waiting () <> [] do
       let readable, _, _ = Unix.select (List.map (fun c -> c.fd) (waiting ())) [] [] 0.05 in
       List.iter
         (fun fd ->
           let k = ref 0 in
           Array.iteri (fun j c -> if c.fd == fd then k := j) conns;
           let c = conns.(!k) in
           match Unix.read fd buf 0 (Bytes.length buf) with
           | 0 -> failwith "the server closed a connection"
           | got ->
             last_progress := Host.now_ns ();
             Fpc_net.Framing.feed c.framing (Bytes.sub_string buf 0 got) 0 got;
             let rec lines () =
               match Fpc_net.Framing.poll c.framing with
               | Some (Fpc_net.Framing.Line l) ->
                 answer c l;
                 lines ()
               | Some _ -> c.wrong <- "overlong or closed response" :: c.wrong
               | None -> ()
             in
             lines ();
             if c.in_flight = None && more c then send !k c)
         readable;
       let now = Host.now_ns () in
       if now >= !next_sample then begin
         take ();
         next_sample := now + (sample_ms * 1_000_000)
       end;
       if now - !last_progress > 60_000_000_000 then failwith "the server stopped answering"
     done
   with
  | Failure m -> conns.(0).wrong <- m :: conns.(0).wrong
  | Unix.Unix_error (e, f, _) -> conns.(0).wrong <- (f ^ ": " ^ Unix.error_message e) :: conns.(0).wrong);
  take ();
  Array.iter (fun c -> Unix.close c.fd) conns;
  { conns = Array.to_list conns; samples = List.rev !samples }

(* Every request answered exactly once: as many answers as requests, and
   no id answered twice. *)
let one_answer_each conns =
  let ids = List.concat_map (fun c -> c.ids) conns in
  let sorted = List.sort_uniq compare ids in
  List.for_all (fun c -> c.sent = c.answered) conns && List.length sorted = List.length ids

(* The timed window: [connections] connections play until [seconds] have
   passed, sampling completions and the server's CPU and resident set. *)
let window s ~items ~expected ~seconds ~sample_ms =
  let stop = Host.now_ns () + (seconds * 1_000_000_000) in
  let sample completed =
    let cpu = Host.proc_cpu_s s.pid in
    Inproc.sample ~completed ~cpu ~own:(cpu +. Host.self_cpu_s ()) ~rss:(Host.rss_mb (Some s.pid))
  in
  play ~sample ~sample_ms ~port:s.port ~n:connections ~items ~expected
    ~continue:(fun () -> Host.now_ns () < stop)
    ()

(* One round on one connection, to warm the server's caches. *)
let warm s ~items ~expected =
  play ~sample_ms:max_int ~port:s.port ~n:1 ~items ~expected ~continue:(fun () -> false) ()

let done_lat w = Array.of_list (List.concat_map (fun c -> c.lat_us) w.conns)
let attempted w = List.fold_left (fun acc c -> acc + c.sent) 0 w.conns
let wrong w = List.concat_map (fun c -> c.wrong) w.conns
