(* Host spans of the traced run: (name, start, end, parent, job) kept in
   growable arrays and written as Chrome trace-event JSON when the run
   ends.  Spans are opened and closed by the benchmark around its calls
   into each layer; nothing inside the program is instrumented. *)

type t = {
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;  (** index of the enclosing span, -1 at a root *)
  mutable jobs : int array;
  mutable len : int;
  mutable open_ : int;  (** innermost span still open, -1 when none *)
  mutable job : int;
  mutable enabled : bool;
}

let create () =
  {
    names = Array.make 1024 "";
    starts = Array.make 1024 0;
    stops = Array.make 1024 0;
    parents = Array.make 1024 (-1);
    jobs = Array.make 1024 0;
    len = 0;
    open_ = -1;
    job = 0;
    enabled = true;
  }

let grow t =
  let n = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1);
  t.jobs <- extend t.jobs 0

(* Time [f ()] as span [name] under the innermost open span.  Returns the
   result and the span's duration in ns; with recording disabled, [f] runs
   untimed and the duration reads 0. *)
let span t name f =
  if not t.enabled then (f (), 0)
  else begin
    if t.len = Array.length t.names then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.names.(i) <- name;
    t.parents.(i) <- t.open_;
    t.jobs.(i) <- t.job;
    let parent = t.open_ in
    t.open_ <- i;
    let t0 = Host.now_ns () in
    t.starts.(i) <- t0;
    let r = Fun.protect ~finally:(fun () -> t.open_ <- parent) f in
    let t1 = Host.now_ns () in
    t.stops.(i) <- t1;
    (r, t1 - t0)
  end

let set_job t j = t.job <- j

(* Self time per span name: each span's duration minus the time its
   direct children cover.  Returned in first-seen order. *)
let self_times t =
  let self = Array.init t.len (fun i -> t.stops.(i) - t.starts.(i)) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) - (t.stops.(i) - t.starts.(i))
  done;
  let order = ref [] and tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let n = t.names.(i) in
    match Hashtbl.find_opt tbl n with
    | Some v -> Hashtbl.replace tbl n (v + self.(i))
    | None ->
      order := n :: !order;
      Hashtbl.replace tbl n self.(i)
  done;
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

(* For each span named [root], the share of its wall time that its direct
   child spans cover. *)
let coverage t ~root =
  let covered = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then covered.(p) <- covered.(p) + (t.stops.(i) - t.starts.(i))
  done;
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    if t.names.(i) = root then begin
      let d = t.stops.(i) - t.starts.(i) in
      if d > 0 then acc := (float_of_int covered.(i) /. float_of_int d) :: !acc
    end
  done;
  Array.of_list !acc

(* Chrome trace-event JSON ("X" complete events, microseconds) of the
   first [limit] spans, which keeps a file to a few megabytes.  The span
   tree is carried in [args] as well as by nesting, so a reader need not
   reconstruct it from timestamps.  Returns the number written. *)
let write_chrome ?(limit = 50_000) t path =
  let n = min limit t.len in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      let base = if t.len > 0 then t.starts.(0) else 0 in
      for i = 0 to n - 1 do
        let ev =
          Fpc_util.Jsonout.(
            Obj
              [
                ("name", String t.names.(i));
                ("cat", String (List.hd (String.split_on_char '.' t.names.(i))));
                ("ph", String "X");
                ("ts", Float (Host.us_of_ns (t.starts.(i) - base)));
                ("dur", Float (Host.us_of_ns (t.stops.(i) - t.starts.(i))));
                ("pid", Int 1);
                ("tid", Int 1);
                ("args", Obj [ ("span", Int i); ("parent", Int t.parents.(i)); ("job", Int t.jobs.(i)) ]);
              ])
        in
        if i > 0 then output_string oc ",\n";
        output_string oc (Fpc_util.Jsonout.to_string ev)
      done;
      output_string oc "\n]}\n";
      n)
