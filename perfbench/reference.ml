(* Expected outputs computed apart from the machine: every suite program the
   workloads run, written again in plain OCaml with the machine's 16-bit
   word semantics, and the session program's (finished, check) pair from its
   config.  Nothing here compiles or runs mini-Mesa, so a fault in the front
   end, the linker, either executor or the scheduler cannot hide in the
   expectation it is checked against. *)

(* Machine arithmetic: every result is stored as a 16-bit word and read
   back as a signed value; DIV and MOD truncate toward zero. *)
let wrap v =
  let v = v land 0xFFFF in
  if v >= 0x8000 then v - 0x10000 else v

let ( +! ) a b = wrap (a + b)
let ( -! ) a b = wrap (a - b)
let ( *! ) a b = wrap (a * b)

(* OUTPUT writes the word, so negative values come back unsigned. *)
let word v = v land 0xFFFF

let fib () =
  let rec fib n = if n < 2 then n else fib (n -! 1) +! fib (n -! 2) in
  [ fib 14 ]

let ackermann () =
  let rec ack m n =
    if m = 0 then n +! 1
    else if n = 0 then ack (m -! 1) 1
    else ack (m -! 1) (ack m (n -! 1))
  in
  [ ack 2 5; ack 3 3 ]

let callchain () =
  let hits = ref 0 in
  let leaf x =
    hits := !hits +! 1;
    x +! 1
  in
  let bstep x = leaf x +! leaf (x +! 1) in
  let astep x = bstep x +! 1 in
  let acc = ref 0 in
  for i = 0 to 299 do
    acc := (!acc +! astep i) mod 10000
  done;
  [ !acc; !hits ]

let leafcalls () =
  let total = ref 0 in
  for i = 0 to 1999 do
    total := (!total +! (i +! 1)) mod 30000
  done;
  [ !total ]

let deep () =
  let rec depth n = if n = 0 then 0 else depth (n -! 1) +! 1 in
  [ depth 200 ]

let hanoi () =
  let moves = ref 0 in
  let rec solve n =
    if n > 0 then begin
      solve (n -! 1);
      moves := !moves +! 1;
      solve (n -! 1)
    end
  in
  solve 7;
  [ !moves ]

let knapsack () =
  let weight = Array.init 8 (fun i -> ((i *! 7) mod 9) +! 1) in
  let value = Array.init 8 (fun i -> ((i *! 11) mod 13) +! 2) in
  let rec best i cap =
    if i = 8 then 0
    else
      let skip = best (i +! 1) cap in
      if weight.(i) > cap then skip
      else
        let take = value.(i) +! best (i +! 1) (cap -! weight.(i)) in
        if take > skip then take else skip
  in
  [ best 0 15 ]

let fibleaf () =
  let a = ref 0 and b = ref 1 in
  for _ = 1 to 1250 do
    a := !a +! !b;
    b := !b +! !a
  done;
  [ !a; !b ]

let ackerlite () =
  let acc = ref 1 in
  for i = 0 to 1499 do
    acc := (((!acc +! 1) *! 3) +! (i +! i)) mod 30011
  done;
  [ !acc ]

let xleaf () =
  let acc = ref 0 in
  for i = 0 to 1499 do
    acc := !acc +! (i +! 1) +! 7
  done;
  [ !acc ]

let polyleaf () =
  let horner3 x a b c = (((a *! x) +! b) *! x) +! c in
  let blend u v = ((u +! v) *! 3) +! (u -! v) in
  let acc = ref 1 in
  for i = 0 to 899 do
    acc := blend (horner3 i !acc 7 11) (horner3 !acc 3 i 5)
  done;
  [ !acc ]

(* FORK appends to the machine's FIFO ready queue and YIELD moves the
   running process to its tail; main spins on YIELD until all three workers
   have finished.  Modelled as a round-robin over step functions, each
   returning whether its process is still alive after one time slice. *)
let processes () =
  let out = ref [] in
  let finished = ref 0 in
  let worker id items =
    let i = ref 0 in
    fun () ->
      if !i < items then begin
        out := ((id * 100) + !i) :: !out;
        incr i;
        true
      end
      else begin
        incr finished;
        false
      end
  in
  let ready = Queue.create () in
  List.iter (fun id -> Queue.push (worker id 3) ready) [ 1; 2; 3 ];
  let main () =
    if !finished < 3 then true
    else begin
      out := !finished :: !out;
      false
    end
  in
  Queue.push main ready;
  while not (Queue.is_empty ready) do
    let p = Queue.pop ready in
    if p () then Queue.push p ready
  done;
  List.rev !out

let coroutine () =
  (* the producer hands back n*n for n = 1, 2, ...; main sums 20 of them *)
  let sum = ref 0 in
  for n = 1 to 20 do
    sum := !sum +! (n *! n)
  done;
  [ !sum ]

let bsearch () =
  let a = Array.init 64 (fun i -> (i *! 3) +! 1) in
  let out = ref [] and probes = ref 0 in
  let target = ref 0 in
  while !target < 192 do
    let lo = ref 0 and hi = ref 63 and found = ref false in
    while !lo <= !hi do
      let mid = (!lo +! !hi) / 2 in
      probes := !probes +! 1;
      if a.(mid) = !target then begin
        found := true;
        lo := !hi +! 1
      end
      else if a.(mid) < !target then lo := mid +! 1
      else hi := mid -! 1
    done;
    if !found then out := !target :: !out;
    target := !target +! 37
  done;
  List.rev (!probes :: !out)

let programs =
  [
    ("fib", fib);
    ("ackermann", ackermann);
    ("callchain", callchain);
    ("leafcalls", leafcalls);
    ("deep", deep);
    ("hanoi", hanoi);
    ("knapsack", knapsack);
    ("fibleaf", fibleaf);
    ("ackerlite", ackerlite);
    ("xleaf", xleaf);
    ("polyleaf", polyleaf);
    ("processes", processes);
    ("coroutine", coroutine);
    ("bsearch", bsearch);
  ]

let suite_cache = Hashtbl.create 16

(* The expected OUTPUT words of a suite program; raises [Not_found] for a
   program without a reference. *)
let suite name =
  match Hashtbl.find_opt suite_cache name with
  | Some o -> o
  | None ->
    let o = List.map word ((List.assoc name programs) ()) in
    Hashtbl.replace suite_cache name o;
    o

(* The session program's (finished, check).  Each session draws its think
   count and [work] depth from its id, is handed (id + 3) by its freshly
   started peer, and on every think step adds [work d x] to its
   accumulator and sends (x + i) to the peer, which answers with its input
   plus 3 — except the last answer, where the peer's loop has run out and
   it RETURNs the value it was sent.  The checksum adds (acc + x) per
   session, mod 8191, in any order. *)
let sessions (c : Fpc_workload.Sessions.config) =
  let think_span = c.think_hi - c.think_lo + 1 in
  let depth_span = c.depth_hi - c.depth_lo + 1 in
  let rec work d x = if d < 1 then (x + 1) mod 8191 else (work (d - 1) (x + d) + d) mod 8191 in
  let check = ref 0 in
  for id = 0 to c.total - 1 do
    let r = (((id mod 251) * 13) + (c.seed mod 997)) mod 997 in
    let thinks = c.think_lo + (r mod think_span) in
    let d = c.depth_lo + (r / 7 mod depth_span) in
    let x = ref ((id mod 8191 + 3) mod 8191) in
    let acc = ref 0 in
    for i = 0 to thinks - 1 do
      acc := (!acc + work d !x) mod 8191;
      let sent = (!x + i) mod 8191 in
      x := if i < thinks - 1 then (sent + 3) mod 8191 else sent
    done;
    check := (!check + !acc + !x) mod 8191
  done;
  [ c.total; !check ]
