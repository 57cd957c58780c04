(* Span accounting for the traced run.

   Every layer boundary the benchmark wraps (an automaton step, an
   oracle query, a property check, ...) is a [kind]. A span is opened
   with [enter] and closed with [leave]; closing it adds its duration,
   its self time (duration minus the time covered by spans opened
   inside it) and the minor words it allocated to the kind's
   accumulator. [enter]/[leave] allocate nothing, so the words they
   report are the wrapped call's own.

   Accumulators are domain-local (Domain.DLS): the executor and the
   fuzzer step automata on several domains, and a shared counter would
   add contention the untraced run does not have. Each domain's
   accumulators are registered once, when the domain first opens a
   span; [totals] merges them. A domain's accumulators survive the
   domain, so a merge after the join sees every span. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Minor words allocated by the current domain: exact on one domain. *)
let words () = int_of_float (Gc.minor_words ())

type kind =
  | Smr_step
  | Anuc_step
  | Oracle_query
  | Observer
  | Props
  | Stop
  | Decided

let kinds = [| Smr_step; Anuc_step; Oracle_query; Observer; Props; Stop; Decided |]

let index = function
  | Smr_step -> 0
  | Anuc_step -> 1
  | Oracle_query -> 2
  | Observer -> 3
  | Props -> 4
  | Stop -> 5
  | Decided -> 6

let name = function
  | Smr_step -> "smr.step"
  | Anuc_step -> "core.anuc.step"
  | Oracle_query -> "fd.oracle.query"
  | Observer -> "bench.observer"
  | Props -> "mc.props"
  | Stop -> "stop"
  | Decided -> "decided"

type acc = {
  mutable calls : int;
  mutable ns : int;
  mutable self_ns : int;
  mutable words : int;
}

let zero () = { calls = 0; ns = 0; self_ns = 0; words = 0 }

let add_into a b =
  a.calls <- a.calls + b.calls;
  a.ns <- a.ns + b.ns;
  a.self_ns <- a.self_ns + b.self_ns;
  a.words <- a.words + b.words

let max_depth = 16

(* One domain's accumulators and open-span stack. Frame [i] holds the
   start time, start words and child-covered time of the span opened
   at depth [i]; frame 0 collects the time of top-level spans. *)
type frames = {
  accs : acc array;
  t0 : int array;
  w0 : int array;
  child : int array;
  mutable depth : int;
}

let fresh () =
  {
    accs = Array.init (Array.length kinds) (fun _ -> zero ());
    t0 = Array.make (max_depth + 1) 0;
    w0 = Array.make (max_depth + 1) 0;
    child = Array.make (max_depth + 1) 0;
    depth = 0;
  }

let lock = Mutex.create ()
let registry : frames list ref = ref []

(* Accumulators of domains folded away by [compact]. *)
let retired = Array.init (Array.length kinds) (fun _ -> zero ())

let key =
  Domain.DLS.new_key (fun () ->
      let f = fresh () in
      Mutex.protect lock (fun () -> registry := f :: !registry);
      f)

(* A span's self time: its duration minus what its children cover,
   never negative. *)
let self_time ~dur ~child = if child >= dur then 0 else dur - child

let enter () =
  let f = Domain.DLS.get key in
  let i = f.depth + 1 in
  if i > max_depth then failwith "Trace.enter: spans nested too deep";
  f.depth <- i;
  f.child.(i) <- 0;
  f.w0.(i) <- words ();
  f.t0.(i) <- now_ns ();
  f

let leave f k =
  let t1 = now_ns () in
  let w1 = words () in
  let i = f.depth in
  let dur = t1 - f.t0.(i) in
  let a = f.accs.(index k) in
  a.calls <- a.calls + 1;
  a.ns <- a.ns + dur;
  a.self_ns <- a.self_ns + self_time ~dur ~child:f.child.(i);
  a.words <- a.words + (w1 - f.w0.(i));
  f.depth <- i - 1;
  f.child.(i - 1) <- f.child.(i - 1) + dur

(* For calls off the hot path, where a closure costs nothing that
   matters. *)
let span k f =
  let fr = enter () in
  match f () with
  | v ->
      leave fr k;
      v
  | exception e ->
      leave fr k;
      raise e

(* Fold the accumulators of every domain but the caller's into
   [retired]. Only sound once every other domain that ever opened a
   span has been joined: the executor spawns fresh domains each round,
   and its stop predicate runs after the round's join, so calling this
   there keeps the registry at a couple of entries. *)
let compact () =
  let mine = Domain.DLS.get key in
  Mutex.protect lock (fun () ->
      List.iter
        (fun f ->
          if f != mine then Array.iteri (fun i a -> add_into retired.(i) a) f.accs)
        !registry;
      registry := [ mine ])

let totals () =
  Mutex.protect lock (fun () ->
      let sum = Array.map (fun _ -> zero ()) kinds in
      List.iter
        (fun accs -> Array.iteri (fun i a -> add_into sum.(i) a) accs)
        (retired :: List.map (fun f -> f.accs) !registry);
      sum)

let get totals k = totals.(index k)

let reset () =
  Mutex.protect lock (fun () ->
      let clear a =
        a.calls <- 0;
        a.ns <- 0;
        a.self_ns <- 0;
        a.words <- 0
      in
      Array.iter clear retired;
      List.iter (fun f -> Array.iter clear f.accs) !registry)

(* Spans kept for the trace file: recorded on the coordinating domain
   only, written out once the benchmark ends. *)
type span = {
  sp_name : string;
  sp_id : int;
  sp_parent : int;  (** id of the enclosing span, -1 for a root *)
  sp_ts_ns : int;
  sp_dur_ns : int;
  sp_args : (string * int) list;
}

let spans : span list ref = ref []
let record s = spans := s :: !spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON (opens in Perfetto / chrome://tracing). Root
   spans become complete events on thread 1; child spans overlap one
   another (pipelined slots), so they become async begin/end pairs
   keyed by their id. *)
let write_chrome path ~origin_ns =
  let us ns = float_of_int (ns - origin_ns) /. 1e3 in
  let oc = open_out path in
  let args l =
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v) l)
    ^ "}"
  in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  let emit s =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc s
  in
  List.iter
    (fun s ->
      let a = args (("parent", s.sp_parent) :: s.sp_args) in
      if s.sp_parent < 0 then
        emit
          (Printf.sprintf
             "{\"name\":%s,\"cat\":\"run\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
             (json_string s.sp_name) (us s.sp_ts_ns)
             (float_of_int s.sp_dur_ns /. 1e3) a)
      else begin
        emit
          (Printf.sprintf
             "{\"name\":%s,\"cat\":\"slot\",\"ph\":\"b\",\"id\":%d,\"pid\":1,\"tid\":1,\"ts\":%.3f,\"args\":%s}"
             (json_string s.sp_name) s.sp_id (us s.sp_ts_ns) a);
        emit
          (Printf.sprintf
             "{\"name\":%s,\"cat\":\"slot\",\"ph\":\"e\",\"id\":%d,\"pid\":1,\"tid\":1,\"ts\":%.3f}"
             (json_string s.sp_name) s.sp_id (us (s.sp_ts_ns + s.sp_dur_ns)))
      end)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc
