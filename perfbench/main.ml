(* perfbench: one seeded workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics on untraced runs, each in
   a fresh process of this executable (started with --single), repeated
   until S seconds are spent; --trace 1 runs the workload once
   untraced and once traced, checks that the traced run reproduces the
   untraced run's deterministic counters, and reports the per-layer
   metrics. Human-readable lines go first; the last line of standard
   output is the JSON result. The exit code is 1 when a gate fails and
   2 on bad arguments. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  single : bool;  (** one untraced run, reported to the parent process *)
}

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.; trace = false; single = false } in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        a := { !a with workload = v };
        go rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> a := { !a with seed = s } | None -> usage ());
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> a := { !a with seconds = s }
        | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> a := { !a with trace = false }
        | "1" -> a := { !a with trace = true }
        | _ -> usage ());
        go rest
    | "--single" :: rest ->
        a := { !a with single = true };
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !a

(* A metric value with all its digits. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_metric (name, v, unit) = Printf.printf "  %-34s %16s %s\n" name (num v) unit

let json_result ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string name)
              (num v) (Trace.json_string unit))
          metrics))

let percentile_or_zero q lat =
  match Stats.percentile ~q lat with Ok v -> float_of_int v | Error _ -> 0.

let commit_metrics (o : Workloads.outcome) =
  [
    ("commit_p50_ticks", percentile_or_zero 0.50 o.latencies, "ticks");
    ("commit_p95_ticks", percentile_or_zero 0.95 o.latencies, "ticks");
    ("commit_samples", float_of_int (Array.length o.latencies), "count");
  ]

(* Gates common to every run: the workload's own checks, plus the
   refusal of a p95 drawn from too few samples on the serve path. *)
let gate_errors (o : Workloads.outcome) =
  o.errors
  @
  if Array.length o.latencies = 0 then []
  else match Stats.percentile ~q:0.95 o.latencies with Ok _ -> [] | Error e -> [ e ]

let identity_errors ~what a b =
  List.filter_map
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some v' when v' = v -> None
      | v' ->
          Some
            (Printf.sprintf "%s: %s %d vs %s" what k v
               (match v' with Some x -> string_of_int x | None -> "missing")))
    a

(* --single: one untraced run in this process. Set-up is timed 101
   times first, each on an empty minor heap, so no set-up pays for a
   minor collection of the garbage its predecessors left; without that
   the figure depended on where in the minor heap a process happened to
   start. Prints the run's details, one [error:] line per failed gate,
   and last the record [run_end_to_end] reads. *)
let single_run (w : Workloads.workload) args =
  let times = ref [] and prepared = ref None in
  for _ = 1 to 101 do
    Gc.minor ();
    let t0 = Trace.now_ns () in
    let run = w.prepare ~seed:args.seed ~traced:false in
    times := float_of_int (Trace.now_ns () - t0) /. 1e9 :: !times;
    prepared := Some run
  done;
  let o = Option.get !prepared () in
  let peak_kb = Workloads.vm_kb "VmHWM:" in
  if Array.length o.latencies > 0 then List.iter print_metric (commit_metrics o);
  List.iter (fun (k, v) -> Printf.printf "  identity %-25s %16d\n" k v) o.identity;
  List.iter (fun (k, v) -> print_metric (k, v, "")) o.counters;
  List.iter (fun e -> Printf.printf "error: %s\n" e) (gate_errors o);
  Printf.printf "record %d %.17g %.17g %d %d %d %d %s\n" o.work o.wall_s (Stats.median !times)
    peak_kb o.attempted o.failed o.step_count
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o.identity));
  exit 0

type record = {
  work : int;
  wall_s : float;
  setup_s : float;
  peak_kb : int;
  attempted : int;
  failed : int;
  steps : int;
  identity : (string * int) list;
  errors : string list;
  details : string list;
}

let parse_record line ~errors ~details =
  match String.split_on_char ' ' line with
  | "record" :: work :: wall :: setup :: peak :: att :: failed :: steps :: ids ->
      Some
        {
          work = int_of_string work;
          wall_s = float_of_string wall;
          setup_s = float_of_string setup;
          peak_kb = int_of_string peak;
          attempted = int_of_string att;
          failed = int_of_string failed;
          steps = int_of_string steps;
          identity =
            List.map
              (fun kv ->
                match String.split_on_char '=' kv with
                | [ k; v ] -> (k, int_of_string v)
                | _ -> failwith ("bad identity field " ^ kv))
              ids;
          errors;
          details;
        }
  | _ -> None

(* Runs one --single child and waits for it. *)
let child_run args =
  let argv =
    [| Sys.executable_name; "--workload"; args.workload; "--seed"; string_of_int args.seed;
       "--single" |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let rec read acc = match input_line ic with l -> read (l :: acc) | exception End_of_file -> acc in
  let lines = List.rev (read []) in
  let status = Unix.close_process_in ic in
  let prefix = "error: " in
  let is_error l = String.starts_with ~prefix l in
  let errors =
    List.filter_map
      (fun l ->
        let k = String.length prefix in
        if is_error l then Some (String.sub l k (String.length l - k)) else None)
      lines
  in
  let details = List.filter (fun l -> not (is_error l || String.starts_with ~prefix:"record " l)) lines in
  match (status, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match parse_record last ~errors ~details with
      | Some r -> Ok r
      | None -> Error "a run printed no record")
  | _ -> Error "a run's process failed"

(* Every run in a fresh process, as a user runs the workload: runs in
   one process inherit the heap the first one grew, and on serve-exec
   the later ones ran ~30% slower than the first and varied more. *)
let run_end_to_end (w : Workloads.workload) args =
  let start = Trace.now_ns () in
  let elapsed () = float_of_int (Trace.now_ns () - start) /. 1e9 in
  (* run again while another run of the last one's length still fits *)
  let rec more acc =
    let t0 = elapsed () in
    let r = child_run args in
    let took = elapsed () -. t0 in
    let acc = r :: acc in
    match r with
    | Ok _ when elapsed () +. took <= args.seconds -> more acc
    | _ -> List.rev acc
  in
  let results = more [] in
  let recs = List.filter_map Result.to_option results in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) results
    @ List.concat_map (fun r -> r.errors) recs
    @
    match recs with
    | first :: rest when w.deterministic ->
        List.concat_map
          (fun r -> identity_errors ~what:"repeat run differs" first.identity r.identity)
          rest
    | _ -> []
  in
  let median f = if recs = [] then 0. else Stats.median (List.map f recs) in
  let work_per_s = median (fun r -> float_of_int r.work /. r.wall_s) in
  let metrics =
    [
      ("work_per_s", work_per_s, "1/s");
      ("setup_s", median (fun r -> r.setup_s), "s");
      ("peak_rss_mb", median (fun r -> float_of_int r.peak_kb /. 1024.), "MB");
    ]
  in
  Printf.printf "workload %s  seed %d  runs %d  trace 0  (%d cores)\n" w.name args.seed
    (List.length recs) (Domain.recommended_domain_count ());
  List.iter print_metric metrics;
  print_metric (w.work_name, work_per_s, "1/s");
  List.iter
    (fun r -> Printf.printf "  run: %d in %.3f s, %d steps\n" r.work r.wall_s r.steps)
    recs;
  (match recs with first :: _ -> List.iter print_endline first.details | [] -> ());
  (* a run whose process failed counts as attempted and failed *)
  let lost = List.length results - List.length recs in
  ( errors,
    List.fold_left (fun a r -> a + r.attempted) lost recs,
    List.fold_left (fun a r -> a + r.failed) lost recs,
    metrics )

let per_layer_names =
  [
    ("smr.steps_per_slot", "steps");
    ("smr.msgs_per_slot", "msgs");
    ("smr.ops_per_slot", "ops");
    ("smr.noop_slot_share", "ratio");
    ("smr.open_instances_max", "count");
    ("smr.step.ns_per_call", "ns");
    ("smr.step.self_ns_per_call", "ns");
    ("smr.step.words_per_call", "words");
    ("commit_p50_ticks", "ticks");
    ("commit_p95_ticks", "ticks");
    ("commit_samples", "count");
    ("core.anuc.step.calls", "count");
    ("core.anuc.step.ns_per_call", "ns");
    ("core.anuc.step.words_per_call", "words");
    ("core.anuc.step.calls_per_smr_step", "ratio");
    ("fd.oracle.query.calls", "count");
    ("fd.oracle.query.ns_per_call", "ns");
    ("sim.runner.self_ns_per_step", "ns");
    ("sim.runner.mailbox_hwm", "count");
    ("sim.executor.busy_share", "ratio");
    ("sim.executor.sync_ops", "count");
    ("sim.transport.lock_ops", "count");
    ("sim.transport.cas_retries", "count");
    ("sim.transport.mailbox_hwm", "count");
    ("mc.transitions", "count");
    ("mc.distinct_states", "count");
    ("mc.dedup_hit_ratio", "ratio");
    ("mc.sleep_skipped", "count");
    ("mc.races", "count");
    ("mc.backtracks", "count");
    ("mc.props.ns_per_call", "ns");
    ("mc.self_ns_per_transition", "ns");
    ("mc.rss_bytes_per_state", "B");
    ("explore.steps_per_run", "steps");
    ("explore.distinct_states", "count");
    ("explore.new_states_per_step", "ratio");
    ("explore.trace_dedup_ratio", "ratio");
    ("explore.decided_runs", "count");
    ("explore.self_ns_per_step", "ns");
    ("bench.observer.ns_per_call", "ns");
    ("trace.overhead_share", "ratio");
  ]

(* Span files of traced runs, relative to the checkout root. *)
let trace_dir = "perfbench/out"

let run_traced (w : Workloads.workload) args =
  let plain = (w.prepare ~seed:args.seed ~traced:false) () in
  let origin = Trace.now_ns () in
  let traced = (w.prepare ~seed:args.seed ~traced:true) () in
  let tot = Trace.totals () in
  let errors =
    gate_errors plain @ gate_errors traced
    @ if w.deterministic then identity_errors ~what:"traced run differs" plain.identity traced.identity else []
  in
  let acc k = Trace.get tot k in
  let per_call (a : Trace.acc) x = if a.calls = 0 then 0. else float_of_int x /. float_of_int a.calls in
  let ns_per k = per_call (acc k) (acc k).ns in
  let smr = acc Trace.Smr_step and anuc = acc Trace.Anuc_step in
  let wall_ns = traced.wall_s *. 1e9 in
  let timed =
    [
      ("smr.step.ns_per_call", ns_per Trace.Smr_step);
      ("smr.step.self_ns_per_call", per_call smr smr.self_ns);
      ("smr.step.words_per_call", per_call smr smr.words);
      ("core.anuc.step.calls", float_of_int anuc.calls);
      ("core.anuc.step.ns_per_call", ns_per Trace.Anuc_step);
      ("core.anuc.step.words_per_call", per_call anuc anuc.words);
      ( "core.anuc.step.calls_per_smr_step",
        if smr.calls = 0 then 0. else float_of_int anuc.calls /. float_of_int smr.calls );
      ("fd.oracle.query.calls", float_of_int (acc Trace.Oracle_query).calls);
      ("fd.oracle.query.ns_per_call", ns_per Trace.Oracle_query);
      ("bench.observer.ns_per_call", ns_per Trace.Observer);
      ("mc.props.ns_per_call", ns_per Trace.Props);
      ("mc.rss_bytes_per_state", plain.rss_bytes_per_state);
      ("trace.overhead_share", (traced.wall_s /. plain.wall_s) -. 1.);
    ]
    @ (match w.engine with
      | None -> []
      | Some (name, children) ->
          (* the engine's own time: its wall time minus the spans it
             called into *)
          let child = List.fold_left (fun s k -> s + (acc k).ns) 0 children in
          [ (name, (wall_ns -. float_of_int child) /. float_of_int (max 1 traced.step_count)) ])
  in
  let known = timed @ traced.counters @ List.map (fun (k, v, _) -> (k, v)) (commit_metrics traced) in
  let metrics =
    List.map
      (fun (k, unit) -> (k, Option.value (List.assoc_opt k known) ~default:0., unit))
      per_layer_names
  in
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.trace.json" w.name args.seed) in
  (* the root span carries the layer totals; slot spans hang off it *)
  let layer_args =
    List.concat_map
      (fun k ->
        let a = acc k in
        if a.calls = 0 then []
        else
          let n = Trace.name k in
          [ (n ^ ".calls", a.calls); (n ^ ".ns", a.ns); (n ^ ".self_ns", a.self_ns) ])
      (Array.to_list Trace.kinds)
  in
  Trace.record
    {
      Trace.sp_name = w.name;
      sp_id = 0;
      sp_parent = -1;
      sp_ts_ns = origin;
      sp_dur_ns = Trace.now_ns () - origin;
      sp_args = traced.identity @ layer_args;
    };
  Trace.write_chrome path ~origin_ns:origin;
  Printf.printf "workload %s  seed %d  trace 1  (%d cores)  spans: %s\n" w.name args.seed
    (Domain.recommended_domain_count ()) path;
  List.iter (fun (k, v) -> Printf.printf "  identity %-24s %d\n" k v) traced.identity;
  List.iter print_metric metrics;
  (errors, plain.attempted + traced.attempted, plain.failed + traced.failed, metrics)

let () =
  let args = parse_args () in
  let w =
    match List.find_opt (fun (w : Workloads.workload) -> w.name = args.workload) Workloads.all with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (%s)\n" args.workload
          (String.concat " | " (List.map (fun (w : Workloads.workload) -> w.name) Workloads.all));
        exit 2
  in
  if args.single then single_run w args;
  let errors, attempted, failed, metrics =
    if args.trace then run_traced w args else run_end_to_end w args
  in
  List.iter (fun e -> Printf.printf "GATE FAILED: %s\n" e) errors;
  let correct = errors = [] in
  let failed = if correct then failed else max 1 failed in
  print_endline (json_result ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
