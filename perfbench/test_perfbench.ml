(* Unit tests of the benchmark's own arithmetic: the percentile rank
   rule, self-time subtraction and the merge of domain-local span
   accumulators. *)

open Perfbench

let sorted m = Array.init m (fun i -> i + 1)

let test_rank_rule () =
  let ok q m = match Stats.percentile ~q (sorted m) with Ok v -> Some v | Error _ -> None in
  Alcotest.(check (option int)) "p95 refused at 199 samples" None (ok 0.95 199);
  Alcotest.(check (option int)) "p95 at 200 samples is rank 190" (Some 190) (ok 0.95 200);
  Alcotest.(check (option int)) "p50 refused at 19 samples" None (ok 0.50 19);
  Alcotest.(check (option int)) "p50 at 20 samples is rank 10" (Some 10) (ok 0.50 20);
  Alcotest.(check (option int)) "p95 at 1000 samples" (Some 950) (ok 0.95 1000);
  Alcotest.(check (option int)) "empty sample refused" None (ok 0.5 0);
  Alcotest.(check (float 0.)) "median of even sample" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

let test_self_time () =
  Alcotest.(check int) "child inside parent" 3 (Trace.self_time ~dur:10 ~child:7);
  Alcotest.(check int) "child longer than parent clamps to 0" 0
    (Trace.self_time ~dur:5 ~child:9);
  Trace.reset ();
  for _ = 1 to 100 do
    let outer = Trace.enter () in
    for _ = 1 to 3 do
      let inner = Trace.enter () in
      ignore (Sys.opaque_identity (Array.make 64 0));
      Trace.leave inner Trace.Anuc_step
    done;
    Trace.leave outer Trace.Smr_step
  done;
  let t = Trace.totals () in
  let outer = Trace.get t Trace.Smr_step and inner = Trace.get t Trace.Anuc_step in
  Alcotest.(check int) "outer calls" 100 outer.calls;
  Alcotest.(check int) "inner calls" 300 inner.calls;
  Alcotest.(check bool) "self time never negative" true (outer.self_ns >= 0 && inner.self_ns >= 0);
  Alcotest.(check int) "a leaf's self time is its duration" inner.ns inner.self_ns;
  Alcotest.(check int) "outer self = outer - children" (outer.ns - inner.ns) outer.self_ns;
  Alcotest.(check int) "inner words: one 65-word block per call" (300 * 65) inner.words;
  Alcotest.(check bool) "outer words include the children's" true (outer.words >= inner.words)

(* [k] leaf spans, each allocating one 9-word block. *)
let spans k =
  for _ = 1 to k do
    let f = Trace.enter () in
    ignore (Sys.opaque_identity (Array.make 8 0));
    Trace.leave f Trace.Props
  done

let test_merge () =
  Trace.reset ();
  spans 1000;
  let single = Trace.get (Trace.totals ()) Trace.Props in
  Trace.reset ();
  let ds = List.init 2 (fun _ -> Domain.spawn (fun () -> spans 500)) in
  List.iter Domain.join ds;
  let merged = Trace.get (Trace.totals ()) Trace.Props in
  Alcotest.(check int) "calls: two domains = one domain" single.calls merged.calls;
  Alcotest.(check int) "words: two domains = one domain" single.words merged.words;
  Trace.compact ();
  let compacted = Trace.get (Trace.totals ()) Trace.Props in
  Alcotest.(check int) "compaction keeps the calls" merged.calls compacted.calls;
  Alcotest.(check int) "compaction keeps the words" merged.words compacted.words;
  Alcotest.(check int) "compaction keeps the time" merged.ns compacted.ns

let () =
  Alcotest.run "perfbench"
    [
      ("stats", [ Alcotest.test_case "percentile rank rule" `Quick test_rank_rule ]);
      ( "trace",
        [
          Alcotest.test_case "self-time subtraction" `Quick test_self_time;
          Alcotest.test_case "domain-local merge" `Quick test_merge;
        ] );
    ]
