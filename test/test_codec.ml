(* Tests for the packed canonical-state codec (lib/mc/codec.ml +
   Mc.Make.Packed) and the campaign checkpoint machinery: varint and
   container round-trips, pool interning (deep-hash collisions
   included), packed encode/decode as verified inverses over sampled
   reachable configs, the incremental encode against the from-scratch
   one, crafted hash collisions through the packed striped table
   (spill included), a cross-commit golden of a DPOR campaign's pools
   and packed keys, and kill/resume equality of checkpointed mc
   campaigns. *)
open Procset

module M_anuc = Mc.Make (Core.Anuc)

(* -------------------------------------------------------------- *)
(* Varints                                                        *)
(* -------------------------------------------------------------- *)

let varint_round_trip n =
  let buf = Buffer.create 16 in
  Mc.Codec.write_varint buf n;
  let b = Buffer.to_bytes buf in
  let pos = ref 0 in
  let n' = Mc.Codec.read_varint b pos in
  n' = n && !pos = Bytes.length b

let test_varint_units () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "varint %d round-trips" n)
        true (varint_round_trip n))
    [ 0; 1; 127; 128; 129; 16383; 16384; 1 lsl 30; max_int ];
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Codec.write_varint: negative") (fun () ->
      Mc.Codec.write_varint (Buffer.create 4) (-1))

let test_varint_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"varint round-trip" ~count:500
       QCheck.(int_bound max_int)
       varint_round_trip)

let test_varint_concatenation () =
  (* several varints written back to back read out in order — the
     packed encoding is one long varint sequence *)
  let ns = [ 0; 300; 7; 128; 99999; 1 ] in
  let buf = Buffer.create 32 in
  List.iter (Mc.Codec.write_varint buf) ns;
  let b = Buffer.to_bytes buf in
  let pos = ref 0 in
  let ns' = List.map (fun _ -> Mc.Codec.read_varint b pos) ns in
  Alcotest.(check (list int)) "sequence round-trips" ns ns';
  Alcotest.(check int) "all bytes consumed" (Bytes.length b) !pos

(* -------------------------------------------------------------- *)
(* Hashing                                                        *)
(* -------------------------------------------------------------- *)

let test_bytes_hash () =
  let b = Bytes.of_string "packed state" in
  Alcotest.(check int)
    "deterministic" (Mc.Codec.bytes_hash b) (Mc.Codec.bytes_hash b);
  Alcotest.(check bool) "nonnegative" true (Mc.Codec.bytes_hash b >= 0);
  let b' = Bytes.copy b in
  Bytes.set b' (Bytes.length b' - 1) 'f';
  Alcotest.(check bool)
    "last byte matters" false
    (Mc.Codec.bytes_hash b = Mc.Codec.bytes_hash b')

(* -------------------------------------------------------------- *)
(* Pools                                                          *)
(* -------------------------------------------------------------- *)

let test_pool () =
  let p = Mc.Codec.Pool.create () in
  let i0 = Mc.Codec.Pool.intern p "a" in
  let i1 = Mc.Codec.Pool.intern p "b" in
  let i0' = Mc.Codec.Pool.intern p "a" in
  Alcotest.(check int) "first index 0" 0 i0;
  Alcotest.(check int) "second index 1" 1 i1;
  Alcotest.(check int) "re-intern returns the same index" i0 i0';
  Alcotest.(check int) "length counts distinct" 2 (Mc.Codec.Pool.length p);
  Alcotest.(check string) "get inverts" "b" (Mc.Codec.Pool.get p i1);
  let q = Mc.Codec.Pool.import (Mc.Codec.Pool.export p) in
  Alcotest.(check int) "import preserves length" 2 (Mc.Codec.Pool.length q);
  Alcotest.(check string) "import preserves indices" "a"
    (Mc.Codec.Pool.get q 0);
  Alcotest.(check int) "import preserves forward map" 1
    (Mc.Codec.Pool.intern q "b");
  Alcotest.check_raises "bad index rejected"
    (Invalid_argument "Codec.Pool.get: bad index") (fun () ->
      ignore (Mc.Codec.Pool.get p 2))

(* Two values that agree on every word the deep hash reads (it stops
   after 150 meaningful words) and differ only behind them share a
   hash, so the pool's structural-equality backstop alone keeps them
   apart. *)
let test_pool_collision_backstop () =
  let a = List.init 200 Fun.id in
  let b = List.init 200 (fun i -> if i = 199 then -1 else i) in
  Alcotest.(check int)
    "deep hashes collide"
    (Hashtbl.hash_param 150 600 a)
    (Hashtbl.hash_param 150 600 b);
  let p = Mc.Codec.Pool.create () in
  let ia = Mc.Codec.Pool.intern p a in
  let ib = Mc.Codec.Pool.intern p b in
  Alcotest.(check bool) "distinct indices" true (ia <> ib);
  Alcotest.(check int) "re-intern finds the first" ia
    (Mc.Codec.Pool.intern p a);
  Alcotest.(check int) "re-intern finds the second" ib
    (Mc.Codec.Pool.intern p b);
  Alcotest.(check bool) "get inverts both" true
    (Mc.Codec.Pool.get p ia = a && Mc.Codec.Pool.get p ib = b);
  let exported = Mc.Codec.Pool.export p in
  Alcotest.(check bool) "export in index order" true
    (exported.(ia) = a && exported.(ib) = b);
  let q = Mc.Codec.Pool.import exported in
  Alcotest.(check (list int))
    "import keeps both indices" [ ia; ib ]
    [ Mc.Codec.Pool.intern q a; Mc.Codec.Pool.intern q b ];
  Alcotest.(check int) "import adds nothing" 2 (Mc.Codec.Pool.length q)

(* -------------------------------------------------------------- *)
(* Container                                                      *)
(* -------------------------------------------------------------- *)

let with_temp f =
  let path = Filename.temp_file "nuc_codec" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_container_round_trip () =
  with_temp (fun path ->
      let v = ([ 1; 2; 3 ], "payload", Some 4.5) in
      Mc.Codec.write_file ~path ~version:3 v;
      match Mc.Codec.read_file ~path ~version:3 with
      | Ok v' ->
        Alcotest.(check bool) "value round-trips" true (v = v')
      | Error e -> Alcotest.failf "read: %s" (Mc.Codec.error_to_string e))

let test_container_bad_magic () =
  with_temp (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTACKPT and then some bytes";
      close_out oc;
      match Mc.Codec.read_file ~path ~version:1 with
      | Error Mc.Codec.Bad_magic -> ()
      | Ok _ -> Alcotest.fail "bad magic accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Mc.Codec.error_to_string e))

let test_container_bad_version () =
  with_temp (fun path ->
      Mc.Codec.write_file ~path ~version:7 "x";
      match Mc.Codec.read_file ~path ~version:8 with
      | Error (Mc.Codec.Bad_version 7) -> ()
      | Ok _ -> Alcotest.fail "wrong version accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Mc.Codec.error_to_string e))

let flip_byte path i =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let i = if i < 0 then len + i else i in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_container_corrupt_payload () =
  with_temp (fun path ->
      Mc.Codec.write_file ~path ~version:1 [ "some"; "payload"; "value" ];
      flip_byte path (-1);
      match Mc.Codec.read_file ~path ~version:1 with
      | Error (Mc.Codec.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "corrupt payload accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Mc.Codec.error_to_string e))

let test_container_truncated () =
  with_temp (fun path ->
      Mc.Codec.write_file ~path ~version:1 (Array.init 100 string_of_int);
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let b = Bytes.create (len / 2) in
      really_input ic b 0 (len / 2);
      close_in ic;
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match Mc.Codec.read_file ~path ~version:1 with
      | Error (Mc.Codec.Corrupt _) -> ()
      | Ok _ -> Alcotest.fail "truncated file accepted"
      | Error e -> Alcotest.failf "wrong error: %s" (Mc.Codec.error_to_string e))

(* -------------------------------------------------------------- *)
(* Packed encode/decode round-trip over reachable configs          *)
(* -------------------------------------------------------------- *)

(* The E11 universe (see test_mc.ml), plus its lossy variant so the
   round-trip battery covers drop-perturbed channels and every
   detector-menu value in the family. *)
let n = 3
let faulty = Pset.singleton 2
let proposals p = if Pset.mem p faulty then 1 else 0

let packed pool cfg = M_anuc.Packed.(bytes (encode pool cfg))

(* A deterministic random walk of [steps] moves from the initial
   config, collecting every config on the way. *)
let walk_configs ~menu ~lossy ~steps seed =
  let menus = Array.init n (fun p -> menu.Mc.Menu.values p) in
  let rng = Random.State.make [| seed |] in
  let cfg = ref (M_anuc.Space.initial ~n ~inputs:proposals) in
  let acc = ref [ !cfg ] in
  (try
     for _ = 1 to steps do
       match M_anuc.Space.enabled ~n ~delivery:`Fifo ~lossy ~menus !cfg with
       | [] -> raise Exit
       | moves ->
         let mv = List.nth moves (Random.State.int rng (List.length moves)) in
         cfg := M_anuc.Space.apply ~n !cfg mv;
         acc := !cfg :: !acc
     done
   with Exit -> ());
  !acc

let round_trip_walk ~menu ~lossy seed =
  let pool = M_anuc.Packed.create ~n in
  List.for_all
    (fun cfg ->
      let b = packed pool cfg in
      let cfg' = M_anuc.Packed.decode pool b in
      M_anuc.Space.equal cfg cfg'
      (* hash stability: re-encoding yields the same bytes, hence the
         same FNV hash — the memo key is reproducible *)
      && Bytes.equal b (packed pool cfg)
      && Mc.Codec.bytes_hash b = Mc.Codec.bytes_hash (packed pool cfg'))
    (walk_configs ~menu ~lossy ~steps:25 seed)

let test_packed_round_trip_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decode∘encode = id on walks (contamination)"
       ~count:60 QCheck.small_nat
       (round_trip_walk
          ~menu:(Mc.Menu.contamination ~plus:true ~n ~faulty ())
          ~lossy:false))

let test_packed_round_trip_lossy_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"decode∘encode = id on lossy walks" ~count:60
       QCheck.small_nat
       (round_trip_walk ~menu:(Mc.Menu.lossy ~plus:true ~n ~faulty ()) ~lossy:true))

let test_packed_injective () =
  (* distinct configs (by Space.equal) pack to distinct bytes, equal
     configs to equal bytes — Bytes.equal on packed = config equality *)
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let pool = M_anuc.Packed.create ~n in
  let configs = walk_configs ~menu ~lossy:false ~steps:40 11 in
  let pairs = List.map (fun c -> (c, packed pool c)) configs in
  List.iter
    (fun (c1, b1) ->
      List.iter
        (fun (c2, b2) ->
          Alcotest.(check bool)
            "Bytes.equal iff Space.equal"
            (M_anuc.Space.equal c1 c2)
            (Bytes.equal b1 b2))
        pairs)
    pairs

let test_packed_decode_rejects_garbage () =
  let pool = M_anuc.Packed.create ~n in
  (* any index is out of range for an empty pool *)
  let buf = Buffer.create 8 in
  List.iter (Mc.Codec.write_varint buf) [ 5; 0; 0 ];
  match M_anuc.Packed.decode pool (Buffer.to_bytes buf) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "garbage bytes decoded"

(* -------------------------------------------------------------- *)
(* Incremental encode                                              *)
(* -------------------------------------------------------------- *)

(* [encode ~parent] against the parent-less [encode] at every enabled
   move of random A_nuc walks: n = 3..5; contamination, lossy and
   omega_sigma_nu_plus menus, so drops occur; FIFO and any delivery,
   so a receive can take a message from behind a channel's head. Two
   pools see the same configs: [inc] encodes each child from its
   parent, [scr] from scratch. Their bytes must agree move by move and
   their exports at the end, which pins the order indices are
   assigned in. On [inc] itself the parent-less encode must give the
   same bytes, and so must a parent that is a deep copy: it shares no
   slot physically, so every slot takes the intern fallback. *)
let incremental_encode_agrees (seed, n, menu_ix, fifo) =
  let rng = Random.State.make [| 0xC0DE; seed; n; menu_ix |] in
  let faulty = Pset.of_list (List.init ((n - 1) / 2) (fun i -> n - 1 - i)) in
  let menu =
    List.nth
      [
        Mc.Menu.contamination ~plus:true ~n ~faulty ();
        Mc.Menu.lossy ~plus:true ~n ~faulty ();
        Mc.Menu.omega_sigma_nu_plus ~n ~faulty;
      ]
      menu_ix
  in
  let delivery = if fifo then `Fifo else `Any in
  let menus = Array.init n (fun p -> menu.Mc.Menu.values p) in
  let inputs = Array.init n (fun _ -> Random.State.int rng 2) in
  let inc = M_anuc.Packed.create ~n and scr = M_anuc.Packed.create ~n in
  let ok = ref true in
  let same im b =
    if not (Bytes.equal (M_anuc.Packed.bytes im) b) then ok := false
  in
  let rec go cfg im k =
    let copy : M_anuc.Space.config =
      Marshal.from_string (Marshal.to_string cfg []) 0
    in
    let children =
      List.map
        (fun mv ->
          let child = M_anuc.Space.apply ~n cfg mv in
          let ic = M_anuc.Packed.encode ~parent:(cfg, im) inc child in
          same ic (packed scr child);
          same ic (packed inc child);
          same (M_anuc.Packed.encode ~parent:(copy, im) inc child)
            (M_anuc.Packed.bytes ic);
          (child, ic))
        (M_anuc.Space.enabled ~n ~delivery ~lossy:menu.Mc.Menu.lossy ~menus
           cfg)
    in
    if k > 0 && children <> [] then
      let child, ic =
        List.nth children (Random.State.int rng (List.length children))
      in
      go child ic (k - 1)
  in
  let root = M_anuc.Space.initial ~n ~inputs:(Array.get inputs) in
  let im = M_anuc.Packed.encode inc root in
  same im (packed scr root);
  go root im 20;
  !ok && M_anuc.Packed.export_pools inc = M_anuc.Packed.export_pools scr

let test_incremental_encode_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"encode ~parent = encode, same pool growth"
       ~count:40
       QCheck.(quad small_nat (int_range 3 5) (int_bound 2) bool)
       incremental_encode_agrees)

(* -------------------------------------------------------------- *)
(* Crafted hash collisions through the packed striped table        *)
(* -------------------------------------------------------------- *)

module Bkey = struct
  type t = Bytes.t

  let equal = Bytes.equal
end

module Striped_bytes = Mc.Intern.Striped (Bkey)

let collide b = Mc.Intern.hashed (fun (_ : Bytes.t) -> 42) b

let test_striped_collisions_distinct () =
  let t = Striped_bytes.create 16 in
  let k1 = collide (Bytes.of_string "state one") in
  let k2 = collide (Bytes.of_string "state two") in
  let _, fresh1 = Striped_bytes.intern t k1 (fun id -> id) in
  let v2, fresh2 = Striped_bytes.intern t k2 (fun id -> id) in
  let v1, fresh1' = Striped_bytes.intern t k1 (fun id -> id) in
  Alcotest.(check bool) "first insert fresh" true fresh1;
  Alcotest.(check bool) "collider still fresh" true fresh2;
  Alcotest.(check bool) "re-probe not fresh" false fresh1';
  Alcotest.(check bool) "distinct ids" true (v1 <> v2);
  Alcotest.(check int) "both counted" 2 (Striped_bytes.length t)

let test_striped_collisions_through_spill () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nuc_spill_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let t = Striped_bytes.create 16 in
      Striped_bytes.set_spill_dir t dir;
      let k1 = collide (Bytes.of_string "spilled state") in
      let k2 = collide (Bytes.of_string "colliding probe") in
      ignore (Striped_bytes.intern t k1 (fun id -> id));
      Striped_bytes.spill t;
      (* a collision against a spilled key must reload, not conflate *)
      let _, fresh2 = Striped_bytes.intern t k2 (fun id -> id) in
      let _, fresh1 = Striped_bytes.intern t k1 (fun id -> id) in
      Alcotest.(check bool) "collider fresh after spill" true fresh2;
      Alcotest.(check bool) "spilled key found again" false fresh1;
      Alcotest.(check int) "both counted" 2 (Striped_bytes.length t);
      let exported = Striped_bytes.export t in
      Alcotest.(check int) "export sees both" 2 (Array.length exported))

(* -------------------------------------------------------------- *)
(* Checkpoint / resume of mc campaigns                             *)
(* -------------------------------------------------------------- *)

let run_anuc ?max_states ?checkpoint ?resume ~depth () =
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (2, depth + 1) ] in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let props =
    M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_anuc.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  M_anuc.run ~n ~menu ~depth ~inputs:proposals ~props ~stop ?max_states
    ?checkpoint ?resume ()

let test_checkpoint_resume_equality () =
  with_temp (fun path ->
      let depth = 8 in
      let straight = run_anuc ~depth () in
      let truncated =
        run_anuc ~depth ~max_states:500 ~checkpoint:(path, 100) ()
      in
      Alcotest.(check bool)
        "segment truncated" true truncated.M_anuc.stats.Mc.truncated;
      Alcotest.(check bool)
        "segment saw fewer states" true
        (truncated.M_anuc.stats.Mc.distinct_states
        < straight.M_anuc.stats.Mc.distinct_states);
      let resumed = run_anuc ~depth ~resume:path ~checkpoint:(path, 100) () in
      Alcotest.(check bool)
        "resumed not truncated" false resumed.M_anuc.stats.Mc.truncated;
      Alcotest.(check bool)
        "resumed verdict matches straight" true
        (resumed.M_anuc.violation = None && straight.M_anuc.violation = None);
      Alcotest.(check int)
        "resumed distinct states match straight"
        straight.M_anuc.stats.Mc.distinct_states
        resumed.M_anuc.stats.Mc.distinct_states)

let test_checkpoint_max_states_cumulative () =
  with_temp (fun path ->
      let depth = 8 in
      let seg1 = run_anuc ~depth ~max_states:500 ~checkpoint:(path, 100) () in
      Alcotest.(check bool)
        "first segment truncated" true seg1.M_anuc.stats.Mc.truncated;
      (* resuming under the same budget must truncate immediately:
         the imported watermark already exceeds it *)
      let seg2 =
        run_anuc ~depth ~max_states:500 ~resume:path ~checkpoint:(path, 100) ()
      in
      Alcotest.(check bool)
        "resumed segment still truncated" true seg2.M_anuc.stats.Mc.truncated;
      Alcotest.(check int)
        "no fresh exploration under an exhausted budget"
        seg1.M_anuc.stats.Mc.distinct_states
        seg2.M_anuc.stats.Mc.distinct_states)

let test_checkpoint_corrupt_rejected () =
  with_temp (fun path ->
      let depth = 8 in
      ignore (run_anuc ~depth ~max_states:500 ~checkpoint:(path, 100) ());
      flip_byte path (-1);
      match run_anuc ~depth ~resume:path () with
      | exception Mc.Resume_rejected (Mc.Codec.Corrupt _) -> ()
      | exception Mc.Resume_rejected e ->
        Alcotest.failf "wrong rejection: %s" (Mc.Codec.error_to_string e)
      | _ -> Alcotest.fail "corrupt checkpoint accepted")

let test_checkpoint_params_mismatch () =
  with_temp (fun path ->
      ignore (run_anuc ~depth:8 ~max_states:500 ~checkpoint:(path, 100) ());
      match run_anuc ~depth:7 ~resume:path () with
      | exception Mc.Resume_rejected (Mc.Codec.Params_mismatch _) -> ()
      | exception Mc.Resume_rejected e ->
        Alcotest.failf "wrong rejection: %s" (Mc.Codec.error_to_string e)
      | _ -> Alcotest.fail "campaign fingerprint mismatch accepted")

let test_checkpoint_completed_campaign () =
  with_temp (fun path ->
      let depth = 7 in
      let straight = run_anuc ~depth () in
      (* a campaign that completes writes a final checkpoint; resuming
         it finds no pending work and reproduces the verdict *)
      let finished = run_anuc ~depth ~checkpoint:(path, 1_000) () in
      Alcotest.(check int)
        "checkpointed run matches straight"
        straight.M_anuc.stats.Mc.distinct_states
        finished.M_anuc.stats.Mc.distinct_states;
      let resumed = run_anuc ~depth ~resume:path () in
      Alcotest.(check int)
        "resumed completed campaign reproduces distinct states"
        straight.M_anuc.stats.Mc.distinct_states
        resumed.M_anuc.stats.Mc.distinct_states;
      Alcotest.(check bool)
        "no violation on resume" true (resumed.M_anuc.violation = None))

(* -------------------------------------------------------------- *)
(* Cross-commit golden                                             *)
(* -------------------------------------------------------------- *)

(* An E_1(3) contamination-menu DPOR campaign pinned to figures
   recorded before the encoder became incremental: the sequential
   walker's counters (its no-op memo is keyed by pool index, so
   [self_loops] pins it too), and the checkpointed walker's counters,
   pool lengths, and MD5s of its exported pools and sorted packed
   keys — so a change to the bytes a state packs to, or to the order
   pool indices are assigned in, fails here. A change that
   legitimately moves them must say why and re-record them. *)

(* The record [run ~checkpoint] writes, field for field; only the
   pools and the visited keys are read. A checkpoint written before
   this pin must still resume, so the layout is part of it. *)
type golden_ckpt = {
  g_fp : Obj.t;
  g_states : Core.Anuc.state array;
  g_msgs : Core.Anuc.message array;
  g_visited : (int * Bytes.t * Obj.t) array;
  g_tasks : Obj.t;
  g_next : int;
  g_counts : int array;
}

let golden_run ?checkpoint () =
  let depth = 7 in
  let pattern = Sim.Failure_pattern.make ~n ~crashes:[ (2, depth + 1) ] in
  let menu = Mc.Menu.contamination ~plus:true ~n ~faulty () in
  let props =
    M_anuc.consensus_props ~decision:Core.Anuc.decision ~proposals
      ~flavour:Consensus.Spec.Nonuniform ~pattern
  in
  let stop =
    M_anuc.decided_stop ~decision:Core.Anuc.decision
      ~scope:(Sim.Failure_pattern.correct pattern)
  in
  M_anuc.run ~reduction:Mc.Dpor ~n ~menu ~depth ~inputs:proposals ~props
    ~stop ?checkpoint ()

let golden_counters (s : Mc.stats) =
  [
    s.Mc.transitions; s.Mc.distinct_states; s.Mc.self_loops;
    s.Mc.sleep_skipped; s.Mc.races; s.Mc.backtracks;
  ]

let test_golden_dpor_campaign () =
  let seq = golden_run () in
  Alcotest.(check (list int))
    "sequential (transitions, states, self-loops, sleep-skipped, races, \
     backtracks)"
    [ 19534; 10332; 13409; 18545; 26607; 8994 ]
    (golden_counters seq.M_anuc.stats);
  with_temp (fun path ->
      let ck = golden_run ~checkpoint:(path, max_int) () in
      Alcotest.(check (list int))
        "checkpointed (transitions, states, self-loops, sleep-skipped, \
         races, backtracks)"
        [ 18503; 10332; 12777; 17572; 25026; 8310 ]
        (golden_counters ck.M_anuc.stats);
      match (Mc.Codec.read_file ~path ~version:1 : (golden_ckpt, _) result) with
      | Error e -> Alcotest.failf "read: %s" (Mc.Codec.error_to_string e)
      | Ok c ->
        let md5 v = Digest.to_hex (Digest.string v) in
        let keys =
          List.sort Bytes.compare
            (Array.to_list (Array.map (fun (_, b, _) -> b) c.g_visited))
        in
        Alcotest.(check (list int))
          "pool lengths (states, messages), visited keys" [ 324; 16; 10332 ]
          [ Array.length c.g_states; Array.length c.g_msgs; List.length keys ];
        Alcotest.(check string)
          "MD5 of the exported pools" "bf218930dc02db0fe49a428d7b907846"
          (md5
             (Marshal.to_string (c.g_states, c.g_msgs) [ Marshal.No_sharing ]));
        Alcotest.(check string)
          "MD5 of the sorted packed keys" "3334aa4700c3b916dab89667ef1b717f"
          (md5
             (String.concat ""
                (List.map
                   (fun b ->
                     Printf.sprintf "%d:%s" (Bytes.length b) (Bytes.to_string b))
                   keys))))

let () =
  Alcotest.run "codec"
    [
      ( "varint",
        [
          Alcotest.test_case "unit round-trips" `Quick test_varint_units;
          test_varint_qcheck;
          Alcotest.test_case "concatenated sequence" `Quick
            test_varint_concatenation;
        ] );
      ( "hash",
        [ Alcotest.test_case "FNV over all bytes" `Quick test_bytes_hash ] );
      ( "pool",
        [
          Alcotest.test_case "intern/get/export/import" `Quick test_pool;
          Alcotest.test_case "deep-hash collisions keep distinct indices"
            `Quick test_pool_collision_backstop;
        ] );
      ( "container",
        [
          Alcotest.test_case "round-trip" `Quick test_container_round_trip;
          Alcotest.test_case "bad magic" `Quick test_container_bad_magic;
          Alcotest.test_case "bad version" `Quick test_container_bad_version;
          Alcotest.test_case "corrupt payload" `Quick
            test_container_corrupt_payload;
          Alcotest.test_case "truncated file" `Quick test_container_truncated;
        ] );
      ( "packed",
        [
          test_packed_round_trip_qcheck;
          test_packed_round_trip_lossy_qcheck;
          Alcotest.test_case "injective wrt Space.equal" `Quick
            test_packed_injective;
          Alcotest.test_case "garbage bytes rejected" `Quick
            test_packed_decode_rejects_garbage;
          test_incremental_encode_qcheck;
        ] );
      ( "collisions",
        [
          Alcotest.test_case "crafted collisions stay distinct" `Quick
            test_striped_collisions_distinct;
          Alcotest.test_case "collisions through spill" `Quick
            test_striped_collisions_through_spill;
        ] );
      ( "golden",
        [
          Alcotest.test_case "A_nuc DPOR campaign matches its golden" `Quick
            test_golden_dpor_campaign;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill/resume reproduces straight run" `Quick
            test_checkpoint_resume_equality;
          Alcotest.test_case "max-states cumulative across segments" `Quick
            test_checkpoint_max_states_cumulative;
          Alcotest.test_case "corrupt checkpoint rejected" `Quick
            test_checkpoint_corrupt_rejected;
          Alcotest.test_case "campaign fingerprint mismatch rejected" `Quick
            test_checkpoint_params_mismatch;
          Alcotest.test_case "completed campaign resumable" `Quick
            test_checkpoint_completed_campaign;
        ] );
    ]
