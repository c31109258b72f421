(* Tests for the supervised batch driver and the serving daemon: the
   wire protocol (roundtrip, garbage detection), process-fault parsing
   and targeting, the crash-safe journal (replay, torn tails,
   first-wins), the supervisor's injection matrix (hang/segv/garbage/oom
   x retry budgets) and its refusal of rules that fail lint, the worker
   pool's crash-loop limit and recycling, resume after a simulated
   mid-batch kill, the batch == sequential byte-identity property; then the content-addressed
   result cache (key sensitivity, LRU, disk roundtrip, corruption
   tolerance), the shared disk-cache layer (LRU pruning, size cap,
   verdict/result coexistence), and a live dialegg-serve daemon
   end-to-end: cold/warm byte-identity, warm-across-restart, bounded
   admission, deadline propagation, the injected daemon fault matrix
   (cache-corrupt, mid-drain-kill), SIGHUP reload, heartbeats with
   recycling, and the warm == cold QCheck property. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dialegg-serve-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* ------------------------------------------------------------------ *)
(* Fixtures: a rule with a real effect, so optimized != identity       *)
(* ------------------------------------------------------------------ *)

let div_rule =
  {|
(rule ((= ?lhs (arith_divsi ?x
                 (arith_constant (NamedAttr "value" (IntegerAttr ?n ?t)) ?t) ?t))
       (= ?k (log2 ?n))
       (= (pow 2 ?k) ?n))
      ((union ?lhs
         (arith_shrsi ?x
           (arith_constant (NamedAttr "value" (IntegerAttr ?k ?t)) ?t) ?t))))
|}

let div_src n name =
  Printf.sprintf
    "func.func @%s(%%x: i64) -> i64 {\n\
    \  %%c = arith.constant %d : i64\n\
    \  %%r = arith.divsi %%x, %%c : i64\n\
    \  func.return %%r : i64\n\
     }\n"
    name n

let add_src name =
  Printf.sprintf
    "func.func @%s(%%x: i64, %%y: i64) -> i64 {\n\
    \  %%r = arith.addi %%x, %%y : i64\n\
    \  func.return %%r : i64\n\
     }\n"
    name

let pipeline_config = { Dialegg.Pipeline.default_config with rules = div_rule }

(* input dir with 4 jobs: three rewritable, one untouched by the rule *)
let make_input_dir () =
  let d = fresh_dir () in
  write_file (Filename.concat d "a.mlir") (div_src 256 "a");
  write_file (Filename.concat d "b.mlir") (div_src 16 "b");
  write_file (Filename.concat d "c.mlir") (add_src "c");
  write_file (Filename.concat d "d.mlir") (div_src 1024 "d");
  d

let sequential src =
  fst (Dialegg.Pipeline.optimize_source ~config:pipeline_config src)

let batch_config ?(retries = 1) ?(pool = 2) ?(faults = []) ?journal_path
    ?(resume = false) ?(job_timeout = 10.) ?(grace = 0.3) () =
  {
    Serve.Supervisor.default_config with
    pool;
    retries;
    job_timeout;
    grace;
    backoff = 0.01;
    pipeline = pipeline_config;
    faults;
    journal_path;
    resume;
  }

let outcome_label = function
  | Serve.Supervisor.J_optimized _ -> "optimized"
  | Serve.Supervisor.J_identity _ -> "identity"
  | Serve.Supervisor.J_failed _ -> "failed"
  | Serve.Supervisor.J_resumed _ -> "resumed"

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let roundtrip msg =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      Serve.Protocol.write_message w msg;
      Unix.set_nonblock r;
      Serve.Protocol.poll (Serve.Protocol.reader r))

let test_protocol_roundtrip () =
  let rq =
    {
      Serve.Protocol.rq_id = "a.mlir";
      rq_attempt = 2;
      rq_input = Serve.Protocol.J_file "/tmp/a.mlir";
      rq_config = pipeline_config;
      rq_fault = Some Dialegg.Faults.W_hang;
    }
  in
  (match roundtrip (Serve.Protocol.M_request rq) with
  | Serve.Protocol.Msg (Serve.Protocol.M_request rq') ->
    checks "id" rq.Serve.Protocol.rq_id rq'.Serve.Protocol.rq_id;
    checki "attempt" rq.Serve.Protocol.rq_attempt rq'.Serve.Protocol.rq_attempt;
    checkb "fault" true (rq'.Serve.Protocol.rq_fault = Some Dialegg.Faults.W_hang);
    checks "rules survive the wire" div_rule
      rq'.Serve.Protocol.rq_config.Dialegg.Pipeline.rules
  | _ -> Alcotest.fail "request did not roundtrip");
  let rs =
    {
      Serve.Protocol.rs_id = "a.mlir";
      rs_result = Ok "module {}\n";
      rs_degraded = 1;
    }
  in
  match roundtrip (Serve.Protocol.M_response rs) with
  | Serve.Protocol.Msg (Serve.Protocol.M_response rs') ->
    checkb "response" true (rs' = rs)
  | _ -> Alcotest.fail "response did not roundtrip"

let test_protocol_incomplete_and_eof () =
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  let rd = Serve.Protocol.reader r in
  checkb "empty stream is incomplete" true (Serve.Protocol.poll rd = Serve.Protocol.Incomplete);
  Unix.close w;
  checkb "closed stream is eof" true (Serve.Protocol.poll rd = Serve.Protocol.Eof);
  checkb "eof is stable" true (Serve.Protocol.poll rd = Serve.Protocol.Eof);
  Unix.close r

let test_protocol_garbage () =
  let garbage bytes =
    let r, w = Unix.pipe () in
    Serve.Atomic_io.write_all w bytes;
    Unix.close w;
    Unix.set_nonblock r;
    let rd = Serve.Protocol.reader r in
    let n1 = Serve.Protocol.poll rd in
    let n2 = Serve.Protocol.poll rd in
    Unix.close r;
    (n1, n2)
  in
  (match garbage "!! not a dialegg frame at all, definitely !!" with
  | Serve.Protocol.Garbage _, Serve.Protocol.Garbage _ -> ()
  | _ -> Alcotest.fail "random bytes must be sticky garbage");
  (* a valid frame truncated mid-payload, then EOF *)
  let whole =
    let r, w = Unix.pipe () in
    Serve.Protocol.write_message w
      (Serve.Protocol.M_response
         { Serve.Protocol.rs_id = "x"; rs_result = Ok "y"; rs_degraded = 0 });
    Unix.close w;
    Unix.set_nonblock r;
    let buf = Bytes.create 65536 in
    let n = Unix.read r buf 0 65536 in
    Unix.close r;
    Bytes.sub_string buf 0 n
  in
  (match garbage (String.sub whole 0 (String.length whole - 2)) with
  | Serve.Protocol.Garbage _, _ -> ()
  | _ -> Alcotest.fail "truncated frame + eof must be garbage");
  (* a frame from a future protocol version *)
  let future = Bytes.of_string whole in
  Bytes.set future 4 '\x63';
  match garbage (Bytes.to_string future) with
  | Serve.Protocol.Garbage _, _ -> ()
  | _ -> Alcotest.fail "future version must be garbage"

(* ------------------------------------------------------------------ *)
(* Process-fault parsing and targeting                                 *)
(* ------------------------------------------------------------------ *)

let test_proc_fault_parse () =
  (match Dialegg.Faults.parse_proc "a.mlir:worker-hang" with
  | Ok f ->
    checks "job" "a.mlir" f.Dialegg.Faults.pf_job;
    checkb "kind" true (f.Dialegg.Faults.pf_kind = Dialegg.Faults.W_hang);
    checkb "persistent" true (f.Dialegg.Faults.pf_first = None)
  | Error e -> Alcotest.fail e);
  (match Dialegg.Faults.parse_proc "@f:worker-segv:2" with
  | Ok f ->
    checkb "first two attempts" true (f.Dialegg.Faults.pf_first = Some 2)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Dialegg.Faults.parse_proc s with
      | Ok _ -> Alcotest.fail ("accepted bad spec " ^ s)
      | Error _ -> ())
    [ ""; "a.mlir"; "a.mlir:busted"; "a.mlir:worker-hang:0"; "a.mlir:worker-hang:x" ]

let test_proc_fault_matching () =
  let fs =
    [
      { Dialegg.Faults.pf_job = "a"; pf_kind = Dialegg.Faults.W_oom; pf_first = Some 1 };
      { Dialegg.Faults.pf_job = "b"; pf_kind = Dialegg.Faults.W_hang; pf_first = None };
    ]
  in
  checkb "first attempt fires" true
    (Dialegg.Faults.proc_matches fs ~job:"a" ~attempt:0 = Some Dialegg.Faults.W_oom);
  checkb "retry is clean" true
    (Dialegg.Faults.proc_matches fs ~job:"a" ~attempt:1 = None);
  checkb "persistent fires forever" true
    (Dialegg.Faults.proc_matches fs ~job:"b" ~attempt:7 = Some Dialegg.Faults.W_hang);
  checkb "other jobs untouched" true
    (Dialegg.Faults.proc_matches fs ~job:"c" ~attempt:0 = None)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_replay () =
  let d = fresh_dir () in
  let path = Filename.concat d "journal" in
  let j, completed = Serve.Queue.journal_open ~path ~resume:false in
  checkb "fresh journal is empty" true (completed = []);
  Serve.Queue.log_start j ~id:"a" ~attempt:0;
  Serve.Queue.log_done j ~id:"a" ~outcome:Serve.Queue.O_optimized ~attempts:1 ~bytes:42;
  Serve.Queue.log_start j ~id:"b" ~attempt:0;
  Serve.Queue.log_start j ~id:"b" ~attempt:1;
  Serve.Queue.log_done j ~id:"b" ~outcome:Serve.Queue.O_identity ~attempts:2 ~bytes:7;
  Serve.Queue.journal_close j;
  let j2, completed = Serve.Queue.journal_open ~path ~resume:true in
  Serve.Queue.journal_close j2;
  checki "two completed" 2 (List.length completed);
  let a = List.find (fun e -> e.Serve.Queue.e_id = "a") completed in
  checkb "a optimized" true (a.Serve.Queue.e_outcome = Serve.Queue.O_optimized);
  checki "a bytes" 42 a.Serve.Queue.e_bytes;
  let b = List.find (fun e -> e.Serve.Queue.e_id = "b") completed in
  checkb "b identity after 2 attempts" true
    (b.Serve.Queue.e_outcome = Serve.Queue.O_identity && b.Serve.Queue.e_attempts = 2)

let test_journal_torn_tail () =
  let d = fresh_dir () in
  let path = Filename.concat d "journal" in
  let j, _ = Serve.Queue.journal_open ~path ~resume:false in
  Serve.Queue.log_done j ~id:"a" ~outcome:Serve.Queue.O_optimized ~attempts:1 ~bytes:1;
  Serve.Queue.journal_close j;
  (* simulate a crash mid-append: a record missing its sentinel *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "done\tb\toptimized\t1\t9";
  close_out oc;
  let j2, completed = Serve.Queue.journal_open ~path ~resume:true in
  Serve.Queue.journal_close j2;
  checki "torn record ignored" 1 (List.length completed);
  checks "the intact record survives" "a" (List.hd completed).Serve.Queue.e_id

let test_journal_first_wins () =
  let d = fresh_dir () in
  let path = Filename.concat d "journal" in
  let j, _ = Serve.Queue.journal_open ~path ~resume:false in
  Serve.Queue.log_done j ~id:"a" ~outcome:Serve.Queue.O_optimized ~attempts:1 ~bytes:1;
  Serve.Queue.log_done j ~id:"a" ~outcome:Serve.Queue.O_failed ~attempts:9 ~bytes:0;
  Serve.Queue.journal_close j;
  let j2, completed = Serve.Queue.journal_open ~path ~resume:true in
  Serve.Queue.journal_close j2;
  checki "one entry" 1 (List.length completed);
  checkb "first occurrence wins" true
    ((List.hd completed).Serve.Queue.e_outcome = Serve.Queue.O_optimized)

(* ------------------------------------------------------------------ *)
(* Atomic writes                                                       *)
(* ------------------------------------------------------------------ *)

let test_atomic_write () =
  let d = fresh_dir () in
  let path = Filename.concat d "out.mlir" in
  Serve.Atomic_io.write_atomic ~path "first\n";
  checks "written" "first\n" (read_file path);
  Serve.Atomic_io.write_atomic ~path "second\n";
  checks "overwritten atomically" "second\n" (read_file path);
  (* no temp litter *)
  checki "directory holds only the output" 1 (Array.length (Sys.readdir d))

(* ------------------------------------------------------------------ *)
(* Supervisor: clean batch == sequential, byte for byte                *)
(* ------------------------------------------------------------------ *)

let run_dir ?retries ?pool ?faults ?journal_path ?resume ?job_timeout input_dir
    out_dir =
  let jobs = Serve.Queue.shard_dir ~input_dir ~out_dir in
  Serve.Supervisor.run
    ~config:(batch_config ?retries ?pool ?faults ?journal_path ?resume ?job_timeout ())
    jobs

let check_outputs_match_sequential input_dir out_dir ~except =
  List.iter
    (fun f ->
      if not (List.mem f except) then
        checks (f ^ " batch == sequential")
          (sequential (read_file (Filename.concat input_dir f)))
          (read_file (Filename.concat out_dir f)))
    (List.sort compare
       (List.filter
          (fun f -> Filename.check_suffix f ".mlir")
          (Array.to_list (Sys.readdir input_dir))))

let test_batch_clean () =
  let input = make_input_dir () in
  let out = fresh_dir () in
  let report = run_dir ~pool:3 input out in
  checkb "report ok" true (Serve.Supervisor.report_ok report);
  let o, i, f, s = Serve.Supervisor.counts report in
  checkb "all optimized" true (o = 4 && i = 0 && f = 0 && s = 0);
  check_outputs_match_sequential input out ~except:[];
  (* the rewrite really happened: optimized != input for a.mlir *)
  checkb "rule had an effect" true
    (read_file (Filename.concat out "a.mlir")
    <> Dialegg.Pipeline.identity_source (read_file (Filename.concat input "a.mlir")))

(* ------------------------------------------------------------------ *)
(* Supervisor: the injection matrix                                    *)
(* ------------------------------------------------------------------ *)

let class_matches kind (cls : Serve.Pool.fail_class) =
  match (kind, cls) with
  | Dialegg.Faults.W_hang, Serve.Pool.C_hang -> true
  | Dialegg.Faults.W_segv, Serve.Pool.C_signal s -> s = Sys.sigabrt
  | Dialegg.Faults.W_oom, Serve.Pool.C_signal s -> s = Sys.sigkill
  | Dialegg.Faults.W_garbage, Serve.Pool.C_garbage _ -> true
  (* a garbage worker can also die before its junk is read *)
  | Dialegg.Faults.W_garbage, Serve.Pool.C_nonzero 0 -> true
  | _ -> false

let test_injection_matrix () =
  List.iter
    (fun kind ->
      let input = make_input_dir () in
      let out = fresh_dir () in
      let faults =
        [ { Dialegg.Faults.pf_job = "b.mlir"; pf_kind = kind; pf_first = None } ]
      in
      let report =
        run_dir ~pool:2 ~retries:1 ~faults
          ~job_timeout:(if kind = Dialegg.Faults.W_hang then 0.4 else 10.)
          input out
      in
      let name = Dialegg.Faults.proc_kind_name kind in
      checkb (name ^ ": no outright failures") true
        (Serve.Supervisor.report_ok report);
      List.iter
        (fun jr ->
          let id = jr.Serve.Supervisor.jr_job.Serve.Queue.job_id in
          if id = "b.mlir" then begin
            (match jr.Serve.Supervisor.jr_outcome with
            | Serve.Supervisor.J_identity cls ->
              checkb
                (Printf.sprintf "%s: classified correctly (%s)" name
                   (Serve.Pool.fail_class_name cls))
                true (class_matches kind cls)
            | o ->
              Alcotest.failf "%s: expected identity fallback, got %s" name
                (outcome_label o));
            checki (name ^ ": used the whole retry budget") 2
              jr.Serve.Supervisor.jr_attempts;
            (* the fallback output is exactly parse + re-print *)
            checks (name ^ ": identity bytes")
              (Dialegg.Pipeline.identity_source
                 (read_file (Filename.concat input "b.mlir")))
              (read_file (Filename.concat out "b.mlir"))
          end
          else
            checkb (name ^ ": " ^ id ^ " optimized") true
              (match jr.Serve.Supervisor.jr_outcome with
              | Serve.Supervisor.J_optimized _ -> true
              | _ -> false))
        report.Serve.Supervisor.br_results;
      check_outputs_match_sequential input out ~except:[ "b.mlir" ])
    Dialegg.Faults.all_proc_kinds

let test_fault_once_then_recover () =
  (* the fault fires only on attempt 0: one retry must recover and produce
     the real optimized output, not the fallback *)
  let input = make_input_dir () in
  let out = fresh_dir () in
  let faults =
    [ { Dialegg.Faults.pf_job = "a.mlir"; pf_kind = Dialegg.Faults.W_segv; pf_first = Some 1 } ]
  in
  let report = run_dir ~pool:2 ~retries:2 ~faults input out in
  checkb "report ok" true (Serve.Supervisor.report_ok report);
  let jr =
    List.find
      (fun jr -> jr.Serve.Supervisor.jr_job.Serve.Queue.job_id = "a.mlir")
      report.Serve.Supervisor.br_results
  in
  (match jr.Serve.Supervisor.jr_outcome with
  | Serve.Supervisor.J_optimized _ -> ()
  | o -> Alcotest.failf "expected optimized after recovery, got %s" (outcome_label o));
  checki "recovered on the second attempt" 2 jr.Serve.Supervisor.jr_attempts;
  check_outputs_match_sequential input out ~except:[]

let test_job_error_consumes_retries () =
  (* an unparseable input fails at the job level on every attempt, and even
     the identity fallback is impossible: the job must be J_failed and the
     batch not ok *)
  let input = fresh_dir () in
  write_file (Filename.concat input "bad.mlir") "func.func @broken( {{{\n";
  write_file (Filename.concat input "good.mlir") (div_src 64 "good");
  let out = fresh_dir () in
  let report = run_dir ~pool:2 ~retries:1 input out in
  checkb "batch not ok" false (Serve.Supervisor.report_ok report);
  let bad =
    List.find
      (fun jr -> jr.Serve.Supervisor.jr_job.Serve.Queue.job_id = "bad.mlir")
      report.Serve.Supervisor.br_results
  in
  (match bad.Serve.Supervisor.jr_outcome with
  | Serve.Supervisor.J_failed _ -> ()
  | o -> Alcotest.failf "expected failed, got %s" (outcome_label o));
  checki "all attempts spent" 2 bad.Serve.Supervisor.jr_attempts;
  checkb "no output file for the failed job" false
    (Sys.file_exists (Filename.concat out "bad.mlir"));
  (* the good job is unaffected by its neighbour *)
  checks "good.mlir batch == sequential"
    (sequential (read_file (Filename.concat input "good.mlir")))
    (read_file (Filename.concat out "good.mlir"))

let test_config_tightening () =
  let c =
    { pipeline_config with
      Dialegg.Pipeline.max_iterations = 64;
      max_nodes = 100_000;
      timeout = Some 30.;
      max_memory_mb = Some 64. }
  in
  let c1 = Serve.Pool.config_for_attempt c ~attempt:1 in
  let c2 = Serve.Pool.config_for_attempt c ~attempt:2 in
  checkb "attempt 0 unchanged" true (Serve.Pool.config_for_attempt c ~attempt:0 = c);
  checki "iterations halved" 32 c1.Dialegg.Pipeline.max_iterations;
  checki "nodes halved" 50_000 c1.Dialegg.Pipeline.max_nodes;
  checkb "timeout halved" true (c1.Dialegg.Pipeline.timeout = Some 15.);
  checkb "memory halved" true (c1.Dialegg.Pipeline.max_memory_mb = Some 32.);
  checki "second retry quarters" 16 c2.Dialegg.Pipeline.max_iterations;
  (* floors hold even at absurd attempt counts *)
  let deep = Serve.Pool.config_for_attempt c ~attempt:50 in
  checkb "iteration floor" true (deep.Dialegg.Pipeline.max_iterations >= 1);
  checkb "node floor" true (deep.Dialegg.Pipeline.max_nodes >= 64);
  checkb "time floor" true
    (match deep.Dialegg.Pipeline.timeout with Some t -> t >= 0.05 | None -> false)

(* Rules that fail lint are refused once, by the parent, before any
   worker forks and before any output or journal is written: in a worker
   the lint error would cost each job its attempts and end in identity
   fallbacks. *)
let test_batch_refuses_unlinted_rules () =
  let input = make_input_dir () in
  let out = fresh_dir () in
  let config =
    {
      (batch_config ~journal_path:(Filename.concat out "journal") ()) with
      Serve.Supervisor.pipeline =
        {
          pipeline_config with
          (* test/fixtures/unknown_constructor.egg *)
          Dialegg.Pipeline.rules = "(rewrite (arith_adi ?x ?y ?t) (arith_addi ?y ?x ?t))\n";
          vet = false;
          audit = false;
        };
    }
  in
  match Serve.Supervisor.run ~config (Serve.Queue.shard_dir ~input_dir:input ~out_dir:out) with
  | _ -> Alcotest.fail "rules that fail lint must fail the batch"
  | exception Dialegg.Pipeline.Error m ->
    checkb "the error is lint's" true (contains m "rules failed lint");
    checki "no output and no journal" 0 (Array.length (Sys.readdir out))

(* ------------------------------------------------------------------ *)
(* Resume                                                              *)
(* ------------------------------------------------------------------ *)

let count_done_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = ref 0 in
      (try
         while true do
           let l = input_line ic in
           if String.length l >= 5 && String.sub l 0 5 = "done\t" then incr n
         done
       with End_of_file -> ());
      !n)

let test_resume_after_kill () =
  let input = make_input_dir () in
  let out = fresh_dir () in
  let journal = Filename.concat out "journal" in
  let report = run_dir ~pool:2 ~journal_path:journal input out in
  checkb "first run ok" true (Serve.Supervisor.report_ok report);
  checki "exactly one done record per job" 4 (count_done_lines journal);
  (* simulate a SIGKILL mid-batch: the journal keeps records for two jobs
     plus a torn tail; the other two outputs never made it *)
  let keep = [ "a.mlir"; "c.mlir" ] in
  let lines =
    String.split_on_char '\n' (read_file journal)
    |> List.filter (fun l ->
           not
             (List.exists
                (fun victim -> String.length l > 0 &&
                  (match String.split_on_char '\t' l with
                  | _ :: id :: _ -> id = victim
                  | _ -> false))
                [ "b.mlir"; "d.mlir" ]))
  in
  write_file journal (String.concat "\n" lines);
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 journal in
  output_string oc "done\tb.mlir\topt";
  close_out oc;
  Sys.remove (Filename.concat out "b.mlir");
  Sys.remove (Filename.concat out "d.mlir");
  let report2 = run_dir ~pool:2 ~journal_path:journal ~resume:true input out in
  checkb "resume ok" true (Serve.Supervisor.report_ok report2);
  List.iter
    (fun jr ->
      let id = jr.Serve.Supervisor.jr_job.Serve.Queue.job_id in
      match jr.Serve.Supervisor.jr_outcome with
      | Serve.Supervisor.J_resumed _ ->
        checkb (id ^ " was journaled complete") true (List.mem id keep)
      | Serve.Supervisor.J_optimized _ ->
        checkb (id ^ " was recomputed") true (not (List.mem id keep))
      | o -> Alcotest.failf "%s: unexpected outcome %s" id (outcome_label o))
    report2.Serve.Supervisor.br_results;
  check_outputs_match_sequential input out ~except:[]

let test_resume_redoes_missing_output () =
  (* a journaled-complete job whose output vanished is not trusted *)
  let input = make_input_dir () in
  let out = fresh_dir () in
  let journal = Filename.concat out "journal" in
  ignore (run_dir ~pool:2 ~journal_path:journal input out);
  Sys.remove (Filename.concat out "c.mlir");
  let report = run_dir ~pool:2 ~journal_path:journal ~resume:true input out in
  let _, _, _, resumed = Serve.Supervisor.counts report in
  checki "three resumed, one redone" 3 resumed;
  checkb "output restored" true (Sys.file_exists (Filename.concat out "c.mlir"))

(* ------------------------------------------------------------------ *)
(* Module mode                                                         *)
(* ------------------------------------------------------------------ *)

let two_func_module =
  "module {\n" ^ div_src 256 "f" ^ div_src 16 "g" ^ "}\n"

let test_module_mode_splice () =
  let d = fresh_dir () in
  let path = Filename.concat d "m.mlir" in
  write_file path two_func_module;
  let m = Mlir.Parser.parse_module two_func_module in
  let jobs = Serve.Queue.shard_module ~path m in
  checki "one job per function" 2 (List.length jobs);
  let report = Serve.Supervisor.run ~config:(batch_config ()) jobs in
  checkb "report ok" true (Serve.Supervisor.report_ok report);
  Serve.Supervisor.splice_results m report;
  checks "spliced module == sequential" (sequential two_func_module)
    (Mlir.Printer.module_to_string m)

let test_module_mode_faulted_function_untouched () =
  let d = fresh_dir () in
  let path = Filename.concat d "m.mlir" in
  write_file path two_func_module;
  let m = Mlir.Parser.parse_module two_func_module in
  let jobs = Serve.Queue.shard_module ~path m in
  let faults =
    [ { Dialegg.Faults.pf_job = "@g"; pf_kind = Dialegg.Faults.W_oom; pf_first = None } ]
  in
  let report = Serve.Supervisor.run ~config:(batch_config ~retries:0 ~faults ()) jobs in
  checkb "report ok (identity is not failure)" true (Serve.Supervisor.report_ok report);
  Serve.Supervisor.splice_results m report;
  let printed = Mlir.Printer.module_to_string m in
  (* @g keeps its original divsi; @f got the shift rewrite *)
  checkb "@g untouched" true (contains printed "arith.divsi");
  checkb "@f rewritten" true (contains printed "arith.shrsi")

(* ------------------------------------------------------------------ *)
(* Property: batch == sequential for random pools and file subsets     *)
(* ------------------------------------------------------------------ *)

let test_batch_equals_sequential_prop () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"batch outputs are byte-identical to sequential runs"
       ~count:8
       QCheck.(pair (int_range 1 4) (int_range 1 6))
       (fun (pool, nfiles) ->
         let input = fresh_dir () in
         let divisors = [| 2; 8; 64; 256; 1024; 4096 |] in
         for i = 0 to nfiles - 1 do
           write_file
             (Filename.concat input (Printf.sprintf "f%d.mlir" i))
             (div_src divisors.(i mod Array.length divisors)
                (Printf.sprintf "f%d" i))
         done;
         let out = fresh_dir () in
         let report = run_dir ~pool input out in
         if not (Serve.Supervisor.report_ok report) then
           QCheck.Test.fail_report "batch reported failures";
         for i = 0 to nfiles - 1 do
           let f = Printf.sprintf "f%d.mlir" i in
           let seq = sequential (read_file (Filename.concat input f)) in
           let got = read_file (Filename.concat out f) in
           if seq <> got then QCheck.Test.fail_reportf "%s differs" f
         done;
         true))

(* ------------------------------------------------------------------ *)
(* Result cache: keys, LRU, disk roundtrip, corruption                 *)
(* ------------------------------------------------------------------ *)

let mk_entry ?(degraded = 0) output =
  { Serve.Cache.ce_output = output; ce_degraded = degraded }

let test_cache_key_sensitivity () =
  let src = div_src 256 "f" in
  let k = Serve.Cache.key ~config:pipeline_config ~src in
  checks "deterministic" k (Serve.Cache.key ~config:pipeline_config ~src);
  checkb "source participates" false
    (k = Serve.Cache.key ~config:pipeline_config ~src:(div_src 16 "f"));
  checkb "ruleset participates" false
    (k
    = Serve.Cache.key
        ~config:{ pipeline_config with Dialegg.Pipeline.rules = "" }
        ~src);
  checkb "budgets participate" false
    (k
    = Serve.Cache.key
        ~config:{ pipeline_config with Dialegg.Pipeline.max_iterations = 3 }
        ~src);
  checkb "degradation policy participates" false
    (k
    = Serve.Cache.key
        ~config:
          { pipeline_config with
            Dialegg.Pipeline.on_limit = Dialegg.Pipeline.Identity }
        ~src);
  (* the two fields that cannot steer output bytes are pinned, so they
     never fragment the cache *)
  checks "fault injection is normalized away" k
    (Serve.Cache.key
       ~config:
         { pipeline_config with
           Dialegg.Pipeline.inject =
             Some
               { Dialegg.Faults.stage = Dialegg.Faults.Saturate;
                 kind = Dialegg.Faults.K_exn } }
       ~src);
  checks "vet cache location is normalized away" k
    (Serve.Cache.key
       ~config:
         { pipeline_config with Dialegg.Pipeline.vet_cache_dir = Some "/x" }
       ~src)

let test_cache_lru_eviction () =
  let c = Serve.Cache.create ~capacity:2 ~dir:None () in
  Serve.Cache.add c "k1" (mk_entry "one");
  Serve.Cache.add c "k2" (mk_entry "two");
  (* touch k1, making k2 the least recently used *)
  checkb "k1 readable" true (Serve.Cache.find c "k1" <> None);
  Serve.Cache.add c "k3" (mk_entry "three");
  let m, _, _ = Serve.Cache.stats c in
  checki "capacity bound holds" 2 m;
  checkb "the LRU entry was evicted" true (Serve.Cache.find c "k2" = None);
  checkb "the recently used entry survives" true (Serve.Cache.find c "k1" <> None);
  checkb "the new entry is present" true (Serve.Cache.find c "k3" <> None);
  (* capacity 0 disables the memory tier entirely *)
  let c0 = Serve.Cache.create ~capacity:0 ~dir:None () in
  Serve.Cache.add c0 "k" (mk_entry "x");
  checkb "zero capacity stores nothing" true (Serve.Cache.find c0 "k" = None)

let test_cache_disk_roundtrip () =
  let dir = Some (fresh_dir ()) in
  let k = Serve.Cache.key ~config:pipeline_config ~src:(div_src 256 "f") in
  let entry = mk_entry ~degraded:1 "func.func @f() { }\n" in
  Serve.Cache.add (Serve.Cache.create ~dir ()) k entry;
  (* a fresh cache instance: empty memory tier, same store — like a
     daemon restart *)
  let c2 = Serve.Cache.create ~dir () in
  (match Serve.Cache.find c2 k with
  | Some (e, Serve.Protocol.Sv_hit_disk) ->
    checkb "bytes and degraded count survive" true (e = entry)
  | Some (_, m) ->
    Alcotest.failf "expected a disk hit, got %s" (Serve.Protocol.cache_mark_name m)
  | None -> Alcotest.fail "committed entry not found after restart");
  match Serve.Cache.find c2 k with
  | Some (_, Serve.Protocol.Sv_hit_mem) -> ()
  | _ -> Alcotest.fail "a disk hit must be promoted into the memory tier"

let test_cache_corruption_tolerated () =
  let d = fresh_dir () in
  let dir = Some d in
  let c1 = Serve.Cache.create ~dir () in
  let k = Serve.Cache.key ~config:pipeline_config ~src:(div_src 64 "g") in
  Serve.Cache.add c1 k (mk_entry (String.make 400 'x'));
  checki "one entry damaged" 1 (Serve.Cache.corrupt_disk_entries c1);
  let c2 = Serve.Cache.create ~dir () in
  checkb "a torn entry is a miss, never bad bytes" true
    (Serve.Cache.find c2 k = None);
  let _, disk, _ = Serve.Cache.stats c2 in
  checki "the torn entry was deleted" 0 disk;
  (* junk under the right name must not be served either *)
  write_file (Filename.concat d (k ^ ".result")) "not a cache entry at all";
  checkb "junk is a miss" true (Serve.Cache.find c2 k = None);
  (* a valid entry renamed to the wrong key must not satisfy it *)
  let k2 = Serve.Cache.key ~config:pipeline_config ~src:(div_src 16 "h") in
  Serve.Cache.add c2 k2 (mk_entry "y");
  Sys.rename (Filename.concat d (k2 ^ ".result")) (Filename.concat d (k ^ ".result"));
  checkb "renamed entry must not satisfy the wrong key" true
    (Serve.Cache.find (Serve.Cache.create ~dir ()) k = None)

(* ------------------------------------------------------------------ *)
(* Shared disk-cache layer: pruning, size cap, coexistence             *)
(* ------------------------------------------------------------------ *)

let test_disk_cache_prune_lru () =
  let d = fresh_dir () in
  let mk name age =
    let p = Filename.concat d name in
    write_file p (String.make 100 'z');
    Unix.utimes p age age
  in
  mk "old.vet" 1000.;
  mk "mid.verdict" 2000.;
  mk "new.result" 3000.;
  mk "README" 500.;
  (* foreign, despite being oldest *)
  Dialegg.Disk_cache.prune ~max:250 ~dir:d ();
  checkb "the oldest cache entry is evicted first" false
    (Sys.file_exists (Filename.concat d "old.vet"));
  checkb "newer entries are kept" true
    (Sys.file_exists (Filename.concat d "mid.verdict")
    && Sys.file_exists (Filename.concat d "new.result"));
  checkb "foreign files are never counted or deleted" true
    (Sys.file_exists (Filename.concat d "README"));
  Dialegg.Disk_cache.prune ~max:0 ~dir:d ();
  checkb "every cache extension is evictable" false
    (Sys.file_exists (Filename.concat d "mid.verdict")
    || Sys.file_exists (Filename.concat d "new.result"));
  checkb "foreign files survive even a full prune" true
    (Sys.file_exists (Filename.concat d "README"))

let test_disk_cache_prune_concurrent () =
  (* two pruners race over one directory: an entry the other pruner
     already unlinked reads as ENOENT and must count as freed — the
     race must neither error nor leave the directory over cap *)
  let d = fresh_dir () in
  for i = 0 to 199 do
    let p = Filename.concat d (Printf.sprintf "e%03d.result" i) in
    write_file p (String.make 64 'z');
    Unix.utimes p (float_of_int (i + 1)) (float_of_int (i + 1))
  done;
  flush stdout;
  flush stderr;
  (match Unix.fork () with
  | 0 ->
    (try Dialegg.Disk_cache.prune ~max:0 ~dir:d ()
     with _ -> Unix._exit 1);
    Unix._exit 0
  | child ->
    Dialegg.Disk_cache.prune ~max:0 ~dir:d ();
    let _, status = Unix.waitpid [] child in
    checkb "the racing pruner exits clean" true (status = Unix.WEXITED 0));
  let left =
    Array.to_list (Sys.readdir d)
    |> List.filter (fun n -> Filename.check_suffix n ".result")
  in
  checkb "every entry is gone despite the race" true (left = [])

let test_disk_cache_max_bytes_env () =
  let prev = Sys.getenv_opt "DIALEGG_CACHE_MAX_MB" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DIALEGG_CACHE_MAX_MB" (Option.value prev ~default:""))
    (fun () ->
      Unix.putenv "DIALEGG_CACHE_MAX_MB" "3";
      checki "megabytes parsed" (3 * 1024 * 1024) (Dialegg.Disk_cache.max_bytes ());
      Unix.putenv "DIALEGG_CACHE_MAX_MB" "not-a-number";
      checki "unparseable falls back to the default" (256 * 1024 * 1024)
        (Dialegg.Disk_cache.max_bytes ());
      Unix.putenv "DIALEGG_CACHE_MAX_MB" "-5";
      checki "nonpositive falls back to the default" (256 * 1024 * 1024)
        (Dialegg.Disk_cache.max_bytes ()))

let test_disk_cache_coexistence () =
  (* static verdicts and serve results share one store without stepping
     on each other *)
  let d = fresh_dir () in
  (* a ruleset no other test uses, so the verdict is computed (and
     persisted) here rather than answered from the in-process memo *)
  let config =
    { pipeline_config with
      Dialegg.Pipeline.rules = div_rule ^ "\n; coexistence fixture\n";
      vet_cache_dir = Some d }
  in
  ignore (Dialegg.Pipeline.vet_rules_exn config);
  ignore (Dialegg.Pipeline.audit_rules_exn config);
  let cache = Serve.Cache.create ~dir:(Some d) () in
  let k = Serve.Cache.key ~config ~src:(div_src 256 "f") in
  Serve.Cache.add cache k (mk_entry "o");
  let names = List.sort compare (List.map Filename.extension (Array.to_list (Sys.readdir d))) in
  checkb "one verdict and one serve result" true (names = [ ".result"; ".verdict" ]);
  checkb "the result still reads back" true (Serve.Cache.find cache k <> None);
  ignore (Dialegg.Pipeline.vet_rules_exn config);
  ignore (Dialegg.Pipeline.audit_rules_exn config)

(* One store for every entry kind: a good entry hits, and a torn
   entry, garbage, an entry of the previous format version and a valid
   entry renamed onto another key's file name each read as a miss and are
   deleted.  [previous] is an older format version of the kind. *)
let check_store (type a) (module S : Dialegg.Disk_cache.STORE with type t = a) ~previous
    (v : a) =
  let d = fresh_dir () in
  let path key = Filename.concat d (key ^ S.ext) in
  let k = Digest.to_hex (Digest.string S.ext) in
  let miss what =
    checkb (Printf.sprintf "%s: %s is a miss" S.ext what) true (S.find ~dir:d k = None);
    checkb (Printf.sprintf "%s: %s is deleted" S.ext what) false (Sys.file_exists (path k))
  in
  S.add ~dir:d k v;
  checkb (S.ext ^ ": a good entry hits") true (S.find ~dir:d k = Some v);
  let bytes = read_file (path k) in
  write_file (path k) (String.sub bytes 0 (String.length bytes / 2));
  miss "an entry truncated to half";
  write_file (path k) "not a cache entry at all";
  miss "a garbage file";
  checkb (S.ext ^ ": the previous version differs") false (String.equal previous S.version);
  let module Old = Dialegg.Disk_cache.Store (struct
    type t = a

    let ext = S.ext
    let version = previous
  end) in
  Old.add ~dir:d k v;
  miss "an entry of the previous format version";
  S.add ~dir:d "other" v;
  Sys.rename (path "other") (path k);
  miss "an entry renamed onto another key's file name"

let test_store_every_kind () =
  let rules = Dialegg.Rules.const_fold in
  check_store (module Dialegg.Verdict.Store) ~previous:"dialegg-verdict-0"
    {
      Dialegg.Verdict.lint = Dialegg.Lint.lint_rules rules;
      vet = Dialegg.Vet.vet rules;
      audit = Dialegg.Audit.audit rules;
    };
  check_store (module Serve.Cache.Store) ~previous:"dialegg-result-cache-2"
    (mk_entry ~degraded:1 "func.func @f() { }\n")

(* ------------------------------------------------------------------ *)
(* Atomic writes: the failure path leaves no temp litter               *)
(* ------------------------------------------------------------------ *)

let test_atomic_failure_leaves_no_temp () =
  let d = fresh_dir () in
  (* force the final rename to fail: the destination is a directory *)
  let target = Filename.concat d "out" in
  Unix.mkdir target 0o755;
  write_file (Filename.concat target "occupant") "x";
  (match Serve.Atomic_io.write_atomic ~path:target "data" with
  | () -> Alcotest.fail "writing over a non-empty directory must fail"
  | exception (Unix.Unix_error _ | Sys_error _) -> ());
  let leftovers = List.filter (fun n -> n <> "out") (Array.to_list (Sys.readdir d)) in
  checkb "a failed write leaves no temp file behind" true (leftovers = [])

(* ------------------------------------------------------------------ *)
(* Daemon harness                                                      *)
(* ------------------------------------------------------------------ *)

let daemon_config ?(pool = 1) ?(max_queue = 16) ?(retries = 1) ?cache_dir
    ?(cache_capacity = 64) ?rules_path ?fault ?(pipeline = pipeline_config)
    ?(job_timeout = 10.) socket_path =
  {
    Serve.Daemon.socket_path;
    pool;
    max_queue;
    retries;
    job_timeout;
    grace = 0.3;
    heartbeat = 0.;
    recycle_jobs = 0;
    recycle_rss_mb = 0.;
    cache_dir;
    cache_capacity;
    pipeline;
    rules_path;
    fault;
    verbose = false;
  }

let start_daemon (cfg : Serve.Daemon.config) =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try Serve.Daemon.run cfg with _ -> ());
    Unix._exit 0
  | pid ->
    let rec await n =
      if n = 0 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        Alcotest.fail "daemon did not come up"
      end
      else
        match Serve.Client.connect cfg.Serve.Daemon.socket_path with
        | c -> Serve.Client.close c
        | exception Serve.Client.Error _ ->
          ignore (Unix.select [] [] [] 0.05);
          await (n - 1)
    in
    await 200;
    pid

(* SIGTERM the daemon and harvest its exit status (drain is graceful,
   so this waits for in-flight work) *)
let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  status

let with_daemon cfg f =
  let pid = start_daemon cfg in
  Fun.protect
    ~finally:(fun () ->
      (* kill hard if the test did not already stop it *)
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    (fun () -> f pid)

let optimize_once ?deadline_ms ?(retries = 0) sock src =
  Serve.Client.with_connection sock (fun c ->
      Serve.Client.optimize ?deadline_ms ~retries c src)

let daemon_stats sock = Serve.Client.with_connection sock Serve.Client.stats

let rec await_stats ?(tries = 100) sock pred =
  let s = daemon_stats sock in
  if pred s then s
  else if tries = 0 then
    Alcotest.fail "daemon stats never satisfied the condition"
  else begin
    ignore (Unix.select [] [] [] 0.05);
    await_stats ~tries:(tries - 1) sock pred
  end

(* ------------------------------------------------------------------ *)
(* Daemon: cold/warm byte-identity and counters                        *)
(* ------------------------------------------------------------------ *)

let test_daemon_cold_warm () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  let cfg = daemon_config ~cache_dir:(Filename.concat d "cache") sock in
  with_daemon cfg (fun pid ->
      checkb "daemon answers a ping" true
        (Serve.Client.with_connection sock Serve.Client.ping);
      let expect = sequential two_func_module in
      checkb "the ruleset has a real effect" true (contains expect "arith.shrsi");
      let cold = optimize_once sock two_func_module in
      let warm = optimize_once sock two_func_module in
      checks "cold request == dialegg-opt" expect cold.Serve.Protocol.sv_output;
      checks "warm request == dialegg-opt" expect warm.Serve.Protocol.sv_output;
      checki "one mark per function" 2 (List.length warm.Serve.Protocol.sv_marks);
      List.iter
        (fun (f, m) ->
          checkb (f ^ " misses on the cold pass") true (m = Serve.Protocol.Sv_miss))
        cold.Serve.Protocol.sv_marks;
      List.iter
        (fun (f, m) ->
          checkb (f ^ " hits memory on the warm pass") true
            (m = Serve.Protocol.Sv_hit_mem))
        warm.Serve.Protocol.sv_marks;
      let s = daemon_stats sock in
      checki "requests counted" 2 s.Serve.Protocol.ds_requests;
      checki "functions counted" 4 s.Serve.Protocol.ds_funcs;
      checki "misses counted" 2 s.Serve.Protocol.ds_misses;
      checki "memory hits counted" 2 s.Serve.Protocol.ds_hits_mem;
      checki "no errors" 0 s.Serve.Protocol.ds_errors;
      checkb "hit rate is one half" true
        (abs_float (Serve.Protocol.hit_rate s -. 0.5) < 1e-9);
      (* a bad input is an error reply, not a dead daemon *)
      (match optimize_once sock "func.func @broken( {{{\n" with
      | exception Serve.Client.Error _ -> ()
      | _ -> Alcotest.fail "a parse error must be refused");
      checkb "still serving after an error reply" true
        (Serve.Client.with_connection sock Serve.Client.ping);
      checkb "daemon drains clean on SIGTERM" true
        (stop_daemon pid = Unix.WEXITED 0));
  checkb "socket unlinked after drain" false (Sys.file_exists sock);
  checkb "stats index persisted on drain" true
    (Sys.file_exists (Filename.concat d "cache/serve-index"))

let test_daemon_restart_disk_warm () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  let cache_dir = Filename.concat d "cache" in
  let expect = sequential two_func_module in
  with_daemon (daemon_config ~cache_dir sock) (fun pid ->
      checks "cold == dialegg-opt" expect
        (optimize_once sock two_func_module).Serve.Protocol.sv_output;
      checkb "drain" true (stop_daemon pid = Unix.WEXITED 0));
  with_daemon (daemon_config ~cache_dir sock) (fun pid ->
      let r = optimize_once sock two_func_module in
      checks "warm across a restart == dialegg-opt" expect
        r.Serve.Protocol.sv_output;
      List.iter
        (fun (f, m) ->
          checkb (f ^ " served from the surviving store") true
            (m = Serve.Protocol.Sv_hit_disk))
        r.Serve.Protocol.sv_marks;
      ignore (stop_daemon pid))

(* ------------------------------------------------------------------ *)
(* Daemon: bounded admission and deadline propagation                  *)
(* ------------------------------------------------------------------ *)

let test_daemon_overload_shed () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  let cache_dir = Filename.concat d "cache" in
  (* warm @f through a normally-sized daemon … *)
  with_daemon (daemon_config ~cache_dir sock) (fun pid ->
      ignore (optimize_once sock (div_src 256 "f"));
      ignore (stop_daemon pid));
  (* … then serve with a zero-length queue: warm work is served, fresh
     work is shed *)
  with_daemon (daemon_config ~max_queue:0 ~cache_dir sock) (fun pid ->
      let r = optimize_once sock (div_src 256 "f") in
      List.iter
        (fun (_, m) ->
          checkb "cache hits bypass admission entirely" true
            (m = Serve.Protocol.Sv_hit_disk))
        r.Serve.Protocol.sv_marks;
      (match optimize_once sock (div_src 16 "fresh") with
      | exception Serve.Client.Error m ->
        checkb "shed reply names the overload" true (contains m "overloaded")
      | _ -> Alcotest.fail "a zero-length queue must shed fresh work");
      (* the client retry loop also gives up cleanly *)
      (match
         Serve.Client.with_connection sock (fun c ->
             Serve.Client.optimize ~retries:1 c (div_src 1024 "fresh2"))
       with
      | exception Serve.Client.Error m ->
        checkb "persistent overload surfaces" true (contains m "overloaded")
      | _ -> Alcotest.fail "persistent overload must surface");
      let s = daemon_stats sock in
      checki "sheds counted" 3 s.Serve.Protocol.ds_shed;
      checki "sheds are not errors" 0 s.Serve.Protocol.ds_errors;
      checkb "a shed daemon keeps serving" true
        (Serve.Client.with_connection sock Serve.Client.ping);
      ignore (stop_daemon pid))

let test_daemon_deadline () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  with_daemon (daemon_config ~cache_dir:(Filename.concat d "cache") sock)
    (fun pid ->
      (* an already-expired deadline on cold work is refused before any
         budget is spent *)
      (match optimize_once sock ~deadline_ms:0.0001 (div_src 256 "f") with
      | exception Serve.Client.Error m ->
        checkb "refusal names the deadline" true (contains m "deadline")
      | _ -> Alcotest.fail "an expired deadline must be refused");
      (* warm the function; the same deadline is then satisfiable
         entirely from cache *)
      ignore (optimize_once sock (div_src 256 "f"));
      let r = optimize_once sock ~deadline_ms:0.0001 (div_src 256 "f") in
      checkb "a warm request beats any deadline" true
        (List.for_all
           (fun (_, m) -> m <> Serve.Protocol.Sv_miss)
           r.Serve.Protocol.sv_marks);
      let s = daemon_stats sock in
      checki "deadline miss counted" 1 s.Serve.Protocol.ds_deadline_misses;
      ignore (stop_daemon pid))

(* ------------------------------------------------------------------ *)
(* Daemon: the injected fault matrix                                   *)
(* ------------------------------------------------------------------ *)

let test_daemon_cache_corrupt_fault () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  let expect = sequential (div_src 256 "f") in
  (* memory tier disabled so every lookup exercises the disk path *)
  with_daemon
    (daemon_config ~cache_capacity:0
       ~cache_dir:(Filename.concat d "cache")
       ~fault:{ Dialegg.Faults.sf_kind = Dialegg.Faults.S_cache_corrupt; sf_at = 1 }
       sock)
    (fun pid ->
      let r1 = optimize_once sock (div_src 256 "f") in
      checks "request 1 == cold" expect r1.Serve.Protocol.sv_output;
      (* the fault tore every committed entry after request 1: request 2
         must detect the damage, recompute, and answer identically *)
      let r2 = optimize_once sock (div_src 256 "f") in
      checks "request 2 recovers the same bytes" expect r2.Serve.Protocol.sv_output;
      List.iter
        (fun (_, m) ->
          checkb "a torn entry reads as a miss" true (m = Serve.Protocol.Sv_miss))
        r2.Serve.Protocol.sv_marks;
      (* and the recompute healed the store *)
      let r3 = optimize_once sock (div_src 256 "f") in
      checks "request 3 == cold" expect r3.Serve.Protocol.sv_output;
      List.iter
        (fun (_, m) ->
          checkb "the store was rewritten" true (m = Serve.Protocol.Sv_hit_disk))
        r3.Serve.Protocol.sv_marks;
      checki "corruption never surfaced as an error" 0
        (daemon_stats sock).Serve.Protocol.ds_errors;
      ignore (stop_daemon pid))

let test_daemon_drain_kill_fault () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  let cache_dir = Filename.concat d "cache" in
  let expect = sequential (div_src 256 "f") in
  with_daemon
    (daemon_config ~cache_dir
       ~fault:{ Dialegg.Faults.sf_kind = Dialegg.Faults.S_drain_kill; sf_at = 1 }
       sock)
    (fun pid ->
      ignore (optimize_once sock (div_src 256 "f"));
      checkb "killed at the worst drain instant" true
        (stop_daemon pid = Unix.WSIGNALED Sys.sigkill));
  checkb "the kill left a stale socket behind" true (Sys.file_exists sock);
  checkb "no index was persisted" false
    (Sys.file_exists (Filename.concat cache_dir "serve-index"));
  (* restart on the same path: the stale socket is reclaimed, and every
     entry committed before the kill survives *)
  with_daemon (daemon_config ~cache_dir sock) (fun pid ->
      let r = optimize_once sock (div_src 256 "f") in
      checks "bytes survive the kill" expect r.Serve.Protocol.sv_output;
      List.iter
        (fun (_, m) ->
          checkb "served from the surviving store" true
            (m = Serve.Protocol.Sv_hit_disk))
        r.Serve.Protocol.sv_marks;
      checkb "the restarted daemon drains clean" true
        (stop_daemon pid = Unix.WEXITED 0))

(* ------------------------------------------------------------------ *)
(* Daemon: SIGHUP ruleset reload                                       *)
(* ------------------------------------------------------------------ *)

let test_daemon_reload () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  let rules_file = Filename.concat d "rules.egg" in
  write_file rules_file div_rule;
  with_daemon
    (daemon_config ~cache_dir:(Filename.concat d "cache") ~rules_path:rules_file
       sock)
    (fun pid ->
      let r1 = optimize_once sock (div_src 256 "f") in
      checkb "old ruleset rewrites" true
        (contains r1.Serve.Protocol.sv_output "arith.shrsi");
      (* good reload: an empty ruleset is valid and rewrites nothing *)
      write_file rules_file "";
      Unix.kill pid Sys.sighup;
      ignore (await_stats sock (fun s -> s.Serve.Protocol.ds_reloads = 1));
      let r2 = optimize_once sock (div_src 256 "f") in
      checkb "new ruleset in effect" true
        (contains r2.Serve.Protocol.sv_output "arith.divsi");
      checks "reloaded daemon == cold run under the new rules"
        (fst
           (Dialegg.Pipeline.optimize_source
              ~config:{ pipeline_config with Dialegg.Pipeline.rules = "" }
              (div_src 256 "f")))
        r2.Serve.Protocol.sv_output;
      (* bad reload: rejected by the static tiers, the old ruleset keeps
         serving *)
      write_file rules_file "(rule broken";
      Unix.kill pid Sys.sighup;
      let s = await_stats sock (fun s -> s.Serve.Protocol.ds_reload_failures = 1) in
      checki "the good reload is still counted" 1 s.Serve.Protocol.ds_reloads;
      let r3 = optimize_once sock (div_src 256 "f") in
      checks "still serving the last good ruleset" r2.Serve.Protocol.sv_output
        r3.Serve.Protocol.sv_output;
      ignore (stop_daemon pid))

(* A reload must not disturb work already in flight: a job enqueued
   under the old ruleset keeps it to the end (its post-watchdog retry
   included — jobs snapshot their pipeline config at admission), while
   requests arriving after the SIGHUP run under the new ruleset with a
   diverged cache key, so old-config entries can never answer them. *)
let test_daemon_reload_in_flight () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  let rules_file = Filename.concat d "rules.egg" in
  write_file rules_file div_rule;
  with_daemon
    (daemon_config ~pool:1 ~retries:1 ~job_timeout:1.5
       ~cache_dir:(Filename.concat d "cache")
       ~rules_path:rules_file
       ~fault:
         {
           Dialegg.Faults.sf_kind = Dialegg.Faults.S_hang_under_load;
           sf_at = 2;
         }
       sock)
    (fun pid ->
      let r0 = optimize_once sock (div_src 16 "b") in
      checkb "request 0 rewrites under the old ruleset" true
        (contains r0.Serve.Protocol.sv_output "arith.shrsi");
      (* the in-flight request: dispatch 2 arms the worker hang, so its
         reply only arrives after watchdog kill + retry — park the
         client in a forked child and assert over its exit code *)
      flush stdout;
      flush stderr;
      let child =
        match Unix.fork () with
        | 0 ->
          let code =
            match optimize_once sock (div_src 256 "a") with
            | r ->
              if contains r.Serve.Protocol.sv_output "arith.shrsi" then 0
              else 1
            | exception _ -> 2
          in
          Unix._exit code
        | child -> child
      in
      (* once the daemon has admitted the hanging request... *)
      ignore (await_stats sock (fun s -> s.Serve.Protocol.ds_misses = 2));
      (* ...swap in the empty ruleset while it is still in flight *)
      write_file rules_file "";
      Unix.kill pid Sys.sighup;
      ignore (await_stats sock (fun s -> s.Serve.Protocol.ds_reloads = 1));
      let _, status = Unix.waitpid [] child in
      checkb "the in-flight job finished under the OLD ruleset" true
        (status = Unix.WEXITED 0);
      (* request 0's source again: the ruleset is part of the cache key,
         so the reload diverges it — a miss, served under the NEW rules *)
      let r2 = optimize_once sock (div_src 16 "b") in
      checkb "new-config request misses the old-config cache" true
        (r2.Serve.Protocol.sv_marks <> []
        && List.for_all
             (fun (_, m) -> m = Serve.Protocol.Sv_miss)
             r2.Serve.Protocol.sv_marks);
      checkb "and runs under the new (empty) ruleset" true
        (contains r2.Serve.Protocol.sv_output "arith.divsi");
      (* the diverged key then caches normally *)
      let r3 = optimize_once sock (div_src 16 "b") in
      checkb "the new key is warm on repeat" true
        (r3.Serve.Protocol.sv_marks <> []
        && List.for_all
             (fun (_, m) -> m = Serve.Protocol.Sv_hit_mem)
             r3.Serve.Protocol.sv_marks);
      ignore (stop_daemon pid))

(* ------------------------------------------------------------------ *)
(* Daemon: heartbeat and recycling                                     *)
(* ------------------------------------------------------------------ *)

(* Every worker retires after one job and idle workers are pinged every
   50 ms: K distinct requests still equal cold runs, each job retires
   its worker, and no worker dies. *)
let test_daemon_heartbeat_recycle () =
  let d = fresh_dir () in
  let sock = Filename.concat d "d.sock" in
  let cfg =
    {
      (daemon_config ~pool:2 ~cache_dir:(Filename.concat d "cache") sock) with
      Serve.Daemon.heartbeat = 0.05;
      recycle_jobs = 1;
    }
  in
  let k = 6 in
  with_daemon cfg (fun pid ->
      for i = 1 to k do
        (* idle long enough for a few heartbeats between requests *)
        ignore (Unix.select [] [] [] 0.12);
        let src = div_src (1 lsl i) (Printf.sprintf "r%d" i) in
        checks
          (Printf.sprintf "request %d == dialegg-opt" i)
          (sequential src)
          (optimize_once sock src).Serve.Protocol.sv_output
      done;
      let s = daemon_stats sock in
      checki "every job retired its worker" k s.Serve.Protocol.ds_recycled;
      checki "no worker died" 0 s.Serve.Protocol.ds_respawns;
      checkb "drains clean" true (stop_daemon pid = Unix.WEXITED 0))

(* ------------------------------------------------------------------ *)
(* Pool: the crash-loop limit and recycling                            *)
(* ------------------------------------------------------------------ *)

(* Every worker reports its pid on a pipe and exits at once, before any
   message: the pool must raise after at most 2 × size + 8 forks, and
   every child must be reaped. *)
let test_pool_crash_loop () =
  List.iter
    (fun size ->
      let pids_r, pids_w = Unix.pipe () in
      let entry ~in_fd:_ ~out_fd:_ =
        let line = Printf.sprintf "%d\n" (Unix.getpid ()) in
        ignore (Unix.write_substring pids_w line 0 (String.length line));
        Unix._exit 0
      in
      let pool =
        Serve.Pool.create ~entry { Serve.Pool.default_config with size; grace = 0.3 }
      in
      let raised =
        Fun.protect
          ~finally:(fun () -> Serve.Pool.shutdown pool)
          (fun () ->
            match
              (* bounded, so a pool that never gives up fails instead *)
              for _ = 1 to 100 do
                ignore (Serve.Pool.idle pool : bool);
                ignore (Serve.Pool.wait pool ())
              done
            with
            | () -> false
            | exception Serve.Pool.Crash_loop -> true)
      in
      Unix.close pids_w;
      let pids =
        In_channel.input_all (Unix.in_channel_of_descr pids_r)
        |> String.split_on_char '\n'
        |> List.filter_map int_of_string_opt
      in
      Unix.close pids_r;
      let limit = (2 * size) + 8 in
      checkb (Printf.sprintf "size %d: raises Crash_loop" size) true raised;
      checkb
        (Printf.sprintf "size %d: %d forks, at most %d" size (List.length pids) limit)
        true
        (List.length pids > size && List.length pids <= limit);
      List.iter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
          | _ -> Alcotest.failf "size %d: child %d was left behind" size pid)
        pids)
    [ 1; 4 ]

(* Batch workers are recycled only through the pool: with real workers
   and [recycle_jobs = 1], K jobs give K retirements, no death, and the
   output a cold run gives. *)
let test_pool_recycling () =
  let pool =
    Serve.Pool.create ~entry:Serve.Worker.main
      { Serve.Pool.default_config with size = 2; recycle_jobs = 1 }
  in
  let k = 5 in
  let queue =
    ref
      (List.init k (fun i ->
           let name = Printf.sprintf "p%d" i in
           (name, div_src (1 lsl (i + 1)) name)))
  in
  let outputs = ref [] in
  Fun.protect
    ~finally:(fun () -> Serve.Pool.shutdown pool)
    (fun () ->
      let rec dispatch () =
        match !queue with
        | ((name, src) as job) :: rest when Serve.Pool.idle pool ->
          queue := rest;
          let rq =
            {
              Serve.Protocol.rq_id = name;
              rq_attempt = 0;
              rq_input = Serve.Protocol.J_text { name; src };
              rq_config = pipeline_config;
              rq_fault = None;
            }
          in
          if not (Serve.Pool.dispatch pool job rq) then queue := job :: !queue;
          dispatch ()
        | _ -> ()
      in
      for _ = 1 to 100 do
        if List.length !outputs < k then begin
          dispatch ();
          List.iter
            (function
              | Serve.Pool.Done ((_, src), out, _) -> outputs := (src, out) :: !outputs
              | Serve.Pool.Failed (_, cls) ->
                Alcotest.failf "a job failed: %a" Serve.Pool.pp_fail_class cls)
            (snd (Serve.Pool.wait pool ()))
        end
      done);
  checki "every job answered" k (List.length !outputs);
  List.iter
    (fun (src, out) ->
      let m = Mlir.Parser.parse_module src in
      Dialegg.Pipeline.splice_function (List.hd (Mlir.Ir.module_ops m)) out;
      checks "worker output == dialegg-opt" (sequential src) (Mlir.Printer.module_to_string m))
    !outputs;
  checki "one retirement per job" k (Serve.Pool.recycled pool);
  checki "no worker died" 0 (Serve.Pool.deaths pool)

(* ------------------------------------------------------------------ *)
(* Worker heartbeat: ping / pong                                       *)
(* ------------------------------------------------------------------ *)

let test_worker_ping_pong () =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    (try ignore (Serve.Worker.main ~in_fd:req_r ~out_fd:resp_w) with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    Serve.Protocol.write_message req_w Serve.Protocol.M_ping;
    let rd = Serve.Protocol.reader resp_r in
    (match Serve.Protocol.read_blocking rd with
    | Serve.Protocol.Msg Serve.Protocol.M_pong -> ()
    | _ -> Alcotest.fail "worker did not answer the heartbeat");
    (* and a ping does not disturb real work *)
    Serve.Protocol.write_message req_w
      (Serve.Protocol.M_request
         {
           Serve.Protocol.rq_id = "f";
           rq_attempt = 0;
           rq_input =
             Serve.Protocol.J_text { name = "f"; src = div_src 256 "f" };
           rq_config = pipeline_config;
           rq_fault = None;
         });
    (match Serve.Protocol.read_blocking rd with
    | Serve.Protocol.Msg (Serve.Protocol.M_response rs) ->
      checkb "job succeeds after a ping" true
        (match rs.Serve.Protocol.rs_result with
        | Ok out -> contains out "arith.shrsi"
        | Error _ -> false)
    | _ -> Alcotest.fail "worker did not answer the job");
    Unix.close req_w;
    let _, status = Unix.waitpid [] pid in
    checkb "worker exits 0 on EOF" true (status = Unix.WEXITED 0);
    Unix.close resp_r

(* ------------------------------------------------------------------ *)
(* Property: warm daemon replies == cold runs                          *)
(* ------------------------------------------------------------------ *)

let test_daemon_warm_equals_cold_prop () =
  let d = fresh_dir () in
  let sock = Filename.concat d "p.sock" in
  with_daemon
    (daemon_config ~pool:2 ~cache_dir:(Filename.concat d "cache") sock)
    (fun pid ->
      QCheck.Test.check_exn
        (QCheck.Test.make ~name:"daemon replies are byte-identical to cold runs"
           ~count:6
           QCheck.(pair (int_range 1 3) (int_range 0 5))
           (fun (nfuncs, seed) ->
             let divisors = [| 2; 8; 64; 256; 1024; 4096 |] in
             let src =
               "module {\n"
               ^ String.concat ""
                   (List.init nfuncs (fun i ->
                        div_src
                          divisors.((seed + i) mod Array.length divisors)
                          (Printf.sprintf "q%d_%d" seed i)))
               ^ "}\n"
             in
             let cold = sequential src in
             Serve.Client.with_connection sock (fun c ->
                 let r1 = Serve.Client.optimize c src in
                 let r2 = Serve.Client.optimize c src in
                 if r1.Serve.Protocol.sv_output <> cold then
                   QCheck.Test.fail_report "first daemon reply differs from cold";
                 if r2.Serve.Protocol.sv_output <> cold then
                   QCheck.Test.fail_report "warm daemon reply differs from cold";
                 List.iter
                   (fun (_, m) ->
                     if m = Serve.Protocol.Sv_miss then
                       QCheck.Test.fail_report "second pass was not cache-served")
                   r2.Serve.Protocol.sv_marks);
             true));
      ignore (stop_daemon pid))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "incomplete and eof" `Quick test_protocol_incomplete_and_eof;
          Alcotest.test_case "garbage detection" `Quick test_protocol_garbage;
        ] );
      ( "faults",
        [
          Alcotest.test_case "proc fault parsing" `Quick test_proc_fault_parse;
          Alcotest.test_case "proc fault targeting" `Quick test_proc_fault_matching;
        ] );
      ( "journal",
        [
          Alcotest.test_case "replay" `Quick test_journal_replay;
          Alcotest.test_case "torn tail ignored" `Quick test_journal_torn_tail;
          Alcotest.test_case "first occurrence wins" `Quick test_journal_first_wins;
          Alcotest.test_case "atomic writes" `Quick test_atomic_write;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "clean batch == sequential" `Quick test_batch_clean;
          Alcotest.test_case "injection matrix" `Quick test_injection_matrix;
          Alcotest.test_case "fault once, then recover" `Quick test_fault_once_then_recover;
          Alcotest.test_case "unfixable job fails, neighbours survive" `Quick
            test_job_error_consumes_retries;
          Alcotest.test_case "per-attempt budget tightening" `Quick test_config_tightening;
          Alcotest.test_case "rules failing lint are refused" `Quick
            test_batch_refuses_unlinted_rules;
        ] );
      ( "pool",
        [
          Alcotest.test_case "crash-loop limit" `Quick test_pool_crash_loop;
          Alcotest.test_case "recycling real workers" `Quick test_pool_recycling;
        ] );
      ( "resume",
        [
          Alcotest.test_case "replay after a simulated kill" `Quick test_resume_after_kill;
          Alcotest.test_case "missing output is recomputed" `Quick
            test_resume_redoes_missing_output;
        ] );
      ( "module-mode",
        [
          Alcotest.test_case "splice back" `Quick test_module_mode_splice;
          Alcotest.test_case "faulted function left untouched" `Quick
            test_module_mode_faulted_function_untouched;
        ] );
      ( "property",
        [
          Alcotest.test_case "batch == sequential (random pools)" `Quick
            test_batch_equals_sequential_prop;
        ] );
      ( "result-cache",
        [
          Alcotest.test_case "key sensitivity" `Quick test_cache_key_sensitivity;
          Alcotest.test_case "memory LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "disk roundtrip and promotion" `Quick
            test_cache_disk_roundtrip;
          Alcotest.test_case "corruption tolerated" `Quick
            test_cache_corruption_tolerated;
        ] );
      ( "disk-cache",
        [
          Alcotest.test_case "LRU pruning respects extensions" `Quick
            test_disk_cache_prune_lru;
          Alcotest.test_case "concurrent pruners tolerate ENOENT" `Quick
            test_disk_cache_prune_concurrent;
          Alcotest.test_case "size cap from the environment" `Quick
            test_disk_cache_max_bytes_env;
          Alcotest.test_case "verdict/result coexistence" `Quick
            test_disk_cache_coexistence;
          Alcotest.test_case "every entry kind: a hit and four misses" `Quick
            test_store_every_kind;
          Alcotest.test_case "failed atomic write leaves no temp" `Quick
            test_atomic_failure_leaves_no_temp;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cold/warm byte-identity and counters" `Quick
            test_daemon_cold_warm;
          Alcotest.test_case "warm across a restart" `Quick
            test_daemon_restart_disk_warm;
          Alcotest.test_case "bounded admission sheds, cache hits pass" `Quick
            test_daemon_overload_shed;
          Alcotest.test_case "deadline propagation" `Quick test_daemon_deadline;
          Alcotest.test_case "fault: cache-corrupt" `Quick
            test_daemon_cache_corrupt_fault;
          Alcotest.test_case "fault: mid-drain-kill" `Quick
            test_daemon_drain_kill_fault;
          Alcotest.test_case "SIGHUP ruleset reload" `Quick test_daemon_reload;
          Alcotest.test_case "SIGHUP with requests in flight" `Quick
            test_daemon_reload_in_flight;
          Alcotest.test_case "heartbeat and recycling" `Quick
            test_daemon_heartbeat_recycle;
          Alcotest.test_case "worker ping/pong" `Quick test_worker_ping_pong;
          Alcotest.test_case "warm == cold (property)" `Quick
            test_daemon_warm_equals_cold_prop;
        ] );
    ]
