(** Differential oracle battery + triage corpus; see the interface for
    the model. *)

type severity = Crash | Hang | Nondet | Differential | Validator

let severity_name = function
  | Crash -> "crash"
  | Hang -> "hang"
  | Nondet -> "nondeterminism"
  | Differential -> "differential"
  | Validator -> "validator"

let severity_rank = function
  | Crash -> 0
  | Hang -> 1
  | Nondet -> 2
  | Differential -> 3
  | Validator -> 4

type failure = {
  f_oracle : string;
  f_severity : severity;
  f_detail : string;
  f_signature : string;
}

type verdict = V_pass | V_fail of failure list

(* ------------------------------------------------------------------ *)
(* Triage signatures                                                   *)
(* ------------------------------------------------------------------ *)

(* Volatile text (SSA numbers, sizes, addresses, float digits) must not
   split one bug across buckets: collapse digit runs to '#', whitespace
   runs to one space, lowercase, and truncate before hashing. *)
let normalize s =
  let n = String.length s in
  let b = Buffer.create n in
  let is_digit c = c >= '0' && c <= '9' in
  let prev_sp = ref false in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    (* a whole numeric literal — sign, decimal point, exponent — folds
       into one '#', so "-0.39" and "1.4e-06" bucket identically *)
    let numberish =
      is_digit c
      || ((c = '-' || c = '+' || c = '.') && !i + 1 < n && is_digit s.[!i + 1])
    in
    if numberish then begin
      Buffer.add_char b '#';
      prev_sp := false;
      let continues j =
        j < n
        && (is_digit s.[j]
           || s.[j] = '.' || s.[j] = 'e' || s.[j] = 'E'
           || ((s.[j] = '-' || s.[j] = '+') && j + 1 < n && is_digit s.[j + 1])
           )
      in
      while continues !i do
        incr i
      done
    end
    else begin
      (match Char.lowercase_ascii c with
      | ' ' | '\n' | '\t' | '\r' ->
        if not !prev_sp then Buffer.add_char b ' ';
        prev_sp := true
      | c ->
        Buffer.add_char b c;
        prev_sp := false);
      incr i
    end
  done;
  let s = Buffer.contents b in
  if String.length s > 160 then String.sub s 0 160 else s

let signature ~oracle sev ~detail =
  let digest =
    Digest.string (oracle ^ "|" ^ severity_name sev ^ "|" ^ normalize detail)
  in
  String.sub (Digest.to_hex digest) 0 12

let failure ~oracle sev detail =
  {
    f_oracle = oracle;
    f_severity = sev;
    f_detail = detail;
    f_signature = signature ~oracle sev ~detail;
  }

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  fz_timeout_ms : int;
  fz_inject : Dialegg.Faults.t option;
  fz_sem_checks : int;
}

let default_config = { fz_timeout_ms = 10_000; fz_inject = None; fz_sem_checks = 2 }

(* Determinism demands discrete budgets: a wall-clock budget would stop
   saturation at a timing-dependent iteration and turn every oracle
   flaky.  Hang protection is the parent's job. *)
let pipeline_config config (case : Gen.case) =
  {
    Dialegg.Pipeline.default_config with
    rules = case.Gen.c_egg;
    max_iterations = 12;
    max_nodes = 20_000;
    timeout = None;
    inject = config.fz_inject;
  }

(* ------------------------------------------------------------------ *)
(* The battery                                                         *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* First differing line of two outputs, for failure detail. *)
let diff_summary a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec first i la lb =
    match (la, lb) with
    | [], [] -> Printf.sprintf "outputs differ (line %d)" i
    | x :: la', y :: lb' ->
      if x = y then first (i + 1) la' lb'
      else Printf.sprintf "line %d: %S vs %S" i x y
    | x :: _, [] -> Printf.sprintf "line %d only in first: %S" i x
    | [], y :: _ -> Printf.sprintf "line %d only in second: %S" i y
  in
  first 1 la lb

let close_float x y =
  x = y
  || (Float.is_nan x && Float.is_nan y)
  || Float.abs (x -. y) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))

let rv_close (a : Mlir.Interp.rv) (b : Mlir.Interp.rv) =
  match (a, b) with
  | Mlir.Interp.Ri (x, w), Mlir.Interp.Ri (y, w') -> w = w' && Int64.equal x y
  | Mlir.Interp.Rf (x, _), Mlir.Interp.Rf (y, _) -> close_float x y
  | Mlir.Interp.Rt t1, Mlir.Interp.Rt t2 ->
    t1.Mlir.Interp.shape = t2.Mlir.Interp.shape
    && (match (t1.Mlir.Interp.data, t2.Mlir.Interp.data) with
       | Mlir.Interp.Df a1, Mlir.Interp.Df a2 ->
         Array.for_all2 close_float a1 a2
       | Mlir.Interp.Di a1, Mlir.Interp.Di a2 ->
         Array.for_all2 Int64.equal a1 a2
       | _ -> false)
  | Mlir.Interp.Runit, Mlir.Interp.Runit -> true
  | _ -> false

let pp_rv_short rv =
  let s = Fmt.str "%a" Mlir.Interp.pp_rv rv in
  if String.length s > 48 then String.sub s 0 48 ^ "…" else s

let interp_values m func args =
  match Mlir.Interp.run ~fuel:2_000_000 m func args with
  | r -> Ok r.Mlir.Interp.values
  | exception Mlir.Interp.Runtime_error e -> Error e

(* Saturate the case's function the way the pipeline does; [None] when
   the case has no such function.  The [match-diff] and [extract-diff]
   oracles check the join and the extractor on the saturated graph. *)
let saturate (cfg : Dialegg.Pipeline.config) (case : Gen.case) =
  let m = Mlir.Parser.parse_module case.Gen.c_mlir in
  match Mlir.Ir.find_function m case.Gen.c_func with
  | None -> None
  | Some func ->
    let engine, _, _, _ = Dialegg.Pipeline.setup_function cfg func in
    ignore (Egglog.Interp.run engine cfg.Dialegg.Pipeline.max_iterations);
    Some engine

(* Run the full battery in-process.  [mlir]/[egg] override the case's
   sources so the reducer can probe candidate shrinks. *)
let run_battery ?mlir ?egg config (case : Gen.case) : failure list =
  let case =
    {
      case with
      Gen.c_mlir = Option.value mlir ~default:case.Gen.c_mlir;
      Gen.c_egg = Option.value egg ~default:case.Gen.c_egg;
    }
  in
  let base_cfg = pipeline_config config case in
  let opt cfg = fst (Dialegg.Pipeline.optimize_source ~config:cfg case.Gen.c_mlir) in
  match opt base_cfg with
  | exception Dialegg.Pipeline.Error msg
    when contains ~needle:"validation" msg ->
    [ failure ~oracle:"validator" Validator msg ]
  | exception Dialegg.Pipeline.Error msg ->
    [ failure ~oracle:"pipeline" Crash msg ]
  | exception Mlir.Parser.Syntax_error { line; col; msg } ->
    [ failure ~oracle:"pipeline" Crash (Printf.sprintf "%d:%d: %s" line col msg) ]
  | base ->
    let failures = ref [] in
    let add f = failures := f :: !failures in
    (* -- nondeterminism: one config, two runs, one answer ------------ *)
    (match opt base_cfg with
    | base2 when base2 <> base ->
      add (failure ~oracle:"determinism" Nondet (diff_summary base base2))
    | _ -> ()
    | exception e ->
      add
        (failure ~oracle:"determinism" Nondet
           ("second run raised: " ^ Printexc.to_string e)));
    (* -- configuration differentials -------------------------------- *)
    let compare_run oracle cfg =
      match opt cfg with
      | out when out <> base ->
        add (failure ~oracle Differential (diff_summary base out))
      | _ -> ()
      | exception e ->
        add
          (failure ~oracle Differential
             ("variant raised: " ^ Printexc.to_string e))
    in
    compare_run "naive-diff" { base_cfg with Dialegg.Pipeline.seminaive = false };
    (* -- the join and the extractor against their references --------- *)
    (match saturate base_cfg case with
    | None -> ()
    | Some engine ->
      (match Reference.disagreements engine with
      | [] -> ()
      | (rule, join, reference) :: _ as bad ->
        add
          (failure ~oracle:"match-diff" Differential
             (Printf.sprintf "%d rule(s) disagree; %s: join %d matches, reference %d"
                (List.length bad) rule join reference))
      | exception e ->
        add
          (failure ~oracle:"match-diff" Crash
             ("match check raised: " ^ Printexc.to_string e)));
      (match Reference.extract_disagreements (Egglog.Interp.egraph engine) with
      | [] -> ()
      | (cls, kind, detail) :: _ as bad ->
        (* bucketed by what differs: the terms in the detail vary with
           every case a single extractor bug shows up in *)
        let oracle = "extract-diff" in
        add
          {
            (failure ~oracle Differential
               (Printf.sprintf "%d class(es) disagree; e-class %d, %s: %s" (List.length bad)
                  cls kind detail))
            with
            f_signature = signature ~oracle Differential ~detail:kind;
          }
      | exception e ->
        add
          (failure ~oracle:"extract-diff" Crash
             ("extract check raised: " ^ Printexc.to_string e)))
    | exception e ->
      add (failure ~oracle:"match-diff" Crash ("match check raised: " ^ Printexc.to_string e)));
    (* -- batch ≡ sequential ------------------------------------------ *)
    (try
       let tmp =
         Filename.temp_file "dialegg-fuzz-" ".mlir"
       in
       Fun.protect
         ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
         (fun () ->
           let oc = open_out_bin tmp in
           output_string oc case.Gen.c_mlir;
           close_out oc;
           let m = Mlir.Parser.parse_module case.Gen.c_mlir in
           let jobs = Serve.Queue.shard_module ~path:tmp m in
           let sup_cfg =
             {
               Serve.Supervisor.default_config with
               Serve.Supervisor.pool = 2;
               retries = 0;
               job_timeout = 60.;
               grace = 1.;
               pipeline = base_cfg;
             }
           in
           let report = Serve.Supervisor.run ~config:sup_cfg jobs in
           if not (Serve.Supervisor.report_ok report) then
             add
               (failure ~oracle:"batch-diff" Differential
                  "batch driver reported failed jobs")
           else begin
             Serve.Supervisor.splice_results m report;
             let out = Mlir.Printer.module_to_string m in
             if out <> base then
               add (failure ~oracle:"batch-diff" Differential (diff_summary base out))
           end)
     with e ->
       add
         (failure ~oracle:"batch-diff" Differential
            ("batch run raised: " ^ Printexc.to_string e)));
    (* -- warm cache ≡ cold run (the daemon's serving unit) ----------- *)
    (try
       let dir = Filename.temp_file "dialegg-fuzz-cache" "" in
       Sys.remove dir;
       Unix.mkdir dir 0o700;
       Fun.protect
         ~finally:(fun () ->
           (try
              Array.iter
                (fun f -> Sys.remove (Filename.concat dir f))
                (Sys.readdir dir)
            with Sys_error _ -> ());
           try Unix.rmdir dir with Unix.Unix_error _ -> ())
         (fun () ->
           let key = Serve.Cache.key ~config:base_cfg ~src:case.Gen.c_mlir in
           let cache = Serve.Cache.create ~capacity:8 ~dir:(Some dir) () in
           Serve.Cache.add cache key
             { Serve.Cache.ce_output = base; ce_degraded = 0 };
           (* a second instance sees only the disk tier: the post-restart
              warm path *)
           let cold = Serve.Cache.create ~capacity:0 ~dir:(Some dir) () in
           match Serve.Cache.find cold key with
           | None ->
             add
               (failure ~oracle:"cache-diff" Differential
                  "committed entry missing on disk lookup")
           | Some (entry, _) ->
             let m2 = Mlir.Parser.parse_module case.Gen.c_mlir in
             (match Mlir.Ir.find_function m2 case.Gen.c_func with
             | None -> ()
             | Some f ->
               Dialegg.Pipeline.splice_function f entry.Serve.Cache.ce_output;
               let out = Mlir.Printer.module_to_string m2 in
               if out <> base then
                 add
                   (failure ~oracle:"cache-diff" Differential
                      (diff_summary base out))))
     with e ->
       add
         (failure ~oracle:"cache-diff" Differential
            ("cache round-trip raised: " ^ Printexc.to_string e)));
    (* -- semantics: optimized ≡ input on concrete data --------------- *)
    (try
       let m_in = Mlir.Parser.parse_module case.Gen.c_mlir in
       let m_out = Mlir.Parser.parse_module base in
       for k = 0 to config.fz_sem_checks - 1 do
         let seed = (case.Gen.c_seed * 7919) + (case.Gen.c_index * 131) + k in
         (* fresh argument tensors per run: the interpreter mutates
            destination buffers in place *)
         let r_in =
           interp_values m_in case.Gen.c_func
             (Gen.random_args ~seed m_in case.Gen.c_func)
         in
         let r_out =
           interp_values m_out case.Gen.c_func
             (Gen.random_args ~seed m_in case.Gen.c_func)
         in
         match (r_in, r_out) with
         | Ok vs_in, Ok vs_out ->
           if
             List.length vs_in <> List.length vs_out
             || not (List.for_all2 rv_close vs_in vs_out)
           then
             add
               (failure ~oracle:"semantics" Differential
                  (Printf.sprintf
                     "arg set %d: input computes %s, optimized computes %s" k
                     (String.concat ", " (List.map pp_rv_short vs_in))
                     (String.concat ", " (List.map pp_rv_short vs_out))))
         | Error e_in, Error e_out when e_in = e_out -> ()
         | Error e_in, Error e_out ->
           add
             (failure ~oracle:"semantics" Differential
                (Printf.sprintf "arg set %d: both trap differently: %s vs %s"
                   k e_in e_out))
         | Ok _, Error e ->
           add
             (failure ~oracle:"semantics" Differential
                (Printf.sprintf "arg set %d: optimized program traps: %s" k e))
         | Error e, Ok _ ->
           add
             (failure ~oracle:"semantics" Differential
                (Printf.sprintf "arg set %d: input traps (%s), optimized does not"
                   k e))
       done
     with e ->
       add
         (failure ~oracle:"semantics" Crash
            ("interpreter raised: " ^ Printexc.to_string e)));
    List.rev !failures

(* ------------------------------------------------------------------ *)
(* Subprocess supervision                                              *)
(* ------------------------------------------------------------------ *)

let read_all_deadline fd ~deadline =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then `Timeout
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> `Timeout
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> `Eof (Buffer.contents buf)
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

let run_case ?(config = default_config) (case : Gen.case) : verdict =
  let r, w = Unix.pipe () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (* child: run the battery, marshal the findings, exit 0.  stderr is
       pointed at /dev/null so pipeline warnings don't interleave with
       the campaign's output; a real crash still reaches the parent as
       an exit status. *)
    (try Unix.close r with Unix.Unix_error _ -> ());
    (try
       let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 devnull Unix.stderr;
       Unix.close devnull
     with Unix.Unix_error _ -> ());
    let failures = run_battery config case in
    let b = Marshal.to_bytes (failures : failure list) [] in
    let rec write_all off =
      if off < Bytes.length b then
        write_all (off + Unix.write w b off (Bytes.length b - off))
    in
    (try write_all 0 with Unix.Unix_error _ -> ());
    (try Unix.close w with Unix.Unix_error _ -> ());
    Stdlib.exit 0
  | pid -> (
    Unix.close w;
    let deadline =
      Unix.gettimeofday () +. (float_of_int config.fz_timeout_ms /. 1000.)
    in
    let outcome = read_all_deadline r ~deadline in
    (try Unix.close r with Unix.Unix_error _ -> ());
    match outcome with
    | `Timeout ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      V_fail
        [
          failure ~oracle:"hang" Hang
            (Printf.sprintf "case outlived its %dms budget"
               config.fz_timeout_ms);
        ]
    | `Eof payload -> (
      let _, status = Unix.waitpid [] pid in
      match status with
      | Unix.WEXITED 0 -> (
        match (Marshal.from_string payload 0 : failure list) with
        | [] -> V_pass
        | fs -> V_fail fs
        | exception _ ->
          V_fail
            [
              failure ~oracle:"crash" Crash
                "child exited 0 but its reply was unreadable";
            ])
      | Unix.WEXITED n ->
        V_fail
          [ failure ~oracle:"crash" Crash (Printf.sprintf "child exited %d" n) ]
      | Unix.WSIGNALED s | Unix.WSTOPPED s ->
        V_fail
          [
            failure ~oracle:"crash" Crash
              (Printf.sprintf "child killed by signal %d" s);
          ]))

(* ------------------------------------------------------------------ *)
(* Corpus persistence                                                  *)
(* ------------------------------------------------------------------ *)

let mkdir_p dir =
  let rec make d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      make (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  make dir

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let bucket_dir ~corpus sig_ = Filename.concat (Filename.concat corpus "buckets") sig_

let persist_failure ~corpus ~max_per_bucket (case : Gen.case) f =
  let dir = bucket_dir ~corpus f.f_signature in
  mkdir_p dir;
  let existing =
    match Sys.readdir dir with
    | entries ->
      Array.fold_left
        (fun n e -> if Filename.check_suffix e ".mlir" then n + 1 else n)
        0 entries
    | exception Sys_error _ -> 0
  in
  if existing >= max_per_bucket then None
  else begin
    let prefix = Filename.concat dir (Printf.sprintf "case_%06d" case.Gen.c_index) in
    write_file (prefix ^ ".mlir") case.Gen.c_mlir;
    write_file (prefix ^ ".egg") case.Gen.c_egg;
    write_file (prefix ^ ".json")
      (Printf.sprintf
         "{\"index\":%d,\"seed\":%d,\"shape\":\"%s\",\"func\":\"%s\",\"oracle\":\"%s\",\"severity\":\"%s\",\"signature\":\"%s\",\"detail\":\"%s\"}\n"
         case.Gen.c_index case.Gen.c_seed
         (Gen.shape_name case.Gen.c_shape)
         case.Gen.c_func (json_escape f.f_oracle)
         (severity_name f.f_severity) f.f_signature (json_escape f.f_detail));
    Some prefix
  end

let journal_path corpus = Filename.concat corpus "journal.jsonl"

let append_journal ~corpus (case : Gen.case) failures =
  mkdir_p corpus;
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
      (journal_path corpus)
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "{\"index\":%d,\"seed\":%d,\"shape\":\"%s\",\"sigs\":[%s]}\n"
        case.Gen.c_index case.Gen.c_seed
        (Gen.shape_name case.Gen.c_shape)
        (String.concat ","
           (List.map (fun f -> "\"" ^ f.f_signature ^ "\"") failures)))

(* Minimal field scraping — the journal is machine-written, one object
   per line, no nesting beyond the sigs array. *)
let scrape_int line key =
  let pat = "\"" ^ key ^ "\":" in
  match String.index_opt line '{' with
  | None -> None
  | Some _ -> (
    let pl = String.length pat and ll = String.length line in
    let rec find i =
      if i + pl > ll then None
      else if String.sub line i pl = pat then Some (i + pl)
      else find (i + 1)
    in
    match find 0 with
    | None -> None
    | Some start ->
      let stop = ref start in
      while
        !stop < ll
        && (line.[!stop] = '-' || (line.[!stop] >= '0' && line.[!stop] <= '9'))
      do
        incr stop
      done;
      int_of_string_opt (String.sub line start (!stop - start)))

let scrape_sigs line =
  match String.index_opt line '[' with
  | None -> []
  | Some i -> (
    match String.index_from_opt line i ']' with
    | None -> []
    | Some j ->
      String.sub line (i + 1) (j - i - 1)
      |> String.split_on_char ','
      |> List.filter_map (fun tok ->
             let tok = String.trim tok in
             let tl = String.length tok in
             if tl >= 2 && tok.[0] = '"' && tok.[tl - 1] = '"' then
               Some (String.sub tok 1 (tl - 2))
             else None))

let load_journal ~corpus =
  match open_in (journal_path corpus) with
  | exception Sys_error _ -> (0, [])
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let next = ref 0 in
        let buckets = Hashtbl.create 16 in
        let order = ref [] in
        (try
           while true do
             let line = input_line ic in
             (match scrape_int line "index" with
             | Some i when i + 1 > !next -> next := i + 1
             | _ -> ());
             List.iter
               (fun s ->
                 (match Hashtbl.find_opt buckets s with
                 | None -> order := s :: !order
                 | Some _ -> ());
                 Hashtbl.replace buckets s
                   (1 + Option.value ~default:0 (Hashtbl.find_opt buckets s)))
               (scrape_sigs line)
           done
         with End_of_file -> ());
        (!next, List.rev_map (fun s -> (s, Hashtbl.find buckets s)) !order))
