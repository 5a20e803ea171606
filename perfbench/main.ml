(* perfbench: the repository's benchmark executable.

     perfbench --workload paper8 --seed 1 --seconds 10 --trace 0

   One process runs one workload (paper8, scale64, kv or traced) on one
   engine domain. It first makes an untimed set-up pass over every run
   of the workload: that pass fills the process-wide memos (sequential
   references, KV Zipf tables), picks each kernel's best optimization
   level, and records the simulated results every later iteration must
   reproduce bit for bit. It then repeats the workload's runs for
   [--seconds] of host time, in an order drawn from [--seed], and checks
   every output on every iteration.

   [--trace 0] measures with all host instrumentation off and reports
   the end-to-end metrics. [--trace 1] alternates untraced iterations
   with traced ones: a traced iteration enables the simulator's
   subsystem profiler ({!Dsm_prof.Prof}), wraps every call into a layer
   in a benchmark span, and reads the statistics counters and GC deltas;
   it reports the per-layer metrics. [--setup-only] stops after the
   set-up pass (perfbench/run.py repeats set-up in fresh processes to
   report a median set-up time).

   The last line of standard output is [PERFBENCH_RESULT] followed by a
   JSON object; perfbench/run.py turns it into the benchmark result. The
   process exits non-zero when any run failed. Only public interfaces of
   lib/apps, lib/compiler, lib/trace, lib/sim and lib/prof are used, so
   the benchmark never changes what it measures. *)

module A = Dsm_apps.App_common
module Workload = Dsm_apps.Workload
module Kv = Dsm_apps.Kv
module Config = Dsm_sim.Config
module Stats = Dsm_sim.Stats
module Prof = Dsm_prof.Prof
module Sink = Dsm_trace.Sink
module Check = Dsm_trace.Check
module Event = Dsm_trace.Event
module Programs = Dsm_compiler.Programs
module Transform = Dsm_compiler.Transform
module Interp = Dsm_compiler.Interp

let now = Unix.gettimeofday
let sprintf = Printf.sprintf

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* {1 Benchmark spans}

   Active only in traced iterations. A span records its name, parent,
   iteration, wall-clock interval and the profiler-attributed seconds
   at both ends, so its self time outside the simulator's own profiler
   sections can be computed afterwards. *)

type span = {
  id : int;
  name : string;
  parent : int;
  iter : int;
  t0 : float;
  mutable t1 : float;
  a0 : float;
  mutable a1 : float;
}

let tracing = ref false
let iter_no = ref 0
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 0

(* Seconds the profiler charged to its subsystem sections so far; time
   outside every section is its "(unattributed)" row. *)
let prof_attributed () =
  let rows, _ = Prof.report () in
  List.fold_left
    (fun acc (r : Prof.row) ->
      if r.name = "(unattributed)" then acc else acc +. r.self_s)
    0.0 rows

let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let a0 = prof_attributed () in
    let s =
      { id = !next_span; name; parent; iter = !iter_no; t0 = now (); t1 = 0.0;
        a0; a1 = a0 }
    in
    incr next_span;
    spans := s :: !spans;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        s.a1 <- prof_attributed ();
        open_spans := List.tl !open_spans)
      f
  end

let dur s = s.t1 -. s.t0

(* wall time of the span not spent inside a profiler section *)
let outside s = dur s -. (s.a1 -. s.a0)

(* {1 Runs} *)

type kind = Tmk_base | Tmk_opt | Pvm | Prog_base | Prog_opt | Kv_full | Kv_tenth

type obs = {
  virt_us : float;  (** simulated elapsed time *)
  stats : Stats.t;  (** aggregate simulated counters *)
  seq_us : float;  (** uniprocessor virtual time; 0 when not a speedup run *)
  lat : float array;  (** sorted per-operation virtual latencies (KV) *)
  nops : int;
  events : int;  (** trace events reloaded (traced workload) *)
  jsonl_bytes : int;
}

type case = {
  label : string;
  kind : kind;
  group : string;  (** kernel, program or KV mix the run belongs to *)
  arrival_us : float;  (** KV ladder rung; 0 elsewhere *)
  exec : unit -> obs;
}

(* Every simulated number of a run, bit-exact: floats are marshalled by
   their bits. Two runs with equal signatures produced identical virtual
   times, counters, latencies and trace sizes. *)
let signature o =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (o.virt_us, o.stats, o.seq_us, o.lat, o.nops, o.events, o.jsonl_bytes)
          []))

let copy_stats s =
  let c = Stats.create () in
  Stats.add c s;
  c

let of_result ?(seq_us = 0.0) (r : A.result) =
  {
    virt_us = r.time_us;
    stats = copy_stats r.stats;
    seq_us;
    lat = Option.value ~default:[||] r.latencies_us;
    nops = r.nops;
    events = 0;
    jsonl_bytes = 0;
  }

let check_err label (r : A.result) =
  if not (r.max_err <= 1e-6) then fail "%s: max error %g" label r.max_err

let config procs = Config.with_domains (Config.with_procs Config.default procs) 1

(* {2 Kernels} *)

let level_name = A.opt_level_name

(* The level guard: a kernel only ever runs at a level it lists. *)
let tmk_case (type s) app (module W : Workload.S with type size = s)
    ~size_label (size : s) cfg level =
  if not (List.mem level W.levels) then
    invalid_arg (sprintf "%s does not list level %s" app (level_name level));
  let label = sprintf "%s/%s/%s" app size_label (level_name level) in
  let exec () =
    let r =
      span "apps.tmk" (fun () ->
          W.tmk cfg ~size ~behavior:W.default_behavior ~level ~async:true)
    in
    check_err label r;
    of_result ~seq_us:(W.seq_time_us size) r
  in
  let kind = if level = A.Base then Tmk_base else Tmk_opt in
  { label; kind; group = app; arrival_us = 0.0; exec }

let pvm_case (type s) app (module W : Workload.S with type size = s)
    ~size_label (size : s) cfg =
  let label = sprintf "%s/%s/pvm" app size_label in
  let exec () =
    let r =
      span "apps.pvm" (fun () -> W.pvm cfg ~size ~behavior:W.default_behavior)
    in
    check_err label r;
    of_result ~seq_us:(W.seq_time_us size) r
  in
  { label; kind = Pvm; group = app; arrival_us = 0.0; exec }

(* {2 Compiler programs}

   A program runs untransformed ("base") and after the full
   transformation ("opt"); every shared array it leaves in DSM memory
   must equal the sequential reference, which the set-up pass computes
   once. A [replicated] program (lock_accum) runs its whole loop on every
   processor, so its reference is [nprocs] times the sequential result. *)

let prog_case ?(replicated = false) name prog cfg ~opt =
  let reference =
    lazy
      (let scale = if replicated then float_of_int cfg.Config.nprocs else 1.0 in
       List.map
         (fun (n, a) -> (n, Array.map (fun x -> scale *. x) a))
         (Interp.run_sequential prog))
  in
  let label = sprintf "prog/%s/%s" name (if opt then "opt" else "base") in
  let exec () =
    let prog =
      if opt then
        span "compiler.transform" (fun () ->
            fst
              (Transform.transform prog ~nprocs:cfg.Config.nprocs
                 ~opts:Transform.all))
      else prog
    in
    let sys, out = span "compiler.interp" (fun () -> Interp.execute cfg prog) in
    let stats = copy_stats out.Interp.stats in
    span "compiler.verify" (fun () ->
        let reference = Lazy.force reference in
        List.iter
          (fun (aname, info) ->
            match List.assoc_opt aname reference with
            | None -> fail "%s: no sequential reference for %s" label aname
            | Some want ->
                let got = Interp.fetch_array sys info in
                if Array.length got <> Array.length want then
                  fail "%s: %s has %d elements, reference %d" label aname
                    (Array.length got) (Array.length want);
                Array.iteri
                  (fun i x ->
                    if not (Float.abs (x -. want.(i)) <= 1e-9) then
                      fail "%s: %s[%d] = %g, sequential %g" label aname i x
                        want.(i))
                  got)
          out.Interp.arrays);
    {
      virt_us = out.Interp.elapsed_us;
      stats;
      seq_us = 0.0;
      lat = [||];
      nops = 0;
      events = 0;
      jsonl_bytes = 0;
    }
  in
  { label; kind = (if opt then Prog_opt else Prog_base); group = name;
    arrival_us = 0.0; exec }

(* {2 KV ladder}

   Each mix runs open-loop at every rung of a fixed ladder of per-
   processor inter-arrival times (the first is the size's reference
   rate), and again over only the first tenth of its sessions. The op
   streams and arrival times of that short run are exactly the full
   run's prefix, so when the full run's p99 exceeds the short run's by
   more than {!backlog_factor}, latency grows with run length: the
   rung has a growing backlog. *)

let kv_procs = 8
let kv_mixes = [ "read90"; "write90" ]
let kv_ladder = [ 2000.0; 1600.0; 1300.0; 1000.0; 800.0; 650.0 ]
let kv_sessions = 6144
let latency_limit_ms = 20.0
let backlog_factor = 2.0

let kv_case cfg ~mix ~arrival_us ~tenth =
  let sessions = if tenth then kv_sessions / 10 else kv_sessions in
  let label =
    sprintf "kv/%s/%.0fus%s" mix arrival_us (if tenth then "/tenth" else "")
  in
  let size = { Kv.large with Kv.arrival_us } in
  let behavior =
    match
      Workload.apply_knobs ~with_knob:Kv.with_knob ~default:Kv.default_behavior
        [ ("mix", mix); ("sessions", string_of_int sessions) ]
    with
    | Ok b -> b
    | Error e -> invalid_arg e
  in
  let exec () =
    let r =
      span "apps.tmk" (fun () ->
          Kv.tmk cfg ~size ~behavior ~level:A.Base ~async:true)
    in
    check_err label r;
    if Option.fold ~none:0 ~some:Array.length r.A.latencies_us <> r.A.nops then
      fail "%s: %d latencies for %d operations" label
        (Option.fold ~none:0 ~some:Array.length r.A.latencies_us)
        r.A.nops;
    of_result r
  in
  { label; kind = (if tenth then Kv_tenth else Kv_full); group = mix;
    arrival_us; exec }

(* {2 Traced runs}

   The dsm_run --trace --check / --recheck path: record the run's
   protocol events, check them, write them as JSON lines, load them back
   and check the reloaded events again. *)

let traced_case (type s) app (module W : Workload.S with type size = s)
    ~size_label (size : s) cfg ~tmp =
  let label = sprintf "%s/%s/base+trace" app size_label in
  let file = Filename.concat tmp (sprintf "%s-%s.jsonl" app size_label) in
  let nprocs = cfg.Config.nprocs in
  let violations what = function
    | [] -> ()
    | v :: _ as vs ->
        fail "%s: %s found %d violations, first: %s" label what
          (List.length vs)
          (Format.asprintf "%a" Check.pp_violation v)
  in
  let exec () =
    let sink = Sink.create ~nprocs () in
    let r =
      span "trace.run" (fun () ->
          W.tmk ~trace:sink cfg ~size ~behavior:W.default_behavior
            ~level:A.Base ~async:true)
    in
    check_err label r;
    if Sink.dropped sink > 0 then
      fail "%s: sink dropped %d events" label (Sink.dropped sink);
    violations "checker" (span "trace.check" (fun () -> Check.run_sink sink));
    span "trace.write" (fun () ->
        let oc = open_out_bin file in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Sink.write_jsonl oc sink));
    let bytes = (Unix.stat file).Unix.st_size in
    let load =
      Fun.protect
        ~finally:(fun () -> Sys.remove file)
        (fun () -> span "trace.load" (fun () -> Event.load_jsonl file))
    in
    if load.Event.warnings <> [] then
      fail "%s: reload warned %d times" label (List.length load.Event.warnings);
    let n = List.length load.Event.events in
    if n <> Sink.emitted sink then
      fail "%s: reloaded %d events, emitted %d" label n (Sink.emitted sink);
    violations "recheck"
      (span "trace.recheck" (fun () -> Check.run ~nprocs load.Event.events));
    { (of_result ~seq_us:(W.seq_time_us size) r) with
      events = n; jsonl_bytes = bytes }
  in
  { label; kind = Tmk_base; group = app; arrival_us = 0.0; exec }

(* {1 Workloads} *)

type workload = {
  wname : string;
  cases : case list;  (** every run of the set-up pass *)
  select : (case * obs) list -> case list;
      (** the runs of a timed iteration, given the set-up results *)
}

(* The Runset.best_level rule: among the listed non-base levels, the
   asynchronous run with the least virtual time; ties keep the first
   listed. *)
let best_levels setup =
  List.fold_left
    (fun acc (c, o) ->
      if c.kind <> Tmk_opt then acc
      else
        match List.assoc_opt c.group acc with
        | Some (_, bo) when bo.virt_us <= o.virt_us -> acc
        | _ -> (c.group, (c, o)) :: List.remove_assoc c.group acc)
    [] setup
  |> List.map (fun (_, (c, _)) -> c)

(* The paper's evaluation point (Figures 5 and 6): the six kernels at 8
   processors, each at Base, at its best listed level and as the PVMe
   program, plus the five compiler programs through Transform and
   Interp. Host time here is mostly the engine+app accessor path and
   interpretation; the small data sets keep an iteration near 1.5 s so
   a run measures several. *)
let paper8 () =
  let cfg = config 8 in
  let kernels =
    List.concat_map
      (fun (app, m) ->
        let module W = (val m : Workload.S) in
        let w = (module W : Workload.S with type size = W.size) in
        let size = List.assoc "small" W.sizes in
        List.map (tmk_case app w ~size_label:"small" size cfg) W.levels
        @ [ pvm_case app w ~size_label:"small" size cfg ])
      Dsm_apps.Registry.kernels
  in
  let programs =
    [
      ("jacobi", Programs.jacobi ~m:64 ~iters:3, false);
      ("transpose", Programs.transpose ~m:32 ~iters:2, false);
      ("redblack", Programs.redblack ~n:256 ~iters:3, false);
      ("masked", Programs.masked ~m:64 ~iters:3, false);
      ("lock_accum", Programs.lock_accum ~n:64 ~iters:3, true);
    ]
    |> List.concat_map (fun (name, prog, replicated) ->
           [ prog_case ~replicated name prog cfg ~opt:false;
             prog_case ~replicated name prog cfg ~opt:true ])
  in
  let select setup =
    let best = best_levels setup in
    List.filter_map
      (fun (c, _) -> if c.kind <> Tmk_opt || List.memq c best then Some c else None)
      setup
  in
  { wname = "paper8"; cases = kernels @ programs; select }

(* Protocol-bound: at 64 processors the tmk protocol, not application
   compute, takes most of the host time (IS above all). Sizes are cut
   from the scaling experiment's so an iteration takes about two
   seconds. *)
let scale64 () =
  let cfg = config 64 in
  let cases =
    [
      ("is", tmk_case "is" (module Dsm_apps.Is) ~size_label:"small-r1"
               { Dsm_apps.Is.small with reps = 1 } cfg A.Base);
      ("gauss", tmk_case "gauss" (module Dsm_apps.Gauss) ~size_label:"small"
                  Dsm_apps.Gauss.small cfg A.Base);
      ("jacobi", tmk_case "jacobi" (module Dsm_apps.Jacobi)
                   ~size_label:"small-i5" { Dsm_apps.Jacobi.small with iters = 5 }
                   cfg A.Base);
    ]
    |> List.map snd
  in
  { wname = "scale64"; cases; select = List.map fst }

(* Writes beside reads on the same lock / Validate / object-skip path,
   under open-loop load: a change that helps one mix and hurts the
   other shows in the split figures. *)
let kv () =
  let cfg = config kv_procs in
  let cases =
    List.concat_map
      (fun mix ->
        List.concat_map
          (fun arrival_us ->
            [ kv_case cfg ~mix ~arrival_us ~tenth:false;
              kv_case cfg ~mix ~arrival_us ~tenth:true ])
          kv_ladder)
      kv_mixes
  in
  { wname = "kv"; cases; select = List.map fst }

(* The only workload where lib/trace does most of the work: emission,
   the JSONL codec and the checker. Every other workload runs
   untraced. Gauss is left out: its small set alone costs more host time
   here than the other five kernels together. *)
let traced ~tmp () =
  let cfg = config 8 in
  let cases =
    [
      traced_case "jacobi" (module Dsm_apps.Jacobi) ~size_label:"small-i5"
        { Dsm_apps.Jacobi.small with iters = 5 } cfg ~tmp;
      traced_case "fft3d" (module Dsm_apps.Fft3d) ~size_label:"small"
        Dsm_apps.Fft3d.small cfg ~tmp;
      traced_case "shallow" (module Dsm_apps.Shallow) ~size_label:"small-s4"
        { Dsm_apps.Shallow.small with steps = 4 } cfg ~tmp;
      traced_case "is" (module Dsm_apps.Is) ~size_label:"small"
        Dsm_apps.Is.small cfg ~tmp;
      traced_case "mgs" (module Dsm_apps.Mgs) ~size_label:"small-n64"
        { Dsm_apps.Mgs.small with n = 64 } cfg ~tmp;
    ]
  in
  { wname = "traced"; cases; select = List.map fst }

let workloads = [ "paper8"; "scale64"; "kv"; "traced" ]

let make_workload ~tmp = function
  | "paper8" -> paper8 ()
  | "scale64" -> scale64 ()
  | "kv" -> kv ()
  | "traced" -> traced ~tmp ()
  | w -> invalid_arg ("unknown workload " ^ w)

(* {1 Statistics} *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let geomean = function
  | [] -> 0.0
  | l ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 l
        /. float_of_int (List.length l))

(* Nearest-rank percentile of a sorted array: the value, and how many
   samples lie strictly beyond its rank. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then (0.0, 0)
  else
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
    (sorted.(rank - 1), n - rank)

let sum_stats f results =
  List.fold_left (fun acc (_, o, _) -> acc + f o.stats) 0 results

(* {1 Host-speed calibration}

   The benchmark shares its host with other work, whose load moves the
   host's speed by tens of percent for tens of seconds at a time. Host
   times are therefore reported in reference seconds: wall seconds scaled
   by how long a fixed calibration loop took around them, relative to
   [cal_ref_s], the loop's time on an idle host. The loop is plain OCaml
   with the simulator's mix of work (hashing, small allocations, 4 KB
   page copies, a float stencil) and calls no code of the repository, so
   no change to the simulator moves it. Raw wall seconds stay in the
   report and in the traced metrics. *)

let cal_ref_s = 0.025
let cal_pages = Array.init 512 (fun _ -> Bytes.make 4096 'a')

let calibrate () =
  let t = now () in
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  let a = Array.make 65536 1.0 and b = Array.make 65536 0.0 in
  for r = 0 to 5 do
    for i = 0 to 32767 do
      Hashtbl.replace h ((i * 7919) land 32767) (i, r);
      acc := !acc + List.length [ i; r ]
    done;
    Array.iteri
      (fun i p ->
        Bytes.blit p 0 cal_pages.(((i * 37) + r) land 511) 0 4096;
        acc := !acc + Char.code (Bytes.get p (i land 4095)))
      cal_pages;
    for i = 1 to 65534 do
      b.(i) <- (0.25 *. (a.(i - 1) +. a.(i + 1))) +. (0.5 *. a.(i))
    done;
    acc := !acc + Hashtbl.length h + int_of_float b.(r + 1)
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t

let calibrate_median () = median [ calibrate (); calibrate (); calibrate () ]
let reference_seconds wall ~cal = wall *. cal_ref_s /. cal

(* {1 Iterations} *)

let attempted = ref 0
let failures : string list ref = ref []

let record_failure msg =
  failures := msg :: !failures;
  Printf.printf "FAIL %s\n%!" msg

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type iteration = {
  wall_s : float;
  minor_words : float;
  results : (case * obs * float) list;  (** case, outcome, host seconds *)
}

(* Run every case once, in the order given. Each run ends with a full
   major collection, timed as part of the run: every run starts from a
   clean heap and pays for its own garbage, so no run is charged for the
   previous one's and the run order does not move host times. A failed
   run is counted and left out of [results]; [reference] (label ->
   signature, from the set-up pass) makes any drift of a simulated
   number a failure too. *)
let iteration ?reference order cases =
  let words = ref 0.0 in
  let results =
    span "bench.iteration" (fun () ->
        List.filter_map
          (fun c ->
            incr attempted;
            let w = Gc.minor_words () and t = now () in
            let outcome =
              span "bench.case" (fun () ->
                  let o =
                    match c.exec () with
                    | o -> Ok o
                    | exception Failed msg -> Error msg
                    | exception e ->
                        Error (sprintf "%s: %s" c.label (Printexc.to_string e))
                  in
                  span "gc.collect" Gc.full_major;
                  o)
            in
            let host = now () -. t in
            words := !words +. (Gc.minor_words () -. w);
            match (outcome, reference) with
            | Error msg, _ ->
                record_failure msg;
                None
            | Ok o, Some r when Hashtbl.find r c.label <> signature o ->
                record_failure
                  (sprintf "%s: simulated results differ from the set-up pass"
                     c.label);
                None
            | Ok o, _ -> Some (c, o, host))
          order)
  in
  (* presentation order *)
  let results =
    List.filter_map
      (fun c -> List.find_opt (fun (c', _, _) -> c' == c) results)
      cases
  in
  {
    wall_s = List.fold_left (fun acc (_, _, h) -> acc +. h) 0.0 results;
    minor_words = !words;
    results;
  }

(* {1 Simulated end results of one iteration} *)

type kv_rung = {
  mix : string;
  arrival : float;
  rate : float;  (** offered ops per virtual second, all processors *)
  p50_ms : float;
  p99_ms : float;
  n : int;
  beyond50 : int;
  beyond99 : int;
  backlog : float;  (** p99 over the run's first-tenth p99 *)
  ok : bool;
}

let kv_rungs results =
  List.filter_map
    (fun (c, o, _) ->
      if c.kind <> Kv_full then None
      else
        let tenth =
          List.find_map
            (fun (c', o', _) ->
              if c'.kind = Kv_tenth && c'.group = c.group
                 && c'.arrival_us = c.arrival_us
              then Some o'
              else None)
            results
        in
        let p50, b50 = percentile o.lat 0.50 in
        let p99, b99 = percentile o.lat 0.99 in
        let backlog =
          match tenth with
          | Some t -> p99 /. fst (percentile t.lat 0.99)
          | None -> Float.infinity
        in
        Some
          {
            mix = c.group;
            arrival = c.arrival_us;
            rate = float_of_int kv_procs *. 1e6 /. c.arrival_us;
            p50_ms = p50 /. 1e3;
            p99_ms = p99 /. 1e3;
            n = Array.length o.lat;
            beyond50 = b50;
            beyond99 = b99;
            backlog;
            ok = p99 /. 1e3 <= latency_limit_ms && backlog <= backlog_factor;
          })
    results

let simulated results =
  let of_kind k = List.filter (fun (c, _, _) -> c.kind = k) results in
  let speedups =
    List.filter_map
      (fun (_, o, _) -> if o.seq_us > 0.0 then Some (o.seq_us /. o.virt_us) else None)
      (of_kind Tmk_base @ of_kind Tmk_opt)
  in
  (* paper headline: PVMe time over the best-level time, per kernel *)
  let opt_vs_pvm =
    List.filter_map
      (fun (c, o, _) ->
        let best = List.filter (fun (c', _, _) -> c'.group = c.group) (of_kind Tmk_opt) in
        match best with
        | [ (_, b, _) ] -> Some (o.virt_us /. b.virt_us)
        | _ -> None)
      (of_kind Pvm)
  in
  let opt_over_base =
    List.filter_map
      (fun (c, o, _) ->
        List.find_map
          (fun (c', b, _) -> if c'.group = c.group then Some (b.virt_us /. o.virt_us) else None)
          (of_kind Prog_base))
      (of_kind Prog_opt)
  in
  let rungs = kv_rungs results in
  let at_ref mix =
    List.find_opt (fun r -> r.mix = mix && r.arrival = List.hd kv_ladder) rungs
  in
  let max_rate mix =
    List.fold_left
      (fun acc r -> if r.mix = mix && r.ok then Float.max acc r.rate else acc)
      0.0 rungs
  in
  let kv_figs =
    List.concat_map
      (fun mix ->
        let p50, p99 =
          match at_ref mix with Some r -> (r.p50_ms, r.p99_ms) | None -> (0.0, 0.0)
        in
        [ ("p50_ms." ^ mix, p50); ("p99_ms." ^ mix, p99);
          ("max_rate." ^ mix, max_rate mix) ])
      kv_mixes
  in
  ( [ ("speedup_geomean", geomean speedups); ("opt_vs_pvm", geomean opt_vs_pvm);
      ("compiler.opt_over_base", geomean opt_over_base) ],
    kv_figs,
    rungs )

(* {1 Per-layer metrics}

   [layer_table] names every per-layer metric with its unit, the
   direction that is better, the end-to-end metric it should move and
   the workload it should move it on. perfbench/run.py checks the names
   against BENCHMARK.json. *)

let layer_table =
  [
    ("sim.engine_app_self_s", "s", "lower", "host_s", "paper8");
    ("sim.host_us_per_msg", "us", "lower", "host_s", "paper8");
    ("tmk.protocol_self_s", "s", "lower", "host_s", "scale64, kv");
    ("tmk.sync_self_s", "s", "lower", "host_s", "scale64, kv");
    ("tmk.vc_ops", "count", "lower", "host_s", "scale64, kv");
    ("tmk.segv", "count", "lower", "msgs, p99_ms.*", "scale64, kv");
    ("tmk.mprotects", "count", "lower", "host_s", "scale64, kv");
    ("tmk.twins", "count", "lower", "host_s", "scale64, kv");
    ("tmk.validates", "count", "lower", "msgs", "kv");
    ("tmk.pushes", "count", "lower", "msgs", "paper8");
    ("tmk.lock_acquires", "count", "lower", "msgs, p99_ms.*", "kv");
    ("tmk.barriers", "count", "lower", "msgs, speedup_geomean", "scale64");
    ("tmk.broadcasts", "count", "lower", "msgs", "scale64");
    ("tmk.obj_skips", "count", "higher", "msgs, p99_ms.write90", "kv");
    ("tmk.obj_skip_ratio", "ratio", "higher", "max_rate.write90", "kv");
    ("mem.diff_create_self_s", "s", "lower", "host_s", "kv, scale64");
    ("mem.diff_apply_self_s", "s", "lower", "host_s", "kv, scale64");
    ("mem.diffs_created", "count", "lower", "data_mb", "kv, scale64");
    ("mem.diffs_applied", "count", "lower", "data_mb", "kv, scale64");
    ("mem.diff_bytes_mb", "MB", "lower", "data_mb", "kv, scale64");
    ("net.self_s", "s", "lower", "host_s", "kv, scale64");
    ("net.msgs", "count", "lower", "msgs", "kv, scale64");
    ("net.bytes_mb", "MB", "lower", "data_mb", "kv, scale64");
    ("net.msgs_per_op", "count", "lower", "msgs, p99_ms.*", "kv");
    ("net.bytes_per_op", "B", "lower", "data_mb, p99_ms.*", "kv");
    ("compiler.transform_s", "s", "lower", "host_s", "paper8");
    ("compiler.interp_s", "s", "lower", "host_s", "paper8");
    ("compiler.opt_over_base", "x", "higher", "speedup_geomean", "paper8");
    ("mp.pvm_host_s", "s", "lower", "host_s", "paper8");
    ("mp.pvm_virt_s", "virt_s", "lower", "opt_vs_pvm", "paper8");
    ("trace.events", "count", "lower", "host_s", "traced");
    ("trace.emit_ops", "count", "lower", "host_s", "traced");
    ("trace.run_s", "s", "lower", "host_s", "traced");
    ("trace.check_s", "s", "lower", "host_s", "traced");
    ("trace.write_s", "s", "lower", "host_s", "traced");
    ("trace.jsonl_mb", "MB", "lower", "host_s", "traced");
    ("trace.load_s", "s", "lower", "host_s", "traced");
    ("trace.recheck_s", "s", "lower", "host_s", "traced");
    ("speedup_geomean", "x", "higher", "speedup_geomean", "paper8, scale64");
    ("opt_vs_pvm", "x", "higher", "opt_vs_pvm", "paper8");
    ("p50_ms.read90", "virt_ms", "lower", "p50_ms.read90", "kv");
    ("p99_ms.read90", "virt_ms", "lower", "p99_ms.read90", "kv");
    ("p50_ms.write90", "virt_ms", "lower", "p50_ms.write90", "kv");
    ("p99_ms.write90", "virt_ms", "lower", "p99_ms.write90", "kv");
    ("max_rate.read90", "1/virt_s", "higher", "max_rate.read90", "kv");
    ("max_rate.write90", "1/virt_s", "higher", "max_rate.write90", "kv");
    ("failed_frac", "ratio", "lower", "failed_frac", "all");
    ("gc.minor_collections", "count", "lower", "host_s", "all");
    ("gc.major_collections", "count", "lower", "host_s, host_peak_mb", "all");
    ("gc.promoted_mw", "Mw", "lower", "host_s, host_peak_mb", "all");
    ("gc.collect_s", "s", "lower", "host_s", "all");
    ("bench.untraced_host_s", "s", "lower", "host_s", "all");
    ("bench.traced_host_s", "s", "lower", "host_s", "all");
    ("bench.trace_overhead_s", "s", "lower", "host_s", "all");
    ("bench.span_self_s", "s", "lower", "host_s", "all");
    ("bench.unattributed_s", "s", "lower", "host_s", "all");
  ]

type traced = {
  figures : (string * float) list;
  rows : Prof.row list;
  span_self : (string * float) list;
      (** self seconds outside the profiler, summed per span name *)
  attributed : float;  (** seconds the profiler charged to its sections *)
  remainder : float;  (** iteration seconds neither of them covers *)
}

let add_to key v assoc =
  (key, v +. Option.value ~default:0.0 (List.assoc_opt key assoc))
  :: List.remove_assoc key assoc

(* Layer figures of one traced iteration: profiler rows, benchmark
   spans, statistics counters and GC deltas. *)
let traced_figures it ~iter ~untraced_s ~gc0 ~gc1 =
  let rows, _ = Prof.report () in
  let prof field name =
    List.fold_left
      (fun acc (r : Prof.row) -> if r.name = name then acc +. field r else acc)
      0.0 rows
  in
  let self = prof (fun r -> r.self_s)
  and ops = prof (fun r -> float_of_int r.ops) in
  let attributed =
    List.fold_left ( +. ) 0.0
      (List.map
         (fun (r : Prof.row) -> if r.name = "(unattributed)" then 0.0 else r.self_s)
         rows)
  in
  (* the iteration's own span only groups the runs; it covers the runs'
     spans and nothing else *)
  let my =
    List.filter (fun s -> s.iter = iter && s.name <> "bench.iteration") !spans
  in
  let self_outside s =
    List.fold_left
      (fun acc c -> if c.parent = s.id then acc -. outside c else acc)
      (outside s) my
  in
  let span_self =
    List.fold_left (fun acc s -> add_to s.name (self_outside s) acc) [] my
  in
  let span_total name =
    List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0.0 my
  in
  let total_self = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 span_self in
  let results = it.results in
  let st f = float_of_int (sum_stats f results) in
  let sum_obs f = List.fold_left (fun acc (_, o, _) -> acc +. f o) 0.0 results in
  let validates = st (fun s -> s.Stats.validates) in
  let nops = sum_obs (fun o -> float_of_int o.nops) in
  let per_op x = if nops > 0.0 then x /. nops else 0.0 in
  let msgs = st (fun s -> s.Stats.messages)
  and bytes = st (fun s -> s.Stats.bytes) in
  let pvm_virt_s =
    List.fold_left
      (fun acc (c, o, _) -> if c.kind = Pvm then acc +. (o.virt_us /. 1e6) else acc)
      0.0 results
  in
  let figs, kv_figs, _ = simulated results in
  let figures =
    [
      ("sim.engine_app_self_s", self "engine+app");
      ("sim.host_us_per_msg", if msgs > 0.0 then untraced_s *. 1e6 /. msgs else 0.0);
      ("tmk.protocol_self_s", self "protocol");
      ("tmk.sync_self_s", self "sync");
      ("tmk.vc_ops", ops "vc");
      ("tmk.segv", st (fun s -> s.Stats.segv));
      ("tmk.mprotects", st (fun s -> s.Stats.mprotects));
      ("tmk.twins", st (fun s -> s.Stats.twins));
      ("tmk.validates", validates);
      ("tmk.pushes", st (fun s -> s.Stats.pushes));
      ("tmk.lock_acquires", st (fun s -> s.Stats.lock_acquires));
      ("tmk.barriers", st (fun s -> s.Stats.barriers));
      ("tmk.broadcasts", st (fun s -> s.Stats.broadcasts));
      ("tmk.obj_skips", st (fun s -> s.Stats.obj_skips));
      ( "tmk.obj_skip_ratio",
        if validates > 0.0 then st (fun s -> s.Stats.obj_skips) /. validates
        else 0.0 );
      ("mem.diff_create_self_s", self "diff-create");
      ("mem.diff_apply_self_s", self "diff-apply");
      ("mem.diffs_created", st (fun s -> s.Stats.diffs_created));
      ("mem.diffs_applied", st (fun s -> s.Stats.diffs_applied));
      ("mem.diff_bytes_mb", st (fun s -> s.Stats.diff_bytes_applied) /. 1e6);
      ("net.self_s", self "net");
      ("net.msgs", msgs);
      ("net.bytes_mb", bytes /. 1e6);
      ("net.msgs_per_op", per_op msgs);
      ("net.bytes_per_op", per_op bytes);
      ("compiler.transform_s", span_total "compiler.transform");
      ("compiler.interp_s", span_total "compiler.interp");
      ("mp.pvm_host_s", span_total "apps.pvm");
      ("mp.pvm_virt_s", pvm_virt_s);
      ("trace.events", sum_obs (fun o -> float_of_int o.events));
      ("trace.emit_ops", ops "trace-sink");
      ("trace.run_s", span_total "trace.run");
      ("trace.check_s", span_total "trace.check");
      ("trace.write_s", span_total "trace.write");
      ("trace.jsonl_mb", sum_obs (fun o -> float_of_int o.jsonl_bytes) /. 1e6);
      ("trace.load_s", span_total "trace.load");
      ("trace.recheck_s", span_total "trace.recheck");
      ( "gc.minor_collections",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("gc.promoted_mw", (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6);
      ("gc.collect_s", span_total "gc.collect");
      ("bench.untraced_host_s", untraced_s);
      ("bench.traced_host_s", it.wall_s);
      ("bench.trace_overhead_s", it.wall_s -. untraced_s);
      ("bench.span_self_s", total_self);
      ("bench.unattributed_s", it.wall_s -. attributed -. total_self);
    ]
    @ figs @ kv_figs
  in
  {
    figures;
    rows;
    span_self = List.sort compare span_self;
    attributed;
    remainder = it.wall_s -. attributed -. total_self;
  }

(* {1 Report} *)

let e2e_units =
  [ ("setup_s", "s"); ("host_s", "s"); ("host_alloc_mw", "Mw");
    ("host_peak_mb", "MB"); ("msgs", "count"); ("data_mb", "MB") ]

let unit_of name =
  match List.find_opt (fun (n, _, _, _, _) -> n = name) layer_table with
  | Some (_, u, _, _, _) -> u
  | None -> List.assoc name e2e_units

(* host seconds of one run in every iteration that measured it *)
let case_hosts its c =
  List.concat_map
    (fun it ->
      List.filter_map (fun (c', _, h) -> if c' == c then Some h else None) it.results)
    its

let print_runs its =
  match its with
  | [] -> ()
  | last :: _ ->
      Printf.printf
        "apps layer, per run (moves speedup_geomean and max_rate.* on every workload):\n";
      Printf.printf "%-30s %14s %9s %9s %8s %11s\n" "run" "virt_us" "msgs" "MB"
        "speedup" "host_s(med)";
      List.iter
        (fun (c, o, _) ->
          Printf.printf "%-30s %14.0f %9d %9.3f %8s %11.4f\n" c.label o.virt_us
            o.stats.Stats.messages
            (float_of_int o.stats.Stats.bytes /. 1e6)
            (if o.seq_us > 0.0 then sprintf "%.2f" (o.seq_us /. o.virt_us)
             else "-")
            (median (case_hosts its c)))
        last.results

let print_rungs rungs =
  if rungs <> [] then begin
    Printf.printf
      "KV ladder (limit p99 <= %.0f virt ms; backlog = p99 / first-tenth p99 <= %.1f)\n"
      latency_limit_ms backlog_factor;
    Printf.printf "%-8s %8s %9s %24s %24s %8s %s\n" "mix" "arr_us" "ops/s"
      "p50 ms (n, beyond)" "p99 ms (n, beyond)" "backlog" "ok";
    List.iter
      (fun r ->
        Printf.printf "%-8s %8.0f %9.0f %24s %24s %8.2f %s\n" r.mix r.arrival
          r.rate
          (sprintf "%.3f (%d, %d)" r.p50_ms r.n r.beyond50)
          (sprintf "%.3f (%d, %d)" r.p99_ms r.n r.beyond99)
          r.backlog
          (if r.ok then "yes" else "no"))
      rungs
  end

let print_metric (name, v) = Printf.printf "  %-24s %16.6f %s\n" name v (unit_of name)

let print_accounting (it, t) =
  Printf.printf "traced iteration accounting (wall %.4f s):\n" it.wall_s;
  List.iter
    (fun (r : Prof.row) ->
      if r.name <> "(unattributed)" then
        Printf.printf "  prof %-22s %10.4f s %10.2f Mw %10d ops\n" r.name
          r.self_s r.alloc_mw r.ops)
    t.rows;
  List.iter
    (fun (n, v) -> Printf.printf "  span %-22s %10.4f s self, outside prof\n" n v)
    t.span_self;
  Printf.printf "  %-27s %10.4f s\n" "unattributed remainder" t.remainder;
  if Float.abs t.remainder > 0.02 *. it.wall_s then
    record_failure
      (sprintf
         "traced accounting: profiler rows and span self times miss the \
          iteration's %.4f s by %.4f s"
         it.wall_s t.remainder)

let json_metrics metrics =
  String.concat ","
    (List.map
       (fun (name, value) ->
         if not (Float.is_finite value) then
           failwith (sprintf "metric %s is not finite" name);
         sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name value (unit_of name))
       metrics)

let result_line ~workload ~seed ~setup_s ~sim_digest metrics =
  let failed = List.length !failures in
  Printf.printf
    "PERFBENCH_RESULT {\"workload\":%S,\"seed\":%d,\"setup_s\":%.17g,\"sim_digest\":%S,\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    workload seed setup_s sim_digest (failed = 0) !attempted failed
    (json_metrics metrics)

(* {1 Main} *)

type setup = {
  setup_s : float;  (** reference seconds *)
  peak_mb : float;  (** peak major heap of the pass *)
  reference : (string, string) Hashtbl.t;  (** label -> signature *)
  timed : case list;
  sim_digest : string;
}

(* The set-up pass: every run once, in listed order, untimed by the
   measurement loop — it fills the memos, picks the best levels and
   records the signatures every later iteration must reproduce. *)
let setup_pass w =
  let cal0 = calibrate_median () in
  let t0 = now () in
  let pass = iteration w.cases w.cases in
  let wall = now () -. t0 in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let setup_s = reference_seconds wall ~cal:((cal0 +. calibrate_median ()) /. 2.0) in
  let reference = Hashtbl.create 64 in
  List.iter
    (fun (c, o, _) -> Hashtbl.replace reference c.label (signature o))
    pass.results;
  let timed = w.select (List.map (fun (c, o, _) -> (c, o)) pass.results) in
  let sim_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map (fun c -> c.label ^ "=" ^ Hashtbl.find reference c.label) timed)))
  in
  Printf.printf
    "setup: %.3f s wall, %.3f reference s, %d runs, simulated-results digest %s\n%!"
    wall setup_s (List.length w.cases) sim_digest;
  { setup_s; peak_mb; reference; timed; sim_digest }

(* Timed iterations for [seconds] (at least three): untraced ones, each
   between two calibrations, and with [trace] a traced one after each. *)
let measure ~seconds ~trace ~rng s =
  let deadline = now () +. seconds in
  let untraced = ref [] and traced = ref [] in
  let run () = iteration ~reference:s.reference (shuffle rng s.timed) s.timed in
  while now () < deadline || List.length !untraced < 3 do
    let c0 = calibrate () in
    let u = run () in
    let ref_s = reference_seconds u.wall_s ~cal:((c0 +. calibrate ()) /. 2.0) in
    untraced := (u, ref_s) :: !untraced;
    if trace then begin
      incr iter_no;
      tracing := true;
      let gc0 = Gc.quick_stat () in
      Prof.enable ();
      let t = run () in
      Prof.disable ();
      let gc1 = Gc.quick_stat () in
      tracing := false;
      traced :=
        (t, traced_figures t ~iter:!iter_no ~untraced_s:u.wall_s ~gc0 ~gc1)
        :: !traced
    end
  done;
  (!untraced, !traced)

let write_spans file =
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"iter\":%d,\"start\":%.6f,\"end\":%.6f,\"self_outside_prof_s\":%.6f}\n"
        s.id s.name s.parent s.iter s.t0 s.t1 (outside s))
    (List.rev !spans);
  close_out oc

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0
  and trace = ref 0 and setup_only = ref false and tmp = ref "." in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, " seed of the run order (recorded)");
      ("--seconds", Arg.Set_float seconds, " host seconds to measure");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--setup-only", Arg.Set setup_only, " stop after the set-up pass");
      ("--tmp", Arg.Set_string tmp, " directory for trace files and spans");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if not (List.mem !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline
      ("perfbench: --workload must be one of " ^ String.concat ", " workloads
     ^ "; --trace 0 or 1");
    exit 2
  end;
  let w = make_workload ~tmp:!tmp !workload in
  Printf.printf
    "perfbench workload=%s seed=%d seconds=%g trace=%d domains=1 backend=lrc\n%!"
    w.wname !seed !seconds !trace;
  let s = setup_pass w in
  let finish metrics =
    result_line ~workload:w.wname ~seed:!seed ~setup_s:s.setup_s
      ~sim_digest:s.sim_digest metrics;
    exit (if !failures = [] then 0 else 1)
  in
  if !setup_only then finish [];
  let untraced, traced =
    measure ~seconds:!seconds ~trace:(!trace = 1)
      ~rng:(Random.State.make [| !seed |]) s
  in
  let its = List.map fst untraced in
  print_runs its;
  let last = (List.hd its).results in
  let figs, kv_figs, rungs = simulated last in
  print_rungs rungs;
  let e2e =
    [
      ("setup_s", s.setup_s);
      ("host_s", median (List.map snd untraced));
      ("host_alloc_mw", median (List.map (fun it -> it.minor_words /. 1e6) its));
      ("host_peak_mb", s.peak_mb);
      ("msgs", float_of_int (sum_stats (fun s -> s.Stats.messages) last));
      ("data_mb", float_of_int (sum_stats (fun s -> s.Stats.bytes) last) /. 1e6);
    ]
  in
  let failed_frac =
    float_of_int (List.length !failures) /. float_of_int (max 1 !attempted)
  in
  Printf.printf
    "end-to-end (%d untraced iterations; host times in reference seconds, \
     median wall %.4f s):\n"
    (List.length its) (median (List.map (fun it -> it.wall_s) its));
  List.iter print_metric e2e;
  List.iter print_metric (List.filter (fun (_, v) -> v <> 0.0) figs);
  if rungs <> [] then List.iter print_metric kv_figs;
  Printf.printf "  %-24s %16.6f ratio (attempted %d, failed %d)\n" "failed_frac"
    failed_frac !attempted (List.length !failures);
  if !trace = 0 then finish e2e;
  print_accounting (List.hd traced);
  Printf.printf "per-layer (median of %d traced iterations):\n" (List.length traced);
  let per_layer =
    List.map
      (fun (name, unit, better, moves, on) ->
        let v =
          if name = "failed_frac" then failed_frac
          else median (List.map (fun (_, t) -> List.assoc name t.figures) traced)
        in
        Printf.printf "  %-26s %16.6f %-9s %-6s moves %s on %s\n" name v unit
          better moves on;
        (name, v))
      layer_table
  in
  let file = Filename.concat !tmp (sprintf "spans-%s-seed%d.jsonl" w.wname !seed) in
  write_spans file;
  Printf.printf "spans written to %s\n" file;
  finish per_layer
