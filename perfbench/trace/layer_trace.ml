(* Layer trace for the tlsharm benchmark.

   Runs one benchmark workload in-process, taking the steps the CLI takes,
   and times each call into a layer's public functions on the host clock,
   with Gc.quick_stat deltas. It measures only what the CLI does not:
   counters and kernel counts come from the real binary's --metrics-out,
   which perfbench/run.py reads. Writes one JSON object to --out:

     { "wall_s": w, "failed_checks": [...], "metrics": { "<name>": v, ... } }

   [wall_s] covers the workload's steps only, and the top-level spans
   partition it: their sum plus [other_s] is [wall_s]. Calibrations
   (sampled handshakes, kernel timings, spool replays, the traffic world
   build and archive read pass) run after the wall closes.

     layer_trace.exe --workload campaign --out F --work-dir D \
       --domains N --days N --seed S [--jobs N] [--users N] [--archive DIR] [--drives N]

   Every size a workload uses is a required argument: run.py alone sets
   them. *)

let clock = Unix.gettimeofday

(* --- recording ------------------------------------------------------------------------ *)

let values : (string * float) list ref = ref []
let set name v = values := (name, v) :: List.remove_assoc name !values
let seti name n = set name (float_of_int n)
let failures = ref []
let check ok fmt = Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt
let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Words allocated so far; a delta over a call is what that call allocated. *)
let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let mib_of_words w = w *. 8.0 /. 1048576.0
let kib_of_words w = w *. 8.0 /. 1024.0

(* A top-level span: one call into a layer inside the workload wall.
   Returns the result, its seconds and the words it allocated. *)
let top_total = ref 0.0

let top f =
  let w0 = words () and t0 = clock () in
  let r = f () in
  let dt = clock () -. t0 in
  top_total := !top_total +. dt;
  (r, dt, words () -. w0)

let timed f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

let quantile q = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(min (Array.length a - 1) (int_of_float (q *. float_of_int (Array.length a))))

let median = quantile 0.5

let dir_mib dir =
  Array.fold_left
    (fun acc n -> acc + (Unix.stat (Filename.concat dir n)).Unix.st_size)
    0 (Sys.readdir dir)
  |> fun b -> float_of_int b /. 1048576.0

(* --- arguments ------------------------------------------------------------------------ *)

let workload = ref ""
let out = ref ""
let work_dir = ref ""
let args : (string * string) list ref = ref []

let arg name =
  match List.assoc_opt name !args with
  | Some v -> v
  | None -> failwith (Printf.sprintf "--%s is required for --workload %s" name !workload)

let int_arg name = int_of_string (arg name)

(* --- calibrations, outside the wall --------------------------------------------------- *)

(* ns per call: the median of five batches. *)
let ns_per_op ~iters f =
  List.init 5 (fun _ ->
      let t0 = clock () in
      for _ = 1 to iters do
        ignore (Sys.opaque_identity (f ()))
      done;
      (clock () -. t0) *. 1e9 /. float_of_int iters)
  |> median

let crypto_kernels (env : Tls.Config.env) =
  let rng = Crypto.Drbg.create ~seed:"perfbench-kernels" in
  let p = Crypto.Dh.group_p env.Tls.Config.dh_group in
  let g = Crypto.Dh.group_g env.Tls.Config.dh_group in
  let e = Crypto.Drbg.bignum_below rng p in
  set "crypto.pow_mod_sim_ns" (ns_per_op ~iters:4000 (fun () -> Crypto.Bignum.pow_mod g e p));
  let c = env.Tls.Config.ecdhe_curve in
  let k = Crypto.Drbg.bignum_below rng (Crypto.Ec.curve_order c) in
  let pt = Crypto.Ec.scalar_mult_base c k in
  set "crypto.ec_mult_sim_ns" (ns_per_op ~iters:1000 (fun () -> Crypto.Ec.scalar_mult c k pt))

(* Full and ticket-resumed handshakes against a fixed sample: the first 48
   HTTPS domains by rank, three passes. *)
let tls_handshakes world =
  let client =
    Tls.Client.create
      ~config:
        {
          Tls.Config.cl_env = Simnet.World.env world;
          offer_suites = Tls.Types.all_cipher_suites;
          offer_ticket = true;
          root_store = Simnet.World.root_store world;
          check_certs = false;
          evaluate_trust = false;
          verify_ske = false;
        }
      ~rng:(Crypto.Drbg.create ~seed:"perfbench-tls") ()
  in
  let sample =
    Simnet.World.domains world |> Array.to_list
    |> List.filter Simnet.World.domain_has_https
    |> List.filteri (fun i _ -> i < 48)
  in
  let full = ref [] and resume = ref [] in
  for _ = 1 to 3 do
    List.iter
      (fun d ->
        let hostname = Simnet.World.domain_name d in
        match timed (fun () -> Simnet.World.connect world ~client ~hostname ~offer:Tls.Client.Fresh) with
        | Ok o, dt when o.Tls.Engine.ok && o.Tls.Engine.resumed = `No -> (
            full := dt :: !full;
            match (o.Tls.Engine.new_ticket, o.Tls.Engine.session) with
            | Some (_, ticket), Some session -> (
                let offer = Tls.Client.Offer_ticket { ticket; session } in
                match timed (fun () -> Simnet.World.connect world ~client ~hostname ~offer) with
                | Ok o, dt when o.Tls.Engine.ok && o.Tls.Engine.resumed = `Via_ticket ->
                    resume := dt :: !resume
                | _ -> ())
            | _ -> ())
        | _ -> ())
      sample
  done;
  check (!full <> [] && !resume <> []) "tls sample: %d full, %d ticket-resumed handshakes"
    (List.length !full) (List.length !resume);
  set "tls.full_handshake_us" (1e6 *. median !full);
  set "tls.resume_ticket_us" (1e6 *. median !resume)

(* --- workloads ------------------------------------------------------------------------ *)

let world_config () =
  { Simnet.World.default_config with Simnet.World.n_domains = int_arg "domains"; seed = arg "seed" }

let build_world () =
  let world, s, w = top (fun () -> Simnet.World.create ~config:(world_config ()) ()) in
  set "simnet.world_build_s" s;
  set "simnet.world_alloc_mib" (mib_of_words w);
  world

(* The three lifetime summaries [tlsharm analyze] prints. *)
let lifetimes campaign =
  let (), s, _ =
    top (fun () ->
        List.iter
          (fun field ->
            let spans = Analysis.Lifetime.analyze ~field campaign in
            ignore (Sys.opaque_identity (Analysis.Lifetime.summarize spans));
            ignore (Sys.opaque_identity (Analysis.Lifetime.top_reusers ~min_days:7 ~limit:5 spans)))
          Analysis.Lifetime.[ Stek; Dhe; Ecdhe ])
  in
  set "analysis.lifetime_s" s

let set_scan ~work ~scan_s ~scan_w day_walls =
  set "scanner.scan_s" scan_s;
  set "scanner.day_s_p50" (median day_walls);
  set "scanner.day_s_max" (List.fold_left max 0.0 day_walls);
  set "scanner.alloc_kib_per_domain_day" (kib_of_words scan_w /. float_of_int work)

let campaign () =
  let days = int_arg "days" in
  let work = int_arg "domains" * days in
  let world = build_world () in
  let starts = ref [] in
  let progress _day = starts := clock () :: !starts in
  let (t, scan_end), scan_s, scan_w =
    top (fun () ->
        let t = Scanner.Daily_scan.run world ~days ~progress () in
        (t, clock ()))
  in
  let day_walls =
    let rec go = function
      | s :: (n :: _ as rest) -> (n -. s) :: go rest
      | [ s ] -> [ scan_end -. s ]
      | [] -> []
    in
    go (List.rev !starts)
  in
  check (List.length day_walls = days) "progress reported %d days of %d" (List.length day_walls) days;
  set_scan ~work ~scan_s ~scan_w day_walls;
  let csv = Filename.concat !work_dir "campaign.csv" in
  let (), s, _ = top (fun () -> Scanner.Daily_scan.save t csv) in
  set "durable.csv_write_s" s;
  let loaded, s, _ = top (fun () -> Scanner.Daily_scan.load csv) in
  set "durable.archive_read_s" s;
  set "durable.archive_mib" (float_of_int (Unix.stat csv).Unix.st_size /. 1048576.0);
  lifetimes (ok_exn "load" loaded);
  fun () ->
    tls_handshakes world;
    crypto_kernels (Simnet.World.env world)

(* Re-stream a loaded campaign through a fresh spool sink, timing the
   durable write path the parallel scan interleaves with probing. *)
let campaign_spool_replay world (c : Scanner.Daily_scan.t) =
  let dir = Filename.concat !work_dir "replay" in
  let (), s =
    timed (fun () ->
        let sink =
          ok_exn "replay sink"
            (Scanner.Stream_sink.create ~dir
               ~manifest:[ ("start_day", string_of_int c.start_day); ("n_days", string_of_int c.n_days) ])
        in
        let stream = Scanner.Stream_sink.stream sink "serial" in
        let series = c.Scanner.Daily_scan.series in
        for day = 0 to c.n_days - 1 do
          let rows =
            Array.map
              (fun (x : Scanner.Daily_scan.domain_series) ->
                let r = x.Scanner.Daily_scan.days.(day) in
                if r.Scanner.Daily_scan.present then Some r else None)
              series
          in
          Scanner.Daily_scan.stream_day stream ~day ~rows
        done;
        let trusted = Hashtbl.create 1024 in
        Array.iter
          (fun (x : Scanner.Daily_scan.domain_series) ->
            Hashtbl.replace trusted x.Scanner.Daily_scan.domain x.Scanner.Daily_scan.trusted)
          series;
        Scanner.Daily_scan.stream_finish stream
          ~trusted:(fun n -> Option.value ~default:false (Hashtbl.find_opt trusted n))
          ~domains:(Simnet.World.domains world))
  in
  set "durable.spool_write_s" s

(* The CLI's recorder times no host clock, so shard walls come from a
   recorder of our own with wall timing on. *)
let campaign_par () =
  let days = int_arg "days" and jobs = int_arg "jobs" in
  let work = int_arg "domains" * days in
  let world = build_world () in
  let dir = Filename.concat !work_dir "archive" in
  let start_day = Simnet.Clock.now (Simnet.World.clock world) / Simnet.Clock.day in
  let sink =
    ok_exn "sink"
      (Scanner.Stream_sink.create ~dir
         ~manifest:[ ("start_day", string_of_int start_day); ("n_days", string_of_int days) ])
  in
  let obs = Obs.Recorder.create ~wall:true () in
  let _, scan_s, scan_w =
    top (fun () ->
        Scanner.Parallel_campaign.run ~jobs ~sink ~retain_rows:false ~obs world ~days ())
  in
  let stats = Obs.Trace.stats (Obs.Recorder.trace obs) in
  let walls name =
    List.filter_map
      (fun (s : Obs.Trace.span_stat) ->
        if s.Obs.Trace.span_name = name then Some (s.Obs.Trace.span_wall_ns /. 1e9) else None)
      stats
  in
  let shard_walls = walls "campaign.shard" in
  let n_shards = List.length shard_walls in
  let shard_total = List.fold_left ( +. ) 0.0 shard_walls in
  (* scan.day spans aggregate per day attribute: busy seconds summed over shards *)
  set_scan ~work ~scan_s ~scan_w (walls "scan.day");
  set "scanner.shard_wall_max_s" (List.fold_left max 0.0 shard_walls);
  set "scanner.shard_wall_mean_s" (if n_shards = 0 then 0.0 else shard_total /. float_of_int n_shards);
  set "scanner.worker_idle_s" ((float_of_int (min jobs n_shards) *. scan_s) -. shard_total);
  let loaded, s, _ = top (fun () -> Scanner.Daily_scan.load_stream dir) in
  let loaded = ok_exn "load_stream" loaded in
  set "durable.archive_read_s" s;
  set "durable.archive_mib" (dir_mib dir);
  lifetimes loaded;
  fun () ->
    campaign_spool_replay world loaded;
    tls_handshakes world;
    crypto_kernels (Simnet.World.env world)

(* The sink takes the manifest the real binary wrote for the same
   arguments (--archive), so the archive is the one a user gets. *)
let traffic () =
  let days = int_arg "days" in
  let cfg =
    {
      Traffic.Population.default_config with
      Traffic.Population.users = int_arg "users";
      days;
      world = world_config ();
    }
  in
  let manifest = ok_exn "manifest" (Traffic.Traffic_sink.manifest ~dir:(arg "archive")) in
  let dir = Filename.concat !work_dir "archive" in
  let sink = ok_exn "traffic sink" (Traffic.Traffic_sink.create ~dir ~manifest) in
  let r, sim_s, sim_w = top (fun () -> Traffic.Population.run ~jobs:1 ~sink ~retain_rows:false cfg) in
  let conns = r.Traffic.Population.total_rows in
  set "traffic.simulate_s" sim_s;
  set "traffic.alloc_kib_per_conn" (kib_of_words sim_w /. float_of_int conns);
  (* The run prints the tracking table, then [analyze DIR] prints it again. *)
  let report () =
    Analysis.Tracking_report.render (ok_exn "tracking report" (Analysis.Tracking_report.of_sink ~dir))
  in
  let first, s1, _ = top report in
  let again, s2, _ = top report in
  check (first = again) "tracking report differs between two reads of one archive";
  set "analysis.tracking_s" (s1 +. s2);
  set "durable.archive_mib" (dir_mib dir);
  fun () ->
    let w0 = words () in
    let world, s = timed (fun () -> Simnet.World.create ~config:cfg.world ()) in
    set "simnet.world_build_s" s;
    set "simnet.world_alloc_mib" (mib_of_words (words () -. w0));
    let (tickets, rows), s =
      timed (fun () ->
          ok_exn "read pass"
            (Traffic.Traffic_sink.fold_rows ~dir ~init:(0, 0)
               ~f:(fun (t, n) (row : Traffic.Row.t) ->
                 ((if row.Traffic.Row.new_ticket then t + 1 else t), n + 1)))
          |> fst)
    in
    check (rows = conns) "archive read pass found %d rows, not %d" rows conns;
    set "durable.archive_read_s" s;
    seti "tls.tickets_issued" tickets;
    let rows, (users_lo, users_hi, hosts) =
      ok_exn "read shard" (Traffic.Traffic_sink.read_shard ~dir ~shard:0)
    in
    let (), s =
      timed (fun () ->
          let replay =
            ok_exn "replay sink"
              (Traffic.Traffic_sink.create ~dir:(Filename.concat !work_dir "replay") ~manifest)
          in
          let stream = Traffic.Traffic_sink.stream replay 0 in
          let start = cfg.world.Simnet.World.start_time in
          for day = 0 to days - 1 do
            List.filter
              (fun (row : Traffic.Row.t) -> (row.Traffic.Row.time - start) / Simnet.Clock.day = day)
              rows
            |> Traffic.Traffic_sink.append_day stream ~day
          done;
          Traffic.Traffic_sink.finish stream ~users_lo ~users_hi ~hosts)
    in
    set "durable.spool_write_s" s;
    tls_handshakes world;
    crypto_kernels (Simnet.World.env world)

(* The fuzz command writes no metrics file, so its kernel counts are taken
   here. Its parsed/rejected counts come from the CLI's own summary. *)
let fuzz () =
  let drives = int_arg "drives" in
  let stamps = Array.make (drives + 1) 0.0 in
  let progress n = if n >= 1 && n <= drives then stamps.(n) <- clock () in
  let before = Obs.Kernel.snapshot () in
  let _, _, w =
    top (fun () ->
        stamps.(0) <- clock ();
        Faults.Fuzz.run ~seed:(arg "seed") ~progress ~count:drives ())
  in
  let kernel = Obs.Kernel.diff ~before ~after:(Obs.Kernel.snapshot ()) in
  List.iter
    (fun name -> set ("crypto." ^ name) (float_of_int (List.assoc name kernel) /. float_of_int drives))
    [ "pow_mod"; "pow_mod_fixed"; "ec_scalar_mult"; "ec_scalar_mult_base" ];
  let drive_us = List.init drives (fun i -> 1e6 *. (stamps.(i + 1) -. stamps.(i))) in
  set "faults.fuzz_drive_us_p50" (median drive_us);
  set "faults.fuzz_drive_us_p99" (quantile 0.99 drive_us);
  set "faults.fuzz_alloc_kib_per_drive" (kib_of_words w /. float_of_int drives);
  fun () -> crypto_kernels (Tls.Config.sim_env ())

(* --- main ----------------------------------------------------------------------------- *)

let parse_args () =
  let sized name =
    ("--" ^ name, Arg.String (fun v -> args := (name, v) :: !args), "a size the workload needs")
  in
  Arg.parse
    ([
       ("--workload", Arg.Set_string workload, "campaign | campaign-par | traffic | fuzz");
       ("--out", Arg.Set_string out, "FILE result JSON");
       ("--work-dir", Arg.Set_string work_dir, "DIR for archives");
     ]
    @ List.map sized [ "domains"; "days"; "seed"; "jobs"; "users"; "archive"; "drives" ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "layer_trace --workload W --out FILE --work-dir DIR <the workload's sizes>"

let () =
  parse_args ();
  if !out = "" || !work_dir = "" then failwith "--out and --work-dir are required";
  let run =
    match !workload with
    | "campaign" -> campaign
    | "campaign-par" -> campaign_par
    | "traffic" -> traffic
    | "fuzz" -> fuzz
    | w -> failwith ("unknown workload " ^ w)
  in
  let gc0 = Gc.quick_stat () in
  let t0 = clock () in
  let calibrate = run () in
  let wall = clock () -. t0 in
  let gc1 = Gc.quick_stat () in
  set "other_s" (wall -. !top_total);
  seti "gc.minor_collections" (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  seti "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
  set "gc.promoted_mib" (mib_of_words (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
  calibrate ();
  let json =
    Obs.Json.Obj
      [
        ("wall_s", Obs.Json.Num wall);
        ("failed_checks", Obs.Json.List (List.rev_map (fun m -> Obs.Json.Str m) !failures));
        ("metrics", Obs.Json.Obj (List.rev_map (fun (name, v) -> (name, Obs.Json.Num v)) !values));
      ]
  in
  Out_channel.with_open_text !out (fun oc -> output_string oc (Obs.Json.to_string json))
