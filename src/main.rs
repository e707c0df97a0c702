//! `mcc` — the command-line driver.
//!
//! ```text
//! mcc machines                          list the reference machines
//! mcc compile -m hm1 -l yalll f.yll     compile, print stats
//! mcc disasm  -m hm1 -l simpl f.sim     compile and list the microcode
//! mcc run     -m bx2 -l empl  f.emp     compile, simulate, print symbols
//! mcc encode  -m hm1 -l yalll f.yll     compile and hex-dump the control store
//! mcc mdl dump hm1                      print a machine as MDL text
//! mcc compile --mdl my.mdl -l yalll f   compile for a machine described in MDL
//! mcc fuzz --seed 1 --trials 1000       differential fuzz all four frontends
//! mcc campaign e10 --jobs 4 --resume    supervised, journaled experiment run
//! mcc serve --port 7077 --jobs 4        compile-as-a-service daemon
//! mcc route --backend 127.0.0.1:7077    consistent-hash shard router
//! mcc bench-serve --clients 8 --rps 200 seeded closed-loop load generator
//! ```
//!
//! The language defaults from the file extension: `.yll`/`.yalll` → YALLL,
//! `.sim`/`.simpl` → SIMPL, `.emp`/`.empl` → EMPL, `.ss`/`.sstar` → S\*.

use std::process::ExitCode;

use mcc::compact::Algorithm;
use mcc::core::{Compiler, CompilerOptions, SourceLang};
use mcc::machine::{format_program, ConflictModel, MachineDesc};

fn usage() -> ExitCode {
    eprintln!(
        "usage: mcc <command> [options]

commands:
  machines                     list reference machines
  compile  [opts] <file>       compile and report statistics
  disasm   [opts] <file>       compile and print the microcode listing
  encode   [opts] <file>       compile and hex-dump the control store
  run      [opts] <file>       compile, simulate, print symbol values
  fuzz     [opts]              differential fuzzing campaign (see below)
  campaign <e9|e10|fuzz>       run an experiment as a supervised campaign
  serve    [opts]              compile-as-a-service daemon (see below)
  route    [opts]              consistent-hash shard router over serve backends
  fleet    [opts]              self-healing supervisor: router + serve shards
                               as children, auto-restart, live ring membership
  bench-serve [opts]           deterministic load generator for the daemon
  chaos-proxy [opts]           seeded TCP fault-injection proxy for wire tests
  cache    <stats|clear>       inspect or wipe the compilation cache
  mdl dump <machine>           print a reference machine as MDL text

options:
      --no-cache               bypass the compilation cache for this run
  -m, --machine <name>         hm1 | vm1 | bx2 | wm64   (default hm1)
      --mdl <file>             use a machine described in MDL instead
  -l, --lang <name>            yalll | simpl | empl | sstar
                               (default: from the file extension)
  -a, --algo <name>            linear | critpath | levelpack | tokoro | optimal
                               | sequential
      --coarse                 use the coarse conflict model
      --budget <n>             restrict each register file to n registers
      --poll <n>               insert interrupt polls every n operations

fault-injection options (run only):
      --faults <n>             after the clean run, inject n seeded single
                               faults and print the dependability tally
      --seed <n>               campaign seed (default 49374)
      --raw-store              disable control-store parity protection

fuzz options:
      --seed <n>               campaign seed (default 1)
      --trials <n>             trials per frontend (default 256)
  -l, --lang <name>            fuzz one frontend (default: all four)
      --no-shrink              keep findings unreduced

campaign options:
      --jobs <n>               worker threads (default 4)
      --deadline-ms <n>        per-attempt wall-clock deadline (default 60000)
      --retries <n>            retries per job after the first attempt (default 2)
      --trials <n>             trials per row/frontend (defaults: e9 1000,
                               e10 250, fuzz 256)
      --seed <n>               supervision seed: backoff jitter + chaos (default 1)
      --journal <file>         journal path (default campaign-<name>.jsonl)
      --resume                 replay the journal, run only unfinished jobs
      --chaos                  inject harness faults: worker panics, deadline
                               stalls, a persistently failing victim key, and
                               a torn journal tail
  -m, --machine <name>         target machine (campaign fuzz only)

  The table goes to stdout; the supervision summary goes to stderr. Tables
  are byte-identical for any --jobs value, and a killed campaign resumed
  with --resume completes to the same table as an uninterrupted run.

serve options:
      --port <n>               TCP port on 127.0.0.1 (default 7077)
      --jobs <n>               compile worker threads (default 4)
      --queue-bound <n>        max in-flight compiles; beyond it requests
                               are shed with a 503 (default 64)
      --deadline-ms <n>        per-request deadline (default 10000)
      --rate <n>               per-client token-bucket rate, requests/s
                               (default: unlimited)
      --idle-timeout-ms <n>    reap connections idle this long
                               (default 30000; 0 = never)
      --tenant-weight <t=w>    WFQ weight for tenant t (repeatable;
                               unnamed tenants get weight 1)
      --tenant-quota <n>       max queued requests per tenant; excess is
                               shed 503 (default 0 = off)
      --trace <file>           per-request trace journal: FNV-sealed
                               JSONL, one record per resolved request

  The daemon speaks newline-delimited JSON: {{\"op\":\"compile\",...}},
  {{\"op\":\"ping\"}}, {{\"op\":\"stats\"}}, {{\"op\":\"metrics\"}},
  {{\"op\":\"drain\"}}. Compiles may carry \"tenant\" and \"class\"
  (interactive|batch|background); bare frames default to the client id
  at interactive. Intake is weighted-fair across tenants; `metrics`
  answers a Prometheus text exposition. SIGTERM, SIGINT, or a drain
  frame stop admission, finish the in-flight requests, flush the cache
  journal, and exit 0.

route options:
      --backend <[name=]addr>  one serve backend (repeat per shard; required)
      --port <n>               TCP port on 127.0.0.1 (default 7076; 0 = any)
      --vnodes <n>             virtual nodes per backend (default 64)
      --hedge-ms <n>           hedge slow compiles at the ring successor
                               after n ms (default 50; 0 = off)
      --probe-interval-ms <n>  health-probe period (default 250)
      --idle-timeout-ms <n>    reap idle connections (default 30000; 0 = never)
      --seed <n>               sketch/jitter seed (default 0)

  The router speaks the serve protocol and consistent-hashes each
  compile's cache key onto the backend ring: failover to the ring
  successor when a shard dies, per-backend circuit breakers fed by
  ping probes, hot-key replication, and drain propagation to every
  backend on SIGTERM.

fleet options:
      --shards <n>             serve shards to supervise (default 3)
      --port <n>               router TCP port on 127.0.0.1 (default 7076;
                               0 = any)
      --jobs <n>               compile workers per shard (default 4)
      --queue-bound <n>        per-shard admission bound (default 64)
      --restart-budget <n>     consecutive failed lives before a shard is
                               quarantined (default 5)
      --hedge-ms <n>           router hedge delay (default 50; 0 = off)
      --probe-interval-ms <n>  router health-probe period (default 250)
      --cache-root <dir>       per-shard persistent cache dirs live under
                               <dir>/<shard> (default .mcc-fleet-cache);
                               a restarted shard rejoins warm
      --seed <n>               restart-backoff jitter + router seed (default 0)

  The supervisor spawns the router and every shard as child processes,
  pings each shard for heartbeats, reaps dead children, respawns them
  under seeded capped-exponential backoff, and re-announces a restarted
  shard to the router with a `join` frame (its keys move back, minimal
  movement, warm cache). A shard that crash-loops past the restart
  budget is quarantined and the ring permanently routes around it.
  SIGTERM/SIGINT drain the router and every shard, then exit 0.

bench-serve options:
      --clients <n>            closed-loop client threads (default 8)
      --rps <n>                paced request rate (default 200)
      --duration-ms <n>        schedule length (default 2000)
      --seed <n>               request-mix seed (default 42)
      --jobs <n>               server worker threads (default 2)
      --queue-bound <n>        server admission bound (default 8)
      --json <file>            report path (default BENCH_serve.json)
      --backends <n>           routed mode: burst through mcc route over an
                               in-process fleet at each doubling size up to n,
                               emitting the scaling table (default 0 = single
                               server, no router)
      --kill-at <k>            SIGKILL the seed-chosen shard when request k is
                               drawn (spawns real serve children; needs
                               --backends >= 2)
      --chaos-soak             soak a supervised fleet (router + shards as
                               child processes) through --bursts bursts under
                               a seeded kill schedule, including one sabotaged
                               crash-looping shard; gates zero drops, rejoin,
                               and quarantine (needs --backends >= 2)
      --bursts <n>             chaos-soak burst count: one baseline plus one
                               kill per remaining burst (default 4, min 4)
      --chaos-net              route a burst through seeded fault-injection
                               proxies on every hop (client->router and
                               router->shard) and gate zero drops, zero
                               double executions, and zero corrupt frames
                               accepted; the fault schedule prints on stdout
                               as a pure function of --seed
      --proto <v1|v2|both>     the wire --chaos-net runs its fault battery on:
                               newline lines (v1), binary length-prefixed
                               frames (v2), or both as two full passes;
                               needs --chaos-net
      --diurnal                per-tenant QoS mode: a saturated WFQ share
                               check (four weighted tenants vs one abuser),
                               then a seeded day curve of interactive
                               tenants against a quota-throttled batch
                               flood; gates the abuser's analytic share,
                               well-behaved p99, zero drops, the metrics
                               exposition shape, and trace replay after a
                               torn tail

  stdout carries only seed-determined invariants (byte-identical across
  --clients and --jobs); latency/shed numbers go to stderr and the JSON.

chaos-proxy options:
      --upstream <host:port>   where to relay accepted connections (required)
      --listen <host:port>     listen address (default 127.0.0.1:0)
      --seed <n>               fault-schedule seed (default 1)
      --plan <spec>            schedule shape, comma-separated keys:
                               warm=,stride=,delay-ms=,stall-ms=,hold-ms=,
                               trickle-us= (defaults: 8,3,40,600,600,2000)

  The proxy sits between a serve/route client and its upstream and
  injects resets, torn and corrupted frames, latency spikes, stalls,
  trickle, duplication, and black-holes on a schedule that is a pure
  function of the seed. The schedule prints on stdout; per-kind injection
  counters go to stderr on exit.

cache:
  compile/disasm/encode/run reuse artifacts from a content-addressed
  cache (in-memory plus an on-disk tier under .mcc-cache, or
  MCC_CACHE_DIR). A hit is byte-identical to a cold compile. `mcc cache
  stats` prints lifetime hit/miss/eviction counters; `mcc cache clear`
  wipes the store. The disk tier is byte-capped (MCC_CACHE_MAX_BYTES,
  default 256 MiB, 0 = unbounded) with oldest-first eviction.
  MCC_NO_CACHE=1 is equivalent to passing --no-cache everywhere."
    );
    ExitCode::from(2)
}

struct Args {
    command: String,
    machine: Option<String>,
    mdl: Option<String>,
    lang: Option<String>,
    algo: Option<String>,
    coarse: bool,
    budget: Option<u16>,
    poll: Option<usize>,
    faults: Option<usize>,
    seed: Option<u64>,
    trials: Option<u64>,
    no_shrink: bool,
    raw_store: bool,
    jobs: Option<usize>,
    deadline_ms: Option<u64>,
    retries: Option<u32>,
    journal: Option<String>,
    port: Option<u16>,
    queue_bound: Option<usize>,
    rate: Option<u32>,
    clients: Option<usize>,
    rps: Option<u64>,
    duration_ms: Option<u64>,
    json: Option<String>,
    backends: Option<usize>,
    kill_at: Option<usize>,
    chaos_soak: bool,
    chaos_net: bool,
    proto: Option<String>,
    bursts: Option<usize>,
    listen: Option<String>,
    upstream: Option<String>,
    plan: Option<String>,
    shards: Option<usize>,
    restart_budget: Option<u32>,
    cache_root: Option<String>,
    backend: Vec<String>,
    vnodes: Option<usize>,
    hedge_ms: Option<u64>,
    probe_interval_ms: Option<u64>,
    idle_timeout_ms: Option<u64>,
    resume: bool,
    chaos: bool,
    no_cache: bool,
    diurnal: bool,
    trace: Option<String>,
    tenant_weight: Vec<String>,
    tenant_quota: Option<usize>,
    positional: Vec<String>,
}

/// Validates a worker-count flag: zero workers is a configuration error
/// everywhere (`mcc campaign --jobs 0` would deadlock on an empty pool),
/// so it gets a diagnostic and the flag-error exit status (2), matching
/// malformed numeric values.
fn positive_jobs(flag: &str, jobs: Option<usize>, default: usize) -> usize {
    match jobs {
        Some(0) => {
            eprintln!("mcc: {flag} must be at least 1 (got 0)");
            std::process::exit(2);
        }
        Some(n) => n,
        None => default,
    }
}

/// Parses a numeric flag value; a missing or malformed value is a hard
/// error (silently dropping `--faults 10O0` would skip the campaign).
fn numeric<T: std::str::FromStr>(flag: &str, v: Option<String>) -> Option<T> {
    let v = v?;
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("mcc: {flag} expects a number, got `{v}`");
            None
        }
    }
}

fn parse_args() -> Option<Args> {
    let mut it = std::env::args().skip(1);
    let command = it.next()?;
    let mut a = Args {
        command,
        machine: None,
        mdl: None,
        lang: None,
        algo: None,
        coarse: false,
        budget: None,
        poll: None,
        faults: None,
        seed: None,
        trials: None,
        no_shrink: false,
        raw_store: false,
        jobs: None,
        deadline_ms: None,
        retries: None,
        journal: None,
        port: None,
        queue_bound: None,
        rate: None,
        clients: None,
        rps: None,
        duration_ms: None,
        json: None,
        backends: None,
        kill_at: None,
        chaos_soak: false,
        chaos_net: false,
        proto: None,
        bursts: None,
        listen: None,
        upstream: None,
        plan: None,
        shards: None,
        restart_budget: None,
        cache_root: None,
        backend: Vec::new(),
        vnodes: None,
        hedge_ms: None,
        probe_interval_ms: None,
        idle_timeout_ms: None,
        resume: false,
        chaos: false,
        no_cache: false,
        diurnal: false,
        trace: None,
        tenant_weight: Vec::new(),
        tenant_quota: None,
        positional: Vec::new(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-m" | "--machine" => a.machine = Some(it.next()?),
            "--mdl" => a.mdl = Some(it.next()?),
            "-l" | "--lang" => a.lang = Some(it.next()?),
            "-a" | "--algo" => a.algo = Some(it.next()?),
            "--coarse" => a.coarse = true,
            "--budget" => a.budget = Some(numeric("--budget", it.next())?),
            "--poll" => a.poll = Some(numeric("--poll", it.next())?),
            "--faults" => a.faults = Some(numeric("--faults", it.next())?),
            "--seed" => a.seed = Some(numeric("--seed", it.next())?),
            "--trials" => a.trials = Some(numeric("--trials", it.next())?),
            "--no-shrink" => a.no_shrink = true,
            "--raw-store" => a.raw_store = true,
            "--jobs" => a.jobs = Some(numeric("--jobs", it.next())?),
            "--deadline-ms" => a.deadline_ms = Some(numeric("--deadline-ms", it.next())?),
            "--retries" => a.retries = Some(numeric("--retries", it.next())?),
            "--journal" => a.journal = Some(it.next()?),
            "--port" => a.port = Some(numeric("--port", it.next())?),
            "--queue-bound" => a.queue_bound = Some(numeric("--queue-bound", it.next())?),
            "--rate" => a.rate = Some(numeric("--rate", it.next())?),
            "--clients" => a.clients = Some(numeric("--clients", it.next())?),
            "--rps" => a.rps = Some(numeric("--rps", it.next())?),
            "--duration-ms" => a.duration_ms = Some(numeric("--duration-ms", it.next())?),
            "--json" => a.json = Some(it.next()?),
            "--backends" => a.backends = Some(numeric("--backends", it.next())?),
            "--kill-at" => a.kill_at = Some(numeric("--kill-at", it.next())?),
            "--chaos-soak" => a.chaos_soak = true,
            "--chaos-net" => a.chaos_net = true,
            "--proto" => a.proto = Some(it.next()?),
            "--listen" => a.listen = Some(it.next()?),
            "--upstream" => a.upstream = Some(it.next()?),
            "--plan" => a.plan = Some(it.next()?),
            "--bursts" => a.bursts = Some(numeric("--bursts", it.next())?),
            "--shards" => a.shards = Some(numeric("--shards", it.next())?),
            "--restart-budget" => {
                a.restart_budget = Some(numeric("--restart-budget", it.next())?);
            }
            "--cache-root" => a.cache_root = Some(it.next()?),
            "--backend" => a.backend.push(it.next()?),
            "--vnodes" => a.vnodes = Some(numeric("--vnodes", it.next())?),
            "--hedge-ms" => a.hedge_ms = Some(numeric("--hedge-ms", it.next())?),
            "--probe-interval-ms" => {
                a.probe_interval_ms = Some(numeric("--probe-interval-ms", it.next())?);
            }
            "--idle-timeout-ms" => {
                a.idle_timeout_ms = Some(numeric("--idle-timeout-ms", it.next())?);
            }
            "--resume" => a.resume = true,
            "--chaos" => a.chaos = true,
            "--no-cache" => a.no_cache = true,
            "--diurnal" => a.diurnal = true,
            "--trace" => a.trace = Some(it.next()?),
            "--tenant-weight" => a.tenant_weight.push(it.next()?),
            "--tenant-quota" => a.tenant_quota = Some(numeric("--tenant-quota", it.next())?),
            "-h" | "--help" => {
                a.command = "help".to_string();
                return Some(a);
            }
            _ if arg.starts_with('-') => {
                eprintln!("mcc: unknown option `{arg}`");
                return None;
            }
            _ => a.positional.push(arg),
        }
    }
    Some(a)
}

fn lang_of(args: &Args, path: &str) -> Result<SourceLang, String> {
    let name = match &args.lang {
        Some(l) => l.clone(),
        None => path.rsplit('.').next().unwrap_or("").to_string(),
    };
    SourceLang::from_name(&name).ok_or_else(|| {
        if args.lang.is_some() {
            format!("unknown language `{name}`")
        } else {
            format!("cannot infer language from `{path}`; pass --lang")
        }
    })
}

fn machine_of(args: &Args) -> Result<MachineDesc, String> {
    if let Some(path) = &args.mdl {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let m = mcc::machine::mdl::parse(&text).map_err(|e| e.to_string())?;
        m.validate().map_err(|e| e.to_string())?;
        return Ok(m);
    }
    reference_machine(args)
}

/// The reference machine `--machine` names (default hm1).
fn reference_machine(args: &Args) -> Result<MachineDesc, String> {
    let name = args.machine.as_deref().unwrap_or("hm1");
    mcc::machine::machines::by_name(name).ok_or_else(|| format!("unknown machine `{name}`"))
}

fn compiler_of(args: &Args) -> Result<Compiler, String> {
    let machine = machine_of(args)?;
    let mut opts = CompilerOptions::default();
    if let Some(algo) = &args.algo {
        opts.algorithm =
            Algorithm::from_name(algo).ok_or_else(|| format!("unknown algorithm `{algo}`"))?;
    }
    if args.coarse {
        opts.model = ConflictModel::Coarse;
    }
    opts.alloc.budget = args.budget;
    opts.poll_interval = args.poll;
    Ok(Compiler::with_options(machine, opts))
}

fn compile(args: &Args) -> Result<mcc::core::Artifact, String> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| "missing input file".to_string())?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lang = lang_of(args, path)?;
    let c = compiler_of(args)?;
    // Cached around the contained entry point: any residual panic in a
    // frontend or pass comes back as a structured `internal error in
    // pass ...` (errors are never cached), so feeding mcc arbitrary
    // bytes always terminates with a diagnostic.
    let art = mcc::cache::compile_cached(&c, lang, &src, mcc::cache::Persist::Disk)
        .map_err(|e| e.to_string())?;
    if let Some(tier) = art.stats.cached {
        eprintln!("(cache hit: {tier})");
    }
    for w in &art.warnings {
        eprintln!("warning: {}", w.message);
    }
    Ok(art)
}

/// `mcc fuzz`: a deterministic differential campaign over the frontends.
/// Exit status is nonzero when any finding is reported, so CI can gate
/// on a clean run.
fn fuzz_command(args: &Args) -> Result<bool, String> {
    use mcc::fuzz::{fuzz, FuzzConfig};
    let machine = machine_of(args)?;
    let langs = match &args.lang {
        Some(l) => vec![
            SourceLang::from_name(l).ok_or_else(|| format!("unknown language `{l}`"))?,
        ],
        None => SourceLang::ALL.to_vec(),
    };
    let cfg = FuzzConfig {
        seed: args.seed.unwrap_or(1),
        trials: args.trials.unwrap_or(256),
        langs,
        machine,
        shrink: !args.no_shrink,
    };
    println!(
        "fuzzing {} on {}: {} trials/frontend, seed {}",
        cfg.langs
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join(", "),
        cfg.machine.name,
        cfg.trials,
        cfg.seed
    );
    let report = fuzz(&cfg);
    print!("{}", report.table());
    for f in &report.findings {
        println!(
            "\nfinding: {} in {} (trial {}): {}",
            f.class, f.lang, f.trial, f.detail
        );
        println!("--- shrunk reproducer ---");
        for line in f.shrunk.lines() {
            println!("  {line}");
        }
    }
    let total = report.total_findings();
    if total == 0 {
        println!("no findings");
    } else {
        println!("\n{total} finding(s)");
    }
    Ok(total == 0)
}

/// `mcc campaign <e9|e10|fuzz>`: run an experiment as a supervised,
/// journaled harness campaign. The experiment table goes to stdout (so CI
/// can diff runs byte-for-byte); the supervision summary goes to stderr.
fn campaign_command(args: &Args) -> Result<(), String> {
    use mcc::bench::campaign as bc;
    use mcc::harness::{run_campaign, BackoffConfig, BreakerConfig, HarnessConfig};
    use std::time::Duration;

    let which = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| "campaign: expected `e9`, `e10`, or `fuzz`".to_string())?;
    let seed = args.seed.unwrap_or(1);
    let cfg = HarnessConfig {
        campaign: which.to_string(),
        workers: positive_jobs("campaign: --jobs", args.jobs, 4),
        deadline: Some(Duration::from_millis(args.deadline_ms.unwrap_or(60_000))),
        attempts: args.retries.unwrap_or(2) + 1,
        backoff: BackoffConfig::default(),
        breaker: BreakerConfig::default(),
        seed,
        chaos: args.chaos,
    };
    let journal = args
        .journal
        .clone()
        .unwrap_or_else(|| format!("campaign-{which}.jsonl"));
    let journal = std::path::Path::new(&journal);

    let (jobs, title): (Vec<mcc::harness::Job>, String) = match which {
        "e9" => (bc::e9_jobs(args.trials.unwrap_or(1000) as usize), bc::E9_TITLE.into()),
        "e10" => (bc::e10_jobs(args.trials.unwrap_or(250)), bc::E10_TITLE.into()),
        "fuzz" => {
            let trials = args.trials.unwrap_or(256);
            let machine = reference_machine(args)?;
            (
                bc::fuzz_jobs(seed, trials, &machine),
                format!("fuzz campaign on {} ({trials} trials/frontend)", machine.name),
            )
        }
        other => return Err(format!("campaign: unknown experiment `{other}`")),
    };

    eprintln!(
        "campaign {which}: {} jobs on {} workers, journal {}{}",
        jobs.len(),
        cfg.workers,
        journal.display(),
        if args.resume { " (resume)" } else { "" }
    );
    // Job panics are contained by the harness and surface in the summary
    // and the degraded notes; the default hook's backtraces would only
    // shred stderr, so silence it for the duration of the run.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_campaign(jobs, &cfg, journal, args.resume);
    std::panic::set_hook(prev_hook);
    let report = report.map_err(|e| e.to_string())?;
    let table = match which {
        "e9" => bc::e9_table(&report.outcomes, args.trials.unwrap_or(1000) as usize),
        "e10" => bc::e10_table(&report.outcomes, args.trials.unwrap_or(250)),
        _ => bc::fuzz_table(&report.outcomes, seed, args.trials.unwrap_or(256)),
    };
    table.print(&title);
    eprintln!("{}", report.summary());
    Ok(())
}

/// `mcc run --faults N`: a seeded single-fault campaign against the
/// compiled program, each trial classified against the clean run's
/// symbol values.
fn fault_campaign(
    args: &Args,
    art: &mcc::core::Artifact,
    clean_sim: &mcc::sim::Simulator,
    clean_cycles: u64,
    trials: usize,
) {
    use mcc::faults::{run_campaign, CampaignSpec, FaultMix, FaultSpace};
    let golden: Vec<(String, u64)> = art
        .symbols
        .keys()
        .filter_map(|n| art.read_symbol(clean_sim, n).map(|v| (n.clone(), v)))
        .collect();
    let space = FaultSpace::new(&art.machine, art.program.instr_count() as u32, clean_cycles);
    let seed = args.seed.unwrap_or(49374);
    let protect = !args.raw_store;
    // Without poll points the watchdog cannot tell work from a hang, so it
    // must outlast the whole clean run (compile with --poll to tighten it).
    let watchdog = if art.stats.polls > 0 {
        512
    } else {
        clean_cycles * 2 + 512
    };
    let spec = CampaignSpec {
        seed,
        trials,
        mix: FaultMix::default(),
    };
    let report = run_campaign(&spec, &space, |plan| {
        let mut sim = art.simulator();
        let res = sim.run(&mcc::sim::SimOptions {
            max_cycles: clean_cycles * 20 + 20_000,
            faults: plan,
            watchdog: Some(watchdog),
            protect_store: protect,
            ..Default::default()
        });
        let correct = res.is_ok()
            && golden
                .iter()
                .all(|(n, v)| art.read_symbol(&sim, n) == Some(*v));
        (res, correct)
    });
    let t = report.tally;
    println!(
        "\nfault campaign: {} trials, seed {}, {} control store, watchdog {} cycles",
        t.total(),
        seed,
        if protect { "parity-protected" } else { "raw" },
        watchdog
    );
    println!("  masked          {:>6}", t.masked);
    println!("  recovered       {:>6}", t.recovered);
    println!("  detected-halt   {:>6}", t.detected_halt);
    println!("  hang            {:>6}", t.hang);
    println!("  SDC             {:>6}", t.sdc);
    println!("  coverage        {:>5.1}%", t.coverage() * 100.0);
}

/// Signal plumbing for the daemon: SIGTERM and SIGINT flip the stop flag
/// the accept loop polls, so either begins the graceful drain. The
/// handler only stores to an atomic — async-signal-safe by construction.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static STOP: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" fn on_signal(_sig: i32) {
        if let Some(stop) = STOP.get() {
            stop.store(true, Ordering::SeqCst);
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Routes SIGTERM/SIGINT into `stop`.
    pub fn install(stop: &Arc<AtomicBool>) {
        let _ = STOP.set(Arc::clone(stop));
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// Non-unix targets drain via the `drain` frame only.
    pub fn install(_stop: &Arc<AtomicBool>) {}
}

/// `mcc serve`: the compile daemon on 127.0.0.1. Runs until SIGTERM,
/// SIGINT, or a `drain` frame, then drains gracefully and exits 0.
fn serve_command(args: &Args) -> Result<(), String> {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    let mut tenant_weights = Vec::new();
    for spec in &args.tenant_weight {
        let parsed = spec
            .split_once('=')
            .and_then(|(name, w)| w.parse::<u32>().ok().map(|w| (name.to_string(), w)));
        match parsed {
            Some(tw) => tenant_weights.push(tw),
            None => return Err(format!("serve: --tenant-weight expects name=weight, got `{spec}`")),
        }
    }
    let cfg = mcc::serve::ServeConfig {
        workers: positive_jobs("serve: --jobs", args.jobs, 4),
        queue_bound: positive_jobs("serve: --queue-bound", args.queue_bound, 64),
        deadline: std::time::Duration::from_millis(args.deadline_ms.unwrap_or(10_000)),
        rate_per_client: args.rate,
        idle_timeout: idle_timeout(args),
        tenant_weights,
        tenant_quota: args.tenant_quota.unwrap_or(0),
        trace_path: args.trace.as_ref().map(std::path::PathBuf::from),
    };
    let port = args.port.unwrap_or(7077);
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("serve: cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (workers, bound) = (cfg.workers, cfg.queue_bound);
    let server = Arc::new(mcc::serve::Server::start(cfg));
    let stop = Arc::new(AtomicBool::new(false));
    sig::install(&stop);
    eprintln!(
        "mcc serve: listening on {addr} ({workers} workers, queue bound {bound}); \
         stop with SIGTERM/SIGINT or a drain frame"
    );
    mcc::serve::tcp::serve_lines(server.clone(), listener, stop).map_err(|e| e.to_string())?;
    let in_flight = server.drain();
    eprintln!("mcc serve: drained ({in_flight} requests were in flight); cache journal flushed");
    Ok(())
}

/// The `--idle-timeout-ms` flag as a config value (`0` disables the
/// reaper, absent takes the default).
fn idle_timeout(args: &Args) -> Option<std::time::Duration> {
    match args.idle_timeout_ms {
        Some(0) => None,
        Some(ms) => Some(std::time::Duration::from_millis(ms)),
        None => mcc::serve::ServeConfig::default().idle_timeout,
    }
}

/// `mcc route`: the consistent-hash shard router fronting a fleet of
/// `mcc serve` backends. Runs until SIGTERM, SIGINT, or a `drain`
/// frame, then drains itself and every backend, and exits 0.
fn route_command(args: &Args) -> Result<(), String> {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    if args.backend.is_empty() {
        return Err("route: pass at least one --backend [name=]host:port".to_string());
    }
    let seed = args.seed.unwrap_or(0);
    let cfg = mcc::route::RouteConfig {
        vnodes: positive_jobs("route: --vnodes", args.vnodes, 64),
        hedge_after: match args.hedge_ms {
            Some(0) => None,
            Some(ms) => Some(std::time::Duration::from_millis(ms)),
            None => mcc::route::RouteConfig::default().hedge_after,
        },
        probe_interval: std::time::Duration::from_millis(
            args.probe_interval_ms.unwrap_or(250).max(1),
        ),
        seed,
        idle_timeout: idle_timeout(args),
        ..mcc::route::RouteConfig::default()
    };
    // `--backend name=addr` names the shard explicitly (ring placement
    // hashes the name, so all routers over one fleet must agree);
    // otherwise shards are named b0, b1, … in flag order.
    let backends: Vec<Arc<dyn mcc::route::Backend>> = args
        .backend
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let (name, addr) = match spec.split_once('=') {
                Some((n, a)) => (n.to_string(), a),
                None => (format!("b{i}"), spec.as_str()),
            };
            Arc::new(cfg.tcp_backend(&name, addr)) as Arc<dyn mcc::route::Backend>
        })
        .collect();
    let n = backends.len();
    let router = Arc::new(mcc::route::Router::new(backends, cfg));
    mcc::route::Router::start_probes(&router);

    let port = args.port.unwrap_or(7076);
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("route: cannot bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    sig::install(&stop);
    eprintln!(
        "mcc route: listening on {addr} fronting {n} backends; \
         stop with SIGTERM/SIGINT or a drain frame"
    );
    mcc::serve::tcp::serve_lines(
        Arc::clone(&router) as Arc<dyn mcc::serve::tcp::LineHandler>,
        listener,
        stop,
    )
    .map_err(|e| e.to_string())?;
    let in_flight = router.drain();
    eprintln!("mcc route: drained ({in_flight} requests were in flight); backends drained");
    Ok(())
}

/// `mcc fleet`: the self-healing supervisor. Spawns the router and N
/// `mcc serve` shards as child processes, heartbeats them, restarts
/// crashes under budgeted backoff, quarantines crash-loopers, and keeps
/// the router's ring membership live through join/leave frames. Runs
/// until SIGTERM/SIGINT, then drains everything and exits 0.
fn fleet_command(args: &Args) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let n = positive_jobs("fleet: --shards", args.shards, 3);
    let exe = std::env::current_exe().map_err(|e| format!("fleet: current_exe: {e}"))?;
    let cache_root = std::path::PathBuf::from(
        args.cache_root.clone().unwrap_or_else(|| ".mcc-fleet-cache".to_string()),
    );
    let mut cfg = mcc::fleet::FleetConfig::new(exe, cache_root);
    cfg.router_port = args.port.unwrap_or(7076);
    cfg.workers = positive_jobs("fleet: --jobs", args.jobs, 4);
    cfg.queue_bound = positive_jobs("fleet: --queue-bound", args.queue_bound, 64);
    cfg.seed = args.seed.unwrap_or(0);
    cfg.hedge_ms = args.hedge_ms.unwrap_or(50);
    cfg.probe_interval_ms = args.probe_interval_ms.unwrap_or(250).max(1);
    cfg.restart.budget = args.restart_budget.unwrap_or(5);
    cfg.log = true;
    let specs: Vec<mcc::fleet::ShardSpec> =
        (0..n).map(|i| mcc::fleet::ShardSpec::stock(&format!("b{i}"))).collect();

    let mut fleet = mcc::fleet::Fleet::start(cfg, specs)?;
    let stop = Arc::new(AtomicBool::new(false));
    sig::install(&stop);
    eprintln!(
        "mcc fleet: supervising {n} shards behind {}; stop with SIGTERM/SIGINT",
        fleet.router_addr()
    );
    let mut last_report = std::time::Instant::now();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
        if last_report.elapsed() >= std::time::Duration::from_secs(10) {
            last_report = std::time::Instant::now();
            let states: Vec<String> = fleet
                .snapshot()
                .iter()
                .map(|s| {
                    format!(
                        "{}:{}(crashes {}, restarts {}, qd {})",
                        s.name,
                        s.state.name(),
                        s.crashes,
                        s.restarts,
                        s.queue_depth
                    )
                })
                .collect();
            eprintln!("mcc fleet: [{}]", states.join(" "));
        }
    }
    eprintln!("mcc fleet: draining");
    fleet.shutdown();
    Ok(())
}

/// `mcc bench-serve`: the seeded closed-loop load generator (stdout is
/// deterministic; timing goes to stderr and the JSON report).
fn bench_serve_command(args: &Args) -> Result<(), String> {
    if let Some(stray) = args.positional.first() {
        return Err(format!("bench-serve: unexpected argument `{stray}`"));
    }
    // A malformed --proto is a flag error (exit 2), like a malformed number.
    let proto = args.proto.as_deref().map(|s| {
        mcc::bench::serveload::ProtoChoice::parse(s).unwrap_or_else(|| {
            eprintln!("mcc: --proto expects v1, v2, or both, got `{s}`");
            std::process::exit(2);
        })
    });
    let cfg = mcc::bench::serveload::LoadConfig {
        clients: positive_jobs("bench-serve: --clients", args.clients, 8),
        rps: args.rps.unwrap_or(200).max(1),
        duration_ms: args.duration_ms.unwrap_or(2_000),
        seed: args.seed.unwrap_or(42),
        workers: positive_jobs("bench-serve: --jobs", args.jobs, 2),
        queue_bound: positive_jobs("bench-serve: --queue-bound", args.queue_bound, 8),
        json_path: args.json.clone().unwrap_or_else(|| "BENCH_serve.json".to_string()),
        backends: args.backends.unwrap_or(0),
        kill_at: args.kill_at,
        chaos_soak: args.chaos_soak,
        chaos_net: args.chaos_net,
        bursts: args.bursts.unwrap_or(4),
        proto,
        diurnal: args.diurnal,
    };
    mcc::bench::serveload::run(&cfg)
}

/// Parses a `--plan` spec like `warm=8,stride=3,delay-ms=40` into a
/// [`mcc::chaosnet::FaultPlan`]; unknown keys are hard errors so a typo
/// cannot silently run the default schedule.
fn parse_plan(spec: &str) -> Result<mcc::chaosnet::FaultPlan, String> {
    use std::time::Duration;
    let mut plan = mcc::chaosnet::FaultPlan::default();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("chaos-proxy: --plan entry `{part}` is not key=value"))?;
        let n: u64 = value
            .parse()
            .map_err(|_| format!("chaos-proxy: --plan {key} expects a number, got `{value}`"))?;
        match key {
            "warm" => plan.warm = n,
            "stride" => plan.stride = n.max(1),
            "delay-ms" => plan.delay = Duration::from_millis(n),
            "stall-ms" => plan.stall = Duration::from_millis(n),
            "hold-ms" => plan.hold = Duration::from_millis(n),
            "trickle-us" => plan.trickle_pause = Duration::from_micros(n),
            other => return Err(format!("chaos-proxy: unknown --plan key `{other}`")),
        }
    }
    Ok(plan)
}

/// `mcc chaos-proxy`: the seeded deterministic fault-injection proxy.
/// Sits between a client and an upstream serve/route daemon, relays
/// newline-delimited frames, and injects faults on a schedule that is a
/// pure function of the seed. The schedule goes to stdout (so a harness
/// can diff it across runs); injection counters go to stderr on exit.
fn chaos_proxy_command(args: &Args) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let upstream = args
        .upstream
        .clone()
        .ok_or_else(|| "chaos-proxy: pass --upstream host:port".to_string())?;
    let listen = args.listen.clone().unwrap_or_else(|| "127.0.0.1:0".to_string());
    let plan = match &args.plan {
        Some(spec) => parse_plan(spec)?,
        None => mcc::chaosnet::FaultPlan::default(),
    };
    let seed = args.seed.unwrap_or(1);
    let listener = std::net::TcpListener::bind(&listen)
        .map_err(|e| format!("chaos-proxy: cannot bind {listen}: {e}"))?;
    let mut proxy = mcc::chaosnet::ChaosProxy::start(listener, &upstream, seed, plan)
        .map_err(|e| format!("chaos-proxy: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    sig::install(&stop);
    eprintln!(
        "mcc chaos-proxy: listening on {} -> {upstream}; stop with SIGTERM/SIGINT",
        proxy.addr()
    );
    print!("{}", mcc::chaosnet::schedule_text("proxy", seed, &plan));
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let frames = proxy.frames();
    let injected = proxy.injected();
    proxy.stop();
    eprintln!("mcc chaos-proxy: stopped after {frames} frames");
    for (kind, n) in injected {
        if n > 0 {
            eprintln!("  injected {kind:<16} {n}");
        }
    }
    Ok(())
}

/// `mcc cache stats|clear`: inspect or wipe the on-disk artifact store.
/// The "lifetime:" line is stable and greppable; tests read the same
/// counters through `mcc_cache::read_stats`.
fn cache_command(args: &Args) -> Result<(), String> {
    let dir = mcc::cache::default_dir();
    match args.positional.first().map(String::as_str) {
        Some("stats") => {
            let entries = if dir.is_dir() {
                mcc::cache::DiskTier::open(&dir)
                    .map(|t| t.len())
                    .map_err(|e| format!("{}: {e}", dir.display()))?
            } else {
                0
            };
            let n = mcc::cache::read_stats(&dir);
            let lookups = n.hits() + n.misses;
            println!("cache directory: {}", dir.display());
            println!(
                "entries: {entries} ({} bytes on disk, cap {})",
                mcc::cache::disk::log_bytes(&dir),
                match mcc::cache::disk::configured_cap() {
                    Some(cap) => format!("{cap} bytes"),
                    None => "unbounded".to_string(),
                }
            );
            println!(
                "lifetime: {} hits ({} memory + {} disk), {} misses, {} stores, {} evictions",
                n.hits(),
                n.hits_memory,
                n.hits_disk,
                n.misses,
                n.stores,
                n.evictions
            );
            if lookups > 0 {
                println!(
                    "hit rate: {:.1}%",
                    n.hits() as f64 / lookups as f64 * 100.0
                );
            }
            Ok(())
        }
        Some("clear") => {
            if dir.is_dir() {
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                println!("cleared {}", dir.display());
            } else {
                println!("{} does not exist; nothing to clear", dir.display());
            }
            Ok(())
        }
        _ => Err("cache: expected `stats` or `clear`".to_string()),
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    if args.no_cache {
        mcc::cache::set_enabled(false);
    }
    // Attach the disk tier for the commands that compile. Failure to open
    // the store is never fatal — the in-memory tier still works.
    if matches!(
        args.command.as_str(),
        "compile" | "disasm" | "encode" | "run" | "campaign" | "serve"
    ) && mcc::cache::enabled()
    {
        if let Err(e) = mcc::cache::attach_default_disk() {
            eprintln!("mcc: disk cache unavailable ({e}); continuing in-memory");
        }
    }
    let result = match args.command.as_str() {
        "machines" => {
            for m in mcc::machine::machines::all() {
                println!(
                    "{:<6} {:>3}-bit control word, {} phases, {} templates, {} registers",
                    m.name,
                    m.control_word_bits(),
                    m.phases,
                    m.templates.len(),
                    m.files.iter().map(|f| f.count as usize).sum::<usize>(),
                );
            }
            Ok(())
        }
        "mdl" => {
            if args.positional.first().map(String::as_str) == Some("dump") {
                match args
                    .positional
                    .get(1)
                    .and_then(|n| mcc::machine::machines::by_name(n))
                {
                    Some(m) => {
                        print!("{}", mcc::machine::mdl::to_mdl(&m));
                        Ok(())
                    }
                    None => Err("mdl dump: unknown or missing machine name".to_string()),
                }
            } else {
                Err("mdl: expected `dump <machine>`".to_string())
            }
        }
        "compile" => compile(&args).map(|art| {
            println!(
                "{}: {} microinstructions, {} micro-ops ({:.2} ops/instr), \
                 {} spills, {} polls, {} dead flag writes, compacted by {}",
                art.machine.name,
                art.stats.micro_instrs,
                art.stats.micro_ops,
                art.stats.packing_ratio(),
                art.stats.spills,
                art.stats.polls,
                art.stats.dead_flags,
                art.stats.algorithm_used,
            );
            for d in &art.stats.degradations {
                println!("  degraded: {d}");
            }
        }),
        "disasm" => compile(&args).map(|art| {
            print!("{}", format_program(&art.machine, &art.program));
        }),
        "encode" => compile(&args).and_then(|art| {
            let words = art.encode().map_err(|e| e.to_string())?;
            let digits = (art.machine.control_word_bits() as usize).div_ceil(4);
            for (i, w) in words.iter().enumerate() {
                println!("{i:4}  {w:0digits$x}");
            }
            Ok(())
        }),
        "run" => compile(&args).and_then(|art| {
            let (sim, stats) = art.run().map_err(|e| e.to_string())?;
            println!(
                "halted after {} cycles ({} instructions, {} µops)",
                stats.cycles, stats.instrs, stats.uops
            );
            let mut names: Vec<&String> = art.symbols.keys().collect();
            names.sort();
            for n in names {
                if let Some(v) = art.read_symbol(&sim, n) {
                    println!("  {n} = {v} ({v:#x})");
                }
            }
            if let Some(trials) = args.faults {
                fault_campaign(&args, &art, &sim, stats.cycles, trials);
            }
            Ok(())
        }),
        "campaign" => campaign_command(&args),
        "serve" => serve_command(&args),
        "route" => route_command(&args),
        "fleet" => fleet_command(&args),
        "bench-serve" => bench_serve_command(&args),
        "chaos-proxy" => chaos_proxy_command(&args),
        "cache" => cache_command(&args),
        "fuzz" => {
            return match fuzz_command(&args) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("mcc: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        "help" | "--help" | "-h" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    mcc::cache::flush_global_stats();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mcc: {e}");
            ExitCode::FAILURE
        }
    }
}
