//! simbench — host-time benchmark of the archipelago simulator.
//!
//! ```text
//! simbench --workload <rubis_rw|inference_mixed|fleet_lossy> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times cold repetitions of one workload for `--seconds`
//! and reports the end-to-end metrics; `--trace 1` alternates untraced
//! and traced repetitions, runs the layer drivers, and reports the
//! per-layer metrics. Every repetition is checked; the last line of
//! standard output is one JSON object. See README.md.

mod layers;
mod measure;
mod probe;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use layers::{Driven, FleetSample, Requests};
use measure::{interquartile_mean, median, min_max, peak_rss_mb};
use trace::Tracer;
use workload::{run_once, setup_once, Counts, Load, Rep, Workload, FLEET_JOBS};

const USAGE: &str = "usage: simbench --workload <rubis_rw|inference_mixed|fleet_lossy> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Repetitions made even when one outlasts the time budget.
const MIN_REPS: usize = 3;
/// Set-up-only samples taken before each timed repetition.
const SETUPS_PER_REP: usize = 3;
/// Share of a traced run's budget spent on workload repetitions; the
/// layer drivers take the rest.
const TRACED_SHARE: f64 = 0.6;

/// Per-layer metrics: name, unit, the end-to-end metric it should move,
/// the workloads it should move on, and where it should stay flat.
#[rustfmt::skip]
const PER_LAYER: [(&str, &str, &str, &str, &str); 26] = [
    ("platform.build_s", "s", "setup_s (wall_s on fleet)", "all", "-"),
    ("platform.run_ns_per_event", "ns", "wall_s, events_per_s", "all", "-"),
    ("platform.events", "count", "work done; repeats exactly", "all", "-"),
    ("platform.events_x86", "count", "work done; repeats exactly", "all", "-"),
    ("platform.events_ixp", "count", "work done; repeats exactly", "all", "-"),
    ("platform.events_accel", "count", "work done; repeats exactly", "inference_mixed", "-"),
    ("xsched.ns_per_op", "ns", "wall_s", "rubis_rw, fleet_lossy", "inference_mixed (mostly)"),
    ("simcore.queue_ns_per_op", "ns", "wall_s", "inference_mixed most", "-"),
    ("ixp.ns_per_packet", "ns", "wall_s", "inference_mixed, rubis_rw", "-"),
    ("pcie.link_ns_per_packet", "ns", "wall_s", "all (5-6%)", "-"),
    ("pcie.mailbox_ns_per_msg", "ns", "wall_s", "rubis_rw, fleet_lossy", "inference_mixed"),
    ("coord.wire_ns_per_msg", "ns", "wall_s", "rubis_rw, fleet_lossy", "inference_mixed"),
    ("coord.reliable_ns_per_msg", "ns", "wall_s", "fleet_lossy", "rubis_rw, inference_mixed"),
    ("coord.messages", "count", "work done; repeats exactly", "all", "-"),
    ("accel.ns_per_request", "ns", "wall_s", "inference_mixed", "rubis_rw, fleet_lossy"),
    ("accel.completed", "count", "work done; repeats exactly", "inference_mixed", "-"),
    ("accel.batches", "count", "work done; repeats exactly", "inference_mixed", "-"),
    ("fleet.absorb_s", "s", "wall_s", "fleet_lossy", "rubis_rw, inference_mixed"),
    ("fleet.merge_ns_per_envelope", "ns", "wall_s", "fleet_lossy", "rubis_rw, inference_mixed"),
    ("fleet.bus_ns_per_round", "ns", "wall_s", "fleet_lossy", "rubis_rw, inference_mixed"),
    ("fleet.bus_delivered", "count", "work done; repeats exactly", "fleet_lossy", "-"),
    ("fleet.bus_late", "count", "work done; repeats exactly", "fleet_lossy", "-"),
    ("fleet.sessions_admitted", "count", "work done; repeats exactly", "fleet_lossy", "-"),
    ("pool.efficiency", "ratio", "wall_s (not cpu_s)", "fleet_lossy", "rubis_rw, inference_mixed"),
    ("pool.imbalance", "ratio", "wall_s (not cpu_s)", "fleet_lossy", "rubis_rw, inference_mixed"),
    ("trace.overhead_pct", "%", "-", "all", "-"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = bench::SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    // Keep git from reporting a repository that merely encloses this one.
    if let Ok(cwd) = std::env::current_dir() {
        if let Some(parent) = cwd.parent() {
            cmd.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn print_provenance() {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("host: nproc {nproc}");
    println!("host: {}", command_line("rustc", &["--version"]));
    println!(
        "host: git commit {}",
        command_line("git", &["rev-parse", "HEAD"])
    );
    println!("host: release build (debug assertions off)");
}

/// Correctness bookkeeping across every run an invocation makes.
#[derive(Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    /// The first run's digest, which every later run must repeat.
    reference: Option<u64>,
}

impl Checker {
    /// Runs one repetition; returns it when it passed every check.
    fn run(&mut self, f: impl FnOnce() -> Rep) -> Option<Rep> {
        self.attempted += 1;
        let rep = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(rep) => rep,
            Err(_) => {
                println!("FAIL run {}: panicked", self.attempted);
                self.failed += 1;
                return None;
            }
        };
        if let Some(v) = &rep.violation {
            println!("FAIL run {}: {v}", self.attempted);
            self.failed += 1;
            return None;
        }
        let digest = *self.reference.get_or_insert(rep.digest);
        if rep.digest != digest {
            println!(
                "FAIL run {}: digest {:016x} differs from the first run's {digest:016x}",
                self.attempted, rep.digest
            );
            self.failed += 1;
            return None;
        }
        Some(rep)
    }

    fn digest(&self) -> u64 {
        self.reference.unwrap_or(0)
    }

    /// The fleet's report must not depend on the pool's width: one
    /// extra repetition on a single thread must land on the same digest.
    fn check_fleet_threads(&mut self, w: Workload, seed: u64) {
        if w != Workload::FleetLossy {
            return;
        }
        if let Some(rep) = self.run(|| run_once(w, seed, None, 1)) {
            println!(
                "digest at 1 pool thread: {:016x} (matches {FLEET_JOBS} threads)",
                rep.digest
            );
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs repetitions until `budget` is spent (at least [`MIN_REPS`]),
/// not starting one the last repetition's length says would overrun.
fn repeat(budget: Duration, mut once: impl FnMut()) {
    let start = Instant::now();
    let mut made = 0;
    let mut last = Duration::ZERO;
    while made < MIN_REPS || start.elapsed() + last <= budget {
        let t = Instant::now();
        once();
        last = t.elapsed();
        made += 1;
    }
}

/// One summary line: the reported figure, then the sample it came from.
fn summary(name: &str, unit: &str, reported: f64, how: &str, xs: &[f64]) -> String {
    let (lo, hi) = min_max(xs);
    format!(
        "{name:<14} {reported:>16.6} {unit:<4} {how} of {} (median {:.6}, min {lo:.6}, max {hi:.6})",
        xs.len(),
        median(xs)
    )
}

type Metrics = Vec<(String, f64, String)>;

/// End-to-end metrics, each a median over the whole run, at the
/// reference host speed: every time is scaled by the reference probe
/// time over the run's median probe, to the power 1.5 (`probe::scale`);
/// the probe runs after every repetition. CPU time is the interquartile mean instead
/// of the median, because `/proc` counts it in 10 ms ticks, too coarse
/// for one repetition, and a median of ticks would jump by whole ticks.
/// README.md has the measurements.
fn timed(args: &Args, chk: &mut Checker) -> Metrics {
    let w = args.workload;
    let threads = w.threads();
    let (mut setups, mut walls, mut cpus, mut probes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut events, mut rss) = (0, None);
    repeat(Duration::from_secs_f64(args.seconds), || {
        setups.extend((0..SETUPS_PER_REP).map(|_| setup_once(w, args.seed)));
        if let Some(rep) = chk.run(|| run_once(w, args.seed, None, FLEET_JOBS)) {
            setups.push(rep.setup_s);
            walls.push(rep.wall_s);
            cpus.push(rep.cpu_s);
            events = rep.counts.events;
        }
        // The peak before the first probe is the workload's own.
        rss.get_or_insert_with(peak_rss_mb);
        probes.push(probe::probe(threads));
    });
    chk.check_fleet_threads(w, args.seed);
    let scale = probe::scale(threads, median(&probes));
    let (wall, cpu, setup) = (median(&walls), interquartile_mean(&cpus), median(&setups));
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("host wall_s per repetition: {}", listed.join(" "));
    println!(
        "{}",
        summary("probe", "s", median(&probes), "median", &probes)
    );
    println!("scale to the reference host speed: {scale:.6}");
    println!("{}", summary("host wall_s", "s", wall, "median", &walls));
    println!(
        "{}",
        summary("host cpu_s", "s", cpu, "interquartile mean", &cpus)
    );
    println!("{}", summary("host setup_s", "s", setup, "median", &setups));
    let (wall, cpu, setup) = (wall * scale, cpu * scale, setup * scale);
    let rate = events as f64 / wall;
    let rss = rss.unwrap_or_else(peak_rss_mb);
    println!(
        "at the reference host speed: wall_s {wall:.6} s, cpu_s {cpu:.6} s, \
         events_per_s {rate:.1} 1/s, setup_s {setup:.9} s"
    );
    println!("peak_rss_mb {rss:.6} MiB (VmHWM after the first repetition)");
    vec![
        ("wall_s".into(), wall, "s".into()),
        ("cpu_s".into(), cpu, "s".into()),
        ("events_per_s".into(), rate, "1/s".into()),
        ("setup_s".into(), setup, "s".into()),
        ("peak_rss_mb".into(), rss, "MiB".into()),
    ]
}

/// Pool metrics from the traced fleet spans: efficiency is shard busy
/// time over threads × `parallel_map` wall; imbalance is the busiest
/// thread over the mean, per call, medianed. A workload that never calls
/// the pool runs on the calling thread alone, which reads as 1 and 1.
fn pool_metrics(spans: &[trace::Span], jobs: usize) -> (f64, f64) {
    let (mut busy_total, mut capacity) = (0.0, 0.0);
    let mut imbalance = Vec::new();
    for (id, call) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "pool.parallel_map")
    {
        let mut per_thread: Vec<(usize, f64)> = Vec::new();
        for task in spans
            .iter()
            .filter(|s| s.name == "pool.task" && s.parent == Some(id))
        {
            match per_thread.iter_mut().find(|(t, _)| *t == task.thread) {
                Some((_, b)) => *b += task.ns() as f64,
                None => per_thread.push((task.thread, task.ns() as f64)),
            }
        }
        let busy: f64 = per_thread.iter().map(|(_, b)| b).sum();
        let busiest = per_thread.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        busy_total += busy;
        capacity += jobs as f64 * call.ns() as f64;
        if busy > 0.0 {
            imbalance.push(busiest / (busy / jobs as f64));
        }
    }
    if capacity == 0.0 {
        return (1.0, 1.0);
    }
    (busy_total / capacity, median(&imbalance))
}

/// The span that `id` descends from (a `workload.rep` span, or a
/// driver batch).
fn root_of(spans: &[trace::Span], mut id: usize) -> usize {
    while let Some(p) = spans[id].parent {
        id = p;
    }
    id
}

fn traced(args: &Args, chk: &mut Checker) -> Metrics {
    let w = args.workload;
    let tracer = Tracer::new();
    let (mut plain, mut traced_walls) = (Vec::new(), Vec::new());
    let mut counts = Counts::default();
    let mut load = Load::default();
    let mut toggle = false;
    repeat(Duration::from_secs_f64(args.seconds * TRACED_SHARE), || {
        toggle = !toggle;
        let tr = toggle.then_some(&tracer);
        let Some(rep) = chk.run(|| run_once(w, args.seed, tr, FLEET_JOBS)) else {
            return;
        };
        counts = rep.counts;
        load = rep.load;
        if toggle {
            &mut traced_walls
        } else {
            &mut plain
        }
        .push(rep.wall_s);
    });
    chk.check_fleet_threads(w, args.seed);

    let spans = tracer.spans();
    let builds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "platform.build")
        .map(|s| s.ns() as f64)
        .collect();
    // Platform::run time per repetition (summed over a fleet's shards).
    let mut run_ns: Vec<(usize, f64)> = Vec::new();
    for (id, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "platform.run")
    {
        let rep = root_of(&spans, id);
        match run_ns.iter_mut().find(|(r, _)| *r == rep) {
            Some((_, ns)) => *ns += s.ns() as f64,
            None => run_ns.push((rep, s.ns() as f64)),
        }
    }
    let best_run_ns = run_ns
        .iter()
        .map(|(_, ns)| *ns)
        .fold(f64::INFINITY, f64::min);
    let (efficiency, imbalance) = pool_metrics(&spans, FLEET_JOBS);
    // Each traced repetition against the untraced one right after it, so
    // that both of a pair run in the same stretch of host time.
    let ratios: Vec<f64> = traced_walls
        .iter()
        .zip(&plain)
        .map(|(t, p)| t / p)
        .collect();
    let overhead = (median(&ratios) - 1.0) * 100.0;
    println!(
        "{}",
        summary("untraced", "s", median(&plain), "median", &plain)
    );
    println!(
        "{}",
        summary(
            "traced",
            "s",
            median(&traced_walls),
            "median",
            &traced_walls
        )
    );

    let seed = args.seed;
    let reqs = Requests::of(&load);
    let mut sample = FleetSample::new(seed);
    let measured = |v: f64| Driven {
        value: v,
        stream: String::new(),
    };
    // One value per PER_LAYER row, in its order (the length is checked);
    // driver rows carry the stream they replayed.
    let rows: [Driven; PER_LAYER.len()] = [
        measured(median(&builds) / 1e9),
        measured(best_run_ns / counts.events as f64),
        measured(counts.events as f64),
        measured(counts.events_x86 as f64),
        measured(counts.events_ixp as f64),
        measured(counts.events_accel as f64),
        layers::xsched(&tracer, &reqs, seed),
        layers::queue(&tracer, &reqs, seed),
        layers::ixp(&tracer, &reqs, seed),
        layers::pcie_link(&tracer, &reqs, &load, seed),
        layers::mailbox(&tracer, &load, &sample, seed),
        layers::wire(&tracer, &load, seed),
        layers::reliable(&tracer, &load, &sample, seed),
        measured(counts.coord_messages as f64),
        layers::accel(&tracer, &load, seed),
        measured(counts.accel_completed as f64),
        measured(counts.accel_batches as f64),
        layers::absorb(&tracer, &mut sample),
        layers::merge(&tracer, &load, &sample, seed),
        layers::bus(&tracer, &load, &sample, seed),
        measured(counts.bus_delivered as f64),
        measured(counts.bus_late as f64),
        measured(counts.sessions_admitted as f64),
        measured(efficiency),
        measured(imbalance),
        measured(overhead),
    ];
    println!(
        "{:<28} {:>16} {:<6} {:<28} {:<28} flat on",
        "per-layer metric", "value", "unit", "moves", "on"
    );
    for ((name, unit, moves, on, flat), row) in PER_LAYER.iter().zip(&rows) {
        let v = row.value;
        let shown = match *unit {
            "count" => format!("{v:.0}"),
            _ if v.abs() >= 0.01 => format!("{v:.4}"),
            _ => format!("{v:.6e}"),
        };
        println!("{name:<28} {shown:>16} {unit:<6} {moves:<28} {on:<28} {flat}");
    }
    println!("streams the layer drivers replayed:");
    for ((name, ..), row) in PER_LAYER.iter().zip(&rows) {
        if !row.stream.is_empty() {
            println!("  {name:<28} {}", row.stream);
        }
    }
    write_trace_file(args, &tracer, &rows);
    PER_LAYER
        .iter()
        .zip(rows)
        .map(|((name, unit, ..), row)| (name.to_string(), row.value, unit.to_string()))
        .collect()
}

/// Writes the per-layer table and every span to
/// `simbench/out/<workload>-seed<seed>-trace.json`.
fn write_trace_file(args: &Args, tracer: &Tracer, rows: &[Driven]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/{}-seed{}-trace.json",
        args.workload.name(),
        args.seed
    );
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"metrics\": [\n",
        args.workload.name(),
        args.seed
    );
    for (i, ((name, unit, moves, on, flat), row)) in PER_LAYER.iter().zip(rows).enumerate() {
        let _ = writeln!(
            s,
            "{{\"name\": \"{name}\", \"value\": {}, \"unit\": \"{unit}\", \"moves\": \"{moves}\", \"on\": \"{on}\", \"flat_on\": \"{flat}\", \"stream\": \"{}\"}}{}",
            json_number(row.value),
            row.stream,
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "], \"spans\": {}}}", tracer.to_json());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, s)) {
        Ok(()) => println!("spans written to {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("simbench: refusing to report numbers from a debug build; build with --release");
        exit(2);
    }
    print_provenance();
    println!("workload {}", args.workload.describe(args.seed));
    let mut chk = Checker::default();
    let metrics = if args.trace {
        traced(&args, &mut chk)
    } else {
        timed(&args, &mut chk)
    };
    println!("digest {}: {:016x}", args.workload.name(), chk.digest());
    println!(
        "fail_ratio {:.6} ({} failed of {} runs attempted)",
        chk.failed as f64 / chk.attempted.max(1) as f64,
        chk.failed,
        chk.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        chk.correct(),
        chk.attempted,
        chk.failed,
        body.join(", ")
    );
}
