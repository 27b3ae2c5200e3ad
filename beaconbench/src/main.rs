//! beaconbench: what one Wi-LE beacon costs, end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path beaconbench/Cargo.toml -- \
//!     --workload e11_metro|e14_city|e16_daemon --seed 42 --seconds 40 --trace 0|1
//! ```
//!
//! With `--trace 0` it times the program's own entry points (untraced)
//! and reports the end-to-end metrics — wall-clock rates and set-up
//! times scaled to a nominal host by the host reference clock
//! ([`host`]), with the unscaled figures printed beside them; with
//! `--trace 1` it alternates
//! untraced and traced runs and reports the per-layer metrics, the
//! trace's coverage and its overhead. Every run checks its outputs
//! before any number is kept: the delivery digest (pinned at the
//! default seed), the cluster conservation law, the daemon's front-door
//! ledger, and — when traced — that the traced driver reproduced the
//! untraced digest. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the process exits
//! non-zero when any check failed.

mod alloc;
mod daemon;
mod host;
mod layers;
mod metrics;
mod sim;

use metrics::{frac, Metrics};
use std::process::ExitCode;
use std::time::Instant as Wall;
use wile_gatewayd::replay_capture;
use wile_radio::time::Duration;
use wile_scenarios::metro::{run_metro, MetroConfig};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The seed the pinned digests belong to.
const DEFAULT_SEED: u64 = 42;

/// Largest share of traced wall time the layer spans may leave
/// uncovered.
const UNATTRIBUTED_TARGET: f64 = 0.10;

/// World builds per sim iteration continue until this much time went
/// into them (at least one).
const SETUP_SAMPLE_S: f64 = 0.2;

/// Fewest measured iterations a run makes, whatever `--seconds` says.
const MIN_ITERS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    E11Metro,
    E14City,
    E16Daemon,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "e11_metro" => Some(Workload::E11Metro),
            "e14_city" => Some(Workload::E14City),
            "e16_daemon" => Some(Workload::E16Daemon),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::E11Metro => "e11_metro",
            Workload::E14City => "e14_city",
            Workload::E16Daemon => "e16_daemon",
        }
    }

    /// The world the workload runs (for `e16_daemon`, the world its
    /// capture records).
    fn config(self, seed: u64) -> MetroConfig {
        match self {
            // E11: 8 gateways at 8 m pitch, 20k devices, σ = 6 dB,
            // cut to 20 simulated minutes.
            Workload::E11Metro => MetroConfig {
                duration: Duration::from_secs(20 * 60),
                ..MetroConfig::metro(seed)
            },
            // E14 density at 300k devices (30 gateways, 200 m pitch,
            // σ = 0): the device count sets the working set, so the run
            // is shortened in simulated time only.
            Workload::E14City => MetroConfig {
                duration: Duration::from_secs(10 * 60),
                ..MetroConfig::metro_scaled(300_000, seed)
            },
            // The E11 geometry at 2,000 devices for one simulated hour.
            Workload::E16Daemon => MetroConfig {
                devices: 2_000,
                ..MetroConfig::metro(seed)
            },
        }
    }

    /// Aggregation worker threads (the sims use both host cores; the
    /// daemon runs one, and its feeder is the second thread).
    fn workers(self) -> usize {
        match self {
            Workload::E11Metro | Workload::E14City => 2,
            Workload::E16Daemon => daemon::WORKERS,
        }
    }

    /// The delivery digest at [`DEFAULT_SEED`].
    fn pinned_digest(self) -> u64 {
        match self {
            Workload::E11Metro => 0x91d8_7b5f_d820_1d7b,
            Workload::E14City => 0x28f0_0244_7e70_979f,
            Workload::E16Daemon => 0x2887_2ba1_b849_7daa,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 40.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run found: its checks, its work, and its metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// A check that failed outside the counted work (self-test, a run
    /// that panicked, a traced digest that diverged).
    broken: Vec<String>,
    metrics: Metrics,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            broken: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("beaconbench: {e}");
            eprintln!(
                "usage: beaconbench --workload e11_metro|e14_city|e16_daemon \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "provenance: workload={} seed={} workers={} host_cores={host_cores} trace={} rev={}",
        w.name(),
        args.seed,
        w.workers(),
        u8::from(args.trace),
        metrics::revision(),
    );

    let mut out = Outcome::new();
    self_test(&mut out);
    if out.broken.is_empty() {
        let cfg = w.config(args.seed);
        let pinned = (args.seed == DEFAULT_SEED).then(|| w.pinned_digest());
        match (w, args.trace) {
            (Workload::E16Daemon, trace) => run_daemon(&cfg, pinned, args.seconds, trace, &mut out),
            (_, false) => run_sim(&cfg, w.workers(), pinned, args.seconds, &mut out),
            (_, true) => trace_sim(&cfg, w.workers(), pinned, args.seconds, &mut out),
        }
    }
    if let Some(u) = out.metrics.get("trace.unattributed_frac") {
        let verdict = if u <= UNATTRIBUTED_TARGET {
            "within"
        } else {
            "OVER"
        };
        println!("trace coverage: unattributed {u} of traced wall, {verdict} the {UNATTRIBUTED_TARGET} target");
    }
    for b in &out.broken {
        println!("check FAILED: {b}");
    }
    println!(
        "error_frac {} (failed {} of {} attempted)",
        frac(out.failed, out.attempted),
        out.failed,
        out.attempted
    );
    out.metrics.print_lines();
    let correct = out.correct();
    println!(
        "{}",
        out.metrics.result_json(correct, out.attempted, out.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The benchmark's copies of the poll train must reproduce the program
/// at smoke size: the traced sim driver against `run_metro` (digest,
/// every cluster counter, evictions), the traced daemon driver against
/// `replay_capture` (the whole report), and the wire-fed cluster train
/// against the same replay (digest, counters, evictions).
fn self_test(out: &mut Outcome) {
    let cfg = MetroConfig::smoke(DEFAULT_SEED);
    let want = run_metro(&cfg, 2);
    let got = sim::traced(&cfg, 2);
    if got.digest != want.delivery_digest
        || got.stats != want.stats
        || got.evicted != want.evicted
        || got.beacons != want.beacons_sent
    {
        out.broken.push(format!(
            "self-test: traced sim driver {:#018x} != run_metro {:#018x}",
            got.digest, want.delivery_digest
        ));
    }
    let cfg = MetroConfig {
        keep_deliveries: false,
        ..cfg
    };
    match daemon::record(&cfg, 1) {
        Ok(cap) => match (
            daemon::in_process(&cap, true),
            replay_capture(&cap.wire, false, 1),
        ) {
            (Some(t), Ok(r))
                if t.report == r
                    && daemon::wire_fed(&cap).is_some_and(|f| {
                        f.digest == r.delivery_digest
                            && f.stats() == r.stats
                            && f.evicted == r.evicted
                    }) => {}
            _ => out
                .broken
                .push("self-test: traced daemon drivers != replay_capture".into()),
        },
        Err(e) => out.broken.push(format!("self-test: capture failed: {e}")),
    }
    if out.broken.is_empty() {
        println!("self-test: ok (smoke traced sim == run_metro, traced daemon drivers == replay_capture)");
    }
}

/// Run `step` until `seconds` would be exceeded by one more iteration
/// (at least [`MIN_ITERS`] times).
fn repeat(seconds: f64, mut step: impl FnMut()) {
    let start = Wall::now();
    let mut iters = 0;
    loop {
        step();
        iters += 1;
        let spent = start.elapsed().as_secs_f64();
        if iters >= MIN_ITERS && spent + spent / iters as f64 > seconds {
            break;
        }
    }
}

/// The program's digest is pinned at the default seed and the same on
/// every run of one seed; its cluster conserves offered load.
struct SimCheck {
    pinned: Option<u64>,
    first: Option<u64>,
}

impl SimCheck {
    fn passes(&mut self, u: &sim::Untraced) -> bool {
        let first = *self.first.get_or_insert(u.digest);
        let ok = self.pinned.is_none_or(|p| p == u.digest) && first == u.digest && u.conserves;
        if !ok {
            println!(
                "check FAILED: digest {:#018x} (pinned {:?}, first run {first:#018x}) conserves={}",
                u.digest,
                self.pinned.map(|p| format!("{p:#018x}")),
                u.conserves
            );
        }
        ok
    }
}

/// Untraced sim run: the program's `run_metro_with`, repeated on the
/// same world, with world builds timed as set-up before each.
fn run_sim(
    cfg: &MetroConfig,
    workers: usize,
    pinned: Option<u64>,
    seconds: f64,
    out: &mut Outcome,
) {
    let mut check = SimCheck {
        pinned,
        first: None,
    };
    let mut e2e = E2e::start();
    repeat(seconds, || {
        // Small worlds build in milliseconds: time several per run so
        // the set-up median rests on enough samples.
        let mut setup = Vec::new();
        let built = Wall::now();
        loop {
            setup.push(sim::setup_s(cfg));
            if built.elapsed().as_secs_f64() > SETUP_SAMPLE_S {
                break;
            }
        }
        let Some(u) = sim::untraced(cfg, workers) else {
            out.broken.push("run_metro panicked".into());
            out.attempted += cfg.devices as u64;
            out.failed += cfg.devices as u64;
            return;
        };
        out.attempted += u.beacons;
        if !check.passes(&u) {
            out.failed += u.beacons;
            return;
        }
        e2e.push(
            u.beacons as f64 / u.wall_s,
            u.frames as f64 / u.wall_s,
            &setup,
        );
    });
    if let Some(d) = check.first {
        println!(
            "digest: {d:#018x} (checked against the pin: {})",
            pinned.is_some()
        );
    }
    e2e.report(out);
}

/// One run's end-to-end samples, raw and scaled to the nominal host by
/// the host reference clock ([`host`]).
struct E2e {
    reference: host::Reference,
    beacons_per_s: Vec<f64>,
    frames_per_s: Vec<f64>,
    setup_s: Vec<f64>,
    raw: [Vec<f64>; 3],
}

impl E2e {
    fn start() -> Self {
        E2e {
            reference: host::Reference::start(),
            beacons_per_s: Vec::new(),
            frames_per_s: Vec::new(),
            setup_s: Vec::new(),
            raw: Default::default(),
        }
    }

    /// One checked iteration: its rates and set-up times, wall clock.
    fn push(&mut self, beacons_per_s: f64, frames_per_s: f64, setup_s: &[f64]) {
        let slowness = self.reference.after_iteration();
        self.beacons_per_s.push(beacons_per_s * slowness);
        self.frames_per_s.push(frames_per_s * slowness);
        self.setup_s.extend(setup_s.iter().map(|s| s / slowness));
        self.raw[0].push(beacons_per_s);
        self.raw[1].push(frames_per_s);
        self.raw[2].extend_from_slice(setup_s);
    }

    fn report(self, out: &mut Outcome) {
        if self.beacons_per_s.is_empty() {
            return;
        }
        let mut raw = Metrics::default();
        raw.sampled("wall.beacons_per_s", "1/s", &self.raw[0]);
        raw.sampled("wall.frames_per_s", "1/s", &self.raw[1]);
        raw.sampled("wall.setup_s", "s", &self.raw[2]);
        raw.sampled("host.slowness", "x", self.reference.probes());
        println!("unscaled wall-clock figures and the host reference they are scaled by:");
        raw.print_lines();
        let m = &mut out.metrics;
        m.sampled("beacons_per_s", "1/s", &self.beacons_per_s);
        m.sampled("frames_per_s", "1/s", &self.frames_per_s);
        m.sampled("setup_s", "s", &self.setup_s);
        m.push("peak_rss_mib", "MiB", metrics::peak_rss_mib());
    }
}

/// Traced sim run: alternate the program's untraced run and the traced
/// driver; every per-layer metric is the median over traced runs.
fn trace_sim(
    cfg: &MetroConfig,
    workers: usize,
    pinned: Option<u64>,
    seconds: f64,
    out: &mut Outcome,
) {
    let mut check = SimCheck {
        pinned,
        first: None,
    };
    let mut layers: Vec<Metrics> = Vec::new();
    repeat(seconds, || {
        let Some(u) = sim::untraced(cfg, workers) else {
            out.broken.push("run_metro panicked".into());
            return;
        };
        alloc::set_counting(true);
        let t = sim::traced(cfg, workers);
        alloc::set_counting(false);
        out.attempted += t.beacons;
        if !check.passes(&u) || t.digest != u.digest || !t.stats.conserves_offered_load() {
            println!(
                "check FAILED: traced digest {:#018x} != untraced {:#018x} or traced run does not conserve",
                t.digest, u.digest
            );
            out.failed += t.beacons;
            return;
        }
        layers.push(layers::sim(&t, cfg.devices, u.wall_s));
    });
    if !layers.is_empty() {
        out.metrics = Metrics::median_of(&layers);
    }
}

/// The daemon workload, untraced or traced.
fn run_daemon(
    cfg: &MetroConfig,
    pinned: Option<u64>,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) {
    let cap = match daemon::record(cfg, 2) {
        Ok(c) => c,
        Err(e) => {
            out.broken.push(format!("capture failed: {e}"));
            return;
        }
    };
    println!(
        "capture: {} frames, {} bytes (held in memory; counted in peak_rss_mib), metro digest {:#018x}",
        cap.frames,
        cap.wire.len(),
        cap.metro.delivery_digest
    );
    if pinned.is_some_and(|p| p != cap.metro.delivery_digest) {
        out.broken.push(format!(
            "capture digest {:#018x} != pinned {:#018x}",
            cap.metro.delivery_digest,
            pinned.unwrap_or_default()
        ));
        out.attempted += cap.frames;
        out.failed += cap.frames;
        return;
    }
    let mut e2e = (!trace).then(E2e::start);
    let mut layers: Vec<Metrics> = Vec::new();
    repeat(seconds, || {
        let s = match daemon::loopback(&cap) {
            Ok(s) => s,
            Err(e) => {
                out.broken.push(format!("loopback session failed: {e}"));
                out.attempted += cap.frames;
                out.failed += cap.frames;
                return;
            }
        };
        out.attempted += s.frames;
        let r = &s.report;
        let missing = (s.frames + r.rejected + r.late)
            .saturating_sub(r.frames_in)
            .max(r.frames_in.saturating_sub(s.frames));
        let bad = if r.matches_metro(&cap.metro) && r.frames_ledger_closes() {
            r.rejected + r.late + missing
        } else {
            s.frames
        };
        if bad > 0 {
            println!(
                "check FAILED: loopback digest {:#018x}, rejected {}, late {}, ledger closes {}",
                r.delivery_digest,
                r.rejected,
                r.late,
                r.frames_ledger_closes()
            );
            out.failed += bad;
            return;
        }
        if let Some(e2e) = e2e.as_mut() {
            let beacons_per_s = cap.metro.beacons_sent as f64 / s.stream_s;
            e2e.push(beacons_per_s, s.frames as f64 / s.stream_s, &[s.setup_s]);
            return;
        }
        let untimed = daemon::in_process(&cap, false);
        alloc::set_counting(true);
        let timed = daemon::in_process(&cap, true);
        let before = alloc::Tally::now();
        let fed = daemon::wire_fed(&cap);
        let fed_alloc = alloc::Tally::now().since(&before);
        alloc::set_counting(false);
        let (Some(u), Some(t), Some(fed)) = (untimed, timed, fed) else {
            out.broken
                .push("an in-process driver refused the capture".into());
            return;
        };
        let digests = [
            u.report.delivery_digest,
            t.report.delivery_digest,
            fed.digest,
        ];
        if t.report != u.report
            || digests.iter().any(|&d| d != r.delivery_digest)
            || fed.stats() != r.stats
            || fed.evicted != r.evicted
        {
            out.broken.push(format!(
                "traced daemon digests {digests:#018x?} != untraced {:#018x}",
                r.delivery_digest
            ));
            return;
        }
        let untimed_s = u.wall_ns as f64 / 1e9;
        let m = layers::daemon(&t, &fed, &fed_alloc, cfg.devices, s.stream_s, untimed_s);
        layers.push(m);
    });
    if let Some(e2e) = e2e {
        e2e.report(out);
    } else if !layers.is_empty() {
        out.metrics = Metrics::median_of(&layers);
    }
}
