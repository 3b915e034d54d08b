//! End-to-end and per-layer wall-clock benchmark of the Crescent
//! simulator's three host programs: the design-space sweep
//! (`sweep_grid`), the multi-tenant serve grid (`serve_grid`) and
//! approximation-aware training (`train_approx`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_grid --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Every op runs on one thread, is a deterministic unit of work, and is
//! timed between two passes of a std-only reference kernel
//! ([`calib`]); reported times are calibrated against it. Each op's
//! output is checked (byte-identical reports, bit-identical losses) and
//! a failing op counts as failed. `--trace 1` runs the traced tour
//! instead: the same work replayed layer by layer with spans, printing
//! the per-layer metrics and the tracing overhead, and writing the spans
//! as Chrome Trace Event JSON under `perfbench/out/`.
//!
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod calib;
mod serve;
mod sweep;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::Instant;

use calib::{median, percentile, Clock, REF_NOMINAL_MS};
use serve::Serve;
use sweep::Sweep;
use trace::Tracer;
use train::Train;

/// A run holds at least this many timed ops, so that ten samples lie
/// beyond the reported 90th percentile.
const MIN_OPS: usize = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The timed loop stops here whatever the op count, so a run always
/// ends well inside three minutes.
const HARD_CAP_S: f64 = 140.0;

const USAGE: &str = "usage: crescent-perfbench --workload <sweep_grid|serve_grid|train_approx> \
                     [--seed <u64>] [--seconds <1..=60>] [--trace <0|1>]";

/// One benchmark workload: seeded inputs, a unit op through the
/// program's public entry point, its correctness check, and the traced
/// replay of the same op.
pub trait Workload: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;
    /// What one op returns; checked outside the timed region.
    type Output;
    /// Prepares the seeded inputs (the timed set-up).
    fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String>;
    /// Ops per round; runs time whole rounds, op `i` in `0..round()`.
    fn round(&self) -> usize;
    /// Runs op `i`.
    fn op(&self, i: usize) -> Self::Output;
    /// Checks op `i`'s output; the first output of each `i` (or a
    /// checked-in baseline) is what later ones must reproduce.
    fn check(&mut self, i: usize, out: Self::Output) -> Result<(), String>;
    /// Runs op `i` again, layer by layer inside spans, and checks it.
    fn traced_op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String>;
    /// Untimed checks made once per run.
    fn run_checks(&self) -> Result<(), String> {
        Ok(())
    }
    /// The per-layer metrics of the traced ops recorded in `tr`.
    fn layer_metrics(&self, tr: &Tracer) -> Vec<Metric>;
}

/// A named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Mixes the benchmark seed into a canonical input seed: seed 0 leaves
/// it unchanged, so the default seed reproduces the canonical specs and
/// their checked-in baselines.
pub fn derive_seed(canonical: u64, seed: u64) -> u64 {
    canonical.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { workload: String::new(), seed: 0, seconds: 20.0, trace: false };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    let s: u32 = value.parse().map_err(|e| bad(&e))?;
                    if !(1..=60).contains(&s) {
                        return Err(bad(&"must be 1..=60"));
                    }
                    args.seconds = f64::from(s);
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if ![Sweep::NAME, Serve::NAME, Train::NAME].contains(&args.workload.as_str()) {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        Ok(args)
    }
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    /// Every failed check, of an op or of the run.
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Outcome {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }
}

/// Timed op samples: raw and calibrated ms, and the reference passes.
#[derive(Default)]
struct Samples {
    raw_ms: Vec<f64>,
    cal_ms: Vec<f64>,
    ref_ms: Vec<f64>,
}

impl Samples {
    fn push(&mut self, raw_ms: f64, factor: f64, ref_ms: f64) {
        self.raw_ms.push(raw_ms);
        self.cal_ms.push(raw_ms * factor);
        self.ref_ms.push(ref_ms);
    }
}

/// Whether a timed loop that started at `start` and has `ops` of its
/// `min_ops` samples is done.
fn done(start: Instant, seconds: f64, ops: usize, min_ops: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    (elapsed >= seconds && ops >= min_ops) || elapsed >= HARD_CAP_S
}

/// Sets `W` up `reps` times between reference passes; returns the last
/// instance and the set-up samples (in ms).
fn setup<W: Workload>(
    seed: u64,
    reps: usize,
    tr: &mut Tracer,
    clock: &mut Clock,
) -> Result<(W, Samples), String> {
    let mut s = Samples::default();
    let mut last = None;
    for _ in 0..reps {
        let id = tr.open_op(W::NAME, true);
        let (w, raw_ms, ref_ms, factor) = clock.bracket(|| W::setup(seed, tr));
        tr.close_op(id, factor);
        s.push(raw_ms, factor, ref_ms);
        last = Some(w?);
    }
    Ok((last.expect("at least one set-up"), s))
}

/// One untimed round; its outputs become the references later ops are
/// checked against.
fn warm_up<W: Workload>(w: &mut W, out: &mut Outcome) {
    for i in 0..w.round() {
        let result = w.op(i);
        out.record(&format!("{} warm-up op {i}", W::NAME), w.check(i, result));
    }
}

fn timed_op<W: Workload>(
    w: &mut W,
    i: usize,
    clock: &mut Clock,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let (result, raw_ms, ref_ms, factor) = clock.bracket(|| w.op(i));
    s.push(raw_ms, factor, ref_ms);
    out.record(&format!("{} op {i}", W::NAME), w.check(i, result));
}

fn traced_op<W: Workload>(
    w: &mut W,
    i: usize,
    tr: &mut Tracer,
    clock: &mut Clock,
    s: &mut Samples,
    out: &mut Outcome,
) {
    let id = tr.open_op(W::NAME, false);
    let (result, raw_ms, ref_ms, factor) = clock.bracket(|| w.traced_op(i, tr));
    tr.close_op(id, factor);
    s.push(raw_ms, factor, ref_ms);
    out.record(&format!("{} traced op {i}", W::NAME), result);
}

/// The untraced run: set-ups, run-level checks, a warm-up round, then
/// whole rounds of timed ops until `seconds` have passed and at least
/// [`MIN_OPS`] ops ran.
fn measure<W: Workload>(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::off();
    let mut clock = Clock::new();
    let (mut w, setup) = setup::<W>(seed, SETUP_REPS, &mut tr, &mut clock)?;
    if let Err(e) = w.run_checks() {
        out.failures.push(format!("{} run check: {e}", W::NAME));
    }
    warm_up(&mut w, &mut out);

    let mut s = Samples::default();
    clock.restart();
    let start = Instant::now();
    while !done(start, seconds, s.cal_ms.len(), MIN_OPS) {
        for i in 0..w.round() {
            timed_op(&mut w, i, &mut clock, &mut s, &mut out);
        }
    }
    let n = s.cal_ms.len();
    let cal_total_s: f64 = s.cal_ms.iter().sum::<f64>() / 1e3;
    let raw_total_s: f64 = s.raw_ms.iter().sum::<f64>() / 1e3;
    out.metrics = vec![
        Metric::new("setup_s", median(&setup.cal_ms) / 1e3, "s"),
        Metric::new("ops_per_s", n as f64 / cal_total_s, "1/s"),
        Metric::new("op_ms_p50", median(&s.cal_ms), "ms"),
        Metric::new("op_ms_p90", percentile(&s.cal_ms, 90.0), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MiB"),
    ];
    out.notes.push(format!(
        "samples: setup_s n={SETUP_REPS} set-ups; ops_per_s, op_ms_p50, op_ms_p90 n={n} ops"
    ));
    if n < MIN_OPS {
        out.notes.push(format!("only {n} ops before the {HARD_CAP_S} s cap: op_ms_p90 has fewer than 10 samples beyond it"));
    }
    out.notes.push(format!(
        "raw (uncalibrated) host time: setup_s={} ops_per_s={} op_ms_p50={} op_ms_p90={} ref_ms_p50={}",
        median(&setup.raw_ms) / 1e3,
        n as f64 / raw_total_s,
        median(&s.raw_ms),
        percentile(&s.raw_ms, 90.0),
        median(&s.ref_ms),
    ));
    Ok(out)
}

/// The traced run: every workload is set up, warmed up and replayed
/// layer by layer at least one round, so every per-layer metric is
/// measured in every traced run; the `primary` workload then alternates
/// untraced and traced ops for `seconds` to give the host diagnostics
/// and the tracing overhead.
fn measure_traced(primary: &str, seed: u64, seconds: f64) -> Result<(Outcome, Tracer), String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::on();
    let mut clock = Clock::new();
    tour::<Sweep>(primary, seed, seconds, &mut tr, &mut clock, &mut out)?;
    tour::<Serve>(primary, seed, seconds, &mut tr, &mut clock, &mut out)?;
    tour::<Train>(primary, seed, seconds, &mut tr, &mut clock, &mut out)?;
    Ok((out, tr))
}

fn tour<W: Workload>(
    primary: &str,
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    clock: &mut Clock,
    out: &mut Outcome,
) -> Result<(), String> {
    let is_primary = primary == W::NAME;
    let (mut w, _) = setup::<W>(seed, if is_primary { SETUP_REPS } else { 1 }, tr, clock)?;
    warm_up(&mut w, out);
    clock.restart();
    let mut traced = Samples::default();
    let mut untraced = Samples::default();
    if is_primary {
        let start = Instant::now();
        while !done(start, seconds, 0, 0) {
            for i in 0..w.round() {
                timed_op(&mut w, i, clock, &mut untraced, out);
                traced_op(&mut w, i, tr, clock, &mut traced, out);
            }
        }
    } else {
        for i in 0..w.round() {
            traced_op(&mut w, i, tr, clock, &mut traced, out);
        }
    }
    out.notes.push(tr.aggregate(W::NAME, true).table(&format!("{} set-up", W::NAME)));
    out.notes.push(tr.aggregate(W::NAME, false).table(&format!("{} traced ops", W::NAME)));
    out.metrics.extend(w.layer_metrics(tr));
    if is_primary {
        let overhead: Vec<f64> =
            traced.cal_ms.iter().zip(&untraced.cal_ms).map(|(t, u)| t / u - 1.0).collect();
        out.metrics.extend([
            Metric::new("host.raw_op_ms_p50", median(&untraced.raw_ms), "ms"),
            Metric::new("host.raw_op_ms_p90", percentile(&untraced.raw_ms, 90.0), "ms"),
            Metric::new("host.ref_ms_p50", median(&untraced.ref_ms), "ms"),
            Metric::new("host.trace_overhead_pct", 100.0 * median(&overhead), "%"),
        ]);
        out.notes.push(format!(
            "host diagnostics from {} untraced / {} traced {} ops",
            untraced.cal_ms.len(),
            traced.cal_ms.len(),
            W::NAME
        ));
    }
    Ok(())
}

/// Pins the calling thread, and so every thread it spawns later, to the
/// CPU it is running on, and returns that CPU.
///
/// The sweep runner simulates its points on a worker thread of its own
/// (one per op). Unpinned, the scheduler put that thread on either CPU
/// while the reference passes ran on the main thread's, and on a shared
/// host the two CPUs' speeds differ from moment to moment, so the
/// reference could not calibrate the op. Pinned, both share one CPU.
fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reports the
    // calling thread's CPU.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0_u64; 16];
    *mask.get_mut(cpu / 64).ok_or_else(|| format!("CPU {cpu} beyond a cpu_set_t"))? |=
        1 << (cpu % 64);
    // SAFETY: `mask` is an initialised 128-byte `cpu_set_t` that outlives
    // the call and whose size is passed alongside; pid 0 is the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<(Outcome, Option<Tracer>), String> {
    if args.trace {
        return measure_traced(&args.workload, args.seed, args.seconds).map(|(o, t)| (o, Some(t)));
    }
    let out = match args.workload.as_str() {
        Sweep::NAME => measure::<Sweep>(args.seed, args.seconds),
        Serve::NAME => measure::<Serve>(args.seed, args.seconds),
        _ => measure::<Train>(args.seed, args.seconds),
    }?;
    Ok((out, None))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("crescent-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# crescent-perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    // `nproc` before pinning: afterwards the process may use one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin_to_current_cpu().map_or_else(|e| format!("none ({e})"), |cpu| cpu.to_string());
    println!(
        "# meta commit={} rustc=\"{}\" nproc={nproc} workers=1 pinned_cpu={pinned} ref_nominal_ms={REF_NOMINAL_MS}",
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_RUSTC"),
    );
    let (mut out, tracer) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("crescent-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tr) = tracer {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.chrome_json())) {
            Ok(()) => out.notes.push(format!("chrome trace: {}", path.display())),
            Err(e) => {
                eprintln!("crescent-perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.failures.push(format!("metric {} is not finite", m.name));
        }
    }
    for note in &out.notes {
        for line in note.lines() {
            println!(
                "{}",
                if line.starts_with('#') { line.to_string() } else { format!("# {line}") }
            );
        }
    }
    for failure in &out.failures {
        println!("# FAILED {failure}");
    }
    for m in &out.metrics {
        println!("{:<40} {:>20.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_are_checked() {
        let a =
            parse(&["--workload", "serve_grid", "--seed", "7", "--seconds", "3", "--trace", "1"])
                .expect("valid");
        assert_eq!(a, Args { workload: "serve_grid".into(), seed: 7, seconds: 3.0, trace: true });
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "sweep_grid", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "sweep_grid", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "sweep_grid", "--seed"]).is_err());
        assert!(parse(&["--seed", "-1", "--workload", "sweep_grid"]).is_err());
    }

    #[test]
    fn the_default_seed_is_canonical() {
        assert_eq!(derive_seed(0x5EED, 0), 0x5EED);
        assert_ne!(derive_seed(0x5EED, 1), 0x5EED);
    }

    /// Set-up, every op of a round twice (the repeat must reproduce the
    /// first), and the traced replay of each, all checked.
    fn clean_round<W: Workload>(seed: u64) -> Vec<Metric> {
        let mut tr = Tracer::on();
        let id = tr.open_op(W::NAME, true);
        let mut w = W::setup(seed, &mut tr).expect("set-up");
        tr.close_op(id, 1.0);
        for i in 0..w.round() {
            let first = w.op(i);
            w.check(i, first).expect("op passes its check");
            let again = w.op(i);
            w.check(i, again).expect("a repeated op reproduces the first");
            let id = tr.open_op(W::NAME, false);
            w.traced_op(i, &mut tr).expect("the replay agrees with the program");
            tr.close_op(id, 1.0);
        }
        let metrics = w.layer_metrics(&tr);
        for m in &metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        metrics
    }

    /// A seed never used while tuning the benchmark runs all three
    /// workloads cleanly.
    #[test]
    fn a_held_out_seed_runs_every_workload_cleanly() {
        const HELD_OUT: u64 = 0x05EE_D0FF;
        let sweep = clean_round::<Sweep>(HELD_OUT);
        let points = sweep.iter().find(|m| m.name == "explorer.points").expect("reported");
        assert_eq!(points.value, 64.0);
        clean_round::<Serve>(HELD_OUT);
        clean_round::<Train>(HELD_OUT);
    }

    /// At the default seed the serve op renders `bench/serve-baseline.json`
    /// byte for byte, and the sweep's run check passes against
    /// `bench/baseline.json`.
    #[test]
    fn the_default_seed_reproduces_the_checked_in_baselines() {
        let mut serve = Serve::setup(0, &mut Tracer::off()).expect("set-up");
        let json = serve.op(0);
        serve.check(0, json).expect("serve report equals the baseline");
        let sweep = Sweep::setup(0, &mut Tracer::off()).expect("set-up");
        sweep.run_checks().expect("quick sweep equals the baseline");
    }
}
