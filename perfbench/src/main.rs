//! End-to-end and per-layer benchmark of the ER search engine.
//!
//! ```text
//! perfbench --workload <solve-othello|serve-random|selfplay-warm>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs each op of the workload twice, untraced and traced in
//! alternating order, then measures every layer, and reports the
//! per-layer metrics plus the tracing overhead. Either way every output
//! is checked outside the timed region; the last line of standard output
//! is the JSON result and the exit code is non-zero if any check failed.

mod inputs;
mod layers;
mod loadgen;
mod selfplay;
mod serve;
mod solve;
mod spans;
mod stats;
mod steal;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use spans::Spans;
use stats::{first_invalid, highest_supported_percentile, median, percentile, result_json, Metric};
use steal::StealLog;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <solve-othello|serve-random|selfplay-warm> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics of a traced run.
    pub metrics: Vec<Metric>,
    /// An untraced run's ops, for the end-to-end metrics.
    pub end_to_end: Option<EndToEnd>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
    /// The traced run's spans, written out at the end.
    pub spans: Option<Spans>,
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("reps > 0"), median(&times))
}

/// Repetitions of each workload's set-up per run.
pub const SETUP_REPS: usize = 9;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One finished op of an untraced run.
pub struct Op {
    pub done: Instant,
    pub latency: Duration,
    /// Correct, and for sessions on time.
    pub good: bool,
}

/// What an untraced run hands back for its end-to-end metrics.
pub struct EndToEnd {
    pub ops: Vec<Op>,
    /// When the first op was started (closed loop) or due (open loop).
    pub start: Instant,
    /// For an open loop, the wall from the first due time to the last
    /// completion; throughput is then goodput over it.
    pub open_loop_wall: Option<Duration>,
    pub setup_s: f64,
}

/// Most blocks an untraced run's ops are split into, and the fewest ops
/// a block holds.
const MAX_BLOCKS: usize = 9;
const BLOCK_OPS: usize = 50;

/// How much more steal than the calmest block's a block may see and
/// still count: the spread of the steal share between blocks of a calm
/// run on the reference host.
const STEAL_SLACK: f64 = 0.02;

/// The end-to-end metrics every workload reports. The ops, in completion
/// order, are split into up to [`MAX_BLOCKS`] blocks of at least
/// [`BLOCK_OPS`]. A block counts when the host stole at most
/// [`STEAL_SLACK`] more of the CPU time the guest wanted than during the
/// calmest block; the calmest third of the blocks always count, topped up
/// in order of calm until they hold the 100 ops a p90 needs (ten samples
/// beyond it). Every block counts where steal is not measured. Latency
/// percentiles are over the counted ops; throughput is their good ops per
/// second of their blocks' wall — or, for an open loop, good ops over the
/// whole run's wall. Set-up time and peak resident memory complete the
/// set.
fn end_to_end(mut e: EndToEnd, steal: &StealLog) -> Result<(Vec<Metric>, String), String> {
    let n = e.ops.len();
    if highest_supported_percentile(n).is_none_or(|p| p < 90.0) {
        return Err(format!("only {n} ops: p90 needs at least 100"));
    }
    e.ops.sort_by_key(|o| o.done);
    let blocks = (n / BLOCK_OPS).clamp(1, MAX_BLOCKS);
    let mut parts = Vec::with_capacity(blocks); // (ops, wall, steal share)
    let mut since = e.start;
    for b in 0..blocks {
        let ops = &e.ops[b * n / blocks..(b + 1) * n / blocks];
        let end = ops[ops.len() - 1].done;
        parts.push((ops, end - since, steal.share(since, end)));
        since = end;
    }
    let shares: Option<Vec<f64>> = parts.iter().map(|p| p.2).collect();
    let mut order: Vec<_> = parts.iter().collect();
    if shares.is_some() {
        order.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("shares are finite"));
    }
    let limit = shares
        .as_ref()
        .map(|_| order[0].2.unwrap_or(0.0) + STEAL_SLACK);
    let (mut kept, mut held) = (Vec::new(), 0);
    for p in order {
        let calm = limit.is_none_or(|l| p.2.is_some_and(|x| x <= l));
        if !calm && kept.len() >= blocks.div_ceil(3) && held >= 100 {
            break;
        }
        held += p.0.len();
        kept.push(p);
    }
    let ops: Vec<&Op> = kept.iter().flat_map(|p| p.0).collect();
    let lat: Vec<f64> = ops.iter().map(|o| ms(o.latency)).collect();
    let kept_good = ops.iter().filter(|o| o.good).count() as u64;
    let throughput = match e.open_loop_wall {
        Some(wall) => e.ops.iter().filter(|o| o.good).count() as f64 / wall.as_secs_f64(),
        None => kept_good as f64 / kept.iter().map(|p| p.1.as_secs_f64()).sum::<f64>(),
    };
    let note = match shares {
        Some(sh) => format!(
            "{} of {blocks} blocks kept; host steal per block {}",
            kept.len(),
            sh.iter()
                .map(|x| format!("{:.1}%", x * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        None => format!("{blocks} blocks, host steal not measured"),
    };
    let metrics = vec![
        Metric::new("throughput_per_s", throughput, "1/s", kept_good),
        Metric::new(
            "latency_ms_p50",
            percentile(&lat, 50.0),
            "ms",
            lat.len() as u64,
        ),
        Metric::new(
            "latency_ms_p90",
            percentile(&lat, 90.0),
            "ms",
            lat.len() as u64,
        ),
        Metric::new("setup_s", e.setup_s, "s", SETUP_REPS as u64),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB", 1),
    ];
    Ok((metrics, note))
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `trace.overhead_pct`, traced minus untraced over untraced: the median
/// over pairs of the same op run both ways, in alternating order; and
/// `trace.span_coverage`, the share of each op's wall time its layer spans
/// cover.
pub fn trace_metrics(pairs: &[(Duration, Duration)], spans: &Spans, op: &str) -> Vec<Metric> {
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|(u, t)| (t.as_secs_f64() / u.as_secs_f64().max(1e-9) - 1.0) * 100.0)
        .collect();
    vec![
        Metric::new(
            "trace.overhead_pct",
            median(&ratios),
            "%",
            pairs.len() as u64,
        ),
        Metric::new(
            "trace.span_coverage",
            spans.coverage(op).unwrap_or(0.0),
            "ratio",
            spans.len() as u64,
        ),
    ]
}

/// Self time per span name, for standard error.
fn self_time_notes(spans: &Spans) -> Vec<String> {
    let mut out = vec![format!(
        "{:<34} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    )];
    for (name, st) in spans.self_times() {
        out.push(format!(
            "{:<34} {:>8} {:>12.3} {:>12.3}",
            name,
            st.count,
            st.total_ns as f64 / 1e6,
            st.self_ns as f64 / 1e6
        ));
    }
    out
}

fn write_spans(a: &Args, spans: &Spans) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-{}.json", a.workload, a.seed));
    std::fs::write(&path, spans.chrome_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn run(a: &Args) -> Result<Outcome, String> {
    match a.workload.as_str() {
        "solve-othello" => solve::run(a),
        "serve-random" => serve::run(a),
        "selfplay-warm" => selfplay::run(a),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} | nproc {cores}, {} search workers + 1 client thread{}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        layers::WORKERS,
        if layers::WORKERS > cores { " (OVERSUBSCRIBED: more workers than cores)" } else { "" },
    );
    let (sampler, began) = (steal::Sampler::start(), Instant::now());
    let out = run(&a);
    let ended = Instant::now();
    let steal = sampler.stop();
    let mut out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for n in &out.notes {
        eprintln!("  {n}");
    }
    if let Some(share) = steal.share(began, ended) {
        // Time the hypervisor gave other guests while this one wanted to
        // run: a slow run with a high share was slowed by its host.
        eprintln!(
            "  host stole {:.1}% of the CPU time the guest wanted during the run",
            share * 100.0
        );
    }
    if let Some(e) = out.end_to_end.take() {
        match end_to_end(e, &steal) {
            Ok((metrics, note)) => {
                eprintln!("  {note}");
                out.metrics = metrics;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if let Some(spans) = &out.spans {
        for n in self_time_notes(spans) {
            eprintln!("  {n}");
        }
        match write_spans(&a, spans) {
            Ok(p) => eprintln!("  spans written to {p}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    eprintln!(
        "  {:<38} {:>16} {:<6} {:>10}",
        "metric", "value", "unit", "ops"
    );
    for m in &out.metrics {
        eprintln!(
            "  {:<38} {:>16.6} {:<6} {:>10}",
            m.name, m.value, m.unit, m.ops
        );
    }
    if let Some(m) = first_invalid(&out.metrics) {
        eprintln!("perfbench: cannot report metric {} = {}", m.name, m.value);
        return ExitCode::from(1);
    }
    let correct = out.failed == 0 && out.attempted > 0;
    eprintln!(
        "perfbench: {} ops attempted, {} failed — {}",
        out.attempted,
        out.failed,
        if correct {
            "all outputs correct"
        } else {
            "INCORRECT OUTPUT"
        }
    );
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-random --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-random", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    /// Back-to-back ops of a closed loop from `t0`: each ends when its
    /// latency is up.
    fn ops(t0: Instant, latencies_ms: impl IntoIterator<Item = u64>) -> Vec<Op> {
        let mut done = t0;
        latencies_ms
            .into_iter()
            .map(|l| {
                let latency = Duration::from_millis(l);
                done += latency;
                Op {
                    done,
                    latency,
                    good: true,
                }
            })
            .collect()
    }

    fn run(ops: Vec<Op>, start: Instant, open: Option<Duration>, steal: &StealLog) -> Vec<f64> {
        let e = EndToEnd {
            ops,
            start,
            open_loop_wall: open,
            setup_s: 0.1,
        };
        end_to_end(e, steal)
            .unwrap()
            .0
            .iter()
            .map(|m| m.value)
            .collect()
    }

    #[test]
    fn end_to_end_needs_a_hundred_ops() {
        let (t0, none) = (Instant::now(), StealLog::default());
        let e = EndToEnd {
            ops: ops(t0, vec![2; 99]),
            start: t0,
            open_loop_wall: None,
            setup_s: 0.1,
        };
        assert!(end_to_end(e, &none).is_err());
        assert_eq!(
            run(ops(t0, vec![2; 100]), t0, None, &none)[..3],
            [500.0, 2.0, 2.0]
        );
        let open = run(
            ops(t0, vec![2; 100]),
            t0,
            Some(Duration::from_secs(4)),
            &none,
        );
        assert_eq!(open[0], 25.0);
    }

    #[test]
    fn blocks_the_host_stole_from_are_left_out() {
        // Six blocks of 50 ops; the host steals 40% during the first two,
        // which run twice as slow, and nothing afterwards.
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let lat = || (0..300).map(|i| if i < 100 { 4 } else { 2 });
        let steal = StealLog::from_samples(vec![
            (at(0), 0, 0),
            (at(400), 40, 100),
            (at(600), 40, 150),
            (at(800), 40, 200),
        ]);
        assert_eq!(
            run(ops(t0, lat()), t0, None, &steal)[..3],
            [500.0, 2.0, 2.0]
        );
        // Unmeasured steal, or the same steal throughout: every block
        // counts.
        let even = StealLog::from_samples(vec![
            (at(0), 0, 0),
            (at(400), 4, 100),
            (at(600), 6, 150),
            (at(800), 8, 200),
        ]);
        for log in [StealLog::default(), even] {
            let all = run(ops(t0, lat()), t0, None, &log);
            assert!((all[0] - 375.0).abs() < 1e-9, "{all:?}");
            assert_eq!(all[1..3], [2.0, 4.0]);
        }
        // Too few calm ops for a p90: every block counts.
        let steal =
            StealLog::from_samples(vec![(at(0), 0, 0), (at(200), 40, 100), (at(300), 40, 150)]);
        let short = (0..100).map(|i| if i < 50 { 4 } else { 2 });
        assert_eq!(run(ops(t0, short), t0, None, &steal)[2], 4.0);
    }
}
