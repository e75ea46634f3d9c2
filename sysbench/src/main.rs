//! Whole-system benchmark of the overlay stack on the netsim simulator.
//!
//! ```text
//! apor-sysbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload on the stock `SimNode` adapter (set up
//! as many times as the workload asks, measured once) and reports the
//! end-to-end metrics. `--trace 1` runs it untraced and then traced
//! (every call into `OverlayNode` timed from outside), writes the
//! spans to `out/<workload>.spans` beside this package's manifest, reads
//! them back and reports the per-layer metrics and where the window's
//! wall time went. Every report ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
//! `failed` count route queries made and left unanswered. The exit code
//! is non-zero when an output check fails.

mod report;
mod run;
mod trace;
mod workload;

use report::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Spec, WORKLOADS};

/// Parsed command line.
struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: apor-sysbench --workload <{}> --seed <u64> --seconds <u64 >= 1> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown argument {flag}")),
        };
        *slot = Some(value.as_str());
    }
    let name = workload.ok_or("missing --workload")?;
    let spec = workload::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let number = |v: Option<&str>, flag: &str| -> Result<u64, String> {
        v.ok_or_else(|| format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = number(seed, "--seed")?;
    let seconds = number(seconds, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.ok_or("missing --trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where a workload's spans are written.
fn spans_path(spec: &Spec) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans", spec.name))
}

/// Write the traced run's spans and read them back: the per-layer table
/// is derived from the file.
fn round_trip_spans(path: &Path, spans: &[trace::Span]) -> std::io::Result<Vec<trace::Span>> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    trace::write_spans(std::io::BufWriter::new(std::fs::File::create(path)?), spans)?;
    trace::read_spans(&std::fs::read(path)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("apor-sysbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run, report, and say whether every check held.
fn bench(args: &Args) -> Result<bool, String> {
    let spec = args.spec;
    let timeline = spec.timeline(args.seconds);
    println!(
        "workload {}  n={}  seed {}  window {}..{} s simulated  trace {}",
        spec.name,
        spec.n,
        args.seed,
        timeline.window_start_s,
        timeline.window_end_s,
        u8::from(args.trace)
    );
    // The end-to-end run sets up several times for a steady `setup_s`;
    // the traced mode's untraced run is only the baseline for the
    // tracing overhead and the determinism check, so one set-up does.
    let setups = if args.trace { 1 } else { spec.setups };
    let untraced = run::run(spec, args.seed, args.seconds, setups, false);
    let rss = peak_rss_mb()?;
    let e2e = report::end_to_end(&untraced, rss);
    println!(
        "\nend-to-end ({} set-up(s): {:?} s)",
        untraced.timing.setup_s.len(),
        untraced.timing.setup_s
    );
    print!("{}", report::table(&e2e));
    let s = &untraced.sim;
    println!(
        "  route queries {} attempted, {} unanswered; availability {} at window end, \
         lowest {} at {} s; restore_s {:?}; membership_bps {}; {} route-age samples",
        s.queries,
        s.queries - s.answered,
        s.end_availability,
        s.min_availability.0,
        s.min_availability.1,
        s.restore_s,
        s.membership_bps,
        s.route_age_samples
    );

    let mut checks = report::checks(spec, &untraced);
    let reported: Vec<Metric> = if args.trace {
        let mut traced = run::run(spec, args.seed, args.seconds, 1, true);
        checks.push(report::Check {
            ok: traced.sim == untraced.sim,
            what: "traced run reproduces the untraced run's simulated outputs bit for bit".into(),
        });
        let recorded = traced.traced.take().expect("a traced run keeps its spans");
        let path = spans_path(spec);
        let spans = round_trip_spans(&path, &recorded.spans)
            .map_err(|e| format!("trace file {}: {e}", path.display()))?;
        drop(recorded.spans);
        let (layers, attribution) =
            report::per_layer(&traced, &spans, &recorded.round_two_us, &untraced);
        println!("\nper-layer ({} spans in {})", spans.len(), path.display());
        print!("{}", report::table(&layers));
        println!("\nwhere the traced window's wall time went");
        print!("{}", attribution.render());
        checks.push(report::Check {
            ok: attribution.netsim_self_s() >= 0.0,
            what: "timed calls fit inside the traced window's wall time".into(),
        });
        layers
    } else {
        e2e
    };
    checks.push(report::Check {
        ok: report::all_finite(&reported),
        what: "every reported value is finite".into(),
    });

    println!("\nchecks");
    for c in &checks {
        println!("  [{}] {}", if c.ok { "ok" } else { "FAILED" }, c.what);
    }
    let correct = checks.iter().all(|c| c.ok);
    println!(
        "{}",
        report::json_line(correct, s.queries, s.queries - s.answered, &reported)
    );
    Ok(correct)
}
