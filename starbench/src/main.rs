//! `starbench`: STAR's benchmark command.
//!
//! ```text
//! starbench --workload <ycsb-x10|tpcc-x50-wal> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's facts, one line per metric and, last, one JSON object
//! with the correctness verdict, the request counts and the metrics. Exits
//! 1 when a correctness check or the run fails, 2 on bad arguments.
//! Working files (the WAL, node logs, spans) go under `.starbench/` in the
//! working directory.

use starbench::inproc::{self, Spec};
use starbench::metrics::{Report, END_TO_END, PER_LAYER};
use starbench::spans::SpanRecorder;
use starbench::{cluster, deploy};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 2] = ["ycsb-x10", "tpcc-x50-wal"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("starbench: {problem}");
    eprintln!(
        "usage: starbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("node") {
        let id = argv.nth(2).and_then(|v| v.parse().ok());
        return match id {
            Some(id) => cluster::node_main(id),
            None => usage("usage: starbench node --id <n>"),
        };
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let run_dir = match prepare_run_dir(&args) {
        Ok(run_dir) => run_dir,
        Err(e) => {
            eprintln!("starbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut logs = match cluster::LogDir::create(run_dir.join("logs")) {
        Ok(logs) => logs,
        Err(e) => {
            eprintln!("starbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("meta {}", meta(&args));
    let result = run(&args, &logs.path);
    if !matches!(result, Ok(Report { correct: true, .. })) {
        logs.keep();
    }
    drop(logs);
    let _ = std::fs::remove_dir_all(run_dir.join("tmp"));
    // Removes the run's directory only if nothing was kept in it.
    let _ = std::fs::remove_dir(&run_dir);
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("starbench: {} failed: {e}", args.workload);
            let failed = Report { correct: false, attempted: 1, failed: 1, metrics: Vec::new() };
            println!("{}", failed.to_json());
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.lines());
    println!(
        "requests attempted {}, failed {}, failed_frac {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("starbench: correctness check failed (see MISMATCH lines)");
        ExitCode::FAILURE
    }
}

/// Creates this run's working directory and points the engine's temporary
/// files (the WAL) into it.
fn prepare_run_dir(args: &Args) -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let name = format!(
        "{}-seed{}-trace{}-{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    );
    let dir = cwd.join(".starbench").join(name);
    let tmp = dir.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    // Still single-threaded here, so setting the environment is sound.
    std::env::set_var("TMPDIR", &tmp);
    Ok(dir)
}

/// The workload's specification.
fn spec(args: &Args) -> Spec {
    match args.workload {
        "ycsb-x10" => Spec::ycsb_x10(args.seed),
        _ => Spec::tpcc_x50_wal(args.seed),
    }
}

fn run(args: &Args, logs: &Path) -> Result<Report, String> {
    let spec = spec(args);
    if !args.trace {
        let report = inproc::end_to_end(&spec, args.seconds)?;
        report.check_complete(&END_TO_END)?;
        return Ok(report);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut report = Report { correct: true, ..Report::default() };
    let mut spans = SpanRecorder::new();
    let (mut engine, _) = spec.setup()?;
    inproc::layer_metrics(&spec, &mut engine, args.seconds, &mut spans, &mut report)?;
    drop(engine);
    // The proto and serverd layers run only in the deployment; every traced
    // run measures them on the same three-node cluster.
    let wire = args.seconds / 2.0;
    deploy::layer_metrics(&exe, args.seed, wire, logs, &mut spans, &mut report)?;
    report.check_complete(&PER_LAYER)?;
    print_self_times(&spans);
    write_spans(args, &spans)?;
    Ok(report)
}

/// Prints the self time of every span name (stderr).
fn print_self_times(spans: &SpanRecorder) {
    for (name, total) in spans.self_time_by_name() {
        eprintln!("self time {name}: {:.3} s", total.as_secs_f64());
    }
}

/// Writes every span to `.starbench/spans/<workload>-seed<n>.jsonl`.
fn write_spans(args: &Args, spans: &SpanRecorder) -> Result<(), String> {
    let dir = Path::new(".starbench").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, spans.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {} ({} spans)", path.display(), spans.spans().len());
    Ok(())
}

/// The run's facts: seed, nproc, commit, cluster shape, table sizes, WAL
/// mode, as one JSON object.
fn meta(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut shape = spec(args).describe();
    if args.trace {
        shape += &format!(", \"wire\": {{{}}}", deploy::describe(&deploy::bootstrap(args.seed)));
    }
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"commit\": \"{}\", {shape}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    )
}

/// The source commit: `STARBENCH_COMMIT` if set, else read from `.git` in
/// the working directory, else `unknown`.
fn commit() -> String {
    if let Ok(commit) = std::env::var("STARBENCH_COMMIT") {
        return commit;
    }
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(Path::new(".git/HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&Path::new(".git").join(reference))
                .unwrap_or_else(|| format!("unknown ({reference})")),
            None => head,
        },
        None => "unknown".to_string(),
    }
}
