//! Self-tests of the benchmark's own arithmetic and parsers.
//!
//! ```text
//! cargo test --offline --manifest-path starbench/Cargo.toml
//! ```

use starbench::metrics::{valid_name, valid_unit, Report, END_TO_END, PER_LAYER};
use starbench::procfs::{parse_stat, parse_status, Switches};
use starbench::spans::{Span, SpanRecorder};
use starbench::stats::{
    median, percentile, samples_beyond, supports_percentile, Summary, MIN_P99_SAMPLES,
};
use std::time::Duration;

#[test]
fn percentiles_use_nearest_rank() {
    let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&sorted, 50.0), Some(50.0));
    assert_eq!(percentile(&sorted, 99.0), Some(99.0));
    assert_eq!(percentile(&sorted, 100.0), Some(100.0));
    assert_eq!(percentile(&sorted, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn p99_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1_000, 99.0), 10);
    assert!(supports_percentile(1_000, 99.0));
    assert!(!supports_percentile(999, 99.0));
    assert!(supports_percentile(20, 50.0));
    assert!(!supports_percentile(0, 50.0));
    assert_eq!(MIN_P99_SAMPLES, 1_000);
}

#[test]
fn summary_reports_count_and_refuses_short_windows() {
    let samples: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
    let s = Summary::of("x", &samples).expect("1000 samples suffice");
    assert_eq!((s.p50, s.p99, s.count), (500.0, 990.0, 1_000));
    let err = Summary::of("commit latency", &samples[..999]).expect_err("999 are too few");
    assert!(err.contains("commit latency") && err.contains("999"), "{err}");
}

const STAT: &str = "4242 (star bench (node)) S 1 4242 4242 0 -1 4194560 2157 0 0 0 \
                    1234 567 0 0 20 0 9 0 123456 987654321 4321 18446744073709551615 \
                    1 1 0 0 0 0 0 4096 0 0 0 0 17 1 0 0 0 0 0";

#[test]
fn stat_parser_reads_cpu_after_the_command_name() {
    let stat = parse_stat(STAT).expect("fixture parses");
    assert_eq!((stat.utime_ticks, stat.stime_ticks), (1234, 567));
    assert_eq!(stat.cpu(), Duration::from_millis(18_010));
    assert!(parse_stat("4242 (truncated) S 1 2").is_err());
    assert!(parse_stat("no parenthesis at all").is_err());
}

const STATUS: &str = "Name:\tstarbench\nUmask:\t0022\nState:\tS (sleeping)\n\
                      VmPeak:\t 2103456 kB\nVmSize:\t 2003456 kB\nVmHWM:\t 1468000 kB\n\
                      VmRSS:\t  734000 kB\nThreads:\t4\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t6\n";

#[test]
fn status_parser_reads_peak_rss() {
    let status = parse_status(STATUS).expect("fixture parses");
    assert_eq!(status.vm_hwm_kb, 1_468_000);
    assert!((status.peak_rss_mb() - 1_468_000.0 / 1024.0).abs() < 1e-9);
    assert!(parse_status("Name:\tx\nVmRSS:\t1 kB\n").is_err(), "VmHWM is required");
    assert!(parse_status("VmHWM:\tlots kB\n").is_err());
    assert!(parse_status("VmHWM:\n").is_err());
}

#[test]
fn live_proc_files_parse() {
    let stat = starbench::procfs::stat(None).expect("own stat");
    let status = starbench::procfs::status(None).expect("own status");
    assert!(status.vm_hwm_kb > 0);
    let _ = stat.cpu();
    let switches = starbench::procfs::self_switches().expect("getrusage");
    assert_eq!(Switches::from_line(&switches.to_line()), Ok(switches));
    assert!(Switches::from_line("rusage 1").is_err());
}

fn span(name: &'static str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start: Duration::from_micros(start_us),
        end: Duration::from_micros(end_us),
        parent,
        iteration: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let mut rec = SpanRecorder::new();
    let root = rec.push(span("iteration", 0, 100, None));
    rec.push(span("phase", 10, 40, Some(root)));
    // Overlaps the first child by 10 us: the union, not the sum, is covered.
    rec.push(span("fence", 30, 60, Some(root)));
    // Sticks out of the parent: only the part inside counts.
    let late = rec.push(span("quiesce", 90, 130, Some(root)));
    // A grandchild does not count against the root.
    rec.push(span("apply", 95, 100, Some(late)));
    assert_eq!(rec.self_time(root), Duration::from_micros(100 - 50 - 10));
    assert_eq!(rec.self_time(late), Duration::from_micros(40 - 5));
    assert_eq!(rec.self_time(1), Duration::from_micros(30));
    let by_name = rec.self_time_by_name();
    assert_eq!(by_name["iteration"], Duration::from_micros(40));
    let all = rec.self_times();
    assert_eq!(all.len(), 5);
    assert_eq!(all[root], rec.self_time(root));
    assert!(rec.to_jsonl().lines().count() == 5);
}

#[test]
fn timed_spans_nest() {
    let mut rec = SpanRecorder::new();
    let outer = rec.open("outer", None, 3);
    let value = rec.time("inner", Some(outer), 3, || 42);
    rec.close(outer);
    assert_eq!(value, 42);
    assert_eq!(rec.spans()[1].parent, Some(outer));
    assert!(rec.self_time(outer) <= rec.spans()[outer].duration());
    assert_eq!(rec.spans().len(), 2);
}

#[test]
fn metric_names_use_the_allowed_charset() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{unit}");
    }
    assert!(valid_name("core.fence_us.p99"));
    assert!(valid_name("9lives"));
    assert!(!valid_name(".hidden"));
    assert!(!valid_name("_x"));
    assert!(!valid_name("txn/s"));
    assert!(!valid_name("a b"));
    assert!(!valid_name(""));
    assert!(!valid_name(&"a".repeat(65)));
    assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("µs") && !valid_unit(""));
}

#[test]
fn report_is_one_json_line_with_every_metric() {
    let mut report = Report { correct: true, attempted: 10, failed: 0, metrics: Vec::new() };
    for (i, (name, _)) in END_TO_END.iter().enumerate() {
        report.add(&END_TO_END, name, 1.5 + i as f64, Some(1_000));
    }
    report.check_complete(&END_TO_END).expect("complete");
    assert!(report.check_complete(&PER_LAYER).is_err());
    let json = report.to_json();
    assert!(!json.contains('\n'));
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {")
    );
    assert!(json.contains("\"txn_per_s\": {\"value\": 1.5, \"unit\": \"txn/s\"}"), "{json}");
    report.metrics[0].value = f64::NAN;
    assert!(report.check_complete(&END_TO_END).is_err());
}
