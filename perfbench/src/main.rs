//! `mess-perfbench`: the repository's end-to-end and per-layer host-time benchmark.
//!
//! ```text
//! mess-perfbench --workload <ddr-study|app-sim> --seed <n> --seconds <s> --trace <0|1>
//! mess-perfbench --record        # print the output digests for expected.txt
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with every kind of tracing
//! off; with `--trace 1` it runs the workload once untraced as the base, once traced from
//! the benchmark's own code, and prints the per-layer metrics plus the tracing overhead.
//! Every run checks its outputs; the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` and the exit code is nonzero when any
//! output was wrong. See `README.md` for the workloads and metric definitions.

mod campaign;
mod expected;
mod layers;
mod specs;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Engine workers (`mess-exec` default thread count), fixed for every run.
pub const WORKERS: usize = 2;

/// Set-up is repeated at least this many times per run; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 7;

/// ... and until this much time has gone into set-up (short set-ups repeat more often) ...
const SETUP_MIN_SECONDS: f64 = 1.0;

/// ... but never more often than this.
const SETUP_MAX_REPEATS: usize = 1_000;

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPEATS`]), handing every result but the last
/// to `discard`; returns the last result and the median host time of one set-up.
///
/// # Errors
///
/// The first set-up error.
pub fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let begin = std::time::Instant::now();
    let mut times = Vec::new();
    let mut kept: Option<T> = None;
    while times.len() < SETUP_MIN_REPEATS
        || (begin.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        let start = std::time::Instant::now();
        let value = setup(times.len())?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(value) {
            discard(previous);
        }
    }
    Ok((kept.expect("set-up ran"), stats::median(&times)))
}

/// The end-to-end metrics, printed by every `--trace 0` run, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
    ("hit_p50_ms", "ms"),
    ("hit_p95_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("req_per_s", "1/s"),
];

/// The per-layer metrics, printed by every `--trace 1` run (0 where the layer does not
/// run in the workload), with their units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.compile_s", "s"),
    ("workloads.materialized_ops", "count"),
    ("cpu.engine_self_s", "s"),
    ("cpu.sim_ops", "count"),
    ("cpu.host_ns_per_sim_op", "ns"),
    ("cpu.cycles_skipped_ratio", "ratio"),
    ("cpu.runs_truncated", "count"),
    ("dram.sweep_backend_s", "s"),
    ("dram.stream_backend_s", "s"),
    ("dram.host_ns_per_request", "ns"),
    ("dram.rejected_ratio", "ratio"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.replay_s", "s"),
    ("dram.replay_ns_per_request", "ns"),
    ("dram.replay_ramulator_like_s", "s"),
    ("memmodels.backend_s", "s"),
    ("memmodels.host_ns_per_request", "ns"),
    ("core.backend_s", "s"),
    ("core.host_ns_per_request", "ns"),
    ("cxl.backend_s", "s"),
    ("cxl.host_ns_per_request", "ns"),
    ("bench.characterize_s", "s"),
    ("bench.points", "count"),
    ("bench.points_saturated", "count"),
    ("exec.items", "count"),
    ("exec.job_wait_s", "s"),
    ("exec.busy_ratio", "ratio"),
    ("scenario.run_s", "s"),
    ("scenario.stream_reference_s", "s"),
    ("scenario.characterizations", "count"),
    ("scenario.unique_characterization_ratio", "ratio"),
    ("scenario.unattributed_s", "s"),
    ("platforms.factory_build_s", "s"),
    ("profiler.profile_s", "s"),
    ("serve.digest_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.report_s", "s"),
    ("serve.cache_hits", "count"),
    ("serve.requests", "count"),
    ("trace.wall_s", "s"),
    ("trace.base_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Detailed-DRAM characterization campaign (fig2 + one-platform Table I).
    DdrStudy,
    /// Application runs on the fast models plus one profile.
    AppSim,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::DdrStudy, Workload::AppSim];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DdrStudy => "ddr-study",
            Workload::AppSim => "app-sim",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

/// What one run produced: the work attempted, what failed, and the metric values.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Runs or requests attempted.
    pub attempted: u64,
    /// Runs or requests that errored or returned wrong bytes.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable reasons for every failure.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Records `value` for the catalogued metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "uncatalogued metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one attempt, failed with `problem` when it is `Some`.
    pub fn attempt(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.problems.push(problem);
        }
    }

    /// The share of attempts that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// A scratch directory inside the benchmark's own directory (ignored by git), removed
/// again by the caller.
pub fn work_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{tag}-{}", std::process::id()))
}

/// Writes the traced run's spans as NDJSON into the benchmark's scratch directory
/// (`.work/spans-<workload>-<seed>.ndjson`), once the run has ended.
pub fn write_spans(args: &Args, spans: &[layers::SpanRecord]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work");
    let path = dir.join(format!(
        "spans-{}-{}.ndjson",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            layers::write_ndjson(spans, &mut out)?;
            std::io::Write::flush(&mut out)
        });
    if let Err(e) = written {
        eprintln!("mess-perfbench: writing {}: {e}", path.display());
    }
}

const USAGE: &str = "usage: mess-perfbench --workload <ddr-study|app-sim> \
                     --seed <n> --seconds <s> --trace <0|1> | --record";

fn parse_args(raw: &[String]) -> Result<Option<Args>, String> {
    if raw == ["--record"] {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(specs::DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The environment stamp printed before the result line.
fn env_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"workers\":{WORKERS},\"profile\":\"{}\",\"git_commit\":\"{}\",\"rustc\":\"{}\"}}}}",
        args.workload.name(),
        args.seed,
        json_number(args.seconds),
        u8::from(args.trace),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_GIT_COMMIT"),
        env!("PERFBENCH_RUSTC"),
    )
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(args: &Args, result: &RunResult) -> String {
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let value = result.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.failed == 0,
        result.attempted,
        result.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(Some(args)) => args,
        Ok(None) => {
            mess_exec::set_default_threads(WORKERS);
            return match expected::record() {
                Ok(text) => {
                    print!("{text}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mess-perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("mess-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    mess_exec::set_default_threads(WORKERS);
    let outcome = campaign::run(&args);
    let _ = std::fs::remove_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work"));
    match outcome {
        Ok(result) if result.attempted == 0 => {
            eprintln!("mess-perfbench: the run attempted no work");
            ExitCode::FAILURE
        }
        Ok(result) => {
            for problem in &result.problems {
                eprintln!("mess-perfbench: wrong output: {problem}");
            }
            if !args.trace {
                let missing: Vec<&str> = END_TO_END
                    .iter()
                    .map(|(n, _)| *n)
                    .filter(|n| !result.metrics.contains_key(n))
                    .collect();
                assert!(missing.is_empty(), "unmeasured metrics {missing:?}");
            }
            println!("{}", env_line(&args));
            println!("{}", result_line(&args, &result));
            if result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mess-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let parsed = parse_args(&args(&[
            "--workload",
            "app-sim",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(parsed.workload, Workload::AppSim);
        assert_eq!(parsed.seed, 7);
        assert!(parsed.trace);
        assert!(parse_args(&args(&["--workload", "nope", "--seconds", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "app-sim", "--seconds", "0"])).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogued_metrics() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').unwrap()].to_string())
                .collect()
        };
        let catalog = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names("end_to_end"), catalog(&END_TO_END));
        assert_eq!(names("per_layer"), catalog(&PER_LAYER));
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(names("workloads"), workloads);
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let mut result = RunResult::default();
        result.attempt(None);
        result.set("wall_s", 1.5);
        let a = Args {
            workload: Workload::AppSim,
            seed: 1,
            seconds: 1.0,
            trace: false,
        };
        let line = result_line(&a, &result);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}"));
    }
}
