//! The benchmark's command line.
//!
//! ```text
//! cpi2perf --workload <fleet_day|fleet_dense|serve_mixed|all> \
//!          [--seed N] [--seconds S] [--trace 0|1]
//! cpi2perf --steady N [--workload W|all] [--seconds S] [--trace 0|1] \
//!          [--first-seed K] [--out report.json]
//! cpi2perf --compare base.json new.json
//! ```
//!
//! A single-workload run prints the environment fingerprint, each
//! metric by name with its unit and each output check, and as its last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--workload all` and `--steady` run every run in a child process of
//! their own (so peak memory is per run) and exit non-zero when any
//! check failed.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use cpi2perf::env;
use cpi2perf::report::{self, Report, ResultLine};
use cpi2perf::run;
use cpi2perf::scenario::Workload;

const USAGE: &str = "usage: cpi2perf --workload <fleet_day|fleet_dense|serve_mixed|all> \
[--seed N] [--seconds S] [--trace 0|1]
       cpi2perf --steady N [--workload W|all] [--seconds S] [--trace 0|1] [--first-seed K] [--out FILE]
       cpi2perf --compare BASE.json NEW.json";

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} takes a number (got {v:?})")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    match real_main(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("cpi2perf: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &Args) -> Result<ExitCode, String> {
    if let Some(base) = args.value("--compare") {
        let new = args
            .0
            .iter()
            .skip_while(|a| *a != "--compare")
            .nth(2)
            .ok_or("--compare takes two report files")?;
        let (text, ok) = report::compare(&load_report(base)?, &load_report(new)?);
        print!("{text}");
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    let trace = args.parsed::<u8>("--trace", 0)? == 1;
    let workload = args.value("--workload").unwrap_or("all");
    let workloads: Vec<Workload> = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::named(workload).ok_or(format!("unknown workload {workload:?}"))?]
    };
    if let Some(n) = args.value("--steady") {
        let n: u64 = n.parse().map_err(|_| "--steady takes a run count")?;
        let first: u64 = args.parsed("--first-seed", 1)?;
        return steady(
            &workloads,
            first..first + n,
            seconds,
            trace,
            args.value("--out"),
        );
    }
    if workloads.len() > 1 {
        let seed: u64 = args.parsed("--seed", 1)?;
        return steady(&workloads, seed..seed + 1, seconds, trace, None);
    }
    let seed: u64 = args.parsed("--seed", 1)?;
    Ok(single(workloads[0], seed, seconds, trace))
}

/// One run in this process; the last line printed is the result line.
fn single(w: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = run::run(w, seed, seconds, trace, conns);
    println!("fingerprint {}", env::fingerprint_json(&env::fingerprint()));
    for m in &result.metrics {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    for (what, ok) in &result.checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    let line = ResultLine::of(&result);
    println!("{}", line.to_json());
    if line.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each workload once per seed, each run in a child process, and
/// prints every metric's median, quartiles and range.
fn steady(
    workloads: &[Workload],
    seeds: std::ops::Range<u64>,
    seconds: f64,
    trace: bool,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut report = Report {
        fingerprint: env::fingerprint(),
        runs: BTreeMap::new(),
    };
    let mut all_ok = true;
    for &w in workloads {
        for seed in seeds.clone() {
            let output = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("spawn run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let body: Vec<&str> = stdout.lines().collect();
            let (last, rest) = body.split_last().ok_or(format!(
                "{} seed {seed}: no output; stderr:\n{}",
                w.name(),
                String::from_utf8_lossy(&output.stderr)
            ))?;
            for l in rest.iter().filter(|l| !l.starts_with("fingerprint")) {
                println!("[seed {seed}] {l}");
            }
            let line: ResultLine = serde_json::from_str(last)
                .map_err(|e| format!("{} seed {seed}: bad result line ({e}): {last}", w.name()))?;
            all_ok &= line.correct && output.status.success();
            report
                .runs
                .entry(w.name().to_string())
                .or_default()
                .push(line);
        }
    }
    if seeds.end - seeds.start > 1 {
        print!("{}", report.render());
    }
    if let Some(path) = out {
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load_report(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}
