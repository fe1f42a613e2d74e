//! `--repeat N`: is the benchmark quiet enough? Runs N sets of the four
//! workloads as child processes (a fresh process per run, as the
//! pipeline does, so peak RSS is a run's own), a new seed per set and
//! the workload order reversed every other set, then judges each
//! end-to-end metric against its `BENCHMARK.json` bound the way the
//! pipeline does: spread = (Q3 - Q1) / median over the runs, and the
//! second half's median against the first half's.

use crate::stats::{median, quartiles};
use crate::{crate_dir, WORKLOADS};
use cbir_router::jsonmerge::Json;
use std::collections::BTreeMap;
use std::process::Command;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Vec<Bound> {
    let path = crate_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Json::Arr(metrics)) = doc.get("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("better"), m.get("bound")) {
            (Some(Json::Str(name)), Some(Json::Str(better)), Some(Json::Num(bound))) => Bound {
                name: name.clone(),
                lower_is_better: better == "lower",
                bound: *bound,
            },
            _ => panic!("malformed end_to_end entry"),
        })
        .collect()
}

/// Run one workload in a child process; its metrics by name, or why not.
fn run_child(
    workload: &str,
    seed: usize,
    seconds: usize,
    quick: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--seconds", &seconds.to_string(), "--trace", "0"]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("printed nothing")?;
    let doc = Json::parse(last)?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("reported incorrect: {last}"));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result has no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| match m.get("value") {
            Some(Json::Num(v)) => Some((name.clone(), *v)),
            _ => None,
        })
        .collect())
}

/// Returns the process exit code: `0` when every metric is within its
/// bound on every workload.
pub fn run(sets: usize, seconds: usize, quick: bool) -> i32 {
    assert!(
        sets >= 4,
        "--repeat needs at least 4 sets to split in halves"
    );
    let bounds = bounds();
    // values[workload][metric] in set order.
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut broken = 0;
    for set in 0..sets {
        let mut order = WORKLOADS.to_vec();
        if set % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            eprintln!("set {}/{sets}: {workload}", set + 1);
            match run_child(workload, set + 1, seconds, quick) {
                Ok(metrics) => {
                    for (name, v) in metrics {
                        values
                            .entry(workload)
                            .or_default()
                            .entry(name)
                            .or_default()
                            .push(v);
                    }
                }
                Err(why) => {
                    broken += 1;
                    println!("FAILED RUN {workload} seed {}: {why}", set + 1);
                }
            }
        }
    }
    println!(
        "{:<15} {:<21} {:>11} {:>11} {:>11} {:>7} {:>6} {:>8}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound", "2nd/1st"
    );
    let mut outside = 0;
    for workload in WORKLOADS {
        for b in &bounds {
            let Some(v) = values.get(workload).and_then(|m| m.get(&b.name)) else {
                println!("{workload:<15} {:<21} no values", b.name);
                outside += 1;
                continue;
            };
            if v.len() < sets {
                outside += 1;
            }
            let [q1, _, q3] = quartiles(v);
            let mid = median(v);
            let spread = (q3 - q1) / mid;
            let (first, second) = v.split_at(v.len() / 2);
            // How much worse the second half's median is, as a share of
            // the first's; negative when it is better.
            let drift = (median(second) - median(first)) / median(first);
            let worse = if b.lower_is_better { drift } else { -drift };
            // The pipeline does not hold `setup_s` to its spread.
            let spread_ok = spread <= b.bound || b.name == "setup_s";
            let verdict = match (spread_ok && worse <= b.bound, spread <= b.bound / 3.0) {
                (false, _) => {
                    outside += 1;
                    "OUTSIDE"
                }
                (true, false) => "ok (spread over a third of the bound)",
                (true, true) => "ok",
            };
            println!(
                "{workload:<15} {:<21} {mid:>11.4} {q1:>11.4} {q3:>11.4} {spread:>7.4} {:>6.3} {worse:>+8.4}  {verdict}",
                b.name, b.bound
            );
            let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("{:<15} {:<21} runs: {}", "", "", runs.join(" "));
        }
    }
    println!("{outside} metric x workload pairs outside their bound, {broken} failed runs");
    i32::from(outside + broken > 0)
}
