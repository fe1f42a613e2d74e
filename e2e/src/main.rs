//! `cbir-e2e`: the repo's end-to-end benchmark. One invocation builds
//! its inputs from `--seed`, runs one workload against the real stack
//! through public APIs only, checks every reply, and prints one JSON
//! object as its last line. See `e2e/README.md`.

mod config;
mod inputs;
mod load;
mod repeat;
mod report;
mod served;
mod stats;
mod trace;
mod workloads;

use cbir_router::jsonmerge::Json;
use report::Report;
use served::Ctx;
use std::path::{Path, PathBuf};

pub const WORKLOADS: [&str; 4] = ["image_pipeline", "serve_scan", "tier_approx", "live_rw"];

const USAGE: &str = "usage: cbir-e2e --workload <image_pipeline|serve_scan|tier_approx|live_rw> \
--seed <u64> [--seconds <1..60>] [--trace <0|1>] [--quick] [--append-trajectory]
       cbir-e2e --repeat <N> [--seconds <1..60>] [--quick]";

/// The crate directory: where `out/` and `trajectory.jsonl` live.
pub fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: usize,
    trace: bool,
    quick: bool,
    append_trajectory: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        quick: false,
        append_trajectory: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{v} is not a number"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)? as usize,
            "--trace" => args.trace = number(value()?)? != 0,
            "--repeat" => args.repeat = Some(number(value()?)? as usize),
            "--quick" => args.quick = true,
            "--append-trajectory" => args.append_trajectory = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..60".into());
    }
    Ok(args)
}

/// This process's scratch directory; removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> RunDir {
        let dir = crate_dir()
            .join("out")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create e2e/out/run-<pid>");
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(args: &Args, name: &str) -> Report {
    let dir = RunDir::create();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        run_dir: dir.0.clone(),
    };
    // Tracing inside the engine is off unless the traced leg turns it
    // on; counters stay on, as shipped.
    cbir_obs::set_trace_sample_n(0);
    let mut report = match name {
        "image_pipeline" => workloads::image_pipeline::run(&ctx, args.trace),
        "serve_scan" => workloads::serve_scan::run(&ctx, args.trace),
        "tier_approx" => workloads::tier_approx::run(&ctx, args.trace),
        "live_rw" => workloads::live_rw::run(&ctx, args.trace),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace {
        report.set("core.store_peak_rss_mb", served::peak_rss_mb());
    }
    report
}

/// Which kernel path `cbir_distance` dispatches to on this host (the
/// rule in `crates/distance/src/simd.rs`).
fn simd_dispatch() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return "avx2";
    }
    "portable"
}

fn commit_hash() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(crate_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn append_trajectory(args: &Args, name: &str, result: &Json) {
    use std::io::Write;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let row = Json::Obj(vec![
        ("commit".into(), Json::Str(commit_hash())),
        ("workload".into(), Json::Str(name.into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("simd".into(), Json::Str(simd_dispatch().into())),
        (
            "correct".into(),
            result.get("correct").cloned().unwrap_or(Json::Null),
        ),
        (
            "metrics".into(),
            result.get("metrics").cloned().unwrap_or(Json::Null),
        ),
    ]);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(crate_dir().join("trajectory.jsonl"))
        .expect("open e2e/trajectory.jsonl");
    writeln!(file, "{}", row.render()).expect("append trajectory row");
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    if let Some(sets) = args.repeat {
        std::process::exit(repeat::run(sets, args.seconds, args.quick));
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let report = run_workload(&args, &name);
    let scheduler = config::scheduler();
    let mut context = vec![
        ("workload".to_string(), Json::Str(name.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds as f64)),
        ("quick".into(), Json::Bool(args.quick)),
        ("simd".into(), Json::Str(simd_dispatch().into())),
        (
            "scheduler".into(),
            Json::Str(format!(
                "max_batch {} max_delay {}us queue_cap {} exec_threads {}",
                scheduler.max_batch,
                scheduler.max_delay.as_micros(),
                scheduler.queue_cap,
                scheduler.exec_threads
            )),
        ),
        (
            "load".into(),
            Json::Str(format!(
                "{} connections, window {}",
                config::LANES,
                config::WINDOW
            )),
        ),
    ];
    context.extend(report.notes.iter().cloned());
    let checks = report.checks.iter().map(|(name, held)| {
        Json::Obj(vec![
            ("check".into(), Json::Str((*name).into())),
            ("held".into(), Json::Bool(*held)),
        ])
    });
    context.push(("checks".into(), Json::Arr(checks.collect())));
    let result = report.result(args.trace);
    if args.append_trajectory && !args.trace {
        append_trajectory(&args, &name, &result);
    }
    println!("{}", Json::Obj(context).render());
    println!("{}", result.render());
}
