//! Shared harness code for the experiment binaries (`exp_*`) and Criterion
//! benches: aligned table printing, median timing, the standard
//! dataset / index / corpus setups every experiment draws from, and the
//! serving experiments' union corpus, backend, raw-frame call and
//! closed-loop client load.

use cbir_core::{build_index, ImageDatabase, ImageMeta, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_index::{Dataset, SearchIndex};
use cbir_obs::Json;
use cbir_server::protocol::{encode_request, read_frame, write_frame, Request};
use cbir_server::{Client, Hit, SchedulerConfig, Server, ServerHandle};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Fixed-width table printer for paper-style result tables.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render to stdout with per-column alignment.
    pub fn print(&self) {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{:>width$}", s, width = widths[c]))
                .collect();
            println!("  {}", parts.join("  "));
        };
        line(&self.headers);
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        line(&rule);
        for row in &self.rows {
            line(row);
        }
    }
}

/// Median wall-clock time of `iters` runs of `f`.
pub fn time_median<F: FnMut()>(iters: usize, mut f: F) -> Duration {
    assert!(iters > 0);
    let mut times: Vec<Duration> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// [`time_median`] in microseconds.
pub fn median_us(iters: usize, f: impl FnMut()) -> f64 {
    time_median(iters, f).as_secs_f64() * 1e6
}

/// The middle of `xs` once sorted (the upper middle for an even count).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Descriptor dimension of [`union_db`]'s rows.
pub const UNION_DIM: usize = 64;

/// The serving experiments' union corpus: `n` normalized histograms of
/// [`UNION_DIM`] bins where every third row is a bit-exact duplicate of
/// an earlier row, so top-k boundaries land on distance ties and the
/// router's merge tie-break is load-bearing even while shards come and
/// go.
pub fn union_db(n: usize, seed: u64) -> ImageDatabase {
    let pipeline = Pipeline::new(
        UNION_DIM as u32,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray {
            bins: UNION_DIM as u32,
        })],
    )
    .expect("static pipeline");
    let mut db = ImageDatabase::new(pipeline);
    for (i, v) in cbir_workload::duplicated_histograms(n, UNION_DIM, 1.0, 3, seed)
        .into_iter()
        .enumerate()
    {
        db.insert_descriptor(
            ImageMeta {
                name: format!("img-{i:06}"),
                label: Some((i % 7) as u32),
            },
            v,
        )
        .expect("insert descriptor");
    }
    db
}

/// One shard backend: single exec thread, linear scan — per-query cost
/// is proportional to the shard's row count, which is exactly the cost
/// model sharding divides.
pub fn spawn_backend(db: ImageDatabase) -> ServerHandle {
    let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).expect("build engine");
    let config = SchedulerConfig {
        exec_threads: 1,
        ..SchedulerConfig::default()
    };
    Server::spawn_shared(Arc::new(engine), "127.0.0.1:0", config).expect("spawn backend")
}

/// Send one encoded request frame on a fresh connection, return the raw
/// reply payload bytes.
pub fn raw_call(addr: SocketAddr, req: &Request) -> Vec<u8> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    write_frame(&mut writer, &encode_request(req)).expect("write frame");
    read_frame(&mut BufReader::new(stream))
        .expect("read frame")
        .expect("reply payload")
}

/// Closed-loop k-NN load for `k` neighbours against `addr`: one
/// connection per stream, all released at once, each keeping at most
/// `window` requests in flight — fill the window with one flush, then
/// drain half of it before refilling, so client syscalls are amortized
/// across the burst (a window of 1 is one request at a time). Every reply
/// goes through `check`. Returns queries per second over the whole load.
pub fn closed_loop(
    addr: SocketAddr,
    streams: &[Vec<Vec<f32>>],
    k: usize,
    window: usize,
    check: impl Fn(&[Hit]) + Sync,
) -> f64 {
    let total: usize = streams.iter().map(Vec::len).sum();
    let barrier = Barrier::new(streams.len() + 1);
    let elapsed = std::thread::scope(|scope| {
        for stream in streams {
            let (barrier, check) = (&barrier, &check);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                let (mut sent, mut recvd) = (0usize, 0usize);
                while recvd < stream.len() {
                    while sent < stream.len() && sent - recvd < window {
                        client.send_knn(&stream[sent], k, 0, 1.0).expect("send");
                        sent += 1;
                    }
                    client.flush().expect("flush");
                    let drain_to = recvd + ((sent - recvd) / 2).max(1);
                    while recvd < drain_to {
                        check(&client.recv_hits().expect("recv"));
                        recvd += 1;
                    }
                }
            });
        }
        barrier.wait();
        // The scope joins every client before returning.
        Instant::now()
    })
    .elapsed();
    total as f64 / elapsed.as_secs_f64()
}

/// Milliseconds with three decimals.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Microseconds with one decimal.
pub fn fmt_us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// `x` rounded to `decimals` places, as a JSON number — what a results
/// file records of a measurement.
pub fn rounded(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

/// Write `doc` to `results/BENCH_{name}.json`, one key per line. A
/// `--quick` run writes nothing: results come from full runs only.
pub fn write_results(name: &str, quick: bool, doc: &Json) {
    let path = format!("results/BENCH_{name}.json");
    if quick {
        println!("quick mode: skipping {path}");
        return;
    }
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, doc.render_pretty() + "\n").expect("write results");
    println!("wrote {path}");
}

/// The standard clustered vector dataset used by the index experiments:
/// points around `n/50` Gaussian centres — the feature-space structure a
/// class-organized image collection produces.
pub fn clustered_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let clusters = (n / 50).clamp(4, 64);
    let vecs = cbir_workload::clustered(n, dim, clusters, 1.0, 100.0, seed);
    Dataset::from_vectors(&vecs).expect("valid workload")
}

/// Queries matched to [`clustered_dataset`].
pub fn standard_queries(dataset: &Dataset, n_queries: usize, seed: u64) -> Vec<Vec<f32>> {
    let data: Vec<Vec<f32>> = (0..dataset.len())
        .map(|i| dataset.vector(i).to_vec())
        .collect();
    cbir_workload::queries(&data, n_queries, 0.5, seed)
}

/// The index lineup every comparison experiment reports, in table order.
pub fn index_lineup() -> Vec<IndexKind> {
    vec![
        IndexKind::Linear,
        IndexKind::KdTree,
        IndexKind::VpTree,
        IndexKind::Antipole { diameter: None },
        IndexKind::RStar,
        IndexKind::MTree,
    ]
}

/// Build one of the lineup indexes over a dataset under L2.
pub fn build_lineup_index(kind: &IndexKind, dataset: Dataset) -> Box<dyn SearchIndex> {
    build_index(kind, dataset, Measure::L2).expect("lineup indexes support L2")
}

/// The `linear` slot of the process's `cbir_obs` snapshot: what every
/// sequential-scan engine running in this process has flushed so far.
/// The serving experiments read it to see the scan's exact L1 filter at
/// work (`subtrees_pruned`) on servers they drive in-process.
pub fn linear_counters() -> cbir_obs::IndexCounters {
    cbir_obs::snapshot()
        .indexes
        .into_iter()
        .find(|c| c.index == "linear")
        .expect("the registry has a linear slot")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["only-one".into()])
        }));
        assert!(result.is_err());
    }

    #[test]
    fn timing_returns_positive() {
        let d = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(d.as_nanos() > 0);
        assert!(!fmt_ms(d).is_empty());
        assert!(!fmt_us(d).is_empty());
    }

    #[test]
    fn setups_are_deterministic() {
        let a = clustered_dataset(200, 4, 1);
        let b = clustered_dataset(200, 4, 1);
        assert_eq!(a.vector(7), b.vector(7));
        let qa = standard_queries(&a, 5, 2);
        let qb = standard_queries(&b, 5, 2);
        assert_eq!(qa, qb);
    }

    #[test]
    fn lineup_builds_over_l2() {
        let ds = clustered_dataset(300, 8, 3);
        for kind in index_lineup() {
            let idx = build_lineup_index(&kind, ds.clone());
            assert_eq!(idx.len(), 300, "{}", kind.name());
        }
    }
}
