//! The parts of the per-layer leg the workloads share. Spans come from
//! this crate's own files, around calls into each layer's public
//! functions; spans inside the program are a later change.

use crate::config::{Sizes, PACED_SHARE, SLICES};
use crate::load::{ReplyLog, K};
use crate::report::Report;
use crate::served::{count_ops, latencies_ms, paced_summary, Ctx};
use crate::stats::{highest, percentile, slices, Sample};
use crate::trace::Tracer;
use cbir_router::jsonmerge::Json;
use cbir_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Hit, Request, Response,
};
use cbir_server::Client;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// One op in this many is replayed against the layers.
pub const REPLAY_EVERY: usize = 20;

/// Ops of the traced leg's two open-loop passes, at `R50` and at `R75`.
pub fn paced_counts(ctx: &Ctx, sizes: &Sizes) -> (usize, usize) {
    let count = |rate_per_s: usize| {
        (((rate_per_s * ctx.seconds) as f64 * PACED_SHARE).round() as usize).max(2 * SLICES)
    };
    (count(sizes.r50_per_s), count(sizes.r75_per_s))
}

/// Every [`REPLAY_EVERY`]-th query.
pub fn subsample(queries: &[Vec<f32>]) -> Vec<Vec<f32>> {
    queries.iter().step_by(REPLAY_EVERY).cloned().collect()
}

/// What the traced closed-loop pass observed.
pub struct Pass {
    /// Requests per scheduler batch during the pass.
    pub mean_batch: f64,
    pub shed: u64,
    /// Mean client-observed latency of the timed ops.
    pub mean_latency_us: f64,
    pub logs: Vec<ReplyLog>,
    pub samples: Vec<Sample>,
}

pub struct Leg {
    pub tracer: Tracer,
    path: PathBuf,
    workload: &'static str,
}

impl Leg {
    pub fn new(ctx: &Ctx, workload: &'static str) -> Leg {
        let out = ctx.run_dir.parent().expect("run dir sits in e2e/out");
        Leg {
            tracer: Tracer::new(),
            path: out.join(format!("trace_{workload}.json")),
            workload,
        }
    }

    /// Run the closed-loop phase in two halves: `run(0)` as shipped,
    /// `run(1)` with the engine's own query tracing sampling every query
    /// and a client span recorded per op. `metrics` reads the serving
    /// counters `(executed, batches, shed)`; `timed` picks the ops whose
    /// latency the workload reports.
    pub fn closed_passes(
        &mut self,
        report: &mut Report,
        mut run: impl FnMut(usize) -> (Vec<ReplyLog>, Vec<Sample>, Instant),
        metrics: impl Fn() -> (u64, u64, u64),
        timed: impl Fn(&Sample) -> bool,
    ) -> Pass {
        let rate =
            |samples: &[Sample]| highest(slices(samples, SLICES, |_| true).iter().map(|s| s.per_s));
        let (_, plain, _) = run(0);
        count_ops(report, &plain);
        let before = metrics();
        cbir_obs::set_trace_sample_n(1);
        let (logs, samples, t0) = run(1);
        cbir_obs::set_trace_sample_n(0);
        let after = metrics();
        count_ops(report, &samples);
        for s in &samples {
            self.tracer
                .push("client.op", s.op, t0, s.sent_ns, s.done_ns);
        }
        let lat = latencies_ms(&samples, timed);
        report.set("obs.traced_throughput_ratio", rate(&samples) / rate(&plain));
        report.set("client.p95_ms", percentile(&lat, 95.0));
        report.set("client.p99_ms", percentile(&lat, 99.0));
        report.note("traced_latency_samples", Json::Num(lat.len() as f64));
        Pass {
            mean_batch: (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64,
            shed: after.2 - before.2,
            mean_latency_us: lat.iter().sum::<f64>() / lat.len() as f64 * 1e3,
            logs,
            samples,
        }
    }

    /// Run the open loop at `R50` (did the generator keep its schedule,
    /// and what does a client see at half load?) and at `R75` (how near
    /// the knee is that?). `run(ops, rate)` issues the ops of that range.
    pub fn paced_passes(
        &mut self,
        report: &mut Report,
        ctx: &Ctx,
        sizes: &Sizes,
        mut run: impl FnMut(Range<usize>, usize) -> Vec<Sample>,
    ) {
        let (n50, n75) = paced_counts(ctx, sizes);
        let p50 = paced_summary(report, "paced50", &run(0..n50, sizes.r50_per_s));
        let p75 = paced_summary(report, "paced75", &run(n50..n50 + n75, sizes.r75_per_s));
        report.set("client.paced_p50_ms", p50.best.p50_ms);
        report.set("client.paced_p95_ms", p50.best.p95_ms);
        report.set("client.paced_lag_p95_ms", p50.lag_p95_ms);
        report.set("client.paced_backlog_end", p50.backlog_end as f64);
        report.set("client.paced75_p95_ms", p75.best.p95_ms);
        report.note("paced75_backlog_end", Json::Num(p75.backlog_end as f64));
    }

    /// Seconds of the fastest of three runs of `f`, each a span.
    pub fn best_of_3(&mut self, name: &'static str, mut f: impl FnMut()) -> f64 {
        (0..3)
            .map(|op| {
                let t = Instant::now();
                self.tracer.span(name, None, op, |_, _| f());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Microseconds per query of `f` called on `queries` in batches of
    /// `batch`, each call a span.
    pub fn per_query_us(
        &mut self,
        name: &'static str,
        queries: &[Vec<f32>],
        batch: usize,
        mut f: impl FnMut(&[Vec<f32>]),
    ) -> f64 {
        let t = Instant::now();
        for (op, chunk) in queries.chunks(batch).enumerate() {
            self.tracer.span(name, None, op as u32, |_, _| f(chunk));
        }
        t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
    }

    /// Mean round trip of 200 pings, each a span called `name`.
    pub fn ping(&mut self, name: &'static str, addr: SocketAddr) -> f64 {
        let mut client = Client::connect(addr).expect("connect for ping");
        for op in 0..200 {
            self.tracer
                .span(name, None, op, |_, _| client.ping().expect("ping"));
        }
        self.tracer.mean_self_us(name)
    }

    /// Mean cost of one op's share of `server::protocol`: encode and
    /// decode the request, encode and decode a `K`-hit reply, as client
    /// and server (and the router, twice) each do once per op.
    pub fn protocol(&mut self, replay: &[Vec<f32>], recall_target: f32) -> f64 {
        let hits: Vec<Hit> = (0..K as u64)
            .map(|id| Hit {
                id,
                name: format!("img-{id:06}"),
                label: None,
                distance: id as f32,
            })
            .collect();
        for (op, query) in replay.iter().enumerate() {
            self.tracer
                .span("server.protocol", None, op as u32, |_, _| {
                    let req = encode_request(&Request::Knn {
                        k: K as u32,
                        deadline_us: 0,
                        recall_target,
                        descriptor: query.clone(),
                    });
                    std::hint::black_box(decode_request(&req).expect("own frame decodes"));
                    let resp = encode_response(&Response::Hits {
                        hits: hits.clone(),
                        coarse_candidates: 0,
                        rerank_evaluations: 0,
                    });
                    std::hint::black_box(decode_response(&resp).expect("own frame decodes"));
                });
        }
        self.tracer.mean_self_us("server.protocol")
    }

    /// Write the span file and finish the leg's bookkeeping.
    pub fn finish(self, report: &mut Report) {
        report.set(
            "client.failed_share",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        self.tracer
            .write(&self.path, self.workload)
            .expect("write span file");
        report.note("trace_file", Json::Str(self.path.display().to_string()));
    }
}
