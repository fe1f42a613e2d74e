//! Connection-churn soak against the connection loop.
//!
//! Hundreds of short-lived connections — most complete a query cleanly,
//! a seeded fraction abort mid-request (half a frame written, then the
//! socket slammed shut) — while one long-lived client watches. The
//! contract: the server's fd count returns to its baseline (every
//! accepted socket and epoll registration is reclaimed), the admission
//! queue drains to zero, and the bystander never sees a wrong answer.
//!
//! The server runs in-process, so `/proc/self/fd` counts the server's
//! descriptors: a leaked connection fd, epoll registration, or waker
//! pipe shows up as a rising count that never comes back down.

#![cfg(target_os = "linux")]

use cbir_core::{ImageDatabase, ImageMeta, IndexKind, QueryEngine, ServedCorpus};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_server::protocol::{encode_request, write_frame, Request};
use cbir_server::{Client, SchedulerConfig, Server};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// xorshift64* for seeded abort decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[test]
fn connection_churn_leaks_no_fds_and_strands_no_work() {
    let pipeline = Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins: 16 })],
    )
    .unwrap();
    let mut db = ImageDatabase::new(pipeline);
    for (i, v) in cbir_workload::histograms(32, 16, 1.0, 7)
        .into_iter()
        .enumerate()
    {
        db.insert_descriptor(
            ImageMeta {
                name: format!("img-{i}"),
                label: None,
            },
            v,
        )
        .unwrap();
    }
    let engine = QueryEngine::build(db, IndexKind::VpTree, Measure::L1).unwrap();
    let handle = Server::spawn_corpus(
        ServedCorpus::Static(Arc::new(engine)),
        "127.0.0.1:0",
        SchedulerConfig {
            // Tight idle reap so aborted half-frames are collected
            // within the test's lifetime, not after 60s.
            idle_timeout: Some(Duration::from_millis(200)),
            ..SchedulerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.local_addr();

    let mut bystander = Client::connect(addr).unwrap();
    let (_, dim) = bystander.ping().unwrap();
    let query = vec![1.0 / dim as f32; dim as usize];
    let want = bystander.knn(&query, 3, 0, 1.0).unwrap();

    // Baseline after the server and bystander are fully set up.
    let baseline = fd_count();

    let mut rng = Rng(0xC0FF_EE42);
    let mut aborted = 0usize;
    for cycle in 0..500 {
        match rng.next() % 4 {
            // Mid-request abort: half a knn frame, then vanish.
            0 => {
                let mut raw = TcpStream::connect(addr).unwrap();
                let mut frame = Vec::new();
                let req = Request::Knn {
                    k: 3,
                    deadline_us: 0,
                    recall_target: 1.0,
                    descriptor: query.clone(),
                };
                write_frame(&mut frame, &encode_request(&req)).unwrap();
                let cut = 1 + (rng.next() as usize % (frame.len() - 1));
                raw.write_all(&frame[..cut]).unwrap();
                drop(raw); // RST or FIN mid-frame, peer's choice
                aborted += 1;
            }
            // Connect and immediately disconnect without a byte.
            1 => {
                drop(TcpStream::connect(addr).unwrap());
                aborted += 1;
            }
            // Clean connect → query → disconnect cycle.
            _ => {
                let mut c = Client::connect(addr).unwrap();
                let hits = c.knn(&query, 3, 0, 1.0).unwrap();
                assert_eq!(hits.len(), 3, "cycle {cycle}: wrong hit count");
            }
        }
        if cycle % 50 == 0 {
            let hits = bystander.knn(&query, 3, 0, 1.0).unwrap();
            assert_eq!(hits.len(), want.len(), "cycle {cycle}: bystander broken");
        }
    }
    assert!(
        aborted > 50,
        "seed produced too few aborts to mean anything"
    );

    // Give the reaper time to collect aborted half-open connections,
    // then the fd count must settle back to baseline (small slack for
    // connections the kernel is still tearing down).
    let deadline = Instant::now() + Duration::from_secs(10);
    let settled = loop {
        let n = fd_count();
        if n <= baseline + 2 {
            break n;
        }
        if Instant::now() > deadline {
            break n;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        settled <= baseline + 2,
        "fd leak: baseline {baseline}, settled at {settled} after churn"
    );

    // No stranded work: the queue is empty and the bystander still gets
    // bit-for-bit the answer it got before the churn.
    let stats = bystander.stats().unwrap();
    assert_eq!(stats.queue_depth, 0, "churn stranded queued work");
    let after = bystander.knn(&query, 3, 0, 1.0).unwrap();
    for (a, b) in want.iter().zip(&after) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
    }

    let snap = handle.shutdown();
    assert!(snap.executed > 0);
}
