//! The router speaks the same `CBIRRPC1` surface as a backend, so it
//! gets the same adversarial sweep: truncated headers, wrong magic,
//! oversized length prefixes, garbage op codes, mid-frame disconnects,
//! and byte noise. The router must never panic, must reclaim every
//! poisoned connection, and
//! must keep routing well-formed traffic — including to backends that
//! never see the malformed bytes at all, because a frame that fails to
//! decode is rejected before any scatter happens.

use cbir_core::{split_database, ImageDatabase, ImageMeta, ShardPlan, ShardScheme};
use cbir_core::{IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::Pipeline;
use cbir_router::{Router, RouterConfig};
use cbir_server::{Client, SchedulerConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const MAGIC: &[u8; 8] = b"CBIRRPC1";

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

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// One adversarial byte string (same attack classes as the backend
/// sweep in `cbir-server`'s `fuzz_frames` test).
fn attack_bytes(rng: &mut Rng) -> (Vec<u8>, bool) {
    let frame = |payload: &[u8], declared: u32| {
        let mut b = Vec::with_capacity(12 + payload.len());
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&declared.to_le_bytes());
        b.extend_from_slice(payload);
        b
    };
    match rng.next() % 6 {
        0 => {
            let n = (rng.next() % 12) as usize;
            (rng.bytes(n), true)
        }
        1 => {
            let mut b = rng.bytes(8);
            b.extend_from_slice(&8u32.to_le_bytes());
            b.extend_from_slice(&rng.bytes(8));
            (b, false)
        }
        2 => {
            let declared = (16u32 << 20) + 1 + (rng.next() as u32 % 1000);
            (frame(&rng.bytes(16), declared), false)
        }
        3 => {
            let n = 1 + (rng.next() % 64) as usize;
            let mut payload = rng.bytes(n);
            payload[0] = 100 + (rng.next() % 156) as u8;
            let declared = payload.len() as u32;
            (frame(&payload, declared), false)
        }
        4 => {
            let declared = 64 + (rng.next() % 512) as u32;
            let sent = (rng.next() % 32) as usize;
            (frame(&rng.bytes(sent), declared), true)
        }
        _ => {
            let n = 1 + (rng.next() % 200) as usize;
            (rng.bytes(n), true)
        }
    }
}

fn deliver(addr: SocketAddr, bytes: &[u8], disconnect: bool) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    if stream.write_all(bytes).is_err() {
        return;
    }
    if disconnect {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => panic!("router wedged a poisoned connection: {e}"),
        }
    }
}

fn union_db(n: usize) -> ImageDatabase {
    let pipeline = Pipeline::color_histogram_default();
    let dim = pipeline.dim();
    let rows = cbir_workload::histograms(n, dim, 1.0, 0xBAD);
    let mut descriptors = Vec::with_capacity(n * dim);
    let mut metas = Vec::with_capacity(n);
    for (g, v) in rows.iter().enumerate() {
        descriptors.extend_from_slice(v);
        metas.push(ImageMeta {
            name: format!("img-{g}"),
            label: None,
        });
    }
    ImageDatabase::from_parts(pipeline, false, descriptors, metas).unwrap()
}

#[test]
fn malformed_frame_sweep_never_kills_the_router() {
    let union = union_db(40);
    let plan = ShardPlan::new(ShardScheme::Mod, union.dim(), union.len() as u64, 2).unwrap();
    let backends: Vec<ServerHandle> = split_database(&union, &plan)
        .unwrap()
        .into_iter()
        .map(|db| {
            let engine = QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap();
            let engine = Arc::new(engine);
            Server::spawn_shared(engine, "127.0.0.1:0", SchedulerConfig::default()).unwrap()
        })
        .collect();
    let addrs: Vec<Vec<String>> = backends
        .iter()
        .map(|b| vec![b.local_addr().to_string()])
        .collect();
    let router = Router::spawn(plan, addrs, "127.0.0.1:0", RouterConfig::default()).unwrap();
    let addr = router.local_addr();

    let mut bystander = Client::connect(addr).unwrap();
    let (_, dim) = bystander.ping().unwrap();
    let query = vec![1.0 / dim as f32; dim as usize];

    let mut rng = Rng(0xF12A_4001);
    for i in 0..60 {
        let (bytes, disconnect) = attack_bytes(&mut rng);
        deliver(addr, &bytes, disconnect);
        if i % 8 == 0 {
            assert_eq!(bystander.knn(&query, 3, 0, 1.0).unwrap().len(), 3);
        }
    }

    // A half-open attacker mid-frame while fresh clients route queries.
    let mut lingerer = TcpStream::connect(addr).unwrap();
    lingerer.write_all(&MAGIC[..6]).unwrap();
    for _ in 0..4 {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.knn(&query, 5, 0, 1.0).unwrap().len(), 5);
    }
    drop(lingerer);

    // The sweep never reached the data tier as work: backends are
    // healthy and the router still fans out fine on fresh connections.
    for b in &backends {
        let mut c = Client::connect(b.local_addr()).unwrap();
        assert!(c.ping().is_ok());
    }
    let fresh: Vec<_> = (0..8)
        .map(|_| {
            let mut c = Client::connect(addr).unwrap();
            c.knn(&query, 2, 0, 1.0).unwrap()
        })
        .collect();
    assert!(fresh.iter().all(|h| h.len() == 2));

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
