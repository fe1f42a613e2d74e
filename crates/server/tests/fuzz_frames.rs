//! Malformed-frame fuzz sweep over the `CBIRRPC1` wire surface.
//!
//! A seeded generator throws truncated headers, wrong magic, oversized
//! length prefixes, garbage op codes, mid-frame disconnects, and raw
//! byte noise at a live server. The contract under attack input is
//! narrow but absolute: the server never panics, never wedges a
//! connection slot (a poisoned connection is answered-or-closed and
//! fully reclaimed), and keeps serving well-formed traffic on other
//! connections throughout.

use cbir_core::{ImageDatabase, ImageMeta, IndexKind, QueryEngine};
use cbir_distance::Measure;
use cbir_features::{FeatureSpec, Pipeline, Quantizer};
use cbir_server::{Client, SchedulerConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const MAGIC: &[u8; 8] = b"CBIRRPC1";

fn build_engine(n: usize) -> QueryEngine {
    let pipeline = Pipeline::new(
        16,
        vec![FeatureSpec::ColorHistogram(Quantizer::Gray { bins: 16 })],
    )
    .unwrap();
    let mut db = ImageDatabase::new(pipeline);
    for (i, v) in cbir_workload::histograms(n, 16, 1.0, 7)
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
    QueryEngine::build(db, IndexKind::Linear, Measure::L1).unwrap()
}

fn spawn_server(n: usize) -> ServerHandle {
    let engine = Arc::new(build_engine(n));
    Server::spawn_shared(engine, "127.0.0.1:0", SchedulerConfig::default()).unwrap()
}

/// xorshift64* — tiny, seeded, good enough to sweep attack shapes
/// reproducibly.
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

/// One adversarial payload: the bytes to send and whether to slam the
/// write half shut afterwards (a mid-frame disconnect).
struct Attack {
    bytes: Vec<u8>,
    disconnect: bool,
    what: &'static str,
}

fn attack(rng: &mut Rng) -> Attack {
    let frame = |payload: &[u8], declared: u32| {
        let mut b = Vec::with_capacity(12 + payload.len());
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&declared.to_le_bytes());
        b.extend_from_slice(payload);
        b
    };
    match rng.next() % 6 {
        // Truncated header: anything shorter than magic + length.
        0 => {
            let n = (rng.next() % 12) as usize;
            Attack {
                bytes: rng.bytes(n),
                disconnect: true,
                what: "truncated header",
            }
        }
        // Wrong magic with a plausible tail.
        1 => {
            let mut b = rng.bytes(8);
            b.extend_from_slice(&8u32.to_le_bytes());
            b.extend_from_slice(&rng.bytes(8));
            Attack {
                bytes: b,
                disconnect: false,
                what: "bad magic",
            }
        }
        // Oversized length prefix (past MAX_FRAME_LEN).
        2 => {
            let declared = (16u32 << 20) + 1 + (rng.next() as u32 % 1000);
            Attack {
                bytes: frame(&rng.bytes(16), declared),
                disconnect: false,
                what: "oversized length prefix",
            }
        }
        // Garbage op code / garbage payload in a well-formed frame.
        3 => {
            let n = 1 + (rng.next() % 64) as usize;
            let mut payload = rng.bytes(n);
            payload[0] = 100 + (rng.next() % 156) as u8; // far past every valid op
            let declared = payload.len() as u32;
            Attack {
                bytes: frame(&payload, declared),
                disconnect: false,
                what: "garbage op code",
            }
        }
        // Mid-frame disconnect: declare more than is sent, then close.
        4 => {
            let declared = 64 + (rng.next() % 512) as u32;
            let sent = (rng.next() % 32) as usize;
            Attack {
                bytes: frame(&rng.bytes(sent), declared),
                disconnect: true,
                what: "mid-frame disconnect",
            }
        }
        // Unstructured byte noise.
        _ => {
            let n = 1 + (rng.next() % 200) as usize;
            Attack {
                bytes: rng.bytes(n),
                disconnect: true,
                what: "byte noise",
            }
        }
    }
}

/// Deliver one attack and wait for the server's verdict: it may answer
/// (an error frame) or just close, but the read must terminate — a
/// server that hangs the connection has leaked the slot.
fn deliver(addr: SocketAddr, a: &Attack) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // The server may already have closed on us mid-write; that's a pass.
    if stream.write_all(&a.bytes).is_err() {
        return;
    }
    if a.disconnect {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => return,   // server closed: slot reclaimed
            Ok(_) => continue, // error reply bytes; drain until close
            Err(e) => panic!("{}: server wedged the connection: {e}", a.what),
        }
    }
}

/// One loop thread owns every poisoned socket, so a single wedged or
/// leaked connection state would show up as the bystander stalling or
/// fresh connections failing.
#[test]
fn malformed_frame_sweep_never_kills_the_server() {
    let handle = spawn_server(32);
    let addr = handle.local_addr();
    // A long-lived well-formed connection, open across the whole sweep:
    // poisoned siblings must not disturb it.
    let mut bystander = Client::connect(addr).unwrap();
    let (_, dim) = bystander.ping().unwrap();
    let query = vec![1.0 / dim as f32; dim as usize];

    let mut rng = Rng(0xF12A_3EED);
    for i in 0..72 {
        deliver(addr, &attack(&mut rng));
        if i % 8 == 0 {
            // The bystander connection keeps working mid-sweep.
            let hits = bystander.knn(&query, 3, 0, 1.0).unwrap();
            assert_eq!(hits.len(), 3);
        }
    }

    // A half-open attacker that never finishes its frame while healthy
    // clients come and go.
    let mut lingerer = TcpStream::connect(addr).unwrap();
    lingerer.write_all(&MAGIC[..6]).unwrap();
    for _ in 0..4 {
        let mut c = Client::connect(addr).unwrap();
        assert_eq!(c.knn(&query, 5, 0, 1.0).unwrap().len(), 5);
    }
    drop(lingerer);

    // No admitted-but-lost work left behind by the sweep, and the
    // server still answers a burst of fresh connections (no slot leak).
    let stats = bystander.stats().unwrap();
    assert_eq!(stats.queue_depth, 0, "sweep must not strand queued work");
    let fresh: Vec<_> = (0..8)
        .map(|_| {
            let mut c = Client::connect(addr).unwrap();
            c.knn(&query, 2, 0, 1.0).unwrap()
        })
        .collect();
    assert!(fresh.iter().all(|h| h.len() == 2));
    handle.shutdown();
}

/// Seeded valid frames, replayed through the incremental decoder at
/// every split boundary (and fully coalesced): the reassembled frames
/// must be byte-identical to what the blocking `read_frame` reader
/// produces from the same stream.
#[test]
fn frame_decoder_split_sweep_matches_blocking_reader() {
    use cbir_server::protocol::{read_frame, write_frame};
    use cbir_server::FrameDecoder;

    let mut rng = Rng(0xDEC0_DE01);
    for trial in 0..12 {
        // A coalesced pair of random frames (empty payloads included).
        let n1 = (rng.next() % 96) as usize;
        let p1 = rng.bytes(n1);
        let n2 = (rng.next() % 96) as usize;
        let p2 = rng.bytes(n2);
        let mut stream = Vec::new();
        write_frame(&mut stream, &p1).unwrap();
        write_frame(&mut stream, &p2).unwrap();

        let mut oracle = std::io::Cursor::new(stream.clone());
        let o1 = read_frame(&mut oracle).unwrap().unwrap();
        let o2 = read_frame(&mut oracle).unwrap().unwrap();

        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            for chunk in [&stream[..split], &stream[split..]] {
                let mut at = 0;
                while at < chunk.len() {
                    let (used, frame) = dec.feed(&chunk[at..]).unwrap();
                    at += used;
                    if let Some(f) = frame {
                        frames.push(f);
                    }
                }
            }
            assert!(dec.at_boundary(), "trial {trial} split {split}: mid-frame");
            assert_eq!(frames.len(), 2, "trial {trial} split {split}");
            assert_eq!(frames[0], o1, "trial {trial} split {split}: frame 0");
            assert_eq!(frames[1], o2, "trial {trial} split {split}: frame 1");
        }
    }
}
