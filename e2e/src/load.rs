//! The load generators: a closed loop (fixed connections, fixed
//! pipelining window) and an open loop (a fixed arrival schedule, sends
//! never wait for replies), both driven from this process.

use crate::stats::Sample;
use cbir_router::hit_order;
use cbir_server::protocol::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use cbir_server::{Client, HitsReply};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Neighbours asked for by every query of every workload.
pub const K: usize = 10;

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// What a lane remembers of the replies it saw: every reply is checked
/// for shape, one in `keep_every` is kept for the oracle comparison.
pub struct ReplyLog {
    keep_every: u32,
    /// `(op, [(id, distance bits)])` of the kept replies.
    pub kept: Vec<(u32, Vec<(u64, u32)>)>,
    /// Summed `HitsReply::coarse_candidates`.
    pub coarse_candidates: u64,
    /// Summed `HitsReply::rerank_evaluations`.
    pub rerank_evaluations: u64,
}

impl ReplyLog {
    pub fn new(keep_every: u32) -> ReplyLog {
        ReplyLog {
            keep_every: keep_every.max(1),
            kept: Vec::new(),
            coarse_candidates: 0,
            rerank_evaluations: 0,
        }
    }

    /// `true` when the reply is well-formed: `K` hits, none degraded,
    /// in the documented `(distance, id)` order.
    pub fn check(&mut self, op: u32, reply: &HitsReply) -> bool {
        self.coarse_candidates += reply.coarse_candidates;
        self.rerank_evaluations += reply.rerank_evaluations;
        if op.is_multiple_of(self.keep_every) {
            let hits = reply.hits.iter().map(|h| (h.id, h.distance.to_bits()));
            self.kept.push((op, hits.collect()));
        }
        reply.hits.len() == K
            && !reply.degraded
            && reply
                .hits
                .windows(2)
                .all(|w| hit_order(&w[0], &w[1]).is_lt())
    }
}

/// One closed-loop connection (or in-process worker).
pub trait Lane: Send {
    /// Issue `op` without waiting for its reply.
    fn send(&mut self, op: u32);
    /// Wait for the reply to `op` (replies come in send order); `false`
    /// when it was refused, failed or malformed.
    fn recv(&mut self, op: u32) -> bool;
    /// Ops that cannot be pipelined: the window is drained before and
    /// after them.
    fn is_barrier(&self, _op: u32) -> bool {
        false
    }
}

/// Run each lane through its op list with at most `window` ops in
/// flight, all lanes starting together at `t0`. Returns the lanes (they
/// own the reply logs) and one sample per op.
pub fn closed_loop<L: Lane>(
    lanes: Vec<L>,
    ops: &[Vec<u32>],
    window: usize,
    t0: Instant,
) -> (Vec<L>, Vec<Sample>) {
    assert_eq!(lanes.len(), ops.len(), "one op list per lane");
    let done: Vec<(L, Vec<Sample>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .zip(ops)
            .map(|(mut lane, ops)| {
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(ops.len());
                    let mut in_flight: VecDeque<(u32, u64)> = VecDeque::new();
                    let mut drain_to =
                        |lane: &mut L, in_flight: &mut VecDeque<(u32, u64)>, keep: usize| {
                            while in_flight.len() > keep {
                                let (op, sent_ns) = in_flight.pop_front().expect("non-empty");
                                let ok = lane.recv(op);
                                samples.push(Sample {
                                    op,
                                    intended_ns: sent_ns,
                                    sent_ns,
                                    done_ns: ns_since(t0),
                                    ok,
                                });
                            }
                        };
                    for &op in ops {
                        let barrier = lane.is_barrier(op);
                        let keep = if barrier { 0 } else { window - 1 };
                        drain_to(&mut lane, &mut in_flight, keep);
                        in_flight.push_back((op, ns_since(t0)));
                        lane.send(op);
                        if barrier {
                            drain_to(&mut lane, &mut in_flight, 0);
                        }
                    }
                    drain_to(&mut lane, &mut in_flight, 0);
                    (lane, samples)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("lane thread panicked"))
            .collect()
    });
    let (lanes, samples): (Vec<L>, Vec<Vec<Sample>>) = done.into_iter().unzip();
    (lanes, samples.concat())
}

/// The sending half of an open-loop lane.
pub type SendHalf<'a> = Box<dyn FnMut(u32) + Send + 'a>;
/// The receiving half: blocks for the reply to `op`, `false` when wrong.
pub type RecvHalf<'a> = Box<dyn FnMut(u32) -> bool + Send + 'a>;

/// Send op `i` at `schedule_ns[i]` on lane `i % lanes`, whatever has or
/// has not been answered, while one thread per lane collects replies.
/// The schedule starts when this function does.
pub fn open_loop(schedule_ns: &[u64], lanes: Vec<(SendHalf<'_>, RecvHalf<'_>)>) -> Vec<Sample> {
    let n_lanes = lanes.len();
    let (mut senders, receivers): (Vec<_>, Vec<_>) = lanes.into_iter().unzip();
    let t0 = Instant::now();
    let (sent_ns, answers) = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(lane, mut recv)| {
                scope.spawn(move || {
                    (lane..schedule_ns.len())
                        .step_by(n_lanes)
                        .map(|op| {
                            let ok = recv(op as u32);
                            (op, ns_since(t0), ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let sent_ns: Vec<u64> = schedule_ns
            .iter()
            .enumerate()
            .map(|(op, &due)| {
                // Sleep, never spin: the generator shares two cores with
                // the system it is loading.
                if let Some(wait) = Duration::from_nanos(due).checked_sub(t0.elapsed()) {
                    std::thread::sleep(wait);
                }
                let sent = ns_since(t0);
                senders[op % n_lanes](op as u32);
                sent
            })
            .collect();
        let answers: Vec<_> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("receiver thread panicked"))
            .collect();
        (sent_ns, answers)
    });
    let mut samples: Vec<Sample> = answers
        .into_iter()
        .map(|(op, done_ns, ok)| Sample {
            op: op as u32,
            intended_ns: schedule_ns[op],
            sent_ns: sent_ns[op],
            done_ns,
            ok,
        })
        .collect();
    samples.sort_by_key(|s| s.op);
    samples
}

/// A closed-loop connection through the shipped [`Client`], issuing
/// k-NN op `i` as `queries[i]`.
pub struct KnnLane<'a> {
    client: Client,
    queries: &'a [Vec<f32>],
    recall_target: f32,
    pub log: ReplyLog,
}

impl<'a> KnnLane<'a> {
    pub fn connect(
        addr: SocketAddr,
        queries: &'a [Vec<f32>],
        recall_target: f32,
        keep_every: u32,
    ) -> KnnLane<'a> {
        KnnLane {
            client: Client::connect(addr).expect("connect to the system under test"),
            queries,
            recall_target,
            log: ReplyLog::new(keep_every),
        }
    }
}

impl Lane for KnnLane<'_> {
    fn send(&mut self, op: u32) {
        let q = &self.queries[op as usize];
        let sent = self.client.send_knn(q, K, 0, self.recall_target).is_ok();
        // A failed send shows up as a failed recv.
        let _ = sent && self.client.flush().is_ok();
    }

    fn recv(&mut self, op: u32) -> bool {
        match self.client.recv_hits_detailed() {
            Ok(reply) => self.log.check(op, &reply),
            Err(_) => false,
        }
    }
}

/// The two halves of one open-loop k-NN connection, speaking raw
/// CBIRRPC1 frames because [`Client`] cannot be split across the sender
/// and the receiver thread.
pub fn knn_halves<'a>(
    addr: SocketAddr,
    queries: &'a [Vec<f32>],
    recall_target: f32,
    log: &'a mut ReplyLog,
) -> (SendHalf<'a>, RecvHalf<'a>) {
    let stream = TcpStream::connect(addr).expect("connect to the system under test");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone socket"));
    let mut reader = BufReader::new(stream);
    let send = move |op: u32| {
        let frame = encode_request(&Request::Knn {
            k: K as u32,
            deadline_us: 0,
            recall_target,
            descriptor: queries[op as usize].clone(),
        });
        // A failed write shows up as a failed read.
        let _ = write_frame(&mut writer, &frame).and_then(|()| writer.flush());
    };
    let recv = move |op: u32| {
        let Ok(Some(payload)) = read_frame(&mut reader) else {
            return false;
        };
        match decode_response(&payload) {
            Ok(Response::Hits {
                hits,
                coarse_candidates,
                rerank_evaluations,
            }) => log.check(
                op,
                &HitsReply::full(hits, coarse_candidates, rerank_evaluations),
            ),
            _ => false,
        }
    };
    (Box::new(send), Box::new(recv))
}
